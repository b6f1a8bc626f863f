"""Differential tests: the machine vs the reference stepper.

Random short programs (every mnemonic reachable, loops bounded) run on
the machine and on the test-only if/elif stepper in
``tests/isa/reference_machine.py``; architectural state, retirement
counts, errors and the full functional-unit profile must be
bit-identical.  Some loops run past the machine's tier-up point, so
their blocks are checked as generated code too.  Hooked runs, which
step the decoded closures, must also hand every hook the stepper's
view of each retirement.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import MachineError
from repro.isa.assembler import assemble
from repro.isa.instructions import FUNCTIONAL_UNITS, instruction_set
from repro.isa.machine import Machine, _TIER_UP
from repro.isa.profiler import profile_from_counts, profile_program
from tests.isa.reference_machine import (
    AtomProfiler,
    ReferenceMachine,
    reference_profile,
)

# Register conventions for generated programs: r1 is the memory base,
# r14 the loop counter, r15 the link register; bodies write r2..r13.
_BASE, _COUNTER, _LINK = 1, 14, 15
_WRITABLE = list(range(2, 14))
_READABLE = list(range(0, 14))

_RRR_OPS = (
    "ADD", "SUB", "MUL", "MULHU", "AND", "OR", "XOR",
    "SLL", "SRL", "SRA", "SLT", "SLTU",
)
_RRI_OPS = ("ADDI", "ANDI", "ORI", "XORI", "SLTI")
_SHIFT_I_OPS = ("SLLI", "SRLI", "SRAI")
_BRANCH_OPS = ("BEQ", "BNE", "BLT", "BGE", "BLTU", "BGEU")

registers_w = st.sampled_from(_WRITABLE)
registers_r = st.sampled_from(_READABLE)
immediates = st.integers(-32768, 65535)
shifts = st.integers(0, 63)
words = st.integers(0, 0xFFFFFFFF)


@st.composite
def alu_lines(draw):
    """One straight-line ALU instruction."""
    kind = draw(st.sampled_from(("rrr", "rri", "shift", "lui", "nop")))
    if kind == "rrr":
        op = draw(st.sampled_from(_RRR_OPS))
        rd, rs1, rs2 = draw(registers_w), draw(registers_r), draw(registers_r)
        return f"{op} r{rd}, r{rs1}, r{rs2}"
    if kind == "rri":
        op = draw(st.sampled_from(_RRI_OPS))
        rd, rs1, imm = draw(registers_w), draw(registers_r), draw(immediates)
        return f"{op} r{rd}, r{rs1}, {imm}"
    if kind == "shift":
        op = draw(st.sampled_from(_SHIFT_I_OPS))
        rd, rs1, imm = draw(registers_w), draw(registers_r), draw(shifts)
        return f"{op} r{rd}, r{rs1}, {imm}"
    if kind == "lui":
        rd, imm = draw(registers_w), draw(st.integers(0, 0xFFFF))
        return f"LUI r{rd}, {imm}"
    return "NOP"


@st.composite
def segments(draw, index):
    """One program segment; loops and calls are bounded by design."""
    kind = draw(
        st.sampled_from(("alu", "mem", "branch", "loop", "call"))
    )
    lines = []
    subroutine = []
    if kind == "alu":
        for _ in range(draw(st.integers(1, 4))):
            lines.append(draw(alu_lines()))
    elif kind == "mem":
        offset = draw(st.integers(0, 63))
        src = draw(registers_r)
        dst = draw(registers_w)
        lines.append(f"SW r{src}, {offset}(r{_BASE})")
        lines.append(f"LW r{dst}, {offset}(r{_BASE})")
    elif kind == "branch":
        op = draw(st.sampled_from(_BRANCH_OPS))
        rs1, rs2 = draw(registers_r), draw(registers_r)
        skipped = [draw(alu_lines()) for _ in range(draw(st.integers(1, 3)))]
        lines.append(f"{op} r{rs1}, r{rs2}, skip_{index}")
        lines.extend(skipped)
        lines.append(f"skip_{index}:")
    elif kind == "loop":
        count = draw(
            st.one_of(
                st.integers(1, 5), st.integers(_TIER_UP + 1, _TIER_UP + 40)
            )
        )
        body = [draw(alu_lines()) for _ in range(draw(st.integers(1, 3)))]
        lines.append(f"ADDI r{_COUNTER}, r0, {count}")
        lines.append(f"loop_{index}:")
        lines.extend(body)
        if draw(st.booleans()):
            # A data-dependent skip: the loop's blocks then end in
            # branches that do not target their own entry.
            op = draw(st.sampled_from(_BRANCH_OPS))
            rs1, rs2 = draw(registers_r), draw(registers_r)
            lines.append(f"{op} r{rs1}, r{rs2}, inner_{index}")
            lines.append(draw(alu_lines()))
            lines.append(f"inner_{index}:")
        lines.append(f"ADDI r{_COUNTER}, r{_COUNTER}, -1")
        lines.append(f"BNE r{_COUNTER}, r0, loop_{index}")
    else:  # call — a leaf subroutine placed after HALT
        body = [draw(alu_lines()) for _ in range(draw(st.integers(1, 2)))]
        lines.append(f"JAL r{_LINK}, sub_{index}")
        subroutine.append(f"sub_{index}:")
        subroutine.extend(body)
        subroutine.append(f"JALR r0, r{_LINK}, 0")
    return lines, subroutine


@st.composite
def programs(draw):
    """A random short program covering the whole instruction set."""
    seeds = draw(st.lists(words, min_size=4, max_size=8))
    lines = [f"LUI r{_BASE}, 0", f"ORI r{_BASE}, r{_BASE}, 1024"]
    for i, value in enumerate(seeds):
        reg = _WRITABLE[i % len(_WRITABLE)]
        lines.append(f"LUI r{reg}, {(value >> 16) & 0xFFFF}")
        lines.append(f"ORI r{reg}, r{reg}, {value & 0xFFFF}")
    subroutines = []
    for index in range(draw(st.integers(1, 6))):
        body, sub = draw(segments(index))
        lines.extend(body)
        subroutines.extend(sub)
    lines.append("HALT")
    lines.extend(subroutines)
    return "\n".join(lines)


def _run_both(source):
    """Execute on the stepper and the machine; return the two machines."""
    reference = ReferenceMachine(assemble(source, name="diff"))
    reference.run()
    fast = Machine(assemble(source, name="diff"))
    fast.run()
    return reference, fast


def _assert_same_state(reference, fast):
    assert fast.registers == reference.registers
    assert fast.memory == reference.memory
    assert fast.instructions_retired == reference.instructions_retired
    assert fast.pc == reference.pc
    assert fast.halted == reference.halted


def _state(machine):
    return (
        list(machine.registers), dict(machine.memory), machine.pc,
        machine.halted, machine.instructions_retired,
    )


def _hooked_run(machine, entry_point, budget):
    """Run ``machine`` with a hook recording what it sees at each
    retirement; return (error, hook stream, final state, result)."""
    stream = []
    machine.add_hook(lambda pc, instr: stream.append((
        pc, instr.mnemonic, machine.pc, machine.instructions_retired,
        list(machine.registers), len(machine.memory),
    )))
    try:
        result = getattr(machine, entry_point)(max_instructions=budget)
        error = None
    except MachineError as exc:
        result, error = None, str(exc)
    return error, stream, _state(machine), result


def _assert_same_profile(source):
    program = assemble(source, name="diff")
    ref = reference_profile(assemble(source, name="diff"))
    fast = profile_program(program)
    assert fast.total_instructions == ref.total_instructions
    for unit in FUNCTIONAL_UNITS:
        assert fast.stats(unit).uses == ref.stats(unit).uses, unit
        assert fast.stats(unit).runs == ref.stats(unit).runs, unit
        assert fast.fga(unit) == ref.fga(unit), unit
        assert fast.bga(unit) == ref.bga(unit), unit


class TestDifferentialExecution:
    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_random_programs_same_state(self, source):
        reference, fast = _run_both(source)
        _assert_same_state(reference, fast)

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_same_profile(self, source):
        _assert_same_profile(source)

    @given(programs(), st.integers(0, 3 * _TIER_UP), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_programs_same_stops(self, source, budget, words):
        # A budget or a memory footprint that may stop the program,
        # possibly inside translated code: every engine raises the same
        # error (or none) and leaves the same state.
        for machine_kwargs, run_kwargs in (
            ({}, {"max_instructions": budget}),
            ({"memory_limit_words": words}, {}),
        ):
            outcomes = []
            for machine_class, entry_point in (
                (ReferenceMachine, "run"),
                (Machine, "run"),
                (Machine, "run_counted"),
            ):
                program = assemble(source, name="diff")
                machine = machine_class(program, **machine_kwargs)
                try:
                    getattr(machine, entry_point)(**run_kwargs)
                    error = None
                except MachineError as exc:
                    error = str(exc)
                outcomes.append((error, _state(machine)))
            assert outcomes[1] == outcomes[0]
            assert outcomes[2] == outcomes[0]

    @given(programs(), st.integers(0, 3000), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_random_programs_hooked_runs(self, source, budget, words):
        # Hooked run and run_counted step the decoded closures: under a
        # random budget and memory limit they raise the stepper's error
        # (or none), leave its state and call every hook with its view
        # of each retirement; a counted run that halts folds to the
        # stepper's AtomProfiler profile.
        reference = ReferenceMachine(
            assemble(source, name="diff"), memory_limit_words=words
        )
        profiler = AtomProfiler()
        reference.add_hook(profiler)
        expected = _hooked_run(reference, "run", budget)
        for entry_point in ("run", "run_counted"):
            machine = Machine(
                assemble(source, name="diff"), memory_limit_words=words
            )
            outcome = _hooked_run(machine, entry_point, budget)
            assert outcome[:3] == expected[:3], entry_point
        assert len(expected[1]) == reference.instructions_retired
        counts = outcome[3]
        if counts is not None:
            assert (
                profile_from_counts("diff", counts).units
                == profiler.profile("diff").units
            )

    def test_every_mnemonic_covered_differentially(self):
        # One deterministic program touching all 34 mnemonics, so the
        # decoded compiler can never silently miss an opcode, with the
        # ordered compares also run on equal operands.  The outer loop
        # runs past the tier-up point, and no jump or branch in it
        # starts its block, so every mnemonic but HALT also runs as
        # generated code.
        source = f"""
        LUI r1, 0
        ORI r1, r1, 1024
        LUI r2, 43981
        ORI r2, r2, 17185
        ADDI r20, r0, {_TIER_UP + 2}
        outer: LUI r21, 4660
        ADDI r3, r2, -5
        ADD r4, r2, r3
        SUB r5, r4, r2
        MUL r6, r2, r3
        MULHU r7, r2, r3
        AND r8, r2, r3
        ANDI r9, r2, -256
        OR r10, r2, r3
        ORI r11, r2, -16
        XOR r12, r2, r3
        XORI r13, r2, 65535
        SLL r4, r2, r3
        SLLI r5, r2, 7
        SRL r6, r2, r3
        SRLI r7, r2, 3
        SRA r8, r2, r3
        SRAI r9, r2, 5
        SLT r10, r3, r2
        SLTI r11, r3, 100
        SLTU r12, r3, r2
        SW r2, 4(r1)
        LW r13, 4(r1)
        NOP
        BEQ r2, r2, t1
        NOP
        t1: ADDI r22, r22, 1
        BNE r2, r3, t2
        NOP
        t2: ADDI r22, r22, 1
        BLT r3, r2, t3
        NOP
        t3: ADDI r22, r22, 1
        BGE r2, r3, t4
        NOP
        t4: ADDI r22, r22, 1
        BLTU r3, r2, t5
        NOP
        t5: ADDI r22, r22, 1
        BGEU r2, r3, t6
        NOP
        t6: SLT r10, r3, r3
        SLTU r11, r3, r3
        SLTI r12, r0, 0
        BLT r2, r2, t7
        ADDI r22, r10, 1
        BLTU r2, r2, t7
        ADDI r22, r11, 2
        BNE r3, r3, t7
        ADDI r22, r12, 3
        BGE r3, r3, t7
        NOP
        t7: ADDI r22, r22, 1
        BGEU r3, r3, t8
        NOP
        t8: ADDI r22, r22, 1
        JAL r15, sub
        ADDI r14, r0, 2
        again: ADDI r14, r14, -1
        BNE r14, r0, again
        ADDI r20, r20, -1
        BNE r20, r0, outer
        HALT
        sub: ADDI r12, r12, 1
        JALR r0, r15, 0
        """
        mnemonics = {
            line.split(":")[-1].split()[0]
            for line in source.splitlines()
            if line.strip()
        }
        assert mnemonics >= set(instruction_set())
        with obs.enabled_scope(fresh=True):
            reference, fast = _run_both(source)
            assert obs.counter_value("machine.translations") > 0
        _assert_same_state(reference, fast)
        _assert_same_profile(source)

    @given(st.integers(-32768, 65535), words)
    @settings(max_examples=40, deadline=None)
    def test_ori_immediate_masking_matches(self, imm, value):
        # Satellite regression: ORI must mask its immediate to the full
        # 32-bit word in both paths (negative immediates included).
        source = f"""
        LUI r2, {(value >> 16) & 0xFFFF}
        ORI r2, r2, {value & 0xFFFF}
        ORI r3, r2, {imm}
        HALT
        """
        reference, fast = _run_both(source)
        _assert_same_state(reference, fast)
        assert reference.read_register(3) == value | (imm & 0xFFFFFFFF)
