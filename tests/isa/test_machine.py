"""Unit tests for the ISA interpreter.

Every "matches reference" test compares the machine against the
test-only if/elif stepper in ``tests/isa/reference_machine.py``.
"""

import pytest

from repro import obs
from repro.errors import MachineError
from repro.isa.assembler import assemble
from repro.isa.machine import Machine, _TIER_UP
from repro.isa.profiler import profile_from_counts
from repro.isa.translate import LOOP_PASSES, block_ends
from tests.isa.reference_machine import AtomProfiler, ReferenceMachine


def run(source, max_instructions=100_000):
    machine = Machine(assemble(source))
    machine.run(max_instructions=max_instructions)
    return machine


class TestArithmetic:
    def test_add_sub(self):
        m = run("LI r1, 40\nLI r2, 2\nADD r3, r1, r2\nSUB r4, r1, r2\nHALT")
        assert m.read_register(3) == 42
        assert m.read_register(4) == 38

    def test_wraparound_32bit(self):
        m = run("LI r1, -1\nADDI r2, r1, 1\nHALT")
        assert m.read_register(1) == 0xFFFFFFFF
        assert m.read_register(2) == 0

    def test_r0_is_hardwired_zero(self):
        m = run("ADDI r0, r0, 5\nMOV r1, r0\nHALT")
        assert m.read_register(0) == 0
        assert m.read_register(1) == 0

    def test_slt_signed_vs_unsigned(self):
        m = run(
            """
            LI r1, -1
            LI r2, 1
            SLT r3, r1, r2      # -1 < 1 signed -> 1
            SLTU r4, r1, r2     # 0xFFFFFFFF < 1 unsigned -> 0
            HALT
            """
        )
        assert m.read_register(3) == 1
        assert m.read_register(4) == 0

    def test_mul_and_mulhu(self):
        m = run(
            """
            LI r1, 0x10000
            LI r2, 0x10000
            MUL r3, r1, r2      # low 32 bits of 2^32 = 0
            MULHU r4, r1, r2    # high 32 bits = 1
            HALT
            """
        )
        assert m.read_register(3) == 0
        assert m.read_register(4) == 1


class TestShifts:
    def test_logical_shifts(self):
        m = run("LI r1, 0x80\nSLLI r2, r1, 4\nSRLI r3, r1, 3\nHALT")
        assert m.read_register(2) == 0x800
        assert m.read_register(3) == 0x10

    def test_arithmetic_shift_sign_extends(self):
        m = run("LI r1, -8\nSRAI r2, r1, 1\nSRLI r3, r1, 1\nHALT")
        assert m.read_register(2) == 0xFFFFFFFC  # -4
        assert m.read_register(3) == 0x7FFFFFFC

    def test_register_shift_amount_masked(self):
        m = run("LI r1, 1\nLI r2, 33\nSLL r3, r1, r2\nHALT")
        assert m.read_register(3) == 2  # 33 & 31 == 1


class TestLogic:
    def test_bitwise_ops(self):
        m = run(
            """
            LI r1, 0xF0F0
            LI r2, 0x0FF0
            AND r3, r1, r2
            OR  r4, r1, r2
            XOR r5, r1, r2
            HALT
            """
        )
        assert m.read_register(3) == 0x00F0
        assert m.read_register(4) == 0xFFF0
        assert m.read_register(5) == 0xFF00

    def test_lui_ori_builds_32bit(self):
        m = run("LUI r1, 0xDEAD\nORI r1, r1, 0xBEEF\nHALT")
        assert m.read_register(1) == 0xDEADBEEF

    def test_xori_negative_is_full_not(self):
        m = run("LI r1, 0\nNOT r2, r1\nHALT")
        assert m.read_register(2) == 0xFFFFFFFF


class TestMemory:
    def test_load_store(self):
        m = run(
            """
            .data
            cell: .word 99
            .text
            LA r1, cell
            LW r2, 0(r1)
            ADDI r2, r2, 1
            SW r2, 0(r1)
            LW r3, 0(r1)
            HALT
            """
        )
        assert m.read_register(3) == 100

    def test_uninitialized_memory_reads_zero(self):
        m = run("LI r1, 5000\nLW r2, 0(r1)\nHALT")
        assert m.read_register(2) == 0

    def test_memory_footprint_guard(self):
        program = assemble(
            """
            LI r1, 0
            loop: SW r1, 0(r1)
            ADDI r1, r1, 1
            J loop
            """
        )
        machine = Machine(program, memory_limit_words=100)
        with pytest.raises(MachineError, match="footprint"):
            machine.run()


class TestControlFlow:
    def test_loop_terminates(self):
        m = run(
            """
            LI r1, 10
            LI r2, 0
            loop: ADD r2, r2, r1
            ADDI r1, r1, -1
            BNE r1, zero, loop
            HALT
            """
        )
        assert m.read_register(2) == 55

    def test_signed_branches(self):
        m = run(
            """
            LI r1, -5
            LI r2, 3
            LI r3, 0
            BLT r1, r2, taken
            LI r3, 99
            taken: HALT
            """
        )
        assert m.read_register(3) == 0

    def test_unsigned_branches(self):
        m = run(
            """
            LI r1, -1      # 0xFFFFFFFF
            LI r2, 1
            LI r3, 0
            BLTU r1, r2, taken   # not taken: 0xFFFFFFFF > 1 unsigned
            LI r3, 42
            taken: HALT
            """
        )
        assert m.read_register(3) == 42

    def test_call_and_return(self):
        m = run(
            """
            main: LI r1, 5
                  CALL double
                  MOV r3, r2
                  HALT
            double: ADD r2, r1, r1
                  RET
            """
        )
        assert m.read_register(3) == 10

    def test_jal_records_return_address(self):
        m = run("main: JAL r5, target\ntarget: HALT")
        assert m.read_register(5) == 1

    def test_pc_out_of_range_traps(self):
        program = assemble("NOP\nNOP")  # no HALT: runs off the end
        machine = Machine(program)
        with pytest.raises(MachineError, match="PC"):
            machine.run()

    def test_instruction_budget(self):
        program = assemble("loop: J loop")
        machine = Machine(program)
        with pytest.raises(MachineError, match="budget"):
            machine.run(max_instructions=1000)


class TestInstrumentation:
    def test_hook_sees_every_retired_instruction(self):
        program = assemble("LI r1, 3\nloop: ADDI r1, r1, -1\nBNE r1, zero, loop\nHALT")
        machine = Machine(program)
        seen = []
        machine.add_hook(lambda pc, instr: seen.append(instr.mnemonic))
        machine.run()
        assert seen.count("ADDI") == 1 + 3  # LI expansion + 3 loop decrements
        assert seen.count("BNE") == 3
        assert seen[-1] == "HALT"

    def test_instructions_retired_counter(self):
        machine = Machine(assemble("NOP\nNOP\nHALT"))
        retired = machine.run()
        assert retired == 3
        assert machine.instructions_retired == 3


LOOP_SOURCE = """
LI r1, 10
LI r2, 0
loop: ADD r2, r2, r1
ADDI r1, r1, -1
BNE r1, zero, loop
SW r2, 0(r1)
HALT
"""

#: Where budget stops go, in entries of a loop below, and the loops'
#: trip count.  The engine runs the tail of a budget, up to
#: ``LOOP_PASSES`` times its longest block, on closures; a stop at entry
#: ``STOP`` leaves well over ``_TIER_UP`` entries before that tail, so
#: the loop is translated by then.
STOP = 2 * _TIER_UP + LOOP_PASSES
HOT = STOP + _TIER_UP

#: ``loop`` is a hot block whose branch targets its own entry.
SELF_LOOP_SOURCE = f"""
LI r1, {HOT}
loop: ADDI r2, r2, 3
XORI r3, r2, 5
ADD r4, r4, r3
ADDI r1, r1, -1
BNE r1, zero, loop
HALT
"""

#: ``loop`` ends in a forward BEQ and ``even`` in a BNE back to
#: ``loop``: hot blocks that never branch to their own entry.
STRAIGHT_SOURCE = f"""
LI r1, {HOT}
loop: ADDI r2, r2, 1
ANDI r3, r2, 1
SLLI r5, r2, 2
BEQ r3, zero, even
ADDI r4, r4, 7
even: SUB r6, r5, r4
ADDI r1, r1, -1
BNE r1, zero, loop
HALT
"""

#: Each address repeats often enough that the store loop is translated
#: long before it touches its hundredth word.
_REPEAT_SHIFT = (2 * _TIER_UP // 100).bit_length()


def _state(machine):
    return (
        machine.pc,
        machine.halted,
        machine.instructions_retired,
        list(machine.registers),
        dict(machine.memory),
    )


def _hook_stream(machine):
    """Attach a hook recording what it sees at each retirement."""
    stream = []
    machine.add_hook(lambda pc, instr: stream.append((
        pc, instr.mnemonic, machine.pc, machine.instructions_retired,
        list(machine.registers), len(machine.memory),
    )))
    return stream


def _translated(run):
    """Call ``run()`` with metrics on; return the blocks it translated."""
    with obs.enabled_scope(fresh=True):
        run()
        return obs.counter_value("machine.translations")


def _same_error_and_state(source, budget=50_000_000, **machine_kwargs):
    """Run ``source`` into its error on the reference stepper and on both
    machine entry points; return the blocks the machine runs translated."""
    reference = ReferenceMachine(assemble(source), **machine_kwargs)
    with pytest.raises(MachineError) as ref_err:
        reference.run(max_instructions=budget)
    with obs.enabled_scope(fresh=True):
        for entry_point in ("run", "run_counted"):
            fast = Machine(assemble(source), **machine_kwargs)
            with pytest.raises(MachineError) as fast_err:
                getattr(fast, entry_point)(max_instructions=budget)
            assert str(fast_err.value) == str(ref_err.value), entry_point
            assert _state(fast) == _state(reference), entry_point
        return obs.counter_value("machine.translations")


def _entry_retirements(source, label):
    """Instructions retired before each execution of ``label``, and the
    length of the block entered there."""
    program = assemble(source)
    machine = ReferenceMachine(program)
    entry = program.labels[label]
    retired = []
    machine.add_hook(
        lambda pc, instr: pc == entry
        and retired.append(machine.instructions_retired - 1)
    )
    machine.run()
    return retired, block_ends(program.instructions)[entry] - entry + 1


class TestDecodedEngine:
    def test_same_architectural_state_as_reference(self):
        reference = ReferenceMachine(assemble(LOOP_SOURCE))
        reference.run()
        fast = Machine(assemble(LOOP_SOURCE))
        retired = fast.run()
        assert retired == reference.instructions_retired
        assert _state(fast) == _state(reference)

    def test_decode_is_idempotent(self):
        machine = Machine(assemble(LOOP_SOURCE))
        machine.decode()
        decoded = machine._decoded
        machine.decode()
        assert machine._decoded is decoded

    def test_budget_error_matches_reference(self):
        reference = ReferenceMachine(assemble("loop: J loop"))
        with pytest.raises(MachineError) as ref_err:
            reference.run(max_instructions=1000)
        fast = Machine(assemble("loop: J loop"))
        with pytest.raises(MachineError) as fast_err:
            fast.run(max_instructions=1000)
        assert str(fast_err.value) == str(ref_err.value)
        assert _state(fast) == _state(reference)
        # A budget ending at every offset of a translated block, both a
        # self-looping one and straight ones.
        for source, label in (
            (SELF_LOOP_SOURCE, "loop"),
            (STRAIGHT_SOURCE, "loop"),
            (STRAIGHT_SOURCE, "even"),
        ):
            starts, length = _entry_retirements(source, label)
            for offset in range(length + 1):
                budget = starts[STOP] + offset
                assert _same_error_and_state(source, budget) > 0

    def test_budget_error_beyond_one_chunk(self):
        # The decoded loop checks the budget per chunk, not per step;
        # exhaustion past a chunk boundary must still be exact.
        fast = Machine(assemble("loop: J loop"))
        with pytest.raises(MachineError, match="budget 70000"):
            fast.run(max_instructions=70_000)
        assert fast.instructions_retired == 70_000

    def test_pc_out_of_range_matches_reference(self):
        reference = ReferenceMachine(assemble("NOP\nNOP"))
        with pytest.raises(MachineError) as ref_err:
            reference.run()
        fast = Machine(assemble("NOP\nNOP"))
        with pytest.raises(MachineError) as fast_err:
            fast.run()
        assert str(fast_err.value) == str(ref_err.value)
        assert _state(fast) == _state(reference)
        # A taken branch or jump to a negative pc retires, then stops
        # the run at that pc.  The reference checks the budget first,
        # so a budget the branch spent wins.
        for exit_line in ("BEQ r0, r0, -1", "J -2"):
            source = f"ADDI r1, r1, 1\n{exit_line}\nHALT"
            for budget in (50_000_000, 2):
                assert _same_error_and_state(source, budget) == 0
        # A translated block's conditional branch to a negative pc,
        # taken on the loop's last pass.
        source = f"""
        LI r1, {HOT}
        loop: ADDI r1, r1, -1
        ADDI r2, r2, 3
        BEQ r1, zero, -1
        J loop
        HALT
        """
        assert _same_error_and_state(source) > 0

    def test_memory_footprint_error_matches_reference(self):
        source = "LI r1, 0\nloop: SW r1, 0(r1)\nADDI r1, r1, 1\nJ loop"
        reference = ReferenceMachine(assemble(source), memory_limit_words=100)
        with pytest.raises(MachineError) as ref_err:
            reference.run()
        fast = Machine(assemble(source), memory_limit_words=100)
        with pytest.raises(MachineError) as fast_err:
            fast.run()
        assert str(fast_err.value) == str(ref_err.value)
        assert _state(fast) == _state(reference)
        # The same loop storing each address many times, so the store
        # faults inside translated code: a self-looping block, then a
        # straight one.
        shift = f"SRLI r2, r1, {_REPEAT_SHIFT}"
        for source in (
            f"LI r1, 0\nloop: {shift}\nSW r1, 0(r2)\nADDI r1, r1, 1\nJ loop",
            f"LI r1, 0\nloop: {shift}\nJ store\n"
            "store: SW r1, 0(r2)\nADDI r1, r1, 1\nJ loop",
        ):
            assert _same_error_and_state(source, memory_limit_words=100) > 0

    def test_hooked_run_matches_reference(self):
        # A halting run, then a budget stop, a branch to a negative pc
        # and a store over the footprint: the same hook stream, error
        # and state as the reference stepper's.
        store = (
            f"LI r1, 0\nloop: SRLI r2, r1, {_REPEAT_SHIFT}\n"
            "SW r1, 0(r2)\nADDI r1, r1, 1\nJ loop"
        )
        for source, budget, machine_kwargs in (
            (SELF_LOOP_SOURCE, 50_000_000, {}),
            (SELF_LOOP_SOURCE, STOP, {}),
            ("ADDI r1, r1, 1\nBEQ r0, r0, -1\nHALT", 50_000_000, {}),
            (store, 50_000_000, {"memory_limit_words": 100}),
        ):
            outcomes = []
            for machine_class in (ReferenceMachine, Machine):
                machine = machine_class(assemble(source), **machine_kwargs)
                stream = _hook_stream(machine)
                try:
                    machine.run(max_instructions=budget)
                    error = None
                except MachineError as exc:
                    error = str(exc)
                outcomes.append((error, stream, _state(machine)))
            assert outcomes[1] == outcomes[0]
            assert len(outcomes[0][1]) == outcomes[0][2][2]

    def test_run_counted_runs_hooks(self):
        # A hooked counted run calls the hook once per retirement and
        # returns the hook-free run's counts, whose profile is the
        # reference AtomProfiler's.
        program = assemble(SELF_LOOP_SOURCE)
        hooked = Machine(program)
        seen = []
        hooked.add_hook(lambda pc, instr: seen.append(pc))
        counts = hooked.run_counted()
        assert counts == Machine(program).run_counted()
        assert len(seen) == counts.retired == hooked.instructions_retired
        profiler = AtomProfiler()
        reference = ReferenceMachine(program)
        reference.add_hook(profiler)
        reference.run()
        assert _state(hooked) == _state(reference)
        assert (
            profile_from_counts("loop", counts).units
            == profiler.profile("loop").units
        )
        # Any start class seeds the hooked count as it seeds the fold.
        for start_class in range(len(counts.classes)):
            again = Machine(program)
            again.add_hook(lambda pc, instr: None)
            assert again.run_counted(start_class=start_class) == (
                Machine(program).run_counted(start_class=start_class)
            )

    def test_run_counted_counts_match_retirements(self):
        machine = Machine(assemble(LOOP_SOURCE))
        counts = machine.run_counted()
        assert counts.retired == machine.instructions_retired
        assert sum(counts.transitions) == counts.retired
        assert counts.classes[0] == frozenset()

    def test_jalr_into_translated_block_matches_reference(self):
        # ``loop`` is translated; the JALR then lands on ``mid``, inside
        # it, which enters a block of its own.
        source = f"""
        LI r1, {HOT}
        loop: ADDI r2, r2, 1
        mid: ADDI r3, r3, 2
        ADDI r1, r1, -1
        BNE r1, zero, loop
        BNE r7, zero, done
        LI r7, 1
        LI r1, 2
        LA r5, mid
        JALR r6, r5, 0
        done: HALT
        """
        reference = ReferenceMachine(assemble(source))
        reference.run()
        fast = Machine(assemble(source))
        assert _translated(fast.run) > 0
        assert _state(fast) == _state(reference)
        hooked = ReferenceMachine(assemble(source))
        profiler = AtomProfiler()
        hooked.add_hook(profiler)
        hooked.run()
        counted = Machine(assemble(source))
        counts = []
        assert _translated(lambda: counts.append(counted.run_counted())) > 0
        assert (
            profile_from_counts("jalr", counts[0]).units
            == profiler.profile("jalr").units
        )

    def test_translations_persist_across_runs(self):
        # A HALT block, a block that runs off the end of the program and
        # blocks that branch or jump to a negative pc are entered once
        # per run; rerunning the same machines reaches their tier-up and
        # then runs them as generated code.
        for exit_line in ("HALT", "", "BEQ r0, r0, -1", "J -2"):
            source = f"ADDI r1, r1, 1\nADD r2, r2, r1\n{exit_line}"
            reference = ReferenceMachine(assemble(source))
            fast = Machine(assemble(source))
            counted = Machine(assemble(source))
            runs = (
                (reference, reference.run),
                (fast, fast.run),
                (counted, counted.run_counted),
            )
            with obs.enabled_scope(fresh=True):
                for _ in range(_TIER_UP + 3):
                    messages = set()
                    for machine, run_machine in runs:
                        machine.pc = 0
                        machine.halted = False
                        try:
                            run_machine()
                        except MachineError as error:
                            messages.add(str(error))
                        else:
                            messages.add(None)
                        assert _state(machine) == _state(reference)
                    assert len(messages) == 1
                assert obs.counter_value("machine.translations") == 2

    def test_start_class_chains_across_calls(self):
        # Two halting segments with a translated loop each; the second
        # call continues from the first call's final class.
        program = assemble(f"""
        LI r1, {HOT}
        first: ADDI r2, r2, 3
        MUL r3, r2, r2
        ADDI r1, r1, -1
        BNE r1, zero, first
        HALT
        LI r1, {HOT}
        second: SLLI r4, r2, 1
        SW r4, 0(r1)
        ADDI r1, r1, -1
        BNE r1, zero, second
        HALT
        """)
        machine = Machine(program)
        head = machine.pc
        first = machine.run_counted()
        machine.halted = False
        resume = machine.pc
        runs = []
        assert _translated(
            lambda: runs.append(
                machine.run_counted(start_class=first.final_class)
            )
        ) > 0
        second = runs[0]
        chained = type(first)(
            classes=first.classes,
            transitions=tuple(
                a + b for a, b in zip(first.transitions, second.transitions)
            ),
            retired=first.retired + second.retired,
            final_class=second.final_class,
        )
        hooked = ReferenceMachine(program)
        profiler = AtomProfiler()
        hooked.add_hook(profiler)
        hooked.run()
        hooked.halted = False
        hooked.run()
        assert hooked.pc == machine.pc and head != resume
        assert (
            profile_from_counts("chained", chained).units
            == profiler.profile("chained").units
        )
        # Any start class only moves the second call's first transition.
        k = len(first.classes)
        entry_class = first.classes.index(program.instructions[resume].units)
        for start_class in range(k):
            again = Machine(program)
            again.run_counted()
            again.halted = False
            counts = again.run_counted(start_class=start_class)
            expected = list(second.transitions)
            expected[first.final_class * k + entry_class] -= 1
            expected[start_class * k + entry_class] += 1
            assert list(counts.transitions) == expected
            assert counts.retired == second.retired


class TestOriImmediateMasking:
    def test_ori_negative_immediate_sets_full_word(self):
        # Regression: ORI used to mask its immediate to 16 bits while
        # ANDI/XORI masked to 32; all three now mask to the full word.
        m = run("LI r1, 0\nORI r2, r1, -1\nHALT")
        assert m.read_register(2) == 0xFFFFFFFF

    def test_ori_large_immediate_both_paths(self):
        source = "LUI r1, 0x00F0\nORI r2, r1, -256\nHALT"
        reference = ReferenceMachine(assemble(source))
        reference.run()
        fast = Machine(assemble(source))
        fast.run()
        expected = (0x00F0 << 16) | (-256 & 0xFFFFFFFF)
        assert reference.read_register(2) == expected
        assert fast.read_register(2) == expected

    def test_andi_ori_xori_same_masking_rule(self):
        m = run(
            """
            LI r1, 0x0F0F
            ANDI r2, r1, -1
            ORI r3, r1, -1
            XORI r4, r1, -1
            HALT
            """
        )
        assert m.read_register(2) == 0x0F0F
        assert m.read_register(3) == 0xFFFFFFFF
        assert m.read_register(4) == 0xFFFFF0F0
