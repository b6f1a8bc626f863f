"""Interpreter for the profiling ISA with ATOM-style instrumentation.

The :class:`Machine` executes an assembled
:class:`~repro.isa.assembler.Program` and, like ATOM, lets analysis
code attach a per-instruction hook that observes every retired
instruction.  The recorders in :mod:`repro.isa.policy` and
:mod:`repro.isa.operands` are such analyses; tests attach their own.

Each instruction is compiled once into a specialized closure (operands
bound as locals, register file and memory captured directly,
signed/shift helpers inlined).  A hook-free run dispatches one basic
block at a time and counts block entries the way Pixie does; a block
entered ``_TIER_UP`` times is replaced by one generated function
(:mod:`repro.isa.translate`).  A machine with hooks steps the same
closures one instruction at a time, calling every hook as its
instruction retires, so :meth:`Machine.run` and
:meth:`Machine.run_counted` honour hooks alike.

Conventions: 32 registers (r0 hard-wired to zero), 32-bit two's
complement words, word-addressed memory, ``HALT`` stops execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple,
)

from repro import obs
from repro.errors import MachineError
from repro.isa.assembler import Program
from repro.isa.instructions import Instruction

if TYPE_CHECKING:
    from repro.isa.translate import BlockTable

__all__ = ["Machine", "UnitClassCounts"]

_WORD_MASK = 0xFFFFFFFF
_SIGN_BIT = 0x80000000
_TWO_32 = 0x100000000

#: Entries a basic block runs on its closures before the decoded engine
#: translates it into one generated function (see
#: :mod:`repro.isa.translate`).  Chosen by measurement: compiling a
#: short block costs what a few hundred of its entries save, so lower
#: thresholds translate blocks of the short workloads just before they
#: stop; 768 is the lowest tried that keeps every bundled workload's
#: build+profile within 10 % of the per-instruction loop it replaced
#: (docs/performance.md, "How _TIER_UP was chosen").
_TIER_UP = 768

#: Hook signature: (pc, instruction) -> None, called as each
#: instruction retires.
InstrumentationHook = Callable[[int, Instruction], None]


class Halt(Exception):
    """A decoded HALT retired; ``next_pc`` is the pc after it."""

    def __init__(self, next_pc: int):
        super().__init__(next_pc)
        self.next_pc = next_pc


class StoreFault(Exception):
    """The decoded SW at ``pc`` would exceed the memory footprint; it
    did not retire."""

    def __init__(self, pc: int):
        super().__init__(pc)
        self.pc = pc


class PcFault(Exception):
    """A decoded branch or jump retired and went to ``pc``, below the
    program."""

    def __init__(self, pc: int):
        super().__init__(pc)
        self.pc = pc


@dataclass(frozen=True)
class UnitClassCounts:
    """Functional-unit-class transition counts from a counted run.

    Every instruction belongs to one **unit class** — the (interned)
    set of functional units its opcode exercises; class 0 is always the
    empty set, which doubles as the "nothing ran yet" start state.
    ``transitions`` is the row-major ``len(classes) x len(classes)``
    matrix ``transitions[prev * k + curr]`` counting retirements of a
    ``curr``-class instruction whose predecessor was ``prev``-class.
    Per-unit uses and run onsets (the paper's fga/bga numerators) are
    exact functions of this matrix — see
    :func:`repro.isa.profiler.profile_from_counts`.
    """

    classes: Tuple[FrozenSet[str], ...]
    transitions: Tuple[int, ...]
    retired: int
    final_class: int


def _nop_slot(pc: int) -> int:
    """Shared closure for NOP and any op whose only effect targets r0."""
    return pc + 1


def _guard_negative(slot: Callable[[int], int]) -> Callable[[int], int]:
    """Wrap the slot of a branch or jump to a negative pc: taken, it
    raises :class:`PcFault` instead of returning a pc that would index
    the dispatch table from its end."""
    def guarded(pc):
        next_pc = slot(pc)
        if next_pc < 0:
            raise PcFault(next_pc)
        return next_pc
    return guarded


def _compile_instruction(
    instruction: Instruction,
    regs: List[int],
    memory: Dict[int, int],
    machine: "Machine",
):
    """One instruction -> a ``closure(pc) -> next_pc`` dispatch slot.

    Operands are bound as default arguments (locals in CPython), the
    register list and memory dict are captured directly, and the
    signed/shift helpers are inlined.  Closures assume the register-
    file invariant that every entry is already masked to 32 bits and
    ``regs[0] == 0`` — maintained by every machine API and restored by
    the dispatch entry points.  The halt slot raises :class:`Halt`, a
    store over the memory footprint raises :class:`StoreFault` and a
    branch or jump to a negative pc raises :class:`PcFault`, so the
    dispatch loop checks none of them per step.
    """
    mnemonic = instruction.spec.mnemonic
    ops = instruction.operands

    if mnemonic in ("ADD", "SUB", "SLT", "SLTU", "SLL", "SRL", "SRA",
                    "MUL", "MULHU", "AND", "OR", "XOR"):
        rd, rs1, rs2 = ops
        if rd == 0:
            return _nop_slot
        if mnemonic == "ADD":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = (regs[rs1] + regs[rs2]) & _WORD_MASK
                return pc + 1
        elif mnemonic == "SUB":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = (regs[rs1] - regs[rs2]) & _WORD_MASK
                return pc + 1
        elif mnemonic == "SLT":
            # XOR with the sign bit maps signed order onto unsigned.
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = (
                    1 if (regs[rs1] ^ _SIGN_BIT) < (regs[rs2] ^ _SIGN_BIT)
                    else 0
                )
                return pc + 1
        elif mnemonic == "SLTU":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
                return pc + 1
        elif mnemonic == "SLL":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & _WORD_MASK
                return pc + 1
        elif mnemonic == "SRL":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = regs[rs1] >> (regs[rs2] & 31)
                return pc + 1
        elif mnemonic == "SRA":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                value = regs[rs1]
                if value & _SIGN_BIT:
                    regs[rd] = (
                        (value - _TWO_32) >> (regs[rs2] & 31)
                    ) & _WORD_MASK
                else:
                    regs[rd] = value >> (regs[rs2] & 31)
                return pc + 1
        elif mnemonic == "MUL":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = (regs[rs1] * regs[rs2]) & _WORD_MASK
                return pc + 1
        elif mnemonic == "MULHU":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = (regs[rs1] * regs[rs2]) >> 32
                return pc + 1
        elif mnemonic == "AND":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = regs[rs1] & regs[rs2]
                return pc + 1
        elif mnemonic == "OR":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = regs[rs1] | regs[rs2]
                return pc + 1
        else:  # XOR
            def slot(pc, regs=regs, rd=rd, rs1=rs1, rs2=rs2):
                regs[rd] = regs[rs1] ^ regs[rs2]
                return pc + 1
        return slot

    if mnemonic in ("ADDI", "SLTI", "SLLI", "SRLI", "SRAI",
                    "ANDI", "ORI", "XORI"):
        rd, rs1, imm = ops
        if rd == 0:
            return _nop_slot
        if mnemonic == "ADDI":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, imm=imm):
                regs[rd] = (regs[rs1] + imm) & _WORD_MASK
                return pc + 1
        elif mnemonic == "SLTI":
            def slot(pc, regs=regs, rd=rd, rs1=rs1, imm=imm):
                value = regs[rs1]
                if value & _SIGN_BIT:
                    value -= _TWO_32
                regs[rd] = 1 if value < imm else 0
                return pc + 1
        elif mnemonic == "SLLI":
            shift = imm & 31

            def slot(pc, regs=regs, rd=rd, rs1=rs1, shift=shift):
                regs[rd] = (regs[rs1] << shift) & _WORD_MASK
                return pc + 1
        elif mnemonic == "SRLI":
            shift = imm & 31

            def slot(pc, regs=regs, rd=rd, rs1=rs1, shift=shift):
                regs[rd] = regs[rs1] >> shift
                return pc + 1
        elif mnemonic == "SRAI":
            shift = imm & 31

            def slot(pc, regs=regs, rd=rd, rs1=rs1, shift=shift):
                value = regs[rs1]
                if value & _SIGN_BIT:
                    regs[rd] = ((value - _TWO_32) >> shift) & _WORD_MASK
                else:
                    regs[rd] = value >> shift
                return pc + 1
        else:
            # ANDI / ORI / XORI share the 32-bit immediate semantics
            # (see docs/isa.md, "Immediate semantics").
            masked = imm & _WORD_MASK
            if mnemonic == "ANDI":
                def slot(pc, regs=regs, rd=rd, rs1=rs1, imm=masked):
                    regs[rd] = regs[rs1] & imm
                    return pc + 1
            elif mnemonic == "ORI":
                def slot(pc, regs=regs, rd=rd, rs1=rs1, imm=masked):
                    regs[rd] = regs[rs1] | imm
                    return pc + 1
            else:  # XORI
                def slot(pc, regs=regs, rd=rd, rs1=rs1, imm=masked):
                    regs[rd] = regs[rs1] ^ imm
                    return pc + 1
        return slot

    if mnemonic == "LUI":
        rd, imm = ops
        if rd == 0:
            return _nop_slot
        value = (imm & 0xFFFF) << 16

        def slot(pc, regs=regs, rd=rd, value=value):
            regs[rd] = value
            return pc + 1
        return slot

    if mnemonic == "LW":
        rd, rs1, imm = ops
        if rd == 0:
            # The address is masked non-negative, so the load can
            # neither fault nor (with rd = r0) write — a pure no-op.
            return _nop_slot

        def slot(pc, regs=regs, memory=memory, rd=rd, rs1=rs1, imm=imm):
            regs[rd] = memory.get((regs[rs1] + imm) & _WORD_MASK, 0)
            return pc + 1
        return slot

    if mnemonic == "SW":
        rd, rs1, imm = ops

        def slot(pc, regs=regs, memory=memory, machine=machine,
                 rd=rd, rs1=rs1, imm=imm):
            address = (regs[rs1] + imm) & _WORD_MASK
            if (
                address not in memory
                and len(memory) >= machine.memory_limit_words
            ):
                raise StoreFault(pc)
            memory[address] = regs[rd]
            return pc + 1
        return slot

    if mnemonic in ("BEQ", "BNE", "BLT", "BGE", "BLTU", "BGEU"):
        rs1, rs2, target = ops
        if mnemonic == "BEQ":
            def slot(pc, regs=regs, rs1=rs1, rs2=rs2, target=target):
                return target if regs[rs1] == regs[rs2] else pc + 1
        elif mnemonic == "BNE":
            def slot(pc, regs=regs, rs1=rs1, rs2=rs2, target=target):
                return target if regs[rs1] != regs[rs2] else pc + 1
        elif mnemonic == "BLT":
            def slot(pc, regs=regs, rs1=rs1, rs2=rs2, target=target):
                return (
                    target
                    if (regs[rs1] ^ _SIGN_BIT) < (regs[rs2] ^ _SIGN_BIT)
                    else pc + 1
                )
        elif mnemonic == "BGE":
            def slot(pc, regs=regs, rs1=rs1, rs2=rs2, target=target):
                return (
                    target
                    if (regs[rs1] ^ _SIGN_BIT) >= (regs[rs2] ^ _SIGN_BIT)
                    else pc + 1
                )
        elif mnemonic == "BLTU":
            def slot(pc, regs=regs, rs1=rs1, rs2=rs2, target=target):
                return target if regs[rs1] < regs[rs2] else pc + 1
        else:  # BGEU
            def slot(pc, regs=regs, rs1=rs1, rs2=rs2, target=target):
                return target if regs[rs1] >= regs[rs2] else pc + 1
        return _guard_negative(slot) if target < 0 else slot

    if mnemonic == "JAL":
        rd, target = ops
        if rd == 0:
            def slot(pc, target=target):
                return target
        else:
            def slot(pc, regs=regs, rd=rd, target=target):
                regs[rd] = pc + 1
                return target
        return _guard_negative(slot) if target < 0 else slot

    if mnemonic == "JALR":
        rd, rs1, imm = ops
        if rd == 0:
            def slot(pc, regs=regs, rs1=rs1, imm=imm):
                return (regs[rs1] + imm) & _WORD_MASK
        else:
            def slot(pc, regs=regs, rd=rd, rs1=rs1, imm=imm):
                target = (regs[rs1] + imm) & _WORD_MASK
                regs[rd] = pc + 1
                return target
        return slot

    if mnemonic == "HALT":
        def slot(pc, machine=machine):
            machine.halted = True
            raise Halt(pc + 1)
        return slot

    if mnemonic == "NOP":
        return _nop_slot

    raise MachineError(  # pragma: no cover - spec table is static
        f"unimplemented mnemonic {mnemonic!r}"
    )


class Machine:
    """Executes a :class:`Program`.

    Parameters
    ----------
    program:
        The assembled program.
    memory_limit_words:
        Upper bound on distinct memory words touched, a guard against
        runaway stores.
    """

    def __init__(self, program: Program, memory_limit_words: int = 1 << 22):
        self.program = program
        self.registers: List[int] = [0] * 32
        self.memory: Dict[int, int] = dict(program.data)
        self.pc = program.entry() if "main" in program.labels else 0
        self.halted = False
        self.instructions_retired = 0
        self.memory_limit_words = memory_limit_words
        self._hooks: List[InstrumentationHook] = []
        # Decoded state, built lazily on the first run; the block table
        # keeps this machine's translations.
        self._decoded: Optional[List[Callable[[int], int]]] = None
        self._class_ids: Optional[List[int]] = None
        self._unit_classes: Optional[Tuple[FrozenSet[str], ...]] = None
        self._blocks: Optional[BlockTable] = None

    # ------------------------------------------------------------------
    # Instrumentation (the ATOM analogue)
    # ------------------------------------------------------------------
    def add_hook(self, hook: InstrumentationHook) -> None:
        """Attach a per-retired-instruction observer.

        While any hook is attached, :meth:`run` and :meth:`run_counted`
        step one instruction at a time, so every observer sees every
        retired instruction.
        """
        self._hooks.append(hook)

    # ------------------------------------------------------------------
    # Register / memory access
    # ------------------------------------------------------------------
    def read_register(self, index: int) -> int:
        """Unsigned 32-bit register value (r0 reads as 0)."""
        return 0 if index == 0 else self.registers[index] & _WORD_MASK

    def write_register(self, index: int, value: int) -> None:
        """Write a register (writes to r0 are ignored)."""
        if index != 0:
            self.registers[index] = value & _WORD_MASK

    def read_memory(self, address: int) -> int:
        """Read a data word; uninitialized memory reads as zero."""
        if address < 0:
            raise MachineError(f"negative memory address {address}")
        return self.memory.get(address, 0)

    def write_memory(self, address: int, value: int) -> None:
        """Write a data word."""
        if address < 0:
            raise MachineError(f"negative memory address {address}")
        if (
            address not in self.memory
            and len(self.memory) >= self.memory_limit_words
        ):
            raise MachineError(
                f"memory footprint exceeded {self.memory_limit_words} words"
            )
        self.memory[address] = value & _WORD_MASK

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def decode(self) -> None:
        """Compile the program into the decoded dispatch table.

        Called lazily by :meth:`run` / :meth:`run_counted` on first
        use; calling it eagerly just front-loads the (timed) decode
        cost.  Idempotent.
        """
        if self._decoded is not None:
            return
        with obs.span("machine.decode"):
            regs = self.registers
            memory = self.memory
            decoded: List[Callable[[int], int]] = []
            classes: List[FrozenSet[str]] = [frozenset()]
            class_index: Dict[FrozenSet[str], int] = {frozenset(): 0}
            class_ids: List[int] = []
            for instruction in self.program.instructions:
                decoded.append(
                    _compile_instruction(instruction, regs, memory, self)
                )
                units = instruction.spec.units
                cid = class_index.get(units)
                if cid is None:
                    cid = len(classes)
                    class_index[units] = cid
                    classes.append(units)
                class_ids.append(cid)
            # Imported here, not at module level, so that importing the
            # toolkit does not load the translator; only runs use it.
            from repro.isa.translate import BlockTable

            self._decoded = decoded
            self._class_ids = class_ids
            self._unit_classes = tuple(classes)
            self._blocks = BlockTable(
                self.program.instructions, decoded, class_ids, len(classes),
                {"regs": regs, "memory": memory, "machine": self},
            )

    def _normalize_registers(self) -> None:
        """Restore the register-file invariant the closures rely on.

        Every machine API keeps registers masked and r0 zero; this
        re-normalizes defensively (in place, identity preserved) so a
        caller who poked ``machine.registers`` directly still gets
        32-bit register semantics.
        """
        regs = self.registers
        regs[0] = 0
        for index in range(1, 32):
            regs[index] &= _WORD_MASK

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run to ``HALT``; returns instructions retired this call.

        Raises :class:`MachineError` when the budget runs out, the pc
        leaves the program or a store would exceed the memory
        footprint, leaving the machine at that stop.  It is
        :meth:`run_counted`'s dispatch with the profile left unfolded.
        """
        started = time.perf_counter() if obs.ENABLED else 0.0
        start = self.instructions_retired
        self._dispatch(max_instructions, 0)
        retired = self.instructions_retired - start
        if obs.ENABLED:
            self._record_run_metrics(
                "machine.run", retired, time.perf_counter() - started
            )
        return retired

    def run_counted(
        self, max_instructions: int = 50_000_000, start_class: int = 0
    ) -> UnitClassCounts:
        """Run to ``HALT`` and count unit-class transitions.

        A hook-free run dispatches one basic block at a time (see
        :mod:`repro.isa.translate`) and counts block entries the way
        Pixie does: one increment per entry, keyed by (predecessor
        class, block).  At the end the counts are folded, through each
        block's fixed internal transitions, into the k x k (previous
        class, current class) matrix.  A hooked run counts each
        retirement's transition as it steps.  Either way the matrix
        holds everything a per-instruction profiling hook would have
        observed — see :func:`repro.isa.profiler.profile_from_counts`.

        ``start_class`` seeds the predecessor state (class 0, the
        empty set, means "nothing retired yet"); chaining the previous
        call's ``final_class`` continues run-length accounting across
        calls exactly like a persistent hook would.
        """
        if self._decoded is None:
            self.decode()
        classes = self._unit_classes
        k = len(classes)
        if not 0 <= start_class < k:
            raise MachineError(
                f"start_class {start_class} outside unit classes (k={k})"
            )
        started = time.perf_counter() if obs.ENABLED else 0.0
        start = self.instructions_retired
        final_class, stepped = self._dispatch(max_instructions, start_class)
        retired = self.instructions_retired - start
        transitions = self._blocks.fold() if stepped is None else stepped
        if obs.ENABLED:
            self._record_run_metrics(
                "machine.run_counted", retired,
                time.perf_counter() - started,
            )
        return UnitClassCounts(
            classes=classes,
            transitions=tuple(transitions),
            retired=retired,
            final_class=final_class,
        )

    def _dispatch(
        self, max_instructions: int, start_class: int
    ) -> Tuple[int, Optional[List[int]]]:
        """Run from ``self.pc``; returns the final class and, for a
        hooked run, its class-transition matrix.

        A hook-free run goes through the block table's dispatch loop
        (see :meth:`~repro.isa.translate.BlockTable.run`), which leaves
        the run's Pixie block-entry counts behind for
        :meth:`~repro.isa.translate.BlockTable.fold`; a hooked run
        steps (:meth:`_step`) and counts its transitions itself.  Both
        report the same stops, which map to the machine state and
        :class:`MachineError` here.
        """
        if self._decoded is None:
            self.decode()
        self._normalize_registers()
        if self.halted:
            self._blocks.reset()  # nothing runs: empty counts
            return start_class, None
        start = self.instructions_retired
        stepped = None
        if self._hooks:
            stepped = [0] * len(self._unit_classes) ** 2
            stop, pc, retired, final_class = self._step(
                self.pc, max_instructions, start_class, stepped
            )
        else:
            stop, pc, retired, final_class = self._blocks.run(
                self.pc, max_instructions, start_class
            )
        self.instructions_retired = start + retired
        if stop == "store":
            # The faulting store did not retire, but the pc has already
            # moved past it.
            self.pc = pc + 1
            raise MachineError(
                f"memory footprint exceeded {self.memory_limit_words} words"
            )
        self.pc = pc
        if stop == "pc":
            raise MachineError(f"PC {pc} outside program")
        if stop == "budget":
            raise MachineError(
                f"instruction budget {max_instructions} exhausted (pc={pc})"
            )
        return final_class, stepped

    def _step(
        self, pc: int, budget: int, start_class: int, transitions: List[int]
    ) -> Tuple[str, int, int, int]:
        """The hooked run: one closure per instruction, with every hook
        called as its instruction retires.

        Returns what :meth:`~repro.isa.translate.BlockTable.run`
        returns, and adds one to ``transitions[prev * k + class]`` per
        retirement.  The budget is checked before each fetch, then the
        pc.  A HALT or a branch to a negative pc retires; a faulting
        store does not.  Before a hook runs, ``pc`` and
        ``instructions_retired`` already hold their values after the
        retirement.
        """
        decoded = self._decoded
        limit = len(decoded)
        class_ids = self._class_ids
        instructions = self.program.instructions
        hooks = self._hooks
        k = len(self._unit_classes)
        start = self.instructions_retired
        prev = start_class
        retired = 0
        while True:
            if retired >= budget:
                return "budget", pc, retired, start_class
            if not 0 <= pc < limit:
                return "pc", pc, retired, start_class
            try:
                next_pc = decoded[pc](pc)
            except Halt as halt:
                next_pc = halt.next_pc
            except PcFault as fault:
                next_pc = fault.pc
            except StoreFault:
                return "store", pc, retired, start_class
            retired += 1
            current = class_ids[pc]
            transitions[prev * k + current] += 1
            prev = current
            self.pc = next_pc
            self.instructions_retired = start + retired
            for hook in hooks:
                hook(pc, instructions[pc])
            if self.halted:
                return "halt", next_pc, retired, prev
            pc = next_pc

    @staticmethod
    def _record_run_metrics(
        timer: str, retired: int, elapsed: float
    ) -> None:
        obs.incr("machine.instructions", retired)
        obs.observe_seconds(timer, elapsed)
        if elapsed > 0.0:
            obs.gauge("machine.instructions_per_s", retired / elapsed)
