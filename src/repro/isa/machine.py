"""Interpreter for the profiling ISA with ATOM-style instrumentation.

The :class:`Machine` executes an assembled
:class:`~repro.isa.assembler.Program` and, like ATOM, lets analysis
code attach a per-instruction hook that observes every retired
instruction.  The profiler in :mod:`repro.isa.profiler` is one such
analysis; tests attach their own.

Two execution engines share one architectural state:

* the **reference** path — :meth:`Machine.step` / :meth:`Machine.run` —
  dispatches each retired instruction through a mnemonic if/elif chain
  and invokes every attached hook.  It is the specification.
* the **decoded** path — :meth:`Machine.run_counted`, with
  :meth:`Machine.run_fast` a thin wrapper over it — compiles each
  instruction once into a specialized closure (operands bound as
  locals, register file and memory captured directly, signed/shift
  helpers inlined) and dispatches one basic block at a time, counting
  block entries the way Pixie does.  A block entered ``_TIER_UP``
  times is replaced by one generated function
  (:mod:`repro.isa.translate`).  It is
  bit-identical to the reference in architectural state, retirement
  counts, and error behavior.  Hooks are the ATOM contract of the
  reference path: :meth:`run_fast` transparently falls back to
  :meth:`run` whenever a hook is attached.

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


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - _TWO_32 if value & _SIGN_BIT else value


@dataclass(frozen=True)
class UnitClassCounts:
    """Functional-unit-class transition counts from a counted fast run.

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
            # The address is masked non-negative, so the reference load
            # can neither fault nor (with rd = r0) write — a pure no-op.
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
        # Decoded-engine state, built lazily on first decoded run; the
        # block table keeps this machine's translations.
        self._decoded: Optional[List[Callable[[int], int]]] = None
        self._class_ids: Optional[List[int]] = None
        self._unit_classes: Optional[Tuple[FrozenSet[str], ...]] = None
        self._blocks: Optional[BlockTable] = None

    # ------------------------------------------------------------------
    # Instrumentation (the ATOM analogue)
    # ------------------------------------------------------------------
    def add_hook(self, hook: InstrumentationHook) -> None:
        """Attach a per-retired-instruction observer.

        Hooks are a reference-path contract: while any hook is
        attached, :meth:`run_fast` falls back to :meth:`run` so every
        observer still sees every retired instruction.
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
    # Reference execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            raise MachineError("machine is halted")
        if not 0 <= self.pc < len(self.program.instructions):
            raise MachineError(f"PC {self.pc} outside program")
        instruction = self.program.instructions[self.pc]
        current_pc = self.pc
        self.pc += 1
        self._execute(instruction)
        self.instructions_retired += 1
        if self._hooks:
            for hook in self._hooks:
                hook(current_pc, instruction)

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run to ``HALT`` on the reference path; returns instructions
        retired this call."""
        start = self.instructions_retired
        started = time.perf_counter() if obs.ENABLED else 0.0
        instructions = self.program.instructions
        limit = len(instructions)
        hooks = self._hooks
        execute = self._execute
        while not self.halted:
            if self.instructions_retired - start >= max_instructions:
                raise MachineError(
                    f"instruction budget {max_instructions} exhausted "
                    f"(pc={self.pc})"
                )
            pc = self.pc
            if not 0 <= pc < limit:
                raise MachineError(f"PC {pc} outside program")
            instruction = instructions[pc]
            self.pc = pc + 1
            execute(instruction)
            self.instructions_retired += 1
            if hooks:
                for hook in hooks:
                    hook(pc, instruction)
        retired = self.instructions_retired - start
        if obs.ENABLED:
            self._record_run_metrics(
                "machine.run", retired, time.perf_counter() - started
            )
        return retired

    # ------------------------------------------------------------------
    # Decoded execution
    # ------------------------------------------------------------------
    def decode(self) -> None:
        """Compile the program into the decoded dispatch table.

        Called lazily by :meth:`run_fast` / :meth:`run_counted` on
        first use; calling it eagerly just front-loads the (timed)
        decode cost.  Idempotent.
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
            # toolkit does not load the translator; only decoded runs
            # use it.
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
        caller who poked ``machine.registers`` directly still gets the
        reference semantics from the decoded path.
        """
        regs = self.registers
        regs[0] = 0
        for index in range(1, 32):
            regs[index] &= _WORD_MASK

    def run_fast(self, max_instructions: int = 50_000_000) -> int:
        """Run to ``HALT`` on the decoded path; returns instructions
        retired this call.

        Bit-identical to :meth:`run` in architectural state
        (registers, memory, pc, ``halted``, ``instructions_retired``)
        and in error behavior (same :class:`MachineError` messages at
        the same machine states).  It is :meth:`run_counted`'s block
        dispatch with the profile left unfolded.  If any
        instrumentation hook is attached, this transparently falls back
        to the reference path so the ATOM contract — every hook sees
        every retired instruction — is preserved.
        """
        if self._hooks:
            return self.run(max_instructions)
        started = time.perf_counter() if obs.ENABLED else 0.0
        start = self.instructions_retired
        self._dispatch(max_instructions, 0)
        retired = self.instructions_retired - start
        if obs.ENABLED:
            self._record_run_metrics(
                "machine.run_fast", retired, time.perf_counter() - started
            )
        return retired

    def run_counted(
        self, max_instructions: int = 50_000_000, start_class: int = 0
    ) -> UnitClassCounts:
        """Decoded run that also counts unit-class transitions.

        Dispatches one basic block at a time (see
        :mod:`repro.isa.translate`) and counts block entries the way
        Pixie does: one increment per entry, keyed by (predecessor
        class, block).  At the end the counts are folded, through each
        block's fixed internal transitions, into the k x k
        (previous class, current class) matrix — everything the ATOM
        profiler's per-instruction hook would have observed, without
        calling any Python hook — see
        :func:`repro.isa.profiler.profile_from_counts`.

        ``start_class`` seeds the predecessor state (class 0, the
        empty set, means "nothing retired yet"); chaining the previous
        call's ``final_class`` continues run-length accounting across
        calls exactly like a persistent hook would.

        Raises :class:`MachineError` if hooks are attached — counted
        dispatch never invokes them, so use :meth:`run` with an
        :class:`~repro.isa.profiler.AtomProfiler` instead.
        """
        if self._hooks:
            raise MachineError(
                "run_counted does not dispatch hooks; use run() with an "
                "AtomProfiler attached"
            )
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
        final_class = self._dispatch(max_instructions, start_class)
        retired = self.instructions_retired - start
        transitions = self._blocks.fold()
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

    def _dispatch(self, max_instructions: int, start_class: int) -> int:
        """The decoded engine's run; returns the final class.

        Runs the block table's dispatch loop (see
        :meth:`~repro.isa.translate.BlockTable.run`), which leaves the
        run's Pixie block-entry counts behind, and maps its stop to the
        machine state and :class:`MachineError` the reference path
        leaves at the same stop.
        """
        if self._decoded is None:
            self.decode()
        self._normalize_registers()
        if self.halted:
            self._blocks.reset()  # nothing runs: empty counts
            return start_class
        stop, pc, retired, final_class = self._blocks.run(
            self.pc, max_instructions, start_class
        )
        self.instructions_retired += retired
        if stop == "store":
            # The faulting store did not retire, but the reference path
            # had already advanced the pc past it.
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
        return final_class

    @staticmethod
    def _record_run_metrics(
        timer: str, retired: int, elapsed: float
    ) -> None:
        obs.incr("machine.instructions", retired)
        obs.observe_seconds(timer, elapsed)
        if elapsed > 0.0:
            obs.gauge("machine.instructions_per_s", retired / elapsed)

    # ------------------------------------------------------------------
    def _execute(self, instruction: Instruction) -> None:
        mnemonic = instruction.mnemonic
        ops = instruction.operands
        read = self.read_register
        write = self.write_register

        if mnemonic == "ADD":
            write(ops[0], read(ops[1]) + read(ops[2]))
        elif mnemonic == "SUB":
            write(ops[0], read(ops[1]) - read(ops[2]))
        elif mnemonic == "ADDI":
            write(ops[0], read(ops[1]) + ops[2])
        elif mnemonic == "SLT":
            write(
                ops[0],
                int(_to_signed(read(ops[1])) < _to_signed(read(ops[2]))),
            )
        elif mnemonic == "SLTU":
            write(ops[0], int(read(ops[1]) < read(ops[2])))
        elif mnemonic == "SLTI":
            write(ops[0], int(_to_signed(read(ops[1])) < ops[2]))
        elif mnemonic == "SLL":
            write(ops[0], read(ops[1]) << (read(ops[2]) & 31))
        elif mnemonic == "SRL":
            write(ops[0], read(ops[1]) >> (read(ops[2]) & 31))
        elif mnemonic == "SRA":
            write(ops[0], _to_signed(read(ops[1])) >> (read(ops[2]) & 31))
        elif mnemonic == "SLLI":
            write(ops[0], read(ops[1]) << (ops[2] & 31))
        elif mnemonic == "SRLI":
            write(ops[0], read(ops[1]) >> (ops[2] & 31))
        elif mnemonic == "SRAI":
            write(ops[0], _to_signed(read(ops[1])) >> (ops[2] & 31))
        elif mnemonic == "MUL":
            write(ops[0], read(ops[1]) * read(ops[2]))
        elif mnemonic == "MULHU":
            write(ops[0], (read(ops[1]) * read(ops[2])) >> 32)
        elif mnemonic == "AND":
            write(ops[0], read(ops[1]) & read(ops[2]))
        elif mnemonic == "OR":
            write(ops[0], read(ops[1]) | read(ops[2]))
        elif mnemonic == "XOR":
            write(ops[0], read(ops[1]) ^ read(ops[2]))
        elif mnemonic == "ANDI":
            write(ops[0], read(ops[1]) & (ops[2] & _WORD_MASK))
        elif mnemonic == "ORI":
            write(ops[0], read(ops[1]) | (ops[2] & _WORD_MASK))
        elif mnemonic == "XORI":
            write(ops[0], read(ops[1]) ^ (ops[2] & _WORD_MASK))
        elif mnemonic == "LUI":
            write(ops[0], (ops[1] & 0xFFFF) << 16)
        elif mnemonic == "LW":
            address = (read(ops[1]) + ops[2]) & _WORD_MASK
            write(ops[0], self.read_memory(address))
        elif mnemonic == "SW":
            address = (read(ops[1]) + ops[2]) & _WORD_MASK
            self.write_memory(address, read(ops[0]))
        elif mnemonic == "BEQ":
            if read(ops[0]) == read(ops[1]):
                self.pc = ops[2]
        elif mnemonic == "BNE":
            if read(ops[0]) != read(ops[1]):
                self.pc = ops[2]
        elif mnemonic == "BLT":
            if _to_signed(read(ops[0])) < _to_signed(read(ops[1])):
                self.pc = ops[2]
        elif mnemonic == "BGE":
            if _to_signed(read(ops[0])) >= _to_signed(read(ops[1])):
                self.pc = ops[2]
        elif mnemonic == "BLTU":
            if read(ops[0]) < read(ops[1]):
                self.pc = ops[2]
        elif mnemonic == "BGEU":
            if read(ops[0]) >= read(ops[1]):
                self.pc = ops[2]
        elif mnemonic == "JAL":
            write(ops[0], self.pc)
            self.pc = ops[1]
        elif mnemonic == "JALR":
            return_address = self.pc
            self.pc = (read(ops[1]) + ops[2]) & _WORD_MASK
            write(ops[0], return_address)
        elif mnemonic == "HALT":
            self.halted = True
        elif mnemonic == "NOP":
            pass
        else:  # pragma: no cover - spec table is static
            raise MachineError(f"unimplemented mnemonic {mnemonic!r}")
