"""Mnemonic if/elif stepper: the test-only oracle for the ISA machine.

This is the straightforward interpreter the library used before the
decoded engine in :mod:`repro.isa.machine` became its only execution
path: every retired instruction is fetched, dispatched through one
if/elif chain over its mnemonic and handed to every attached hook.  It
is much slower, but obviously right, so the tests require the machine
to equal it exactly: the same registers, memory, pc, ``halted`` flag,
retirement count, error text and per-retirement hook stream.

:class:`AtomProfiler` is the per-instruction profiling hook that
:func:`repro.isa.profiler.profile_from_counts` must reproduce from a
counted run's class-transition matrix.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import MachineError, ProfileError
from repro.isa.assembler import Program
from repro.isa.instructions import FUNCTIONAL_UNITS, Instruction
from repro.isa.machine import Machine
from repro.isa.profiler import FunctionalUnitProfile, UnitStats

__all__ = ["AtomProfiler", "ReferenceMachine", "reference_profile"]

_WORD_MASK = 0xFFFFFFFF
_SIGN_BIT = 0x80000000
_TWO_32 = 0x100000000


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - _TWO_32 if value & _SIGN_BIT else value


class ReferenceMachine(Machine):
    """A :class:`Machine` whose :meth:`run` steps the if/elif chain."""

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run to ``HALT``; returns instructions retired this call."""
        start = self.instructions_retired
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
            for hook in hooks:
                hook(pc, instruction)
        return self.instructions_retired - start

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
        else:
            raise MachineError(f"unimplemented mnemonic {mnemonic!r}")


class AtomProfiler:
    """Instrumentation hook that accumulates per-unit use/run counts.

    Attach to a machine with ``machine.add_hook(profiler)``; the object
    is callable with the hook signature.
    """

    def __init__(self, units: Tuple[str, ...] = FUNCTIONAL_UNITS):
        self.units = units
        self.uses: Dict[str, int] = {unit: 0 for unit in units}
        self.runs: Dict[str, int] = {unit: 0 for unit in units}
        self.total = 0
        self._active_last_cycle: Dict[str, bool] = {
            unit: False for unit in units
        }

    def __call__(self, pc: int, instruction: Instruction) -> None:
        self.total += 1
        used = instruction.units
        for unit in self.units:
            if unit in used:
                self.uses[unit] += 1
                if not self._active_last_cycle[unit]:
                    self.runs[unit] += 1
                self._active_last_cycle[unit] = True
            else:
                self._active_last_cycle[unit] = False

    def profile(self, program_name: str) -> FunctionalUnitProfile:
        """Freeze the counters into a :class:`FunctionalUnitProfile`."""
        if self.total == 0:
            raise ProfileError("no instructions retired; nothing to profile")
        units = {
            unit: UnitStats(
                unit=unit,
                uses=self.uses[unit],
                runs=self.runs[unit],
                total_instructions=self.total,
            )
            for unit in self.units
        }
        return FunctionalUnitProfile(
            program_name=program_name,
            total_instructions=self.total,
            units=units,
        )


def reference_profile(program: Program) -> FunctionalUnitProfile:
    """The hooked profile: an :class:`AtomProfiler` on the stepper."""
    machine = ReferenceMachine(program)
    profiler = AtomProfiler()
    machine.add_hook(profiler)
    machine.run()
    return profiler.profile(program.name)
