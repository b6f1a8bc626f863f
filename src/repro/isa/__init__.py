"""Instruction-level profiling substrate (the Pixie/ATOM substitute).

The paper extracts its architectural activity parameters (``fga``,
``bga``) by instrumenting binaries with DEC's Pixie/ATOM tools and
mapping instruction classes to functional blocks.  This package
provides the offline equivalent:

* :mod:`~repro.isa.instructions` — a small RISC ISA whose every
  instruction is annotated with the functional units it exercises
  (the paper's assumption: "all add, compare, load, and store
  instructions use the ALU adder").
* :mod:`~repro.isa.assembler` — a two-pass assembler.
* :mod:`~repro.isa.machine` — an interpreter with an ATOM-style
  per-instruction instrumentation hook (the reference path) and one
  decoded engine (``run_counted``, with ``run_fast`` a thin wrapper)
  that is bit-identical and much faster: it dispatches basic blocks,
  counts their entries the way Pixie does, and runs hot blocks as
  generated code (:mod:`~repro.isa.translate`).
* :mod:`~repro.isa.profiler` — turns an execution trace into
  per-functional-unit ``fga``/``bga`` numbers (Tables 1-3), by hook
  or — the default — by folding the decoded engine's unit-class
  transition counts.
* :mod:`~repro.isa.workloads` — the three paper workloads (an
  espresso-like minimizer kernel, a li-like list interpreter, the IDEA
  cipher) plus extension workloads.
"""

from repro.isa.instructions import (
    FUNCTIONAL_UNITS,
    Instruction,
    InstructionSpec,
    instruction_set,
)
from repro.isa.assembler import Program, assemble
from repro.isa.machine import Machine, UnitClassCounts
from repro.isa.profiler import (
    FunctionalUnitProfile,
    UnitStats,
    profile_from_counts,
    profile_program,
)
from repro.isa.policy import GatedUnitStats, UnitTraceRecorder, apply_hysteresis
from repro.isa.operands import OperandTraceRecorder
from repro.isa.disasm import disassemble, listing

__all__ = [
    "GatedUnitStats",
    "UnitTraceRecorder",
    "apply_hysteresis",
    "OperandTraceRecorder",
    "disassemble",
    "listing",
    "FUNCTIONAL_UNITS",
    "Instruction",
    "InstructionSpec",
    "instruction_set",
    "Program",
    "assemble",
    "Machine",
    "UnitClassCounts",
    "FunctionalUnitProfile",
    "UnitStats",
    "profile_from_counts",
    "profile_program",
]
