"""ATOM-style functional-unit profiling (fga / bga extraction).

The paper defines, per functional block:

* ``fga`` — fraction of executed instructions that use the block
  ("the ratio between the total number of uses of the functional block
  to the total number of executed instructions");
* ``bga`` — "the ratio of the number of *blocks* of functional unit
  uses to the total number of executed instructions (so if all the
  uses of a block were sequential, bga would be 1/total)".

A "block of uses" is a maximal run of consecutive retired instructions
that use the unit; we count run onsets.  ``bga`` is the probability the
unit's V_T control (SOIAS back gate / MTCMOS sleep signal) must toggle
in a cycle, so runs — not uses — are what cost back-gate energy.

The numbers come the way Pixie and ATOM produce theirs: the analysis
is *compiled into* the instrumented program.  The machine counts
basic-block entries by predecessor functional-unit class and folds
them into a class-transition matrix
(:meth:`~repro.isa.machine.Machine.run_counted`), and
:func:`profile_from_counts` folds that matrix into per-unit uses and
runs afterwards.  No Python hook runs unless the caller attached one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ProfileError
from repro.isa.assembler import Program
from repro.isa.instructions import FUNCTIONAL_UNITS
from repro.isa.machine import Machine, UnitClassCounts

__all__ = [
    "UnitStats",
    "FunctionalUnitProfile",
    "profile_from_counts",
    "profile_program",
]


@dataclass(frozen=True)
class UnitStats:
    """Counts for one functional unit over a run."""

    unit: str
    uses: int
    runs: int
    total_instructions: int

    @property
    def fga(self) -> float:
        """Front-gate activity: fraction of cycles the unit is active."""
        return self.uses / self.total_instructions

    @property
    def bga(self) -> float:
        """Back-gate activity: V_T-control toggles per cycle."""
        return self.runs / self.total_instructions

    @property
    def mean_run_length(self) -> float:
        """Average consecutive-use run length (uses per power-up)."""
        return self.uses / self.runs if self.runs else 0.0


@dataclass(frozen=True)
class FunctionalUnitProfile:
    """Profile of one program execution (one paper table)."""

    program_name: str
    total_instructions: int
    units: Dict[str, UnitStats]

    def stats(self, unit: str) -> UnitStats:
        """Stats for one unit."""
        try:
            return self.units[unit]
        except KeyError:
            raise ProfileError(
                f"unknown unit {unit!r}; tracked: {sorted(self.units)}"
            ) from None

    def fga(self, unit: str) -> float:
        """Shortcut for ``stats(unit).fga``."""
        return self.stats(unit).fga

    def bga(self, unit: str) -> float:
        """Shortcut for ``stats(unit).bga``."""
        return self.stats(unit).bga

    def merged_with(
        self, other: "FunctionalUnitProfile"
    ) -> "FunctionalUnitProfile":
        """Concatenate two runs (a "session" profile).

        Uses, runs and totals add; this is how a whole interactive
        session mixing several programs is summarized before the
        Fig. 10 placement.
        """
        names = set(self.units) | set(other.units)
        total = self.total_instructions + other.total_instructions
        units = {}
        for name in names:
            mine = self.units.get(name)
            theirs = other.units.get(name)
            units[name] = UnitStats(
                unit=name,
                uses=(mine.uses if mine else 0)
                + (theirs.uses if theirs else 0),
                runs=(mine.runs if mine else 0)
                + (theirs.runs if theirs else 0),
                total_instructions=total,
            )
        return FunctionalUnitProfile(
            program_name=f"{self.program_name}+{other.program_name}",
            total_instructions=total,
            units=units,
        )

    def scaled_by_duty_cycle(self, duty: float) -> "FunctionalUnitProfile":
        """Profile of the same code in a system active ``duty`` of the time.

        The paper's X-server analysis: the processor is idle (cleanly
        gated) most of the time, so every unit's activities scale by
        the system duty cycle.  Counts are scaled in real-time cycles:
        total cycles grow by ``1/duty`` while uses and runs stay fixed.
        """
        if not 0.0 < duty <= 1.0:
            raise ProfileError(f"duty cycle must be in (0, 1], got {duty}")
        scaled_total = max(int(round(self.total_instructions / duty)), 1)
        units = {
            name: UnitStats(
                unit=name,
                uses=stats.uses,
                runs=stats.runs,
                total_instructions=scaled_total,
            )
            for name, stats in self.units.items()
        }
        return FunctionalUnitProfile(
            program_name=f"{self.program_name}@duty={duty:g}",
            total_instructions=scaled_total,
            units=units,
        )


def profile_from_counts(
    program_name: str,
    counts: UnitClassCounts,
    units: Tuple[str, ...] = FUNCTIONAL_UNITS,
) -> FunctionalUnitProfile:
    """Fold a counted run's transition matrix into a unit profile.

    Per-unit uses and run onsets are exact functions of the
    class-transition counts: an instruction of class ``c`` uses every
    unit in ``c``, and starts a run of unit ``u`` exactly when ``u`` is
    in ``c`` but not in the predecessor class ``p``.  Summing
    ``transitions[p][c]`` under those predicates therefore reproduces
    what a per-instruction hook would count, without having observed
    any individual instruction.
    """
    if counts.retired == 0:
        raise ProfileError("no instructions retired; nothing to profile")
    uses = {unit: 0 for unit in units}
    runs = {unit: 0 for unit in units}
    classes = counts.classes
    k = len(classes)
    transitions = counts.transitions
    for p in range(k):
        previous_units = classes[p]
        base = p * k
        for c in range(k):
            count = transitions[base + c]
            if not count:
                continue
            for unit in classes[c]:
                uses[unit] += count
                if unit not in previous_units:
                    runs[unit] += count
    return FunctionalUnitProfile(
        program_name=program_name,
        total_instructions=counts.retired,
        units={
            unit: UnitStats(
                unit=unit,
                uses=uses[unit],
                runs=runs[unit],
                total_instructions=counts.retired,
            )
            for unit in units
        },
    )


def profile_program(
    program: Program,
    max_instructions: int = 50_000_000,
    machine: Optional[Machine] = None,
) -> FunctionalUnitProfile:
    """Run a program to completion and return its unit profile.

    Parameters
    ----------
    program:
        The assembled workload.
    max_instructions:
        Execution budget guard.
    machine:
        Optionally a pre-configured machine (e.g. with hooks, which
        still observe every retired instruction); a fresh one is
        created otherwise.
    """
    if machine is None:
        machine = Machine(program)
    counts = machine.run_counted(max_instructions=max_instructions)
    return profile_from_counts(program.name, counts)
