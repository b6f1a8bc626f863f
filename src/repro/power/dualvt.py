"""Dual-V_T assignment: high-V_T cells off the critical path.

Section 4 of the paper introduces multiple-threshold processes for
*standby* gating; the same process enables a static synthesis
optimization the paper's framework implies but does not spell out:
give every gate with timing slack the high threshold and keep low-V_T
devices only where speed is paid for.  Leakage falls by orders of
magnitude on the (usually large) off-critical fraction of the netlist
at zero — or bounded — performance cost.

:class:`DualVtOptimizer` implements the classic greedy: rank gates by
slack, tentatively move each to high V_T, keep the move if the
critical path still meets the delay budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import OptimizationError

__all__ = ["DualVtAssignment", "DualVtOptimizer"]


@dataclass(frozen=True)
class DualVtAssignment:
    """Result of one dual-V_T optimization run."""

    high_vt_gates: FrozenSet[str]
    total_gates: int
    delay_s: float
    leakage_a: float
    baseline_delay_s: float
    baseline_leakage_a: float

    @property
    def high_vt_fraction(self) -> float:
        """Fraction of gates moved to the high threshold."""
        return len(self.high_vt_gates) / self.total_gates

    @property
    def leakage_reduction(self) -> float:
        """baseline / optimized leakage (>= 1)."""
        if self.leakage_a <= 0.0:
            return float("inf")
        return self.baseline_leakage_a / self.leakage_a

    @property
    def delay_penalty(self) -> float:
        """Fractional critical-path growth vs the all-low-V_T design."""
        return self.delay_s / self.baseline_delay_s - 1.0


class DualVtOptimizer:
    """Greedy slack-driven dual-V_T assignment for one netlist.

    Parameters
    ----------
    netlist:
        The design (combinational or sequential).
    technology:
        Base process; its logic V_T is the *low* threshold.
    vdd:
        Operating supply [V].
    high_vt_shift:
        How far above the base threshold the high-V_T cells sit [V]
        (e.g. 0.264 V — the SOIAS standby/active gap, or an MTCMOS
        second implant).
    """

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        high_vt_shift: float = 0.264,
        wire_length_per_fanout_um: float = 5.0,
    ):
        if high_vt_shift <= 0.0:
            raise OptimizationError("high_vt_shift must be positive")
        if not 0.0 < vdd < math.inf:
            raise OptimizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        netlist.validate()
        self.netlist = netlist
        self.technology = technology
        self.vdd = vdd
        self.high_vt_shift = high_vt_shift
        self._plan = NetlistPlan(
            netlist, technology, wire_length_per_fanout_um
        )

    # ------------------------------------------------------------------
    def leakage(self, assignment: Optional[FrozenSet[str]] = None) -> float:
        """Netlist leakage current for a high-V_T gate set [A]."""
        shifts = dict.fromkeys(assignment or (), self.high_vt_shift)
        (total,) = self._plan.leakage_currents(self.vdd, (0.0,), shifts)
        return total

    def delay(self, assignment: Optional[FrozenSet[str]] = None) -> float:
        """Critical-path delay for a high-V_T gate set [s]."""
        return self._plan.analyze(
            self.vdd, 0.0, dict.fromkeys(assignment or (), self.high_vt_shift)
        ).delay_s

    # ------------------------------------------------------------------
    def optimize(
        self, delay_budget: float = 1.0, max_passes: int = 2
    ) -> DualVtAssignment:
        """Greedy assignment under a delay budget.

        ``delay_budget`` is the allowed critical-path growth factor
        (1.0 = no slowdown).  Gates are visited most-slack-first;
        each accepted move keeps the timing check green.  A second
        pass picks up gates whose slack grew after others slowed.
        """
        if not 1.0 <= delay_budget < math.inf:
            raise OptimizationError(
                f"delay budget must be >= 1.0 and finite, got {delay_budget}"
            )
        if max_passes < 1:
            raise OptimizationError("max_passes must be >= 1")
        baseline_delay = self.delay()
        baseline_leakage = self.leakage()
        target = baseline_delay * delay_budget

        assignment: set = set()
        for _ in range(max_passes):
            shifts = dict.fromkeys(assignment, self.high_vt_shift)
            slacks = self._plan.slacks(
                self.vdd, per_instance_vt_shifts=shifts, required_time_s=target
            )
            candidates = sorted(
                (
                    name
                    for name in self.netlist.instances
                    if name not in assignment
                ),
                key=lambda name: slacks[name],
                reverse=True,
            )
            accepted_this_pass = 0
            for name in candidates:
                if slacks[name] <= 0.0:
                    break  # all remaining gates are tighter still
                trial = frozenset(assignment | {name})
                if self.delay(trial) <= target:
                    assignment.add(name)
                    accepted_this_pass += 1
            if accepted_this_pass == 0:
                break

        final = frozenset(assignment)
        return DualVtAssignment(
            high_vt_gates=final,
            total_gates=len(self.netlist.instances),
            delay_s=self.delay(final),
            leakage_a=self.leakage(final),
            baseline_delay_s=baseline_delay,
            baseline_leakage_a=baseline_leakage,
        )
