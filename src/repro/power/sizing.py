"""Slack-driven gate downsizing (extension).

The complement of dual-V_T assignment: gates with timing slack shrink.
A size factor ``k < 1`` scales every device width in the cell, cutting
its input capacitance (less switching energy for *upstream* drivers),
its leakage, and its area — at the cost of drive strength, so the
critical path must be re-checked.  Combined with dual-V_T this is the
classic post-synthesis leakage/power recovery pair.

:class:`GateSizingOptimizer` runs the greedy: visit gates
most-slack-first, try the smallest allowed size, keep the largest
downsizing that still meets the delay budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.circuits.netlist import Netlist
from repro.circuits.timing import StaticTimingAnalyzer
from repro.device.technology import Technology
from repro.errors import OptimizationError
from repro.tech.characterize import CellCharacterizer

__all__ = ["SizingSolution", "GateSizingOptimizer"]


@dataclass(frozen=True)
class SizingSolution:
    """Result of one sizing run."""

    size_factors: Mapping[str, float]
    delay_s: float
    baseline_delay_s: float
    input_capacitance_f: float
    baseline_input_capacitance_f: float
    leakage_a: float
    baseline_leakage_a: float

    @property
    def downsized_gates(self) -> int:
        """Gates assigned a factor below 1."""
        return sum(1 for k in self.size_factors.values() if k < 1.0)

    @property
    def capacitance_reduction(self) -> float:
        """baseline / optimized total input capacitance (>= 1)."""
        return (
            self.baseline_input_capacitance_f / self.input_capacitance_f
        )

    @property
    def leakage_reduction(self) -> float:
        """baseline / optimized leakage (>= 1)."""
        return self.baseline_leakage_a / self.leakage_a

    @property
    def delay_penalty(self) -> float:
        """Fractional critical-path growth."""
        return self.delay_s / self.baseline_delay_s - 1.0


class GateSizingOptimizer:
    """Greedy slack-driven downsizing for one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        allowed_factors: Sequence[float] = (0.35, 0.5, 0.7),
        wire_length_per_fanout_um: float = 5.0,
    ):
        if not 0.0 < vdd < math.inf:
            raise OptimizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        if not allowed_factors:
            raise OptimizationError("need at least one allowed factor")
        if any(not 0.0 < k < 1.0 for k in allowed_factors):
            raise OptimizationError(
                "allowed factors must lie strictly in (0, 1)"
            )
        netlist.validate()
        self.netlist = netlist
        self.technology = technology
        self.vdd = vdd
        self.allowed_factors = tuple(sorted(allowed_factors))
        self._analyzer = StaticTimingAnalyzer(
            technology, wire_length_per_fanout_um
        )
        self._characterizer = CellCharacterizer(technology)

    # ------------------------------------------------------------------
    def delay(self, sizes: Optional[Mapping[str, float]] = None) -> float:
        """Critical path under a sizing [s]."""
        return self._analyzer.analyze(
            self.netlist, self.vdd, per_instance_size_factors=sizes or {}
        ).delay_s

    def total_input_capacitance(
        self, sizes: Optional[Mapping[str, float]] = None
    ) -> float:
        """Sum of (sized) input capacitances — the switching-cost proxy."""
        sizes = sizes or {}
        return sum(
            instance.cell.input_capacitance(self.technology, self.vdd)
            * instance.cell.n_inputs
            * sizes.get(name, 1.0)
            for name, instance in self.netlist.instances.items()
        )

    def leakage(self, sizes: Optional[Mapping[str, float]] = None) -> float:
        """Netlist leakage under a sizing [A] (linear in width)."""
        sizes = sizes or {}
        return sum(
            self._characterizer.leakage_current(instance.cell, self.vdd)
            * sizes.get(name, 1.0)
            for name, instance in self.netlist.instances.items()
        )

    # ------------------------------------------------------------------
    def optimize(self, delay_budget: float = 1.0) -> SizingSolution:
        """Greedy downsizing under a delay budget (growth factor)."""
        if not 1.0 <= delay_budget < math.inf:
            raise OptimizationError(
                f"delay budget must be >= 1.0 and finite, got {delay_budget}"
            )
        baseline_delay = self.delay()
        target = baseline_delay * delay_budget
        sizes: Dict[str, float] = {}

        slacks = self._analyzer.slacks(
            self.netlist, self.vdd, required_time_s=target
        )
        candidates = sorted(
            self.netlist.instances, key=lambda n: slacks[n], reverse=True
        )
        for name in candidates:
            if slacks[name] <= 0.0:
                break
            for factor in self.allowed_factors:  # smallest first
                trial = dict(sizes)
                trial[name] = factor
                if self.delay(trial) <= target:
                    sizes[name] = factor
                    break

        return SizingSolution(
            size_factors=dict(sizes),
            delay_s=self.delay(sizes),
            baseline_delay_s=baseline_delay,
            input_capacitance_f=self.total_input_capacitance(sizes),
            baseline_input_capacitance_f=self.total_input_capacitance(),
            leakage_a=self.leakage(sizes),
            baseline_leakage_a=self.leakage(),
        )
