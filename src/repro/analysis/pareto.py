"""Energy-delay design-space exploration and Pareto fronts (extension).

The paper's Figs. 3-4 slice the (V_DD, V_T) plane along fixed-delay
loci.  The full picture is the energy-delay plane: each (V_DD, V_T)
pair is a design point with a delay and a per-operation energy, and
only the non-dominated frontier matters.  Classic summary metrics —
minimum energy-delay product, minimum energy at a delay bound — fall
out of the same exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.device.technology import Technology
from repro.errors import AnalysisError
from repro.power.optimizer import RingOscillatorModel

__all__ = ["DesignPoint", "pareto_front", "EnergyDelayExplorer"]


@dataclass(frozen=True)
class DesignPoint:
    """One (V_DD, V_T) operating point with its costs."""

    vdd: float
    vt: float
    delay_s: float
    energy_j: float

    @property
    def energy_delay_product(self) -> float:
        """EDP [J·s], the classic balanced metric."""
        return self.energy_j * self.delay_s

    def dominates(self, other: "DesignPoint") -> bool:
        """Faster-or-equal AND lower-or-equal energy, better in one."""
        return (
            self.delay_s <= other.delay_s
            and self.energy_j <= other.energy_j
            and (
                self.delay_s < other.delay_s
                or self.energy_j < other.energy_j
            )
        )


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by increasing delay.

    Along the returned front the energy is strictly decreasing — the
    canonical energy-delay trade curve.
    """
    if not points:
        raise AnalysisError("no design points")
    ordered = sorted(points, key=lambda p: (p.delay_s, p.energy_j))
    front: List[DesignPoint] = []
    best_energy = float("inf")
    for point in ordered:
        if point.energy_j < best_energy:
            front.append(point)
            best_energy = point.energy_j
    return front


class EnergyDelayExplorer:
    """Grid exploration of the (V_DD, V_T) plane for a ring module.

    Each point's delay is the ring stage delay; its energy is the
    per-cycle energy of the ring clocked at its own speed (one ring
    period, ``2 * stages`` stage delays, per operation), so the
    leakage term grows as the design slows — the mechanism that curls
    the Pareto front back up at the low-energy end.
    """

    def __init__(
        self, technology: Technology, stages: int = 51, activity: float = 1.0
    ):
        self.ring = RingOscillatorModel(
            technology, stages=stages, activity=activity
        )

    def design_point(self, vdd: float, vt: float) -> DesignPoint:
        """Evaluate one (V_DD, V_T) pair."""
        delay = self.ring.stage_delay(vdd, vt)
        operating = self.ring.energy_per_cycle(
            vdd, vt, (2 * self.ring.stages) * delay
        )
        return DesignPoint(
            vdd=vdd,
            vt=vt,
            delay_s=delay,
            energy_j=operating.energy_per_cycle_j,
        )

    def explore(
        self,
        vdd_grid: Sequence[float],
        vt_grid: Sequence[float],
    ) -> List[DesignPoint]:
        """Evaluate the full cartesian grid."""
        if not vdd_grid or not vt_grid:
            raise AnalysisError("empty exploration grid")
        return [
            self.design_point(vdd, vt)
            for vdd in vdd_grid
            for vt in vt_grid
        ]

    def front(
        self,
        vdd_grid: Sequence[float],
        vt_grid: Sequence[float],
    ) -> List[DesignPoint]:
        """Pareto-optimal subset of the grid."""
        return pareto_front(self.explore(vdd_grid, vt_grid))

    def minimum_edp_point(
        self,
        vdd_grid: Sequence[float],
        vt_grid: Sequence[float],
    ) -> DesignPoint:
        """Grid point with the lowest energy-delay product."""
        return min(
            self.explore(vdd_grid, vt_grid),
            key=lambda p: p.energy_delay_product,
        )

    def minimum_energy_under_delay(
        self,
        vdd_grid: Sequence[float],
        vt_grid: Sequence[float],
        delay_bound_s: float,
    ) -> DesignPoint:
        """Lowest-energy grid point meeting a delay budget."""
        feasible = [
            p
            for p in self.explore(vdd_grid, vt_grid)
            if p.delay_s <= delay_bound_s
        ]
        if not feasible:
            raise AnalysisError(
                f"no grid point meets the {delay_bound_s:.3e} s bound"
            )
        return min(feasible, key=lambda p: p.energy_j)
