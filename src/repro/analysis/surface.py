"""The Fig. 3/4 energy surface over the (V_DD, V_T) plane.

Figs. 3 and 4 of the paper study a fixed-throughput ring oscillator:
for each (V_DD, V_T) pair the ring either meets the cycle-time budget
or it does not, and where it does, the cycle energy is the Fig. 4
switching-plus-leakage sum.  This module samples that plane on a
(V_T, V_DD) grid — one decoded :class:`~repro.tech.opplan.
CornerPlan` per call serves every row with the V_T as its shift,
and the V_DD axis's supply terms are computed once for all rows,
which is what makes whole-plane evaluation cheap — and marks
infeasible cells (stage delay above the per-stage budget) as
``None``.

The interesting structure is one-dimensional: per V_T row, energy
falls with V_DD until leakage-vs-delay trade-off turns it around, so
the optimum-energy locus is a curve on the plane, read off the grid
by :meth:`EnergySurface.optimum_locus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import obs
from repro.analysis.sweep import Sweep2D
from repro.device.technology import Technology
from repro.errors import AnalysisError

__all__ = ["EnergySurface", "energy_surface"]


@dataclass(frozen=True)
class EnergySurface:
    """Cycle energy over the (V_T, V_DD) plane at fixed throughput.

    ``grid.zs[i][j]`` is the ring's energy per cycle at
    ``(vt=grid.xs[i], vdd=grid.ys[j])``, or ``None`` where the stage
    delay misses the per-stage budget ``target_stage_delay_s``.
    """

    grid: Sweep2D
    t_cycle_s: float
    target_stage_delay_s: float
    stages: int
    activity: float

    def optimum_locus(self) -> List[Tuple[float, float, float]]:
        """Per-V_T minimum-energy operating points (Fig. 3's locus).

        One ``(vt, vdd, energy_per_cycle_j)`` row per V_T with at
        least one feasible cell; fully infeasible rows are skipped.
        """
        locus = []
        for i, vt in enumerate(self.grid.xs):
            best = None
            for j, value in enumerate(self.grid.zs[i]):
                if value is None:
                    continue
                if best is None or value < best[1]:
                    best = (self.grid.ys[j], value)
            if best is not None:
                locus.append((vt, best[0], best[1]))
        return locus

    def optimum(self) -> Tuple[float, float, float]:
        """Global minimum: ``(vdd, vt, energy_per_cycle_j)``."""
        locus = self.optimum_locus()
        if not locus:
            raise AnalysisError(
                "no feasible (V_DD, V_T) cell meets the delay target"
            )
        vt, vdd, energy = min(locus, key=lambda row: row[2])
        return vdd, vt, energy


def energy_surface(
    technology: Technology,
    vt_values: Sequence[float],
    vdd_values: Sequence[float],
    t_cycle_s: float,
    stages: int = 101,
    activity: float = 1.0,
) -> EnergySurface:
    """Sample the Fig. 3/4 energy plane over a (V_T, V_DD) grid.

    The cycle time is one ring period, so the per-stage delay budget is
    ``t_cycle_s / (2 * stages)`` — matching
    :meth:`repro.core.flow.LowVoltageDesignFlow.throughput_optimizer`.
    Cells whose stage delay misses the budget come back as ``None``.

    The grid is evaluated V_T-major through one decoded
    :class:`~repro.power.optimizer.RingOscillatorModel` per call: its
    inverter's plan at ``V_T0 = 0`` takes each V_T as its shift, and
    each row is one :meth:`~repro.power.optimizer.RingOscillatorModel.
    cycle_energies` pass along the whole V_DD axis.  The axis's
    fanout-1 supply records do not depend on V_T, so they are computed
    once for every row; the kernel evaluates points independently, so
    each cell is the float a per-point call returns.  Nothing is cached
    across calls.
    """
    from repro.power.optimizer import RingOscillatorModel
    from repro.tech.cells import check_ring_stages

    if not 0.0 < t_cycle_s < math.inf:
        raise AnalysisError(
            f"cycle time must be positive and finite, got {t_cycle_s}"
        )
    if not 0.0 < activity <= 2.0:
        raise AnalysisError(f"activity must be in (0, 2], got {activity}")
    if not all(math.isfinite(vt) for vt in vt_values):
        raise AnalysisError("vt values must be finite")
    if not all(0.0 < vdd < math.inf for vdd in vdd_values):
        raise AnalysisError("vdd values must be positive and finite")
    check_ring_stages(stages, AnalysisError)
    target_stage_delay_s = t_cycle_s / (2 * stages)
    with obs.span("analysis.energy_surface"):
        ring = RingOscillatorModel(technology, stages, activity)
        vdds = [float(vdd) for vdd in vdd_values]
        supplies = ring._plan.supplies(vdds, fanout=1)
        rows = tuple(
            tuple(ring.cycle_energies(
                vdds, (vt,) * len(vdds), t_cycle_s, supplies,
                target_stage_delay_s,
            ))
            for vt in vt_values
        )
    grid = Sweep2D(
        x_name="vt",
        y_name="vdd",
        z_name="energy_per_cycle_j",
        xs=tuple(float(vt) for vt in vt_values),
        ys=tuple(vdds),
        zs=rows,
    )
    return EnergySurface(
        grid=grid,
        t_cycle_s=t_cycle_s,
        target_stage_delay_s=target_stage_delay_s,
        stages=stages,
        activity=activity,
    )
