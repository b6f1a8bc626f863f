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
the optimum-energy locus is a curve on the plane.  ``refine_levels``
subdivides only the cells that touch the feasibility boundary or sit
within ``refine_band`` of their row's minimum — the locus is resolved
at ``2**levels`` times the base grid without re-sampling the flat
high-energy regions, which is faster than the uniform grid at the
same finest resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.sweep import Sweep2D
from repro.device.technology import Technology
from repro.errors import AnalysisError

__all__ = ["EnergySurface", "RefinedSurface", "energy_surface"]

#: Subdivision-depth bound: each level doubles both axes, so 10 levels
#: already turn a 24-point axis into ~23k points.
_MAX_REFINE_LEVELS = 10


class _EnergyCell:
    """One (V_T, V_DD) surface cell.

    Returns the ring's cycle energy [J] when the stage delay meets the
    per-stage budget, ``None`` where the corner is infeasible.  A cell
    is one :class:`~repro.power.optimizer.RingOscillatorModel`, decoded
    once: its inverter's corner plan at ``V_T0 = 0`` takes every V_T as
    its kernels' shift, driving a fanout of 1, and every value is the
    ring's own :meth:`~repro.power.optimizer.RingOscillatorModel.
    cycle_energies` (pinned against ``energy_per_cycle`` by
    ``tests/analysis/test_surface.py``).
    """

    def __init__(
        self,
        technology: Technology,
        stages: int,
        activity: float,
        t_cycle_s: float,
        target_stage_delay_s: float,
    ):
        from repro.power.optimizer import RingOscillatorModel

        self.t_cycle_s = t_cycle_s
        self.target_stage_delay_s = target_stage_delay_s
        self.ring = RingOscillatorModel(technology, stages, activity)
        self.plan = self.ring._plan

    def __call__(self, vt: float, vdd: float) -> Optional[float]:
        return self.row(vt, (vdd,), self.plan.supplies((vdd,), fanout=1))[0]

    def row(
        self, vt: float, vdds: Sequence[float], supplies: Sequence[tuple]
    ) -> Tuple[Optional[float], ...]:
        """One whole V_T row through the plan's batched kernel.

        ``supplies`` is the plan's fanout-1 ``supplies(vdds)``: nothing
        in them depends on V_T, so a grid computes its V_DD axis once
        for every row.  Bit-identical to calling the cell per point —
        the kernel evaluates points independently.
        """
        return tuple(self.ring.cycle_energies(
            vdds, (vt,) * len(vdds), self.t_cycle_s, supplies,
            self.target_stage_delay_s,
        ))


@dataclass(frozen=True)
class RefinedSurface:
    """Adaptively refined view of an energy surface near its locus.

    ``xs``/``ys`` are the finest-level axes (every base interval
    subdivided ``levels`` times); ``indices``/``values`` hold the
    sparse set of evaluated points on that lattice — the full base
    grid plus the midpoints spawned inside cells near the
    optimum-energy locus.  Points far from it are never evaluated,
    which is the entire saving.
    """

    levels: int
    band: float
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    indices: Tuple[Tuple[int, int], ...]
    values: Tuple[Optional[float], ...]
    cells_refined: int
    cells_skipped: int

    def known(self) -> Dict[Tuple[int, int], Optional[float]]:
        """Evaluated finest-lattice points as an ``{(i, j): z}`` map."""
        return dict(zip(self.indices, self.values))

    def value_at(self, i: int, j: int) -> Optional[float]:
        """Value at one finest-lattice point (raises if unevaluated)."""
        try:
            return self.known()[(i, j)]
        except KeyError:
            raise AnalysisError(
                f"point ({i}, {j}) was not evaluated (outside the "
                f"refinement band)"
            )

    @property
    def evaluated(self) -> int:
        """Number of points actually evaluated."""
        return len(self.indices)

    @property
    def total_points(self) -> int:
        """Points a uniform grid at finest resolution would evaluate."""
        return len(self.xs) * len(self.ys)

    @property
    def coverage(self) -> float:
        """Evaluated fraction of the equivalent uniform grid."""
        return self.evaluated / self.total_points


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
    #: Present when the surface was computed with ``refine_levels > 0``.
    refined: Optional[RefinedSurface] = field(default=None)

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


def _row_batched_grid(
    cell: _EnergyCell,
    vt_values: Sequence[float],
    vdd_values: Sequence[float],
) -> Sweep2D:
    """The base grid, one batched kernel pass per V_T row."""
    vdds = [float(vdd) for vdd in vdd_values]
    supplies = cell.plan.supplies(vdds, fanout=1)
    rows = [cell.row(vt, vdds, supplies) for vt in vt_values]
    return Sweep2D(
        x_name="vt",
        y_name="vdd",
        z_name="energy_per_cycle_j",
        xs=tuple(float(vt) for vt in vt_values),
        ys=tuple(vdds),
        zs=tuple(rows),
    )


def _row_minima(
    known: Dict[Tuple[int, int], Optional[float]],
) -> Dict[int, float]:
    """Per-V_T-row minimum over the defined known lattice values."""
    minima: Dict[int, float] = {}
    for (i, _j), value in known.items():
        if value is None:
            continue
        current = minima.get(i)
        if current is None or value < current:
            minima[i] = value
    return minima


def _near_optimum(
    corners: Sequence[Optional[float]],
    rows: Sequence[int],
    row_min: Dict[int, float],
    band: float,
) -> bool:
    """Refinement criterion for one cell of the energy surface.

    A cell is interesting when it touches the feasibility boundary
    (mixed defined/None corners — the minimum-energy V_DD hugs that
    edge at low V_T) or when any corner is within a relative ``band``
    of its own row's minimum (the optimum-energy locus proper).
    """
    defined = [value for value in corners if value is not None]
    if not defined:
        return False
    if len(defined) < len(corners):
        return True
    return any(
        value <= (1.0 + band) * row_min[row]
        for row, value in zip(rows, corners)
    )


def _subdivide_axis(
    values: Sequence[float], levels: int
) -> Tuple[float, ...]:
    """Insert midpoints into every interval, ``levels`` times over."""
    axis = [float(value) for value in values]
    for _ in range(levels):
        finer = []
        for left, right in zip(axis[:-1], axis[1:]):
            finer.append(left)
            finer.append(0.5 * (left + right))
        finer.append(axis[-1])
        axis = finer
    return tuple(axis)


def _refine_energy_surface(
    cell: _EnergyCell,
    grid: Sweep2D,
    levels: int,
    band: float,
) -> RefinedSurface:
    """Recursively subdivide only the cells near the optimum locus.

    Each level evaluates the five new points (edge midpoints and
    center) of every cell :func:`_near_optimum` marks, on the
    finest-level lattice; the other cells are never re-sampled.
    """
    stride = 1 << levels
    xs = _subdivide_axis(grid.xs, levels)
    ys = _subdivide_axis(grid.ys, levels)
    known: Dict[Tuple[int, int], Optional[float]] = {}
    for i, row in enumerate(grid.zs):
        for j, value in enumerate(row):
            known[(i * stride, j * stride)] = value
    active = [
        (i * stride, j * stride)
        for i in range(len(grid.xs) - 1)
        for j in range(len(grid.ys) - 1)
    ]
    refined = 0
    skipped = 0
    for level in range(levels):
        size = stride >> level
        half = size >> 1
        row_min = _row_minima(known)
        targets = []
        for i, j in active:
            corners = (
                known[(i, j)],
                known[(i, j + size)],
                known[(i + size, j)],
                known[(i + size, j + size)],
            )
            rows = (i, i, i + size, i + size)
            if _near_optimum(corners, rows, row_min, band):
                targets.append((i, j))
            else:
                skipped += 1
        refined += len(targets)
        if not targets:
            break
        # Shared edges between neighbouring targets (and points
        # evaluated at earlier levels) dedup through the set.
        needed = sorted(
            {
                point
                for i, j in targets
                for point in (
                    (i, j + half),
                    (i + half, j),
                    (i + half, j + half),
                    (i + half, j + size),
                    (i + size, j + half),
                )
                if point not in known
            }
        )
        for i, j in needed:
            known[(i, j)] = cell(xs[i], ys[j])
        active = [
            (i + di, j + dj)
            for i, j in targets
            for di in (0, half)
            for dj in (0, half)
        ]
    if obs.ENABLED:
        if refined:
            obs.incr("surface.cells_refined", refined)
        if skipped:
            obs.incr("surface.cells_skipped", skipped)
    indices = tuple(sorted(known))
    return RefinedSurface(
        levels=levels,
        band=band,
        xs=xs,
        ys=ys,
        indices=indices,
        values=tuple(known[point] for point in indices),
        cells_refined=refined,
        cells_skipped=skipped,
    )


def energy_surface(
    technology: Technology,
    vt_values: Sequence[float],
    vdd_values: Sequence[float],
    t_cycle_s: float,
    stages: int = 101,
    activity: float = 1.0,
    refine_levels: int = 0,
    refine_band: float = 0.2,
) -> EnergySurface:
    """Sample the Fig. 3/4 energy plane over a (V_T, V_DD) grid.

    The cycle time is one ring period, so the per-stage delay budget is
    ``t_cycle_s / (2 * stages)`` — matching
    :meth:`repro.core.flow.LowVoltageDesignFlow.throughput_optimizer`.
    Cells whose stage delay misses the budget come back as ``None``.

    The grid is evaluated V_T-major through one decoded ring per call,
    each row one :meth:`~repro.power.optimizer.RingOscillatorModel.
    cycle_energies` pass along the whole V_DD axis with the V_T as the
    plan's shift; nothing is cached across calls.

    ``refine_levels > 0`` turns on **adaptive locus refinement**: the
    cells whose corners touch the feasibility boundary or fall within
    ``refine_band`` (relative) of their row's energy minimum are
    recursively subdivided — the optimum-energy locus is resolved at
    ``2**levels`` times the grid resolution while flat regions are
    never re-sampled.  The sparse points live in ``surface.refined``.
    """
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
    if refine_levels < 0:
        raise AnalysisError(
            f"refine_levels must be >= 0, got {refine_levels}"
        )
    if refine_levels > _MAX_REFINE_LEVELS:
        raise AnalysisError(
            f"refine_levels must be <= {_MAX_REFINE_LEVELS}, "
            f"got {refine_levels}"
        )
    if refine_levels > 0:
        if refine_band <= 0.0:
            raise AnalysisError(
                f"refine_band must be positive, got {refine_band}"
            )
        if len(vt_values) < 2 or len(vdd_values) < 2:
            raise AnalysisError(
                "refinement needs at least two points per axis"
            )
    target_stage_delay_s = t_cycle_s / (2 * stages)
    with obs.span("analysis.energy_surface"):
        cell = _EnergyCell(
            technology, stages, activity, t_cycle_s, target_stage_delay_s
        )
        grid = _row_batched_grid(cell, vt_values, vdd_values)
    refined = None
    if refine_levels > 0:
        with obs.span("analysis.surface_refine"):
            refined = _refine_energy_surface(
                cell, grid, refine_levels, refine_band
            )
    return EnergySurface(
        grid=grid,
        t_cycle_s=t_cycle_s,
        target_stage_delay_s=target_stage_delay_s,
        stages=stages,
        activity=activity,
        refined=refined,
    )
