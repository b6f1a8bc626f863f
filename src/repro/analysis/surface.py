"""The Fig. 3/4 energy surface over the (V_DD, V_T) plane.

Figs. 3 and 4 of the paper study a fixed-throughput ring oscillator:
for each (V_DD, V_T) pair the ring either meets the cycle-time budget
or it does not, and where it does, the cycle energy is the Fig. 4
switching-plus-leakage sum.  This module samples that plane on a
(V_T, V_DD) grid — one decoded :class:`~repro.tech.opplan.
OperatingPlan` per call serves every row with the V_T as its shift,
and the V_DD axis's loads are computed once for all rows, which is
what makes whole-plane evaluation cheap — and marks infeasible cells
(stage delay above the per-stage budget) as ``None``.

The interesting structure is one-dimensional: per V_T row, energy
falls with V_DD until leakage-vs-delay trade-off turns it around, so
the optimum-energy locus is a curve on the plane.  ``refine_levels``
reuses the adaptive machinery behind the Fig. 10 contour
(:mod:`repro.analysis.contour`) to subdivide only the cells that touch
the feasibility boundary or sit within ``refine_band`` of their row's
minimum — the locus is resolved at ``2**levels`` times the base grid
without re-sampling the flat high-energy regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.contour import (
    _MAX_REFINE_LEVELS,
    RefinedSurface,
    _evaluate_points,
    _subdivide_axis,
)
from repro.analysis.sweep import Sweep2D, sweep_2d
from repro.device.technology import Technology
from repro.errors import AnalysisError

__all__ = ["EnergySurface", "energy_surface"]

class _EnergyCell:
    """One (V_T, V_DD) surface cell; a class so the fan-out can pickle it.

    Returns the ring's cycle energy [J] when the stage delay meets the
    per-stage budget, ``None`` where the corner is infeasible.  Like
    :class:`~repro.power.optimizer.RingOscillatorModel`, a cell decodes
    once: the fanout-1 inverter plan at ``V_T0 = 0``, built on first
    use and never pickled, takes every V_T as its kernels' shift.  The
    plan kernels and the association below are float-for-float the
    ring's :meth:`~repro.power.optimizer.RingOscillatorModel.stage_delay` /
    :meth:`~repro.power.optimizer.RingOscillatorModel.energy_per_cycle`
    chain (pinned by ``tests/analysis/test_surface.py``), minus the
    per-point memo traffic — a pure function of its coordinates, so
    parallel, scheduled, store-restored and serial evaluations are
    bit-identical.
    """

    __slots__ = (
        "technology",
        "stages",
        "activity",
        "t_cycle_s",
        "target_stage_delay_s",
        "_plan",
    )

    def __init__(
        self,
        technology: Technology,
        stages: int,
        activity: float,
        t_cycle_s: float,
        target_stage_delay_s: float,
    ):
        self.technology = technology
        self.stages = stages
        self.activity = activity
        self.t_cycle_s = t_cycle_s
        self.target_stage_delay_s = target_stage_delay_s
        self._plan = None

    @property
    def plan(self):
        """The fanout-1 inverter plan at ``V_T0 = 0``, decoded once."""
        if self._plan is None:
            from repro.power.optimizer import _zero_threshold_decode

            _, self._plan = _zero_threshold_decode(self.technology)
        return self._plan

    def __call__(self, vt: float, vdd: float) -> Optional[float]:
        plan = self.plan
        if plan.delay(vdd, vt) > self.target_stage_delay_s:
            return None
        switching_per_stage, leak_per_stage = plan.energies((vdd,), vt)[0]
        switching = self.stages * self.activity * switching_per_stage
        leakage_current = self.stages * leak_per_stage
        return switching + leakage_current * vdd * self.t_cycle_s

    def row(
        self, vt: float, vdds: Sequence[float], loads: Sequence[tuple]
    ) -> Tuple[Optional[float], ...]:
        """One whole V_T row through the plan's batched kernel.

        ``loads`` is ``plan.loads(vdds)``: C(V) does not depend on V_T,
        so a grid computes its V_DD axis's loads once for every row.
        Bit-identical to calling the cell per point — the kernel
        evaluates points independently.
        """
        points = self.plan.operating_points(
            vdds, vt, self.target_stage_delay_s, loads
        )
        stages = self.stages
        stages_activity = stages * self.activity
        t_cycle_s = self.t_cycle_s
        out = []
        append = out.append
        for vdd, (_delay, switching_per_stage, leak_per_stage) in zip(
            vdds, points
        ):
            if switching_per_stage is None:
                append(None)
                continue
            switching = stages_activity * switching_per_stage
            leakage_current = stages * leak_per_stage
            append(switching + leakage_current * vdd * t_cycle_s)
        return tuple(out)

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)
        self._plan = None


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
    cycle_stages: int
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
    progress: Optional[Callable[[int, int], None]],
) -> Sweep2D:
    """Serial base grid, one batched kernel pass per V_T row."""
    vdds = [float(vdd) for vdd in vdd_values]
    loads = cell.plan.loads(vdds)
    total = len(vt_values) * len(vdds)
    done = 0
    rows = []
    for vt in vt_values:
        rows.append(cell.row(vt, vdds, loads))
        done += len(vdds)
        if progress is not None:
            progress(done, total)
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


def _refine_energy_surface(
    cell: _EnergyCell,
    store_inputs: Optional[list],
    grid: Sweep2D,
    levels: int,
    band: float,
    workers: int,
    progress,
    store,
    checkpoint_every: int,
    scheduler=None,
) -> RefinedSurface:
    """Recursively subdivide only the cells near the optimum locus.

    Same sparse-lattice bookkeeping as the Fig. 10 contour refinement
    (:func:`repro.analysis.contour._refine_surface`), with the
    interest test swapped for :func:`_near_optimum` — here the target
    is an energy minimum per row, not a zero crossing.
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
        if needed:
            store_key = None
            if store is not None:
                from repro.store.hashing import request_digest

                store_key = request_digest(
                    "energy-surface-refine",
                    *store_inputs,
                    levels,
                    band,
                    level,
                )
            values = _evaluate_points(
                cell, needed, xs, ys, workers, progress, store,
                store_key, checkpoint_every, scheduler=scheduler,
                min_parallel_items=0,
            )
            known.update(zip(needed, values))
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
    cycle_stages: Optional[int] = None,
    workers: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
    store=None,
    checkpoint_every: int = 32,
    refine_levels: int = 0,
    refine_band: float = 0.2,
    scheduler=None,
) -> EnergySurface:
    """Sample the Fig. 3/4 energy plane over a (V_T, V_DD) grid.

    ``cycle_stages`` converts the cycle time into the per-stage delay
    budget ``t_cycle_s / cycle_stages`` (default ``2 * stages``, the
    ring's own period — matching
    :meth:`repro.core.flow.LowVoltageDesignFlow.throughput_optimizer`).
    Cells whose stage delay misses the budget come back as ``None``.

    The grid is evaluated V_T-major through one decoded operating plan
    per call, each row one kernel pass along the whole V_DD axis with
    the V_T as the plan's shift; nothing is cached across calls.
    ``workers`` fans rows' cells across processes (0 = serial; ring
    cells are expensive enough that the small-grid serial gate is
    disabled here) and the sampled surface is identical for any worker
    count.  ``progress(done_cells, total_cells)`` reports completion.

    With ``store`` (a :class:`repro.store.ResultStore`) the grid is
    checkpointed under a canonical digest of every input, so a killed
    surface resumes from its completed chunks and an identical
    re-request is served entirely from the store.

    ``refine_levels > 0`` turns on **adaptive locus refinement**: the
    same machinery that sharpens the Fig. 10 break-even contour
    recursively subdivides the cells whose corners touch the
    feasibility boundary or fall within ``refine_band`` (relative) of
    their row's energy minimum — the optimum-energy locus is resolved
    at ``2**levels`` times the grid resolution while flat regions are
    never re-sampled.  The sparse points live in ``surface.refined``;
    with a store each level checkpoints under its own digest.

    ``scheduler`` (a :class:`repro.sched.Scheduler`) evaluates the
    grid — and every refinement level — through the durable work
    queue; ``workers`` is then ignored and the surface stays
    bit-identical to the serial path.
    """
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
    if cycle_stages is None:
        cycle_stages = 2 * stages
    if cycle_stages < 1:
        raise AnalysisError(
            f"cycle_stages must be >= 1, got {cycle_stages}"
        )
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
    target_stage_delay_s = t_cycle_s / cycle_stages
    cell = _EnergyCell(
        technology, stages, activity, t_cycle_s, target_stage_delay_s
    )
    store_inputs = None
    store_key = None
    if store is not None:
        from repro.store.hashing import request_digest, technology_digest

        store_inputs = [
            technology_digest(technology),
            stages,
            activity,
            t_cycle_s,
            target_stage_delay_s,
            [float(v) for v in vt_values],
            [float(v) for v in vdd_values],
        ]
        store_key = request_digest("energy-surface", *store_inputs)
    with obs.span("analysis.energy_surface"):
        if workers == 0 and store is None and scheduler is None:
            # The plain serial grid goes row-at-a-time through the
            # plan's batched kernels — one decode and one tight loop
            # per V_T.  The fan-out/checkpoint/queue paths below keep
            # the per-cell contract (chunking, restore and progress
            # are all cell-keyed) and produce the same floats, since
            # the kernels evaluate points independently.
            grid = _row_batched_grid(
                cell, vt_values, vdd_values, progress
            )
        else:
            grid = sweep_2d(
                "vt",
                "vdd",
                "energy_per_cycle_j",
                vt_values,
                vdd_values,
                cell,
                workers=workers,
                progress=progress,
                store=store,
                store_key=store_key,
                checkpoint_every=checkpoint_every,
                scheduler=scheduler,
                min_parallel_items=0,
            )
    refined = None
    if refine_levels > 0:
        with obs.span("analysis.surface_refine"):
            refined = _refine_energy_surface(
                cell, store_inputs, grid, refine_levels, refine_band,
                workers, progress, store, checkpoint_every,
                scheduler=scheduler,
            )
    return EnergySurface(
        grid=grid,
        t_cycle_s=t_cycle_s,
        target_stage_delay_s=target_stage_delay_s,
        stages=stages,
        activity=activity,
        cycle_stages=cycle_stages,
        refined=refined,
    )
