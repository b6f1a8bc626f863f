"""Fixed-throughput (V_DD, V_T) optimization (paper Figs. 3-4).

For a bounded-computation-rate application the delay is pinned and the
knobs are the supply and the threshold.  At each V_T the optimizer
solves V_DD for the delay target (Fig. 3), prices switching plus
leakage over the operation period, and minimises that energy over V_T
(Fig. 4).  Because lowering V_T lets V_DD drop (quadratic switching
win) while raising leakage (exponential loss), the energy is U-shaped
in V_T with an optimum typically well below 1 V.

:class:`ThroughputOptimizer` is that algorithm, written once.  Two
models plug into it through a handful of hooks:

* :class:`FixedThroughputOptimizer` — the experimental structure the
  paper measured, a :class:`RingOscillatorModel` (stage delay and
  energy per cycle including leakage), whose operation period is one
  ring period.
* :class:`ModuleThroughputOptimizer` — a real netlist: register-aware
  static timing, simulated activity and per-cell leakage.

Both also support a **statistical mode** driven by a
:class:`VariationSpec`: instead of the nominal corner, the V_DD solve
targets the p-th percentile of a Monte-Carlo delay distribution
(yield-constrained timing) and the energy model prices leakage at the
sampled mean — the lognormal mean-shift that makes real silicon leak
more than its nominal corner says.  With ``variation=None`` the
optimizers are bit-identical to the purely nominal behavior.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import obs
from repro.device.technology import Technology
from repro.errors import OptimizationError, ProfileError
from repro.power.search import (
    _bracketed_golden_minimum,
    _lockstep,
    _solve_supply,
)
from repro.tech.cells import check_ring_stages, standard_cells
from repro.tech.characterize import CellCharacterizer

__all__ = [
    "OperatingPoint",
    "StatisticalOperatingPoint",
    "VariationSpec",
    "RingOscillatorModel",
    "ThroughputOptimizer",
    "FixedThroughputOptimizer",
    "ModuleThroughputOptimizer",
]

_INF = math.inf
#: The ring's inverter.
_INVERTER = standard_cells()["INV"]


def _zero_threshold_decode(technology: Technology):
    """The ring inverter's :class:`~repro.tech.opplan.CornerPlan`,
    decoded at V_T0 = 0.

    The plan is the inverter's in a characterizer of
    ``technology.with_vt(0.0)``; callers pass each V_T as the kernels'
    shift.  The device
    kernels see a threshold only as ``V_T0 + shift``, and ``0.0 + V_T``
    is exactly ``V_T``, so every delay, energy, leakage, delay kink and
    solved supply is the very float a characterizer of
    ``technology.with_vt(V_T)`` produces: both polarities sit at V_T,
    whatever the base process's N and P thresholds were.

    Only inverters take this route.  A stacked cell's
    :class:`~repro.device.leakage.StackSolver` answers shifts from a
    shift-0 reference root that lies outside its window once
    ``V_T0 = 0``, so every shift would run the Newton solve.
    """
    return CellCharacterizer(technology.with_vt(0.0)).corner_plan(_INVERTER)


def _check_target(target_delay_s: float) -> None:
    """Reject a delay target that is not a positive, finite time."""
    if not 0.0 < target_delay_s < math.inf:
        raise OptimizationError(
            f"target delay must be positive and finite, got {target_delay_s}"
        )


def _check_vt(vt: float) -> None:
    """Reject a non-finite threshold before it reaches a kernel."""
    if not math.isfinite(vt):
        raise OptimizationError(f"V_T must be finite, got {vt}")


def _check_request(target_delay_s: float, utilization: float) -> None:
    """Reject a target or utilization that no V_T could serve, before a
    sweep or search would drop every V_T as infeasible (``locus_point``
    checks its own utilization; its solve checks the target)."""
    _check_target(target_delay_s)
    if not 0.0 < utilization <= 1.0:
        raise OptimizationError("utilization must be in (0, 1]")


def _check_time(name: str, seconds: float) -> None:
    """Reject a cycle or operation time that is not positive and finite."""
    if not 0.0 < seconds < math.inf:
        raise OptimizationError(
            f"{name} time must be positive and finite, got {seconds}"
        )


@dataclass(frozen=True)
class VariationSpec:
    """Statistical corner description for yield-constrained optimization.

    Parameters
    ----------
    percentile:
        Timing yield target: the V_DD solve constrains the p-th
        percentile of the Monte-Carlo delay distribution (99 = 99 % of
        sampled corners meet timing).
    vt_sigma:
        Gaussian V_T spread [V], applied as a common shift to both
        device polarities per sample (die-to-die variation).
    n_samples:
        Monte-Carlo samples per solve.  The optimizer draws the shift
        vector once and reuses it across every probed V_DD and every
        solve of the spec, so every probe prices the same corners and
        the percentile delay is one fixed function of V_DD for the
        solve to bisect.
    seed:
        Deterministic sampling seed; the draw matches
        :meth:`repro.analysis.variation.MonteCarloAnalyzer.
        sample_vt_shifts` for the same (sigma, samples, seed).
    """

    percentile: float = 99.0
    vt_sigma: float = 0.03
    n_samples: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.percentile <= 100.0:
            raise OptimizationError("percentile must be in [0, 100]")
        if not 0.0 <= self.vt_sigma < math.inf:
            raise OptimizationError(
                f"vt_sigma must be >= 0 and finite, got {self.vt_sigma}"
            )
        if self.n_samples < 2:
            raise OptimizationError("need at least two samples")

    def draw_shifts(self) -> List[float]:
        """The deterministic Gaussian V_T shift vector for this spec."""
        rng = random.Random(self.seed)
        return [
            rng.gauss(0.0, self.vt_sigma) for _ in range(self.n_samples)
        ]


@dataclass(frozen=True)
class OperatingPoint:
    """One point on a fixed-delay locus."""

    vt: float
    vdd: float
    stage_delay_s: float
    energy_per_cycle_j: float
    switching_energy_j: float
    leakage_energy_j: float

    @property
    def leakage_fraction(self) -> float:
        """Leakage share of the cycle energy."""
        if self.energy_per_cycle_j <= 0.0:
            return 0.0
        return self.leakage_energy_j / self.energy_per_cycle_j


@dataclass(frozen=True)
class StatisticalOperatingPoint(OperatingPoint):
    """A yield-constrained operating point (statistical mode).

    Extends the nominal :class:`OperatingPoint` with the Monte-Carlo
    quantities the solve was driven by: ``stage_delay_s`` remains the
    *nominal* delay at the solved supply, ``delay_percentile_s`` is
    the p-th percentile delay the yield constraint pinned to the
    target, and ``leakage_energy_j`` already prices the *mean* sampled
    leakage.  ``leakage_amplification`` (sampled mean over nominal) is
    cross-checkable against ``lognormal_amplification``, the
    closed-form :func:`repro.analysis.variation.
    lognormal_leakage_amplification` prediction for the same sigma.
    """

    percentile: float = 99.0
    delay_percentile_s: float = 0.0
    leakage_amplification: float = 1.0
    lognormal_amplification: float = 1.0


class RingOscillatorModel:
    """Analytical ring-oscillator: the paper's measurement structure.

    The model decodes once, at construction: its inverter's corner
    plan in the base process moved to ``V_T0 = 0``, which takes every
    query's V_T as its shift and returns the very floats a corner
    ``technology.with_vt(V_T)`` would (see
    :func:`_zero_threshold_decode`).  No V_T probe, nominal or
    sampled, builds a technology, a characterizer or a plan.

    Parameters
    ----------
    technology:
        Base process; ``vt`` arguments are absolute logic thresholds
        applied to both polarities, as ``technology.with_vt(vt)``.
    stages:
        Inverters in the ring (odd; the paper used ~101-stage rings).
    activity:
        Average node transition activity of the *module* the ring
        stands in for (1.0 for the ring itself, lower for logic).
    """

    def __init__(
        self, technology: Technology, stages: int = 101, activity: float = 1.0
    ):
        check_ring_stages(stages, OptimizationError)
        if not 0.0 < activity <= 2.0:
            raise OptimizationError("activity must be in (0, 2]")
        self.technology = technology
        self.stages = stages
        self.activity = activity
        self._plan = _zero_threshold_decode(technology)

    def stage_delay(self, vdd: float, vt: float) -> float:
        """Fanout-1 inverter delay at a corner [s].

        One call of the decoded plan, counted here by
        ``optimizer.delay_probes``.  The optimizer's solves and energy
        points run on the plan directly and are not counted here.
        """
        if not 0.0 < vdd < math.inf:
            raise OptimizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        _check_vt(vt)
        if obs.ENABLED:
            obs.incr("optimizer.delay_probes")
        return self._plan.delay(vdd, vt, fanout=1)

    def oscillation_period(self, vdd: float, vt: float) -> float:
        """Ring period: two traversals of the chain [s]."""
        return 2.0 * self.stages * self.stage_delay(vdd, vt)

    def cycle_energies(
        self, vdds: Sequence[float], vts: Sequence[float],
        cycle_time_s: float, supplies: Sequence[tuple],
        max_delay_s: Optional[float] = None,
        parts: Optional[list] = None,
    ) -> List[Optional[float]]:
        """Energy per cycle at every ``(V_DD, V_T)`` corner [J].

        One :meth:`~repro.tech.opplan.CornerPlan.operating_points` pass
        over the corners, ``supplies`` being the plan's fanout-1
        records of ``vdds``; with ``max_delay_s`` given, a corner whose
        stage delay exceeds it is ``None``.  With ``parts`` given, each
        priced corner's ``(stage delay [s], switching, leakage [J])``
        is appended to it: the terms the energy adds, from the same
        pass.

        Switching: every stage's load charges ``activity`` times per
        cycle.  Leakage: every stage leaks for the whole cycle — this
        is the term that turns the energy-vs-V_T curve back up at low
        V_T (Fig. 4).
        """
        points = self._plan.operating_points(
            vdds, vts, max_delay_s=max_delay_s, supplies=supplies
        )
        stages = self.stages
        stages_activity = stages * self.activity
        out: List[Optional[float]] = []
        append = out.append
        for vdd, (delay, transition, leak) in zip(vdds, points):
            if transition is None:
                append(None)
                continue
            switching = stages_activity * transition
            leakage = stages * leak * vdd * cycle_time_s
            append(switching + leakage)
            if parts is not None:
                parts.append((delay, switching, leakage))
        return out

    def energy_per_cycle(
        self, vdd: float, vt: float, cycle_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy of the ring per clock cycle [J].

        One corner of :meth:`cycle_energies`.
        """
        _check_time("cycle", cycle_time_s)
        _check_vt(vt)
        parts: list = []
        (energy,) = self.cycle_energies(
            (vdd,), (vt,), cycle_time_s,
            self._plan.supplies((vdd,), fanout=1), parts=parts,
        )
        ((delay, switching, leakage),) = parts
        return OperatingPoint(vt, vdd, delay, energy, switching, leakage)


class ThroughputOptimizer:
    """Finds the energy-optimal (V_DD, V_T) of one model at a fixed delay.

    The one implementation of the Figs. 3-4 algorithm: the target, V_T
    and bound checks, the nominal and yield supply solves, the yield
    percentile, the statistical energy, and :meth:`locus_point`,
    :meth:`sweep` and :meth:`optimum`.  Every supply solve is one lane
    of a lockstep batch (:func:`_lockstep`): :meth:`sweep` and the
    coarse scan of :meth:`optimum` are one batch over all their V_Ts,
    the search's first two golden points one more, and every other
    solve is a batch of one.  A model subclass supplies the physics
    through six hooks:

    * :meth:`_delays` — the delay at many ``(V_T + shift, V_DD)``
      queries, one call per round of a batch;
    * :meth:`_breaks` — the supplies where the nominal delay stops
      falling, or ``None`` (the solve then bisects throughout);
    * :meth:`energy_per_operation` — the nominal energy point;
    * :meth:`_energy_points` — the nominal energy points of a batch's
      solved lanes (by default one :meth:`energy_per_operation` each);
    * :meth:`_leakages` — the leakage current over a shift vector, per
      unit of ``_leak_units``;
    * ``_period_units`` — delay targets per operation period, the
      window leakage integrates over (before dividing by utilization).

    With a :class:`VariationSpec` the whole locus turns statistical:
    each V_DD is solved so the p-th percentile Monte-Carlo delay meets
    the target (:meth:`solve_vdd_for_yield`) and the energy prices
    leakage at the sampled mean.  ``variation=None`` reproduces the
    nominal optimizer bit-for-bit.
    """

    #: :meth:`optimum`'s default V_T search range and tolerance.
    _VT_BOUNDS: Sequence[float] = (0.01, 0.6)
    _TOLERANCE = 1e-3
    #: Copies of the unit whose current :meth:`_leakages` returns.
    _leak_units = 1
    #: Delay targets per operation period.
    _period_units = 1

    def __init__(
        self, technology: Technology, variation: Optional[VariationSpec]
    ):
        if variation is not None and not isinstance(variation, VariationSpec):
            raise OptimizationError(
                "variation must be a VariationSpec or None"
            )
        self.technology = technology
        self.variation = variation
        #: ``((sigma, samples, seed), (shifts, sorted shifts))`` of the
        #: last shift draw.
        self._draw: tuple = (None, None)

    # ------------------------------------------------------------------
    # Model hooks
    # ------------------------------------------------------------------
    def _delays(
        self, vts: Sequence[float], shifts: Sequence[float],
        vdds: Sequence[float], records: dict,
    ) -> List[float]:
        """The delay at threshold ``vt + shift`` and supply ``vdd``, per
        query [s].  ``records`` is the batch's scratch: a model may keep
        per-supply terms there for the batch's other rounds and its
        energy points; it is dropped with the batch."""
        raise NotImplementedError

    def _breaks(self, vt: float) -> Optional[Sequence[float]]:
        """Supplies where the nominal delay stops falling, or ``None``."""
        return None

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy for one operation period [J]."""
        raise NotImplementedError

    def _energy_points(
        self, vdds: Sequence[float], vts: Sequence[float],
        operation_time_s: float, records: dict,
    ) -> List[OperatingPoint]:
        """:meth:`energy_per_operation` of every solved lane."""
        return [
            self.energy_per_operation(vdd, vt, operation_time_s)
            for vdd, vt in zip(vdds, vts)
        ]

    def _leakages(
        self, vdd: float, vt: float, shifts: Sequence[float]
    ) -> List[float]:
        """Leakage current of one unit at ``vt + shift`` per shift [A]."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Supply solves
    # ------------------------------------------------------------------
    def _vdd_bounds(
        self, target_delay_s: float, vts: Sequence[float],
        vdd_bounds: Optional[Sequence[float]],
    ) -> Sequence[float]:
        """The checked ``(low, high)`` supply bracket of one batch."""
        # Every batch passes here: test inline, and let the helpers
        # raise with their messages only when a check fails.
        if not (
            0.0 < target_delay_s < _INF and all(map(math.isfinite, vts))
        ):
            _check_target(target_delay_s)
            for vt in vts:
                _check_vt(vt)
        if vdd_bounds is None:
            vdd_bounds = (self.technology.min_vdd, self.technology.max_vdd)
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high < _INF:
            raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
        return low, high

    def _shift_draw(self, spec: VariationSpec) -> tuple:
        """``(shifts, sorted shifts)`` of ``spec``'s draw, kept for the
        last (sigma, samples, seed) so a locus draws and sorts once."""
        key = (spec.vt_sigma, spec.n_samples, spec.seed)
        drawn, shifts = self._draw
        if drawn != key:
            drawn_shifts = spec.draw_shifts()
            shifts = (drawn_shifts, sorted(drawn_shifts))
            self._draw = (key, shifts)
        return shifts

    def _percentile_delays(
        self, vts: Sequence[float], vdds: Sequence[float],
        ordered_shifts: Sequence[float], percentile: float, records: dict,
    ) -> List[float]:
        """p-th percentile of the sampled delay at each (V_T, V_DD) [s].

        The delay never falls as the V_T shift grows (a ring stage's
        on-current, and each path of a static-timing max), so the
        sorted delay vector is the delay at the *sorted shift vector*.
        The percentile therefore needs only the two bracketing shift
        order statistics, two queries per lane instead of
        ``n_samples``, and equals the full vector's
        :meth:`~repro.analysis.variation.Distribution.percentile`
        exactly.  Both order statistics of every lane go to
        one :meth:`_delays` call.
        """
        count = len(vts)
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes", count)
        position = percentile / 100.0 * (len(ordered_shifts) - 1)
        low = int(position)
        high = min(low + 1, len(ordered_shifts) - 1)
        fraction = position - low
        if high == low or fraction == 0.0:
            return self._delays(
                vts, [ordered_shifts[low]] * count, vdds, records
            )
        both = self._delays(
            [*vts, *vts],
            [ordered_shifts[low]] * count + [ordered_shifts[high]] * count,
            [*vdds, *vdds],
            records,
        )
        return [
            delay_low * (1.0 - fraction) + delay_high * fraction
            for delay_low, delay_high in zip(both[:count], both[count:])
        ]

    def _solve_lanes(
        self, vts: Sequence[float], target_delay_s: float,
        vdd_bounds: Optional[Sequence[float]],
        spec: Optional[VariationSpec], records: dict,
    ) -> list:
        """Each V_T's supply, or the error its unreachable target raises.

        One lockstep batch: with ``spec=None`` each lane solves the
        nominal delay (:meth:`solve_vdd_for_delay`), otherwise the
        spec's percentile delay (:meth:`solve_vdd_for_yield`).
        """
        low, high = self._vdd_bounds(target_delay_s, vts, vdd_bounds)
        if spec is None:
            counter, breaks = "optimizer.vdd_solves", self._breaks
            label = context = ""

            def delays(lane_vts, probes):
                return self._delays(
                    lane_vts, [0.0] * len(probes), probes, records
                )
        else:
            counter, breaks = "optimizer.yield_solves", lambda vt: None
            label = f"p{spec.percentile:g} "
            context = f", sigma = {spec.vt_sigma} V"
            ordered = self._shift_draw(spec)[1]

            def delays(lane_vts, probes):
                return self._percentile_delays(
                    lane_vts, probes, ordered, spec.percentile, records
                )
        if obs.ENABLED:
            obs.incr(counter, len(vts))
        solves = [
            _solve_supply(target_delay_s, low, high, breaks(vt)) for vt in vts
        ]
        vdds = _lockstep(solves, vts, delays)
        return [
            OptimizationError(
                f"{label}target {target_delay_s:.3e} s unreachable: still "
                f"slower at V_DD = {high} V (V_T = {vt} V{context})"
            ) if vdd is None else vdd
            for vt, vdd in zip(vts, vdds)
        ]

    def solve_vdd_for_delay(
        self, target_delay_s: float, vt: float,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply meeting the delay target at one V_T (Fig. 3).

        The delay is not monotone in V_DD: above the kink at
        ``V_DD = V_T / (1 + DIBL)`` (:meth:`~repro.tech.opplan.
        CornerPlan.delay_breaks`) every cell delay rises for a band of
        about 1 mV at V_T = 0.5 V, 6 mV at 0.2 V and 40 mV at 0.05 V
        before it falls again, so a target inside that band is met at
        three supplies.  The solve returns the one a bisection of the
        V_DD bounds lands on: with the model's :meth:`_breaks` it
        bisects while a kink is inside the bracket, then finishes with a
        secant on the single root left (within 1e-9 relative);
        without, it bisects throughout and returns that bisection's
        answer exactly.

        If the model already meets the target at the *low* V_DD bound
        the solve clamps and returns ``low``: it simply runs faster than
        required at the minimum supply (energy accounting still
        integrates leakage over the operation period).

        Raises
        ------
        OptimizationError
            If the target is unreachable inside the bounds (too slow
            even at max V_DD), or the bounds are not a finite,
            positive, increasing pair.
        """
        (vdd,) = self._solve_lanes((vt,), target_delay_s, vdd_bounds, None, {})
        if vdd.__class__ is not float:
            raise vdd
        return vdd

    def solve_vdd_for_yield(
        self, target_delay_s: float, vt: float, percentile: float = 99.0,
        vt_sigma: float = 0.03, n_samples: int = 300, seed: int = 0,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The yield-constrained twin of :meth:`solve_vdd_for_delay`: the
        shift vector is drawn once and reused across every probed
        V_DD.  Each sample's delay rises in its own band above its own
        kink ``(V_T + shift) / (1 + DIBL)``, so the percentile delay is
        not monotone near the kinks; the solve bisects throughout and
        returns exactly what a 70-step bisection of the V_DD bounds
        returns.  Clamping at the low bound keeps the nominal solve's
        semantics: the p-th percentile corner is already fast enough at
        the minimum supply.

        Raises
        ------
        OptimizationError
            If the p-th percentile corner still misses the target at
            the high V_DD bound.
        """
        spec = VariationSpec(percentile, vt_sigma, n_samples, seed)
        (vdd,) = self._solve_lanes((vt,), target_delay_s, vdd_bounds, spec, {})
        if vdd.__class__ is not float:
            raise vdd
        return vdd

    # ------------------------------------------------------------------
    # Statistical energy
    # ------------------------------------------------------------------
    def statistical_energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float,
        variation: VariationSpec,
    ) -> StatisticalOperatingPoint:
        """Operation energy with leakage priced at the sampled mean [J].

        Switching energy is shift-independent (C and V_DD do not vary
        here), but leakage is exponential in V_T, so the sampled mean
        exceeds the nominal corner's leakage — the lognormal mean
        amplification.  The measured amplification is reported next to
        the closed-form :func:`repro.analysis.variation.
        lognormal_leakage_amplification` prediction as a cross-check
        (they agree up to stack-effect and sampling corrections), on
        the returned point and as obs gauges.
        """
        from repro.analysis.variation import lognormal_leakage_amplification

        nominal = self.energy_per_operation(vdd, vt, operation_time_s)
        shifts, ordered = self._shift_draw(variation)
        nominal_leakage, *leakages = self._leakages(vdd, vt, [0.0, *shifts])
        mean_leakage = sum(leakages) / len(leakages)
        amplification = (
            mean_leakage / nominal_leakage if nominal_leakage > 0.0 else 1.0
        )
        predicted = lognormal_leakage_amplification(
            variation.vt_sigma,
            self.technology.transistors.nmos.subthreshold_swing,
        )
        if obs.ENABLED:
            obs.incr("variation.samples_batched", len(leakages))
            obs.gauge("optimizer.leakage_amplification", amplification)
            obs.gauge("optimizer.leakage_amplification_lognormal", predicted)
        leakage = self._leak_units * mean_leakage * vdd * operation_time_s
        (delay_percentile,) = self._percentile_delays(
            (vt,), (vdd,), ordered, variation.percentile, {}
        )
        return StatisticalOperatingPoint(
            vt=vt, vdd=vdd, stage_delay_s=nominal.stage_delay_s,
            energy_per_cycle_j=nominal.switching_energy_j + leakage,
            switching_energy_j=nominal.switching_energy_j,
            leakage_energy_j=leakage, percentile=variation.percentile,
            delay_percentile_s=delay_percentile,
            leakage_amplification=amplification,
            lognormal_amplification=predicted,
        )

    # ------------------------------------------------------------------
    # The fixed-delay locus and its optimum
    # ------------------------------------------------------------------
    def _locus_points(
        self, vts: Sequence[float], target_delay_s: float,
        utilization: float, records: dict,
    ) -> list:
        """Each V_T's locus point, or the :class:`OptimizationError` that
        V_T raises: one lockstep batch of supply solves, then the energy
        points of the solved lanes.  ``records`` is the calling sweep,
        search or point's scratch (see :meth:`_delays`)."""
        if not 0.0 < utilization <= 1.0:
            raise OptimizationError("utilization must be in (0, 1]")
        seconds = self._period_units * target_delay_s / utilization
        spec = self.variation
        lanes = self._solve_lanes(vts, target_delay_s, None, spec, records)
        solved = [
            index for index, vdd in enumerate(lanes) if vdd.__class__ is float
        ]
        vdds = [lanes[index] for index in solved]
        solved_vts = [vts[index] for index in solved]
        try:
            if spec is None:
                points = self._energy_points(
                    vdds, solved_vts, seconds, records
                )
            else:
                points = [
                    self.statistical_energy_per_operation(
                        vdd, vt, seconds, spec
                    )
                    for vdd, vt in zip(vdds, solved_vts)
                ]
        except OptimizationError as error:
            points = [error] * len(solved)
        for index, point in zip(solved, points):
            lanes[index] = point
        return lanes

    def locus_point(
        self, vt: float, target_delay_s: float, utilization: float = 1.0
    ) -> OperatingPoint:
        """Fixed-throughput point: V_DD solved, leakage over the period.

        ``utilization`` < 1 means the model is clocked slower than its
        delay allows (operation period divided by ``utilization``),
        lengthening the leakage integration window.  Statistical mode
        (``variation`` set on the optimizer) returns a
        :class:`StatisticalOperatingPoint` at the yield-constrained
        supply instead of the nominal one.
        """
        (point,) = self._locus_points(
            (vt,), target_delay_s, utilization, {}
        )
        if isinstance(point, OptimizationError):
            raise point
        return point

    def sweep(
        self, vts: Sequence[float], target_delay_s: float,
        utilization: float = 1.0, skip_infeasible: bool = True,
    ) -> List[OperatingPoint]:
        """Fig. 3/4 data: the fixed-delay locus over a V_T list.

        Every V_T's supply solve runs in one lockstep batch.  By
        default infeasible V_T corners are dropped from the locus;
        ``skip_infeasible=False`` raises the first one's error instead.
        A non-finite V_T or target, or a utilization outside (0, 1],
        is a configuration error and raises either way.
        """
        if not vts:
            raise OptimizationError("empty V_T sweep")
        _check_request(target_delay_s, utilization)
        for vt in vts:
            _check_vt(vt)
        points: List[OperatingPoint] = []
        with obs.span("optimizer.sweep"):
            for point in self._locus_points(
                vts, target_delay_s, utilization, {}
            ):
                if isinstance(point, OptimizationError):
                    if not skip_infeasible:
                        raise point
                else:
                    points.append(point)
        if not points:
            raise OptimizationError(
                "no feasible V_T in the sweep for this delay target"
            )
        return points

    def optimum(
        self, target_delay_s: float,
        vt_bounds: Optional[Sequence[float]] = None,
        utilization: float = 1.0, tolerance: Optional[float] = None,
    ) -> OperatingPoint:
        """Minimum-energy V_T (Fig. 4): coarse scan + golden section.

        The coarse scan brackets the global basin first because the
        low-V_DD clamp (see :meth:`solve_vdd_for_delay`) makes the
        energy landscape bimodal for targets the model already meets at
        the minimum supply; its V_Ts are one lockstep batch.
        ``vt_bounds`` and ``tolerance`` default to the model's:
        (0.01, 0.6) V and 1 mV for the ring, (0.02, 0.5) V and 2 mV
        for a module.
        """
        if vt_bounds is None:
            vt_bounds = self._VT_BOUNDS
        if tolerance is None:
            tolerance = self._TOLERANCE
        low, high = float(vt_bounds[0]), float(vt_bounds[1])
        if not low < high:
            raise OptimizationError(f"bad vt bounds [{low}, {high}]")
        _check_request(target_delay_s, utilization)

        # The winner is always a probed, feasible V_T: return its point.
        # The scan and every refinement step share one call's supply
        # records: the refinement's solves start from the same bracket.
        probed = {}
        records: dict = {}

        def energies(vts: List[float]) -> List[float]:
            if obs.ENABLED:
                obs.incr("optimizer.golden_probes", len(vts))
            out = []
            for vt, point in zip(
                vts,
                self._locus_points(vts, target_delay_s, utilization, records),
            ):
                if isinstance(point, OptimizationError):
                    out.append(_INF)
                else:
                    probed[vt] = point
                    out.append(point.energy_per_cycle_j)
            return out

        with obs.span("optimizer.optimum"):
            return probed[
                _bracketed_golden_minimum(energies, low, high, tolerance)
            ]


class FixedThroughputOptimizer(ThroughputOptimizer):
    """The throughput optimizer on the paper's ring oscillator.

    The performance constraint is a stage-delay target (equivalently a
    ring-oscillator frequency, the paper's two "MHz" curve families in
    Fig. 4); leakage integrates over one ring period, ``2 * stages``
    stage delays (divided by ``utilization``).  Every solve round,
    energy point and sampled leakage runs on the ring's one decoded
    :class:`~repro.tech.opplan.CornerPlan`, with the V_T as the
    kernels' shift.
    """

    def __init__(
        self, ring: RingOscillatorModel,
        variation: Optional[VariationSpec] = None,
    ):
        super().__init__(ring.technology, variation)
        self.ring = ring
        self._plan = ring._plan
        self._leak_units = ring.stages
        # One ring period: each of the stages switches twice.
        self._period_units = 2 * ring.stages

    def _delays(
        self, vts: Sequence[float], shifts: Sequence[float],
        vdds: Sequence[float], records: dict,
    ) -> List[float]:
        # One plan call per round, bit-identical to a stage_delay call
        # at each corner.  A supply's record is computed once and kept
        # in ``records``: the lanes share the bracket ends and the
        # first bisection midpoints.
        supply = self._plan.supply
        thresholds = []
        supplies = []
        for vt, shift, vdd in zip(vts, shifts, vdds):
            thresholds.append(vt + shift)
            record = records.get(vdd)
            if record is None:
                record = records[vdd] = supply(vdd, 0.0, 1)
            supplies.append(record)
        return self._plan.delays(vdds, thresholds, supplies=supplies)

    def _breaks(self, vt: float) -> Optional[Sequence[float]]:
        return self._plan.delay_breaks(vt)

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """The ring's :meth:`~RingOscillatorModel.energy_per_cycle`."""
        return self.ring.energy_per_cycle(vdd, vt, operation_time_s)

    def _energy_points(
        self, vdds: Sequence[float], vts: Sequence[float],
        operation_time_s: float, records: dict,
    ) -> List[OperatingPoint]:
        # One cycle_energies pass over the solved lanes, on the batch's
        # supply records: each stage delay comes with its energy.
        _check_time("cycle", operation_time_s)
        supply = self._plan.supply
        parts: list = []
        energies = self.ring.cycle_energies(
            vdds, vts, operation_time_s,
            [records.get(vdd) or supply(vdd, 0.0, 1) for vdd in vdds],
            parts=parts,
        )
        return [
            OperatingPoint(vt, vdd, delay, energy, switching, leakage)
            for vt, vdd, energy, (delay, switching, leakage) in zip(
                vts, vdds, energies, parts
            )
        ]

    def _leakages(
        self, vdd: float, vt: float, shifts: Sequence[float]
    ) -> List[float]:
        # Each sample reaches the kernels as the shift ``vt + shift`` of
        # the zero-threshold decode, so its threshold ``0.0 + (vt +
        # shift)`` is the float a ``with_vt(vt)`` corner forms.
        return self._plan.leakages(
            (vdd,) * len(shifts), [vt + shift for shift in shifts]
        )


class ModuleThroughputOptimizer(ThroughputOptimizer):
    """The throughput optimizer on a real netlist.

    The ring-oscillator version mirrors the paper's measurement
    structure; this one runs the same optimization on an arbitrary
    module: delay from register-aware static timing, switching energy
    from a simulated activity report (re-priced at each supply through
    the non-linear C(V)), leakage from the cell models at each
    (V_DD, V_T) corner.  The operation period is the delay target
    (divided by ``utilization``), and every solve bisects throughout.

    Parameters
    ----------
    netlist:
        The module under optimization.
    technology:
        Base process; ``vt`` below is an *absolute* logic threshold,
        applied as a shift from the base V_T0.
    activity_report:
        Simulated activity at a representative stimulus (the alpha
        values are treated as voltage-independent; the capacitances
        are not).
    variation:
        Optional :class:`VariationSpec` switching the optimizer into
        statistical mode (yield-constrained V_DD solves, mean-leakage
        energy pricing); ``None`` keeps the nominal behavior exactly.
    """

    _VT_BOUNDS = (0.02, 0.5)
    _TOLERANCE = 2e-3

    def __init__(
        self, netlist, technology: Technology, activity_report,
        wire_length_per_fanout_um: float = 5.0,
        variation: Optional[VariationSpec] = None,
    ):
        from repro.circuits.plan import NetlistPlan

        super().__init__(technology, variation)
        netlist.validate()
        if activity_report.netlist_name != netlist.name:
            raise ProfileError(
                f"report is for {activity_report.netlist_name!r}, not "
                f"{netlist.name!r}"
            )
        self.netlist = netlist
        self.report = activity_report
        self._plan = NetlistPlan(
            netlist, technology, wire_length_per_fanout_um
        )
        self._base_vt = technology.transistors.nmos.vt0

    def delay(self, vdd: float, vt: float) -> float:
        """Critical-path delay at an absolute-V_T corner [s]."""
        _check_vt(vt)
        return self._delays((vt,), (0.0,), (vdd,), {})[0]

    def _delays(
        self, vts: Sequence[float], shifts: Sequence[float],
        vdds: Sequence[float], records: dict,
    ) -> List[float]:
        # One plan call for the round, at the global shifts from the base
        # threshold; each query counts as one ``optimizer.delay_probes``.
        if obs.ENABLED:
            obs.incr("optimizer.delay_probes", len(vts))
        base_vt = self._base_vt
        return self._plan.critical_delays(
            vdds, [(vt - base_vt) + shift for vt, shift in zip(vts, shifts)]
        )

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy for one operation period [J]."""
        _check_time("operation", operation_time_s)
        _check_vt(vt)
        switching = (
            self.report.switched_capacitance_on(self._plan, vdd) * vdd * vdd
        )
        (leakage_current,) = self._leakages(vdd, vt, (0.0,))
        leakage = leakage_current * vdd * operation_time_s
        return OperatingPoint(
            vt=vt, vdd=vdd, stage_delay_s=self.delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching, leakage_energy_j=leakage,
        )

    def _leakages(
        self, vdd: float, vt: float, shifts: Sequence[float]
    ) -> List[float]:
        # One CornerPlan.leakages call per distinct cell over the whole
        # shift vector, summed per instance in netlist order.
        base = vt - self._base_vt
        return self._plan.leakage_currents(
            vdd, [base + shift for shift in shifts]
        )
