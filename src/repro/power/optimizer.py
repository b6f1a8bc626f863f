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
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.device.technology import Technology
from repro.errors import OptimizationError
from repro.tech.cells import standard_cells
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

#: Bisection steps a supply solve takes at most: a 70-step bisection of
#: the V_DD bounds defines which root the solve returns.
_BISECTION_STEPS = 70
#: The secant phase stops once ``|ln(delay / target)|`` is this small.
_RESIDUAL_TOL = 1e-13
#: Coarse-scan resolution used to bracket the global energy basin
#: before golden-section refinement.  Clamping at the low V_DD bound
#: splits the landscape into two regimes — a clamped boundary branch
#: (energy falling with V_T at fixed minimum supply) and the interior
#: fixed-delay locus (the Fig. 4 U) — so the energy is not globally
#: unimodal and an unbracketed golden-section can converge to the
#: wrong basin.
_SCAN_POINTS = 25
_GOLDEN = 0.6180339887498949
#: The ring's inverter.
_INVERTER = standard_cells()["INV"]


def _zero_threshold_decode(technology: Technology):
    """``(characterizer, plan)``: the ring inverter decoded at V_T0 = 0.

    The characterizer is of ``technology.with_vt(0.0)`` and the plan is
    its inverter's :class:`~repro.tech.opplan.CornerPlan`; callers pass
    each V_T as the kernels' shift.  The device
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
    characterizer = CellCharacterizer(technology.with_vt(0.0))
    return characterizer, characterizer.corner_plan(_INVERTER)


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


def _check_stages(stages: int, error=OptimizationError) -> None:
    """Reject a ring that cannot oscillate: the stage count must be odd
    and at least 3 (``error`` is the caller's layer's error type)."""
    if stages < 3 or stages % 2 == 0:
        raise error("stages must be odd and >= 3")


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


def _bracketed_golden_minimum(energy, low, high, tolerance):
    """V_T of the global energy minimum in [low, high].

    Scans ``_SCAN_POINTS`` evenly spaced probes to find the best
    basin, then golden-section refines inside the bracketing pair of
    neighbours.  ``energy`` returns +inf for infeasible V_T.  The
    refinement also stops once its golden points no longer fall
    strictly inside the bracket in order, which a ``tolerance`` at or
    below the float spacing of V_T would otherwise never allow.
    """
    if not tolerance > 0.0:
        raise OptimizationError(f"tolerance must be positive, got {tolerance}")
    grid = [
        low + (high - low) * i / (_SCAN_POINTS - 1)
        for i in range(_SCAN_POINTS)
    ]
    coarse = [energy(vt) for vt in grid]
    if all(value == float("inf") for value in coarse):
        raise OptimizationError(
            "delay target infeasible across the whole V_T range"
        )
    best = min(range(len(coarse)), key=coarse.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = energy(c), energy(d)
    while b - a > tolerance and a < c < d < b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = energy(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = energy(d)
    candidates = [(coarse[best], grid[best]), (fc, c), (fd, d)]
    # Ties (degenerate brackets, plateaus) break to the lowest V_T —
    # explicitly, rather than leaning on tuple comparison reaching the
    # V_T element.
    return min(candidates, key=lambda pair: (pair[0], pair[1]))[1]


def _solve_supply(
    delay_at: Callable[[float], float],
    target: float,
    low: float,
    high: float,
    breaks: Optional[Sequence[float]],
) -> Optional[float]:
    """Supply in ``[low, high]`` at which ``delay_at`` meets ``target``.

    Returns ``None`` when the delay still exceeds the target at
    ``high`` (the caller raises, with its own context), and ``low``
    when the delay is already below the target there: the circuit
    simply runs faster than required at the minimum supply
    (``optimizer.low_bound_clamps``).

    The delay need not be monotone in between.  ``breaks`` are the
    supplies where it stops falling (see
    :meth:`repro.tech.opplan.CornerPlan.delay_breaks`): it rises
    for a band above each, so a target in that band has three roots.
    While a break lies strictly inside the bracket the solve takes
    exactly the steps of a 70-step bisection of ``[low, high]``, so it
    settles on the same root.  Once none does, the bracket holds one
    root, and a bracketed Illinois secant on ``ln(delay / target)``
    finishes: it takes the midpoint whenever a step would leave the
    bracket and stops once ``|ln(delay / target)| <= 1e-13`` or the
    bracket reaches float resolution.  With ``breaks=None`` (shape
    unknown) it bisects throughout and returns the 70-step result
    exactly, stopping early once the midpoint rounds to an endpoint,
    after which further steps cannot change it.

    ``optimizer.supply_evals`` counts the delay evaluations, bracket
    checks included, in one increment per solve.
    """
    evaluations = 0
    try:
        evaluations += 1
        delay_high = delay_at(high)
        if delay_high > target:
            return None
        evaluations += 1
        delay_low = delay_at(low)
        if delay_low < target:
            if obs.ENABLED:
                obs.incr("optimizer.low_bound_clamps")
            return low
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (low + high)
            if mid == low or mid == high:
                return mid
            if breaks is not None and not any(
                low < point < high for point in breaks
            ):
                break
            evaluations += 1
            delay_mid = delay_at(mid)
            if delay_mid > target:
                low, delay_low = mid, delay_mid
            else:
                high, delay_high = mid, delay_mid
        else:
            return 0.5 * (low + high)
        f_low = math.log(delay_low / target)
        f_high = math.log(delay_high / target)
        # +1 after a step that moved ``low``, -1 after one that moved
        # ``high``: an endpoint kept twice in a row has its residual
        # halved (the Illinois rule), so the next step leans toward it.
        moved = 0
        while True:
            mid = 0.5 * (low + high)
            if mid == low or mid == high:
                return mid
            vdd = mid
            if f_low > f_high:
                trial = high - f_high * (high - low) / (f_high - f_low)
                if low < trial < high:
                    vdd = trial
            evaluations += 1
            delay = delay_at(vdd)
            residual = math.log(delay / target)
            if abs(residual) <= _RESIDUAL_TOL:
                return vdd
            if delay > target:
                low, f_low = vdd, residual
                if moved > 0:
                    f_high *= 0.5
                moved = 1
            else:
                high, f_high = vdd, residual
                if moved < 0:
                    f_low *= 0.5
                moved = -1
    finally:
        if obs.ENABLED:
            obs.incr("optimizer.supply_evals", evaluations)


def _percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100].

    Replicates :meth:`repro.analysis.variation.Distribution.percentile`
    exactly (same order statistics, same interpolation).  It is the
    full-vector percentile that
    :meth:`ThroughputOptimizer._delay_percentile` reads from two order
    statistics, float for float, so yield solves agree bit-for-bit with
    the Monte-Carlo analyzer's view of the same samples.
    """
    ordered = sorted(values)
    position = p / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


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
        Monte-Carlo samples per solve.  The shift vector is drawn once
        per solve and reused across every probed V_DD, so every probe
        of one solve prices the same corners and the percentile delay
        is one fixed function of V_DD for the solve to bisect.
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

    The model decodes once, at construction: one characterizer of the
    base process moved to ``V_T0 = 0`` and its inverter's corner plan,
    which take every query's V_T as their shift and return the very
    floats a corner ``technology.with_vt(V_T)`` would (see
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

    The characterizer's memo grows with the distinct (V_DD, V_T)
    probes answered, like any characterizer's; a model that serves
    many independent optimizations can simply be rebuilt, since
    construction is one decode.
    """

    def __init__(
        self, technology: Technology, stages: int = 101, activity: float = 1.0
    ):
        _check_stages(stages)
        if not 0.0 < activity <= 2.0:
            raise OptimizationError("activity must be in (0, 2]")
        self.technology = technology
        self.stages = stages
        self.activity = activity
        self._characterizer, self._plan = _zero_threshold_decode(
            technology
        )

    def stage_delay(self, vdd: float, vt: float) -> float:
        """Fanout-1 inverter delay at a corner [s].

        Every call is exactly one characterizer
        :meth:`~repro.tech.characterize.CellCharacterizer.fanout_delay`
        query (a miss is one call of the decoded plan), and
        ``optimizer.delay_probes`` counts it here — at the query site —
        so the counter matches the actual characterizer traffic even
        for probes issued outside a solve (``energy_per_cycle``'s
        re-probe, ``locus_point``, direct calls).
        """
        if not 0.0 < vdd < math.inf:
            raise OptimizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        _check_vt(vt)
        if obs.ENABLED:
            obs.incr("optimizer.delay_probes")
        return self._characterizer.fanout_delay(
            _INVERTER, vdd, fanout=1, vt_shift=vt
        )

    def oscillation_period(self, vdd: float, vt: float) -> float:
        """Ring period: two traversals of the chain [s]."""
        return 2.0 * self.stages * self.stage_delay(vdd, vt)

    def energy_per_cycle(
        self, vdd: float, vt: float, cycle_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy of the ring per clock cycle [J].

        Switching: every stage's load charges ``activity`` times per
        cycle.  Leakage: every stage leaks for the whole cycle — this
        is the term that turns the energy-vs-V_T curve back up at low
        V_T (Fig. 4).
        """
        _check_time("cycle", cycle_time_s)
        _check_vt(vt)
        # The plan's energies kernel returns the raw (E_transition,
        # I_leak) pair — the same floats the scalar input_capacitance /
        # energy_per_transition / leakage_current chain produced — so
        # the stages/activity/cycle association below is unchanged.
        switching_per_stage, leak_per_stage = self._plan.energies(
            (vdd,), (vt,), fanout=1
        )[0]
        switching = self.stages * self.activity * switching_per_stage
        leakage_current = self.stages * leak_per_stage
        leakage = leakage_current * vdd * cycle_time_s
        return OperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.stage_delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
        )


class ThroughputOptimizer:
    """Finds the energy-optimal (V_DD, V_T) of one model at a fixed delay.

    The one implementation of the Figs. 3-4 algorithm: the target, V_T
    and bound checks, the nominal and yield supply solves, the yield
    percentile, the statistical energy, and :meth:`locus_point`,
    :meth:`sweep` and :meth:`optimum`.  A model subclass supplies the
    physics through five hooks:

    * :meth:`_probe` — the delay at a V_T and a shift from it, as a
      function of V_DD;
    * :meth:`_breaks` — the supplies where the nominal delay stops
      falling, or ``None`` (the solve then bisects throughout);
    * :meth:`energy_per_operation` — the nominal energy point;
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

    # ------------------------------------------------------------------
    # Model hooks
    # ------------------------------------------------------------------
    def _probe(
        self, vt: float, shift: float = 0.0
    ) -> Callable[[float], float]:
        """The delay at threshold ``vt + shift`` as a function of V_DD."""
        raise NotImplementedError

    def _breaks(self, vt: float) -> Optional[Sequence[float]]:
        """Supplies where the nominal delay stops falling, or ``None``."""
        return None

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy for one operation period [J]."""
        raise NotImplementedError

    def _leakages(
        self, vdd: float, vt: float, shifts: Sequence[float]
    ) -> List[float]:
        """Leakage current of one unit at ``vt + shift`` per shift [A]."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Supply solves
    # ------------------------------------------------------------------
    def _vdd_bounds(
        self, target_delay_s: float, vt: float,
        vdd_bounds: Optional[Sequence[float]],
    ) -> Sequence[float]:
        """The checked ``(low, high)`` supply bracket of one solve."""
        # Every locus point passes here: test inline, and let the
        # helpers raise with their messages only when a check fails.
        if not (0.0 < target_delay_s < math.inf and math.isfinite(vt)):
            _check_target(target_delay_s)
            _check_vt(vt)
        if vdd_bounds is None:
            vdd_bounds = (self.technology.min_vdd, self.technology.max_vdd)
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
            raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
        return low, high

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
            even at max V_DD).
        """
        low, high = self._vdd_bounds(target_delay_s, vt, vdd_bounds)
        if obs.ENABLED:
            obs.incr("optimizer.vdd_solves")
        vdd = _solve_supply(
            self._probe(vt), target_delay_s, low, high, self._breaks(vt)
        )
        if vdd is None:
            raise OptimizationError(
                f"target {target_delay_s:.3e} s unreachable: still "
                f"slower at V_DD = {high} V (V_T = {vt} V)"
            )
        return vdd

    def _delay_percentile(
        self, vdd: float, vt: float, ordered_shifts: Sequence[float],
        percentile: float,
    ) -> float:
        """p-th percentile of the sampled delay at one supply [s].

        The delay never falls as the V_T shift grows (a ring stage's
        on-current, and each path of a static-timing max), so the
        sorted delay vector is the delay at the *sorted shift vector*.
        The percentile therefore needs only the two bracketing shift
        order statistics, two probes instead of ``n_samples``, and
        equals :func:`_percentile` of the full vector exactly.
        """
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
        position = percentile / 100.0 * (len(ordered_shifts) - 1)
        low = int(position)
        high = min(low + 1, len(ordered_shifts) - 1)
        fraction = position - low
        delay_low = self._probe(vt, ordered_shifts[low])(vdd)
        if high == low or fraction == 0.0:
            return delay_low
        delay_high = self._probe(vt, ordered_shifts[high])(vdd)
        return delay_low * (1.0 - fraction) + delay_high * fraction

    def solve_vdd_for_yield(
        self, target_delay_s: float, vt: float, percentile: float = 99.0,
        vt_sigma: float = 0.03, n_samples: int = 300, seed: int = 0,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The yield-constrained twin of :meth:`solve_vdd_for_delay`: the
        shift vector is drawn **once per solve** and reused across
        every probed V_DD.  Each sample's delay rises in its own band
        above its own kink ``(V_T + shift) / (1 + DIBL)``, so the
        percentile delay is not monotone near the kinks; the solve
        bisects throughout and returns exactly what a 70-step bisection
        of the V_DD bounds returns.  Clamping at the low bound keeps the
        nominal solve's semantics: the p-th percentile corner is
        already fast enough at the minimum supply.

        Raises
        ------
        OptimizationError
            If the p-th percentile corner still misses the target at
            the high V_DD bound.
        """
        low, high = self._vdd_bounds(target_delay_s, vt, vdd_bounds)
        spec = VariationSpec(percentile, vt_sigma, n_samples, seed)
        if obs.ENABLED:
            obs.incr("optimizer.yield_solves")
        ordered = sorted(spec.draw_shifts())
        vdd = _solve_supply(
            lambda v: self._delay_percentile(v, vt, ordered, percentile),
            target_delay_s, low, high, None,
        )
        if vdd is None:
            raise OptimizationError(
                f"p{percentile:g} target {target_delay_s:.3e} s "
                f"unreachable: still slower at V_DD = {high} V "
                f"(V_T = {vt} V, sigma = {vt_sigma} V)"
            )
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
        shifts = variation.draw_shifts()
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
        return StatisticalOperatingPoint(
            vt=vt, vdd=vdd, stage_delay_s=nominal.stage_delay_s,
            energy_per_cycle_j=nominal.switching_energy_j + leakage,
            switching_energy_j=nominal.switching_energy_j,
            leakage_energy_j=leakage, percentile=variation.percentile,
            delay_percentile_s=self._delay_percentile(
                vdd, vt, sorted(shifts), variation.percentile
            ),
            leakage_amplification=amplification,
            lognormal_amplification=predicted,
        )

    # ------------------------------------------------------------------
    # The fixed-delay locus and its optimum
    # ------------------------------------------------------------------
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
        if not 0.0 < utilization <= 1.0:
            raise OptimizationError("utilization must be in (0, 1]")
        seconds = self._period_units * target_delay_s / utilization
        spec = self.variation
        if spec is None:
            vdd = self.solve_vdd_for_delay(target_delay_s, vt)
            return self.energy_per_operation(vdd, vt, seconds)
        vdd = self.solve_vdd_for_yield(
            target_delay_s, vt, spec.percentile, spec.vt_sigma,
            spec.n_samples, spec.seed,
        )
        return self.statistical_energy_per_operation(vdd, vt, seconds, spec)

    def sweep(
        self, vts: Sequence[float], target_delay_s: float,
        utilization: float = 1.0, skip_infeasible: bool = True,
    ) -> List[OperatingPoint]:
        """Fig. 3/4 data: the fixed-delay locus over a V_T list.

        By default infeasible V_T corners are dropped from the locus;
        ``skip_infeasible=False`` lets them raise instead.  A non-finite
        V_T or target, or a utilization outside (0, 1], is a
        configuration error and raises either way.
        """
        if not vts:
            raise OptimizationError("empty V_T sweep")
        _check_request(target_delay_s, utilization)
        for vt in vts:
            _check_vt(vt)
        points: List[OperatingPoint] = []
        with obs.span("optimizer.sweep"):
            for vt in vts:
                try:
                    points.append(
                        self.locus_point(vt, target_delay_s, utilization)
                    )
                except OptimizationError:
                    if not skip_infeasible:
                        raise
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
        the minimum supply.  ``vt_bounds`` and ``tolerance`` default to
        the model's: (0.01, 0.6) V and 1 mV for the ring, (0.02, 0.5) V
        and 2 mV for a module.
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
        probed = {}

        def energy(vt: float) -> float:
            if obs.ENABLED:
                obs.incr("optimizer.golden_probes")
            try:
                point = self.locus_point(vt, target_delay_s, utilization)
            except OptimizationError:
                return float("inf")
            probed[vt] = point
            return point.energy_per_cycle_j

        with obs.span("optimizer.optimum"):
            return probed[
                _bracketed_golden_minimum(energy, low, high, tolerance)
            ]


class FixedThroughputOptimizer(ThroughputOptimizer):
    """The throughput optimizer on the paper's ring oscillator.

    The performance constraint is a stage-delay target (equivalently a
    ring-oscillator frequency, the paper's two "MHz" curve families in
    Fig. 4); leakage integrates over one ring period, ``2 * stages``
    stage delays (divided by ``utilization``).  Every solve probe and
    sampled leakage runs on the ring's one decoded
    :class:`~repro.tech.opplan.CornerPlan`, with the V_T as the
    kernels' shift.
    """

    def __init__(
        self, ring: RingOscillatorModel,
        variation: Optional[VariationSpec] = None,
    ):
        super().__init__(ring.technology, variation)
        self.ring = ring
        self._leak_units = ring.stages
        # One ring period: each of the stages switches twice.
        self._period_units = 2 * ring.stages

    def _probe(
        self, vt: float, shift: float = 0.0
    ) -> Callable[[float], float]:
        # One direct plan call per probe: bit-identical to a stage_delay
        # call at the same corner.  The probes bypass the characterizer
        # memo, so ``optimizer.delay_probes`` keeps matching the
        # characterizer's fanout-family traffic.
        delay = self.ring._plan.delay
        threshold = vt + shift
        return lambda vdd: delay(vdd, threshold, fanout=1)

    def _breaks(self, vt: float) -> Optional[Sequence[float]]:
        return self.ring._plan.delay_breaks(vt)

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """The ring's :meth:`~RingOscillatorModel.energy_per_cycle`."""
        return self.ring.energy_per_cycle(vdd, vt, operation_time_s)

    def _leakages(
        self, vdd: float, vt: float, shifts: Sequence[float]
    ) -> List[float]:
        # Each sample reaches the kernels as the shift ``vt + shift`` of
        # the zero-threshold decode, so its threshold ``0.0 + (vt +
        # shift)`` is the float a ``with_vt(vt)`` corner forms.
        return self.ring._plan.leakages(
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
        from repro.circuits.timing import StaticTimingAnalyzer

        super().__init__(technology, variation)
        netlist.validate()
        self.netlist = netlist
        self.report = activity_report
        self._analyzer = StaticTimingAnalyzer(
            technology, wire_length_per_fanout_um
        )
        self._characterizer = CellCharacterizer(technology)
        self._base_vt = technology.transistors.nmos.vt0
        self._wire = wire_length_per_fanout_um

    def delay(self, vdd: float, vt: float) -> float:
        """Critical-path delay at an absolute-V_T corner [s]."""
        _check_vt(vt)
        return self._probe(vt)(vdd)

    def _probe(
        self, vt: float, shift: float = 0.0
    ) -> Callable[[float], float]:
        # Static timing at the global shift from the base threshold,
        # each run counted as one ``optimizer.delay_probes``.
        vt_shift = (vt - self._base_vt) + shift
        analyze, netlist = self._analyzer.analyze, self.netlist

        def delay(vdd: float) -> float:
            if obs.ENABLED:
                obs.incr("optimizer.delay_probes")
            return analyze(netlist, vdd, vt_shift=vt_shift).delay_s

        return delay

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy for one operation period [J]."""
        _check_time("operation", operation_time_s)
        _check_vt(vt)
        switching = self.report.switching_energy_per_cycle(
            self.netlist, self.technology, vdd, self._wire
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
        # shift vector.  Each total adds its instances in netlist order,
        # so it is the very float the per-instance sum of
        # PowerEstimator.leakage_current gives at that shift.
        base = vt - self._base_vt
        corner_shifts = [base + shift for shift in shifts]
        vdds = (vdd,) * len(corner_shifts)
        per_cell = {}
        columns = []
        for instance in self.netlist.instances.values():
            cell = instance.cell
            if cell not in per_cell:
                plan = self._characterizer.corner_plan(cell)
                per_cell[cell] = plan.leakages(vdds, corner_shifts)
            columns.append(per_cell[cell])
        return [sum(total) for total in zip(*columns)]
