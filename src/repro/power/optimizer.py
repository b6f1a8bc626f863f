"""Fixed-throughput (V_DD, V_T) optimization (paper Figs. 3-4).

For a bounded-computation-rate application the delay is pinned and the
knobs are the supply and the threshold:

* :class:`RingOscillatorModel` — the experimental structure the paper
  measured: stage delay, supply-for-delay solving, and energy per
  cycle including leakage.
* :class:`FixedThroughputOptimizer` — sweeps V_T solving V_DD for the
  delay target at every point (Fig. 3) and finds the energy-optimal
  pair (Fig. 4).  Because lowering V_T lets V_DD drop (quadratic
  switching win) while raising leakage (exponential loss), the energy
  is U-shaped in V_T with an optimum typically well below 1 V.

Both optimizers also support a **statistical mode** driven by a
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
    exactly (same order statistics, same interpolation) so yield solves
    agree bit-for-bit with the Monte-Carlo analyzer's view of the same
    samples.
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
        self,
        technology: Technology,
        stages: int = 101,
        activity: float = 1.0,
    ):
        if stages < 3 or stages % 2 == 0:
            raise OptimizationError("stages must be odd and >= 3")
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

    def solve_vdd_for_delay(
        self,
        target_stage_delay_s: float,
        vt: float,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply voltage giving the target stage delay (Fig. 3).

        The delay is not monotone in V_DD: above the kink at
        ``V_DD = V_T / (1 + DIBL)`` (:meth:`~repro.tech.opplan.
        CornerPlan.delay_breaks`) it rises for a band of about 1 mV
        at V_T = 0.5 V, 6 mV at 0.2 V and 40 mV at 0.05 V before it
        falls again, so a target inside that band is met at three
        supplies.  The solve returns the one a bisection of the V_DD
        bounds lands on (within 1e-9 relative), which is not always the
        lowest: it bisects while the kink is inside the bracket, then
        finishes with a secant on the single root left.

        If the ring already meets the target at the *low* V_DD bound,
        the solve clamps and returns ``low`` — the structure simply
        runs faster than required at the minimum supply (the same
        semantics as
        :meth:`ModuleThroughputOptimizer.solve_vdd_for_delay`; energy
        accounting still integrates leakage over the target period).

        Raises
        ------
        OptimizationError
            If the target is unreachable inside the bounds (too slow
            even at max V_DD).
        """
        _check_target(target_stage_delay_s)
        _check_vt(vt)
        if vdd_bounds is None:
            vdd_bounds = (self.technology.min_vdd, self.technology.max_vdd)
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
            raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
        if obs.ENABLED:
            obs.incr("optimizer.vdd_solves")
        # Every probe is one plan call: bit-identical to a stage_delay
        # call at the same corner, and the plan knows where its delay
        # curve kinks.  The probes bypass the characterizer memo, so
        # ``optimizer.delay_probes`` keeps matching the characterizer's
        # fanout-family traffic.
        plan = self._plan
        vdd = _solve_supply(
            lambda v: plan.delay(v, vt, fanout=1),
            target_stage_delay_s,
            low,
            high,
            plan.delay_breaks(vt),
        )
        if vdd is None:
            raise OptimizationError(
                f"target {target_stage_delay_s:.3e} s unreachable: still "
                f"slower at V_DD = {high} V (V_T = {vt} V)"
            )
        return vdd

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

    # ------------------------------------------------------------------
    # Statistical (yield-constrained) mode
    # ------------------------------------------------------------------
    def _stage_delay_percentile(
        self, vdd: float, vt: float, shifts: Sequence[float],
        percentile: float,
    ) -> float:
        """p-th percentile of the batched stage-delay distribution [s].

        The decoded plan evaluates the sampled thresholds
        ``vt + shift`` at this V_DD in one kernel call, with the
        supply's shift-independent terms computed once.  A sample at
        shift 0 is bit-identical to :meth:`stage_delay` at the same
        corner.
        """
        plan = self._plan
        count = len(shifts)
        delays = plan.delays(
            (vdd,) * count,
            [vt + shift for shift in shifts],
            supplies=plan.supplies((vdd,), fanout=1) * count,
        )
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
            obs.incr("variation.samples_batched", count)
        return _percentile(delays, percentile)

    def solve_vdd_for_yield(
        self,
        target_stage_delay_s: float,
        vt: float,
        percentile: float = 99.0,
        vt_sigma: float = 0.03,
        n_samples: int = 300,
        seed: int = 0,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The yield-constrained twin of :meth:`solve_vdd_for_delay`: the
        shift vector is drawn **once per solve** and reused across
        every probed V_DD.  Each sample's delay rises in its own band
        above its own kink ``(V_T + shift) / (1 + DIBL)``, so the
        percentile delay is not monotone near the kinks; the solve
        bisects throughout and returns exactly what a 70-step bisection
        of the V_DD bounds returns.
        Clamping at the low bound keeps the nominal solve's semantics:
        the p-th percentile corner is already fast enough at the
        minimum supply.

        Raises
        ------
        OptimizationError
            If the p-th percentile corner still misses the target at
            the high V_DD bound.
        """
        _check_target(target_stage_delay_s)
        _check_vt(vt)
        spec = VariationSpec(
            percentile=percentile, vt_sigma=vt_sigma,
            n_samples=n_samples, seed=seed,
        )
        if vdd_bounds is None:
            vdd_bounds = (self.technology.min_vdd, self.technology.max_vdd)
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
            raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
        if obs.ENABLED:
            obs.incr("optimizer.yield_solves")
        shifts = spec.draw_shifts()
        vdd = _solve_supply(
            lambda v: self._stage_delay_percentile(v, vt, shifts, percentile),
            target_stage_delay_s,
            low,
            high,
            None,
        )
        if vdd is None:
            raise OptimizationError(
                f"p{percentile:g} target {target_stage_delay_s:.3e} s "
                f"unreachable: still slower at V_DD = {high} V "
                f"(V_T = {vt} V, sigma = {vt_sigma} V)"
            )
        return vdd

    def statistical_energy_per_cycle(
        self,
        vdd: float,
        vt: float,
        cycle_time_s: float,
        variation: VariationSpec,
    ) -> StatisticalOperatingPoint:
        """Cycle energy with leakage priced at the Monte-Carlo mean [J].

        Switching energy is shift-independent (C and V_DD do not vary
        here), but leakage is exponential in V_T, so the sampled mean
        exceeds the nominal corner's leakage — the lognormal mean
        amplification.  The measured amplification is reported next to
        the closed-form :func:`repro.analysis.variation.
        lognormal_leakage_amplification` prediction as a cross-check
        (they agree up to stack-effect and sampling corrections).
        """
        from repro.analysis.variation import lognormal_leakage_amplification

        _check_time("cycle", cycle_time_s)
        _check_vt(vt)
        shifts = variation.draw_shifts()
        # Each sample reaches the kernels as the shift ``vt + shift`` of
        # the zero-threshold decode, so its threshold ``0.0 + (vt +
        # shift)`` is the float a ``with_vt(vt)`` corner forms.
        plan = self._plan
        switching_per_stage, nominal_leakage = plan.energies(
            (vdd,), (vt,), fanout=1
        )[0]
        switching = self.stages * self.activity * switching_per_stage
        leakages = plan.leakages(
            (vdd,) * len(shifts), [vt + shift for shift in shifts]
        )
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
            obs.incr("variation.samples_batched", len(leakages))
        mean_leakage = sum(leakages) / len(leakages)
        amplification = (
            mean_leakage / nominal_leakage if nominal_leakage > 0.0 else 1.0
        )
        predicted = lognormal_leakage_amplification(
            variation.vt_sigma,
            self.technology.transistors.nmos.subthreshold_swing,
        )
        if obs.ENABLED:
            obs.gauge("optimizer.leakage_amplification", amplification)
            obs.gauge("optimizer.leakage_amplification_lognormal", predicted)
        leakage = self.stages * mean_leakage * vdd * cycle_time_s
        delay_percentile = self._stage_delay_percentile(
            vdd, vt, shifts, variation.percentile
        )
        return StatisticalOperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.stage_delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
            percentile=variation.percentile,
            delay_percentile_s=delay_percentile,
            leakage_amplification=amplification,
            lognormal_amplification=predicted,
        )


class FixedThroughputOptimizer:
    """Finds energy-optimal (V_DD, V_T) at a fixed performance.

    The performance constraint is a stage-delay target (equivalently a
    ring-oscillator frequency, the paper's two "MHz" curve families in
    Fig. 4); the cycle time against which leakage integrates is the
    operation period ``cycle_stages * stage_delay``.

    With a :class:`VariationSpec` the whole locus turns statistical:
    each V_DD is solved so the p-th percentile Monte-Carlo delay meets
    the target (:meth:`RingOscillatorModel.solve_vdd_for_yield`) and
    the energy prices leakage at the sampled mean.  ``variation=None``
    (the default) reproduces the nominal optimizer bit-for-bit.
    """

    def __init__(
        self,
        ring: RingOscillatorModel,
        cycle_stages: int = 20,
        variation: Optional[VariationSpec] = None,
    ):
        if cycle_stages < 1:
            raise OptimizationError("cycle_stages must be >= 1")
        if variation is not None and not isinstance(variation, VariationSpec):
            raise OptimizationError(
                "variation must be a VariationSpec or None"
            )
        self.ring = ring
        self.cycle_stages = cycle_stages
        self.variation = variation

    def locus_point(
        self, vt: float, target_stage_delay_s: float
    ) -> OperatingPoint:
        """The fixed-delay operating point at one V_T.

        Statistical mode (``variation`` set on the optimizer) returns a
        :class:`StatisticalOperatingPoint` at the yield-constrained
        supply instead of the nominal one.
        """
        spec = self.variation
        if spec is None:
            vdd = self.ring.solve_vdd_for_delay(target_stage_delay_s, vt)
            cycle = self.cycle_stages * target_stage_delay_s
            return self.ring.energy_per_cycle(vdd, vt, cycle)
        vdd = self.ring.solve_vdd_for_yield(
            target_stage_delay_s,
            vt,
            percentile=spec.percentile,
            vt_sigma=spec.vt_sigma,
            n_samples=spec.n_samples,
            seed=spec.seed,
        )
        cycle = self.cycle_stages * target_stage_delay_s
        return self.ring.statistical_energy_per_cycle(vdd, vt, cycle, spec)

    def sweep(
        self,
        vts: Sequence[float],
        target_stage_delay_s: float,
        skip_infeasible: bool = True,
    ) -> List[OperatingPoint]:
        """Fig. 3/4 data: the fixed-delay locus over a V_T list.

        Every V_T's solve and energy evaluation run through the ring's
        one decoded :class:`~repro.tech.opplan.CornerPlan`, with the
        V_T as the kernels' shift, each probe bit-identical to the
        scalar per-probe chain at that corner.  A non-finite V_T or
        target is a configuration error and raises even with
        ``skip_infeasible``.
        """
        if not vts:
            raise OptimizationError("empty V_T sweep")
        _check_target(target_stage_delay_s)
        for vt in vts:
            _check_vt(vt)
        points: List[OperatingPoint] = []
        with obs.span("optimizer.sweep"):
            for vt in vts:
                try:
                    points.append(
                        self.locus_point(vt, target_stage_delay_s)
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
        self,
        target_stage_delay_s: float,
        vt_bounds: Sequence[float] = (0.01, 0.6),
        tolerance: float = 1e-3,
    ) -> OperatingPoint:
        """Minimum-energy V_T (Fig. 4): coarse scan + golden section.

        The coarse scan brackets the global basin first because the
        low-V_DD clamp (see :meth:`RingOscillatorModel.
        solve_vdd_for_delay`) makes the energy landscape bimodal for
        targets the ring already meets at the minimum supply.
        """
        low, high = float(vt_bounds[0]), float(vt_bounds[1])
        if not low < high:
            raise OptimizationError(f"bad vt bounds [{low}, {high}]")
        _check_target(target_stage_delay_s)

        # The winner is always a probed, feasible V_T: return its point.
        probed = {}

        def energy(vt: float) -> float:
            if obs.ENABLED:
                obs.incr("optimizer.golden_probes")
            try:
                point = self.locus_point(vt, target_stage_delay_s)
            except OptimizationError:
                return float("inf")
            probed[vt] = point
            return point.energy_per_cycle_j

        with obs.span("optimizer.optimum"):
            return probed[
                _bracketed_golden_minimum(energy, low, high, tolerance)
            ]


class ModuleThroughputOptimizer:
    """Fixed-throughput (V_DD, V_T) optimization for a real netlist.

    The ring-oscillator version above mirrors the paper's measurement
    structure; this one runs the same optimization on an arbitrary
    module: delay from register-aware static timing, switching energy
    from a simulated activity report (re-priced at each supply through
    the non-linear C(V)), leakage from the cell models at each
    (V_DD, V_T) corner.

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

    def __init__(
        self,
        netlist,
        technology: Technology,
        activity_report,
        wire_length_per_fanout_um: float = 5.0,
        variation: Optional[VariationSpec] = None,
    ):
        from repro.circuits.timing import StaticTimingAnalyzer
        from repro.power.estimator import PowerEstimator

        if variation is not None and not isinstance(variation, VariationSpec):
            raise OptimizationError(
                "variation must be a VariationSpec or None"
            )
        self.netlist = netlist
        self.technology = technology
        self.report = activity_report
        self.variation = variation
        self._analyzer = StaticTimingAnalyzer(
            technology, wire_length_per_fanout_um
        )
        self._estimator = PowerEstimator(
            netlist, technology, wire_length_per_fanout_um
        )
        self._base_vt = technology.transistors.nmos.vt0
        self._wire = wire_length_per_fanout_um

    def _shift(self, vt: float) -> float:
        _check_vt(vt)
        return vt - self._base_vt

    def delay(self, vdd: float, vt: float) -> float:
        """Critical-path delay at an absolute-V_T corner [s]."""
        return self._delay_at_shift(vdd, self._shift(vt))

    def _delay_at_shift(self, vdd: float, vt_shift: float) -> float:
        """STA delay at an explicit global shift (probe-counted)."""
        if obs.ENABLED:
            obs.incr("optimizer.delay_probes")
        return self._analyzer.analyze(
            self.netlist, vdd, vt_shift=vt_shift
        ).delay_s

    def solve_vdd_for_delay(
        self,
        target_delay_s: float,
        vt: float,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply meeting the delay target at one V_T (Fig. 3).

        Clamps to the low V_DD bound when the module is already faster
        than the target there (the shared low-bound semantics — see
        :meth:`RingOscillatorModel.solve_vdd_for_delay`); raises only
        when the target is unreachable at the *high* bound.  Every cell
        delay on a path rises in a band above the kink at
        ``V_DD = V_T / (1 + DIBL)``, so the critical-path delay is not
        monotone there either; the solve bisects throughout and returns
        exactly what a 70-step bisection of the V_DD bounds returns.
        """
        _check_target(target_delay_s)
        if vdd_bounds is None:
            vdd_bounds = (self.technology.min_vdd, self.technology.max_vdd)
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
            raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
        if obs.ENABLED:
            obs.incr("optimizer.vdd_solves")
        vdd = _solve_supply(
            lambda v: self.delay(v, vt), target_delay_s, low, high, None
        )
        if vdd is None:
            raise OptimizationError(
                f"target {target_delay_s:.3e} s unreachable at "
                f"V_DD = {high} V (V_T = {vt} V)"
            )
        return vdd

    def _delay_percentile(
        self,
        vdd: float,
        vt: float,
        ordered_shifts: Sequence[float],
        percentile: float,
    ) -> float:
        """p-th percentile of the sampled critical-path delay [s].

        The STA delay is a max over per-path delays, each monotone
        nondecreasing in the global V_T shift, so the sorted delay
        vector equals the delay evaluated at the *sorted shift vector*.
        The percentile therefore needs only the two bracketing shift
        order statistics — two STA runs per probe instead of
        ``n_samples`` — and is exactly equal to the full-vector
        percentile it shortcuts.
        """
        if obs.ENABLED:
            obs.incr("optimizer.mc_probes")
        position = percentile / 100.0 * (len(ordered_shifts) - 1)
        low = int(position)
        high = min(low + 1, len(ordered_shifts) - 1)
        fraction = position - low
        base = self._shift(vt)
        delay_low = self._delay_at_shift(vdd, base + ordered_shifts[low])
        if high == low or fraction == 0.0:
            return delay_low
        delay_high = self._delay_at_shift(vdd, base + ordered_shifts[high])
        return delay_low * (1.0 - fraction) + delay_high * fraction

    def solve_vdd_for_yield(
        self,
        target_delay_s: float,
        vt: float,
        percentile: float = 99.0,
        vt_sigma: float = 0.03,
        n_samples: int = 300,
        seed: int = 0,
        vdd_bounds: Optional[Sequence[float]] = None,
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The module-level twin of
        :meth:`RingOscillatorModel.solve_vdd_for_yield`: one shift
        vector per solve, reused across probed supplies.  Like
        :meth:`solve_vdd_for_delay` it bisects throughout, since the
        delay rises above each sample's kink, and returns exactly what
        a 70-step bisection of the V_DD bounds returns.  Low-bound
        clamp and unreachable semantics mirror
        :meth:`solve_vdd_for_delay`.
        """
        _check_target(target_delay_s)
        spec = VariationSpec(
            percentile=percentile, vt_sigma=vt_sigma,
            n_samples=n_samples, seed=seed,
        )
        if vdd_bounds is None:
            vdd_bounds = (self.technology.min_vdd, self.technology.max_vdd)
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
            raise OptimizationError(f"bad vdd bounds [{low}, {high}]")
        if obs.ENABLED:
            obs.incr("optimizer.yield_solves")
        ordered = sorted(spec.draw_shifts())
        vdd = _solve_supply(
            lambda v: self._delay_percentile(v, vt, ordered, percentile),
            target_delay_s,
            low,
            high,
            None,
        )
        if vdd is None:
            raise OptimizationError(
                f"p{percentile:g} target {target_delay_s:.3e} s "
                f"unreachable: still slower at V_DD = {high} V "
                f"(V_T = {vt} V, sigma = {vt_sigma} V)"
            )
        return vdd

    def energy_per_operation(
        self, vdd: float, vt: float, operation_time_s: float
    ) -> OperatingPoint:
        """Switching + leakage energy for one operation period [J]."""
        _check_time("operation", operation_time_s)
        switching = self.report.switching_energy_per_cycle(
            self.netlist, self.technology, vdd, self._wire
        )
        leakage = (
            self._estimator.leakage_current(vdd, self._shift(vt))
            * vdd
            * operation_time_s
        )
        return OperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
        )

    def statistical_energy_per_operation(
        self,
        vdd: float,
        vt: float,
        operation_time_s: float,
        variation: VariationSpec,
    ) -> StatisticalOperatingPoint:
        """Operation energy with leakage priced at the sampled mean [J].

        Leakage current is averaged over the full shift vector (the
        lognormal amplification the paper's subthreshold model implies)
        and cross-checked against the closed-form
        ``lognormal_leakage_amplification`` prediction; both ratios are
        reported on the returned point and as obs gauges.
        """
        from repro.analysis.variation import (
            lognormal_leakage_amplification,
        )

        _check_time("operation", operation_time_s)
        shifts = variation.draw_shifts()
        base = self._shift(vt)
        switching = self.report.switching_energy_per_cycle(
            self.netlist, self.technology, vdd, self._wire
        )
        currents = [
            self._estimator.leakage_current(vdd, base + s) for s in shifts
        ]
        mean_leakage = sum(currents) / len(currents)
        nominal_leakage = self._estimator.leakage_current(vdd, base)
        amplification = (
            mean_leakage / nominal_leakage if nominal_leakage > 0.0 else 1.0
        )
        predicted = lognormal_leakage_amplification(
            variation.vt_sigma,
            self.technology.transistors.nmos.subthreshold_swing,
        )
        if obs.ENABLED:
            obs.gauge("optimizer.leakage_amplification", amplification)
            obs.gauge(
                "optimizer.leakage_amplification_lognormal", predicted
            )
        leakage = mean_leakage * vdd * operation_time_s
        delay_percentile = self._delay_percentile(
            vdd, vt, sorted(shifts), variation.percentile
        )
        return StatisticalOperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
            percentile=variation.percentile,
            delay_percentile_s=delay_percentile,
            leakage_amplification=amplification,
            lognormal_amplification=predicted,
        )

    def locus_point(
        self, vt: float, target_delay_s: float, utilization: float = 1.0
    ) -> OperatingPoint:
        """Fixed-throughput point: V_DD solved, leakage over the period.

        ``utilization`` < 1 means the module is clocked slower than its
        critical path allows (operation period = delay / utilization),
        lengthening the leakage integration window.  With a
        ``variation`` spec the supply is solved for the p-th percentile
        corner and the energy uses the statistical leakage mean.
        """
        if not 0.0 < utilization <= 1.0:
            raise OptimizationError("utilization must be in (0, 1]")
        spec = self.variation
        if spec is None:
            vdd = self.solve_vdd_for_delay(target_delay_s, vt)
            return self.energy_per_operation(
                vdd, vt, target_delay_s / utilization
            )
        vdd = self.solve_vdd_for_yield(
            target_delay_s,
            vt,
            percentile=spec.percentile,
            vt_sigma=spec.vt_sigma,
            n_samples=spec.n_samples,
            seed=spec.seed,
        )
        return self.statistical_energy_per_operation(
            vdd, vt, target_delay_s / utilization, spec
        )

    def sweep(
        self,
        vts: Sequence[float],
        target_delay_s: float,
        utilization: float = 1.0,
        skip_infeasible: bool = True,
    ) -> List[OperatingPoint]:
        """Fixed-throughput locus over a V_T list (Figs. 3-4 shape).

        ``skip_infeasible`` mirrors
        :meth:`FixedThroughputOptimizer.sweep`: by default infeasible
        V_T corners are dropped from the locus, but passing ``False``
        lets configuration errors (bad utilization, unreachable
        targets) surface instead of being silently swallowed.
        """
        if not vts:
            raise OptimizationError("empty V_T sweep")
        _check_target(target_delay_s)
        for vt in vts:
            _check_vt(vt)
        points = []
        with obs.span("optimizer.module_sweep"):
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
        self,
        target_delay_s: float,
        vt_bounds: Sequence[float] = (0.02, 0.5),
        utilization: float = 1.0,
        tolerance: float = 2e-3,
    ) -> OperatingPoint:
        """Minimum-energy V_T at fixed throughput (scan + golden section).

        Uses the same bracketed search as
        :meth:`FixedThroughputOptimizer.optimum` — the shared low-bound
        clamp makes the landscape bimodal for relaxed targets here too.
        """
        low, high = float(vt_bounds[0]), float(vt_bounds[1])
        if not low < high:
            raise OptimizationError(f"bad vt bounds [{low}, {high}]")
        _check_target(target_delay_s)

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

        with obs.span("optimizer.module_optimum"):
            return probed[
                _bracketed_golden_minimum(energy, low, high, tolerance)
            ]
