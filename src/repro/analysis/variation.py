"""Monte-Carlo threshold-variation analysis (extension).

Aggressive voltage scaling amplifies process variation: gate delay
goes as ``(V_DD - V_T)^-alpha``, so the same V_T spread that is noise
at 3 V becomes a large delay spread at 0.3 V; and because leakage is
exponential in V_T, the *mean* leakage of many devices exceeds the
nominal-V_T leakage (a lognormal mean shift).  Both effects bear
directly on how far the paper's (V_DD, V_T) optimization can be pushed
on real silicon.

:class:`MonteCarloAnalyzer` samples per-device V_T offsets and reports
delay and leakage distributions for any cell; the closed-form
lognormal mean amplification is provided for cross-checking.

Every distribution is one batched call of the cell's decoded
:class:`~repro.tech.opplan.CornerPlan`: the whole shift vector at one
V_DD, with the supply's terms computed once, instead of one
characterization call chain per sample.  Each sample is the float the
per-sample path computes (asserted by the differential property tests
and the ``variation`` section of ``bench_hotpaths.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import obs
from repro.device.technology import Technology
from repro.errors import AnalysisError
from repro.tech.cells import Cell
from repro.tech.characterize import CellCharacterizer
from repro.units import LN10

__all__ = [
    "Distribution",
    "MonteCarloAnalyzer",
    "lognormal_leakage_amplification",
]


@dataclass(frozen=True)
class Distribution:
    """Summary of a sampled quantity.

    Moments and the sorted sample view are computed once on first use
    and cached on the (frozen) instance, so ``percentile`` does not
    re-sort the tuple per call — ``timing_yield_vdd``'s 40-step
    bisection used to sort the same 300 samples on every probe.
    """

    samples: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise AnalysisError("need at least two samples")
        object.__setattr__(self, "_moments", None)
        object.__setattr__(self, "_ordered", None)

    def _stats(self) -> Tuple[float, float]:
        moments = self._moments
        if moments is None:
            mu = sum(self.samples) / len(self.samples)
            std = math.sqrt(
                sum((x - mu) ** 2 for x in self.samples)
                / (len(self.samples) - 1)
            )
            moments = (mu, std)
            object.__setattr__(self, "_moments", moments)
        return moments

    @property
    def mean(self) -> float:
        """Sample mean."""
        return self._stats()[0]

    @property
    def std(self) -> float:
        """Sample standard deviation (n-1)."""
        return self._stats()[1]

    @property
    def coefficient_of_variation(self) -> float:
        """std / mean — the spread metric that grows at low V_DD."""
        mu, std = self._stats()
        if mu == 0.0:
            raise AnalysisError("mean is zero; CV undefined")
        return std / mu

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, p in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise AnalysisError("percentile must be in [0, 100]")
        ordered = self._ordered
        if ordered is None:
            ordered = sorted(self.samples)
            object.__setattr__(self, "_ordered", ordered)
        position = p / 100.0 * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def lognormal_leakage_amplification(
    vt_sigma: float, subthreshold_swing: float
) -> float:
    """Closed-form mean-leakage amplification from V_T spread.

    With ``I = I0 * 10^(-dVT / S)`` and Gaussian ``dVT``, the current is
    lognormal with ``sigma_ln = vt_sigma * ln10 / S`` and mean
    ``exp(sigma_ln^2 / 2)`` times the nominal — why chips leak more
    than their nominal corner says.
    """
    if not (
        0.0 <= vt_sigma < math.inf and 0.0 < subthreshold_swing < math.inf
    ):
        raise AnalysisError(
            f"bad sigma or swing: {vt_sigma}, {subthreshold_swing}"
        )
    sigma_ln = vt_sigma * LN10 / subthreshold_swing
    return math.exp(sigma_ln**2 / 2.0)


class MonteCarloAnalyzer:
    """Samples per-instance V_T offsets and characterizes the spread."""

    def __init__(
        self,
        technology: Technology,
        vt_sigma: float = 0.03,
        n_samples: int = 300,
        seed: int = 0,
    ):
        if not 0.0 <= vt_sigma < math.inf:
            raise AnalysisError(
                f"vt_sigma must be >= 0 and finite, got {vt_sigma}"
            )
        if n_samples < 2:
            raise AnalysisError("need at least two samples")
        self.technology = technology
        self.vt_sigma = vt_sigma
        self.n_samples = n_samples
        self.seed = seed
        self._characterizer = CellCharacterizer(technology)
        #: ``((seed, vt_sigma, n_samples), shifts)`` of the last draw.
        self._draw = (None, ())
        #: ``((cell, vdd, draw key), distribution)`` of the last
        #: leakage distribution.
        self._leakage = (None, None)

    def _draw_key(self) -> tuple:
        return (self.seed, self.vt_sigma, self.n_samples)

    def sample_vt_shifts(self) -> List[float]:
        """Deterministic Gaussian V_T offsets (one per sample).

        Drawn once per ``(seed, vt_sigma, n_samples)`` and kept, so the
        delay, leakage and amplification passes share one draw; each
        call returns a new list.
        """
        key = self._draw_key()
        drawn, shifts = self._draw
        if drawn != key:
            rng = random.Random(self.seed)
            shifts = tuple(
                rng.gauss(0.0, self.vt_sigma) for _ in range(self.n_samples)
            )
            self._draw = (key, shifts)
        return list(shifts)

    def delay_distribution(
        self, cell: Cell, vdd: float, load_f: float = 10e-15
    ) -> Distribution:
        """Cell delay across the V_T samples at one supply.

        Each sample is a pure function of its deterministic V_T shift,
        so the values (and their order) are those of the per-sample
        characterizer chain.
        """
        shifts = self.sample_vt_shifts()
        plan = self._characterizer.corner_plan(cell)
        count = len(shifts)
        samples = plan.delays(
            (vdd,) * count,
            shifts,
            supplies=plan.supplies((vdd,), load_f) * count,
        )
        if obs.ENABLED:
            obs.incr("variation.samples_batched", count)
        return Distribution(samples=tuple(samples))

    def leakage_distribution(
        self, cell: Cell, vdd: float
    ) -> Distribution:
        """Cell leakage across the V_T samples at one supply.

        The last distribution is kept, keyed by the cell, the supply
        and the draw's inputs, so asking again (as
        :meth:`leakage_amplification` does) evaluates nothing.
        """
        key = (cell, vdd, self._draw_key())
        kept, distribution = self._leakage
        if kept != key:
            shifts = self.sample_vt_shifts()
            samples = self._characterizer.corner_plan(cell).leakages(
                (vdd,) * len(shifts), shifts
            )
            if obs.ENABLED:
                obs.incr("variation.samples_batched", len(samples))
            distribution = Distribution(samples=tuple(samples))
            self._leakage = (key, distribution)
        return distribution

    def leakage_amplification(self, cell: Cell, vdd: float) -> float:
        """Measured mean-vs-nominal leakage ratio (cf. the closed form).

        Reuses the kept :meth:`leakage_distribution` of the same cell
        and supply.
        """
        nominal = self._characterizer.leakage_current(cell, vdd)
        if nominal <= 0.0:
            raise AnalysisError("nominal leakage is zero")
        return self.leakage_distribution(cell, vdd).mean / nominal

    def delay_spread_vs_vdd(
        self, cell: Cell, vdds: Sequence[float], load_f: float = 10e-15
    ) -> List[Tuple[float, float]]:
        """(V_DD, delay CV) pairs: the low-voltage variation penalty.

        Every supply point is one kernel call of the cell's decoded
        plan.
        """
        if not vdds:
            raise AnalysisError("empty supply sweep")
        return [
            (
                vdd,
                self.delay_distribution(
                    cell, vdd, load_f
                ).coefficient_of_variation,
            )
            for vdd in vdds
        ]

    def timing_yield_vdd(
        self,
        cell: Cell,
        target_delay_s: float,
        percentile: float = 99.0,
        load_f: float = 10e-15,
        vdd_bounds: Tuple[float, float] = (0.1, 2.0),
    ) -> float:
        """Supply at which the p-th percentile delay meets the target.

        The variation-aware version of Fig. 3's V_DD-for-delay solve:
        guard-banding the supply so slow-corner devices still make
        timing.  Each bisection V_DD is one kernel call of the cell's
        decoded plan over the shift vector, and the per-V_DD percentile
        is memoized within the solve, so revisiting a bracket endpoint
        is free.
        """
        if not 0.0 < target_delay_s < math.inf:
            raise AnalysisError(
                "target delay must be positive and finite, "
                f"got {target_delay_s}"
            )
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high < math.inf:
            raise AnalysisError(f"bad vdd bounds [{low}, {high}]")

        solved: dict = {}

        def worst_delay(vdd: float) -> float:
            result = solved.get(vdd)
            if result is None:
                result = self.delay_distribution(
                    cell, vdd, load_f
                ).percentile(percentile)
                solved[vdd] = result
            return result

        if worst_delay(high) > target_delay_s:
            raise AnalysisError(
                f"target unreachable even at V_DD = {high} V"
            )
        if worst_delay(low) < target_delay_s:
            return low
        for _ in range(40):
            mid = 0.5 * (low + high)
            if worst_delay(mid) > target_delay_s:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)
