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

Every distribution is evaluated through the **batched variation
engine**: the analyzer asks its characterizer for one
:class:`~repro.tech.batch.VariationPlan` per (cell, V_DD, load) corner
and pushes the whole shift vector through it, instead of running the
full characterization call chain once per sample.  The plan path is
bit-identical to the per-sample path (asserted by the differential
property tests and the ``variation`` section of
``bench_hotpaths.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
    if vt_sigma < 0.0 or subthreshold_swing <= 0.0:
        raise AnalysisError("bad sigma or swing")
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

    def _distribution(
        self, kind: str, cell: Cell, vdd: float, load_f: float
    ) -> Distribution:
        plan = self._characterizer.plan_variation(cell, vdd, load_f)
        evaluate = plan.delays if kind == "delay" else plan.leakages
        return Distribution(samples=tuple(evaluate(self.sample_vt_shifts())))

    def sample_vt_shifts(self) -> List[float]:
        """Deterministic Gaussian V_T offsets (one per sample)."""
        rng = random.Random(self.seed)
        return [
            rng.gauss(0.0, self.vt_sigma) for _ in range(self.n_samples)
        ]

    def delay_distribution(
        self, cell: Cell, vdd: float, load_f: float = 10e-15
    ) -> Distribution:
        """Cell delay across the V_T samples at one supply.

        Each sample is a pure function of its deterministic V_T shift,
        so the values (and their order) are those of the per-sample
        characterizer chain.
        """
        return self._distribution("delay", cell, vdd, load_f)

    def leakage_distribution(
        self, cell: Cell, vdd: float
    ) -> Distribution:
        """Cell leakage across the V_T samples at one supply."""
        return self._distribution("leakage", cell, vdd, 0.0)

    def leakage_amplification(self, cell: Cell, vdd: float) -> float:
        """Measured mean-vs-nominal leakage ratio (cf. the closed form)."""
        nominal = self._characterizer.leakage_current(cell, vdd)
        if nominal <= 0.0:
            raise AnalysisError("nominal leakage is zero")
        return self.leakage_distribution(cell, vdd).mean / nominal

    def delay_spread_vs_vdd(
        self, cell: Cell, vdds: Sequence[float], load_f: float = 10e-15
    ) -> List[Tuple[float, float]]:
        """(V_DD, delay CV) pairs: the low-voltage variation penalty.

        Each supply point reuses its memoized plan on repeat visits —
        sweeping the same supplies again costs only the vector loops.
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
        timing.  Each bisection V_DD decodes one plan and evaluates the
        shift vector through it, and the per-V_DD percentile is
        memoized within the solve, so revisiting a bracket endpoint is
        free.
        """
        if target_delay_s <= 0.0:
            raise AnalysisError("target delay must be positive")
        low, high = float(vdd_bounds[0]), float(vdd_bounds[1])
        if not 0.0 < low < high:
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
