"""System-level shutdown policies for event-driven computation.

Section 4 of the paper motivates burst-mode technologies with X-server
traces: "the processor spends more than 95 % of its time in the off
state suggesting large energy reductions under ideal shutdown
conditions" (citing Srivastava, Chandrakasan & Brodersen's predictive
shutdown work).  This module supplies that system layer:

* :func:`synthetic_session_trace` — an X-session-like alternating
  busy/idle trace with heavy-tailed idle periods,
* three policies — fixed timeout, predictive (exponential-average
  idle-length prediction, per the cited paper), and the ideal oracle,
* :func:`evaluate_policy` — energy/latency accounting against
  always-on operation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Protocol

from repro.errors import AnalysisError

__all__ = [
    "ActivityPeriod",
    "ShutdownCosts",
    "ShutdownReport",
    "TimeoutPolicy",
    "PredictivePolicy",
    "OraclePolicy",
    "synthetic_session_trace",
    "evaluate_policy",
]


@dataclass(frozen=True)
class ActivityPeriod:
    """One busy or idle stretch, in clock cycles."""

    busy: bool
    duration_cycles: int

    def __post_init__(self) -> None:
        if self.duration_cycles < 1:
            raise AnalysisError("period duration must be >= 1 cycle")


@dataclass(frozen=True)
class ShutdownCosts:
    """Per-state power and transition costs of the system.

    ``idle_power_w`` is the powered-but-idle state (clock gated, low
    V_T leaking — exactly the E_SOI idle term); ``off_power_w`` is the
    shutdown state (high V_T / power gated).
    """

    active_power_w: float
    idle_power_w: float
    off_power_w: float
    wakeup_energy_j: float
    wakeup_latency_cycles: int
    cycle_time_s: float

    def __post_init__(self) -> None:
        for name in (
            "active_power_w", "idle_power_w", "off_power_w",
            "wakeup_energy_j",
        ):
            if getattr(self, name) < 0.0:
                raise AnalysisError(f"{name} must be >= 0")
        if self.wakeup_latency_cycles < 0:
            raise AnalysisError("wakeup latency must be >= 0")
        if not 0.0 < self.cycle_time_s < math.inf:
            raise AnalysisError(
                f"cycle time must be positive and finite, got "
                f"{self.cycle_time_s}"
            )
        if not self.off_power_w <= self.idle_power_w <= self.active_power_w:
            raise AnalysisError(
                "powers must satisfy off <= idle <= active"
            )

    @property
    def breakeven_cycles(self) -> float:
        """Idle length above which shutting down saves energy."""
        saved_per_cycle = (
            (self.idle_power_w - self.off_power_w) * self.cycle_time_s
        )
        if saved_per_cycle <= 0.0:
            return float("inf")
        return self.wakeup_energy_j / saved_per_cycle


class ShutdownPolicy(Protocol):
    """Decides, at the start of each idle period, when to power off."""

    def shutdown_delay(
        self, idle_history: List[int], true_duration: int
    ) -> Optional[int]:
        """Cycles to stay powered before shutting down.

        Return None to stay powered through the whole period.  Honest
        policies must ignore ``true_duration`` (only the oracle looks).
        """
        ...  # pragma: no cover


@dataclass(frozen=True)
class TimeoutPolicy:
    """Classic fixed-timeout shutdown: power off after N idle cycles."""

    timeout_cycles: int

    def __post_init__(self) -> None:
        if self.timeout_cycles < 0:
            raise AnalysisError("timeout must be >= 0")

    def shutdown_delay(
        self, idle_history: List[int], true_duration: int
    ) -> Optional[int]:
        return self.timeout_cycles


@dataclass
class PredictivePolicy:
    """Predictive shutdown (paper reference [4]).

    Predicts the upcoming idle duration as an exponential average of
    past idle durations; shuts down *immediately* when the prediction
    exceeds the break-even length, otherwise stays powered (avoiding
    the wake penalty on short gaps).
    """

    breakeven_cycles: float
    smoothing: float = 0.5
    initial_prediction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise AnalysisError("smoothing must be in (0, 1]")
        if self.breakeven_cycles < 0.0:
            raise AnalysisError("breakeven must be >= 0")

    def shutdown_delay(
        self, idle_history: List[int], true_duration: int
    ) -> Optional[int]:
        prediction = self.initial_prediction
        for duration in idle_history:
            prediction = (
                self.smoothing * duration
                + (1.0 - self.smoothing) * prediction
            )
        if prediction > self.breakeven_cycles:
            return 0
        return None


@dataclass(frozen=True)
class OraclePolicy:
    """Ideal shutdown: powers off exactly when it pays to."""

    breakeven_cycles: float

    def shutdown_delay(
        self, idle_history: List[int], true_duration: int
    ) -> Optional[int]:
        if true_duration > self.breakeven_cycles:
            return 0
        return None


@dataclass(frozen=True)
class ShutdownReport:
    """Energy/latency accounting of one policy over one trace."""

    policy_name: str
    total_cycles: int
    busy_cycles: int
    energy_j: float
    always_on_energy_j: float
    oracle_energy_j: float
    off_cycles: int
    wakeups: int
    latency_penalty_cycles: int

    @property
    def saving_vs_always_on(self) -> float:
        """Fraction of always-on energy saved."""
        if self.always_on_energy_j <= 0.0:
            return 0.0
        return 1.0 - self.energy_j / self.always_on_energy_j

    @property
    def efficiency_vs_oracle(self) -> float:
        """oracle energy / policy energy (1.0 = ideal)."""
        if self.energy_j <= 0.0:
            return 0.0
        return self.oracle_energy_j / self.energy_j

    @property
    def off_fraction(self) -> float:
        """Fraction of all cycles spent powered off."""
        return self.off_cycles / self.total_cycles


def synthetic_session_trace(
    n_periods: int = 200,
    mean_busy_cycles: int = 50,
    mean_idle_cycles: int = 800,
    heavy_tail: float = 1.5,
    seed: int = 0,
) -> List[ActivityPeriod]:
    """An X-session-like trace: short busy bursts, heavy-tailed idles.

    Idle durations are Pareto-distributed (shape ``heavy_tail``): many
    short gaps between keystrokes plus occasional long think-time
    idles — the structure that makes prediction worthwhile.
    """
    if n_periods < 2:
        raise AnalysisError("need at least two periods")
    if not (0.0 < mean_busy_cycles < math.inf
            and 0.0 < mean_idle_cycles < math.inf):
        raise AnalysisError(
            f"mean busy and idle cycles must be positive and finite, got "
            f"{mean_busy_cycles} and {mean_idle_cycles}"
        )
    if not 1.0 < heavy_tail < math.inf:
        raise AnalysisError(
            f"heavy_tail must be finite and exceed 1 (finite mean), got "
            f"{heavy_tail}"
        )
    rng = random.Random(seed)
    pareto_scale = mean_idle_cycles * (heavy_tail - 1.0) / heavy_tail
    trace: List[ActivityPeriod] = []
    for index in range(n_periods):
        if index % 2 == 0:
            duration = max(int(rng.expovariate(1.0 / mean_busy_cycles)), 1)
            trace.append(ActivityPeriod(busy=True, duration_cycles=duration))
        else:
            duration = max(int(pareto_scale * rng.paretovariate(heavy_tail)), 1)
            trace.append(ActivityPeriod(busy=False, duration_cycles=duration))
    return trace


def _policy_energy(
    trace: List[ActivityPeriod],
    policy: ShutdownPolicy,
    costs: ShutdownCosts,
) -> tuple:
    energy = 0.0
    off_cycles = 0
    wakeups = 0
    latency = 0
    idle_history: List[int] = []
    t = costs.cycle_time_s
    for period in trace:
        if period.busy:
            energy += period.duration_cycles * costs.active_power_w * t
            continue
        delay = policy.shutdown_delay(idle_history, period.duration_cycles)
        idle_history.append(period.duration_cycles)
        if delay is None or delay >= period.duration_cycles:
            energy += period.duration_cycles * costs.idle_power_w * t
            continue
        powered = delay
        off = period.duration_cycles - delay
        energy += powered * costs.idle_power_w * t
        energy += off * costs.off_power_w * t
        energy += costs.wakeup_energy_j
        off_cycles += off
        wakeups += 1
        latency += costs.wakeup_latency_cycles
    return energy, off_cycles, wakeups, latency


def evaluate_policy(
    trace: List[ActivityPeriod],
    policy: ShutdownPolicy,
    costs: ShutdownCosts,
    policy_name: str = "policy",
) -> ShutdownReport:
    """Account one policy's energy against always-on and the oracle."""
    if not trace:
        raise AnalysisError("empty trace")
    total = sum(p.duration_cycles for p in trace)
    busy = sum(p.duration_cycles for p in trace if p.busy)
    t = costs.cycle_time_s
    # Summed period by period, exactly as _policy_energy sums a policy
    # that never sleeps, so such a policy saves exactly nothing.
    always_on = 0.0
    for period in trace:
        power = costs.active_power_w if period.busy else costs.idle_power_w
        always_on += period.duration_cycles * power * t
    energy, off_cycles, wakeups, latency = _policy_energy(
        trace, policy, costs
    )
    oracle_energy, _, _, _ = _policy_energy(
        trace, OraclePolicy(costs.breakeven_cycles), costs
    )
    return ShutdownReport(
        policy_name=policy_name,
        total_cycles=total,
        busy_cycles=busy,
        energy_j=energy,
        always_on_energy_j=always_on,
        oracle_energy_j=oracle_energy,
        off_cycles=off_cycles,
        wakeups=wakeups,
        latency_penalty_cycles=latency,
    )
