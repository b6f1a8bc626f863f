"""Unit tests for shutdown policies and the session-trace generator."""

import pytest

from repro.core.shutdown import (
    ActivityPeriod,
    OraclePolicy,
    PredictivePolicy,
    ShutdownCosts,
    TimeoutPolicy,
    evaluate_policy,
    synthetic_session_trace,
)
from repro.errors import AnalysisError


@pytest.fixture
def costs():
    return ShutdownCosts(
        active_power_w=10e-3,
        idle_power_w=2e-3,
        off_power_w=10e-6,
        wakeup_energy_j=1e-7,
        wakeup_latency_cycles=50,
        cycle_time_s=1e-6,
    )


@pytest.fixture
def trace():
    return synthetic_session_trace(n_periods=300, seed=3)


class TestCosts:
    def test_breakeven_formula(self, costs):
        expected = 1e-7 / ((2e-3 - 10e-6) * 1e-6)
        assert costs.breakeven_cycles == pytest.approx(expected)

    def test_power_ordering_enforced(self):
        with pytest.raises(AnalysisError, match="off <= idle"):
            ShutdownCosts(
                active_power_w=1e-3,
                idle_power_w=1e-6,
                off_power_w=1e-3,
                wakeup_energy_j=0.0,
                wakeup_latency_cycles=0,
                cycle_time_s=1e-6,
            )

    def test_zero_saving_gives_infinite_breakeven(self):
        costs = ShutdownCosts(
            active_power_w=1e-3,
            idle_power_w=1e-6,
            off_power_w=1e-6,
            wakeup_energy_j=1e-9,
            wakeup_latency_cycles=0,
            cycle_time_s=1e-6,
        )
        assert costs.breakeven_cycles == float("inf")


class TestTraceGenerator:
    def test_alternates_busy_idle(self, trace):
        assert trace[0].busy
        for previous, current in zip(trace, trace[1:]):
            assert previous.busy != current.busy

    def test_deterministic_by_seed(self):
        assert synthetic_session_trace(seed=9) == synthetic_session_trace(
            seed=9
        )
        assert synthetic_session_trace(seed=9) != synthetic_session_trace(
            seed=10
        )

    def test_mostly_idle_like_an_x_server(self, trace):
        # The paper: >95% idle under ideal shutdown.  Our defaults give
        # a deeply idle trace.
        busy = sum(p.duration_cycles for p in trace if p.busy)
        total = sum(p.duration_cycles for p in trace)
        assert busy / total < 0.2

    def test_validation(self):
        with pytest.raises(AnalysisError):
            synthetic_session_trace(n_periods=1)
        with pytest.raises(AnalysisError):
            synthetic_session_trace(heavy_tail=1.0)
        with pytest.raises(AnalysisError):
            ActivityPeriod(busy=True, duration_cycles=0)


class TestPolicies:
    def test_timeout_policy_returns_fixed_delay(self):
        policy = TimeoutPolicy(timeout_cycles=100)
        assert policy.shutdown_delay([5, 10], 10_000) == 100

    def test_oracle_only_shuts_down_when_worthwhile(self, costs):
        oracle = OraclePolicy(costs.breakeven_cycles)
        assert oracle.shutdown_delay([], 10) is None
        assert oracle.shutdown_delay([], 10_000_000) == 0

    def test_predictive_uses_history(self, costs):
        policy = PredictivePolicy(
            breakeven_cycles=100, smoothing=1.0
        )
        # Last idle was long -> predict long -> shut down at once.
        assert policy.shutdown_delay([5000], 7) == 0
        # Last idle was short -> stay powered.
        assert policy.shutdown_delay([5], 7_000_000) is None

    def test_predictive_smoothing_validated(self):
        with pytest.raises(AnalysisError):
            PredictivePolicy(breakeven_cycles=10, smoothing=0.0)


class TestEvaluation:
    def test_always_on_baseline(self, trace, costs):
        # A timeout longer than every idle period = never shuts down.
        never = TimeoutPolicy(timeout_cycles=10**9)
        report = evaluate_policy(trace, never, costs, "never")
        # Both sides sum the same periods in the same order, so a
        # policy that never sleeps saves exactly nothing.
        assert report.energy_j == report.always_on_energy_j
        assert report.saving_vs_always_on == 0.0
        assert report.wakeups == 0
        assert report.off_fraction == 0.0

    def test_oracle_beats_or_ties_everyone(self, trace, costs):
        oracle = evaluate_policy(
            trace, OraclePolicy(costs.breakeven_cycles), costs, "oracle"
        )
        for policy in (
            TimeoutPolicy(0),
            TimeoutPolicy(int(costs.breakeven_cycles)),
            TimeoutPolicy(10 * int(costs.breakeven_cycles)),
            PredictivePolicy(costs.breakeven_cycles),
        ):
            report = evaluate_policy(trace, policy, costs)
            assert oracle.energy_j <= report.energy_j * (1.0 + 1e-9)

    def test_shutdown_saves_heavily_on_idle_traces(self, trace, costs):
        report = evaluate_policy(
            trace, TimeoutPolicy(int(costs.breakeven_cycles)), costs
        )
        assert report.saving_vs_always_on > 0.5

    def test_predictive_competitive_with_oracle(self, trace, costs):
        predictive = evaluate_policy(
            trace, PredictivePolicy(costs.breakeven_cycles), costs
        )
        assert predictive.efficiency_vs_oracle > 0.6

    def test_latency_accounting(self, trace, costs):
        report = evaluate_policy(trace, TimeoutPolicy(0), costs)
        assert report.latency_penalty_cycles == (
            report.wakeups * costs.wakeup_latency_cycles
        )

    def test_empty_trace_rejected(self, costs):
        with pytest.raises(AnalysisError):
            evaluate_policy([], TimeoutPolicy(0), costs)
