"""Tests for slack computation and dual-V_T assignment."""

import pytest

from repro.circuits.builders import (
    carry_select_adder,
    pipelined_adder,
    ripple_carry_adder,
)
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import NetlistError, OptimizationError
from repro.power.dualvt import DualVtOptimizer


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture(scope="module")
def plan_of(tech):
    """Times any netlist through a plan decoded for it."""
    return lambda netlist: NetlistPlan(netlist, tech)


class TestSlacks:
    def test_critical_gate_has_zero_slack(self, plan_of):
        slacks = plan_of(ripple_carry_adder(8)).slacks(1.0)
        assert min(slacks.values()) == pytest.approx(0.0, abs=1e-15)

    def test_all_slacks_nonnegative_at_default_required(self, plan_of):
        slacks = plan_of(carry_select_adder(12, 4)).slacks(1.0)
        assert all(s >= -1e-15 for s in slacks.values())

    def test_looser_required_time_adds_uniform_slack(self, plan_of):
        plan = plan_of(ripple_carry_adder(6))
        base = plan.slacks(1.0)
        critical = plan.analyze(1.0).delay_s
        loose = plan.slacks(1.0, required_time_s=critical * 1.5)
        for name in base:
            assert loose[name] == pytest.approx(
                base[name] + 0.5 * critical, rel=1e-6
            )

    def test_slacks_cover_every_instance(self, plan_of):
        netlist = carry_select_adder(8, 4)
        slacks = plan_of(netlist).slacks(1.0)
        assert set(slacks) == set(netlist.instances)

    def test_sequential_endpoints_respected(self, plan_of):
        slacks = plan_of(pipelined_adder(8, 2)).slacks(1.0)
        assert min(slacks.values()) == pytest.approx(0.0, abs=1e-15)

    def test_unknown_instance_shift_rejected(self, plan_of):
        plan = plan_of(ripple_carry_adder(4))
        with pytest.raises(NetlistError, match="unknown instances"):
            plan.analyze(1.0, per_instance_vt_shifts={"ghost": 0.1})


class TestPerInstanceShifts:
    def test_slowing_off_critical_gate_keeps_delay(self, plan_of):
        plan = plan_of(carry_select_adder(12, 4))
        slacks = plan.slacks(1.0)
        laziest = max(slacks, key=slacks.get)
        base = plan.analyze(1.0).delay_s
        shifted = plan.analyze(
            1.0, per_instance_vt_shifts={laziest: 0.2}
        ).delay_s
        assert shifted <= base * 1.001

    def test_slowing_critical_gate_grows_delay(self, plan_of):
        plan = plan_of(ripple_carry_adder(8))
        slacks = plan.slacks(1.0)
        tightest = min(slacks, key=slacks.get)
        base = plan.analyze(1.0).delay_s
        shifted = plan.analyze(
            1.0, per_instance_vt_shifts={tightest: 0.2}
        ).delay_s
        assert shifted > base


class TestDualVtOptimizer:
    @pytest.fixture(scope="class")
    def optimizer(self, tech):
        return DualVtOptimizer(
            carry_select_adder(12, 4), tech, vdd=1.0
        )

    def test_zero_budget_keeps_timing(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert result.delay_s <= result.baseline_delay_s * 1.0001
        assert result.delay_penalty == pytest.approx(0.0, abs=1e-3)

    def test_meaningful_fraction_goes_high_vt(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert result.high_vt_fraction > 0.5

    def test_leakage_drops_hard(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert result.leakage_reduction > 3.0
        assert result.leakage_a < result.baseline_leakage_a

    def test_looser_budget_converts_more_gates(self, optimizer):
        tight = optimizer.optimize(delay_budget=1.0)
        loose = optimizer.optimize(delay_budget=1.15)
        assert len(loose.high_vt_gates) >= len(tight.high_vt_gates)
        assert loose.leakage_a <= tight.leakage_a
        assert loose.delay_s <= loose.baseline_delay_s * 1.15 * 1.0001

    def test_assignment_is_verifiable(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        # Recompute delay/leakage from the returned gate set.
        assert optimizer.delay(result.high_vt_gates) == pytest.approx(
            result.delay_s
        )
        assert optimizer.leakage(result.high_vt_gates) == pytest.approx(
            result.leakage_a
        )

    def test_ripple_adder_has_less_room(self, tech):
        # Almost everything in a ripple adder feeds the carry chain;
        # the carry-select design has far more off-critical slack.
        ripple = DualVtOptimizer(
            ripple_carry_adder(12), tech, vdd=1.0
        ).optimize(1.0)
        select = DualVtOptimizer(
            carry_select_adder(12, 4), tech, vdd=1.0
        ).optimize(1.0)
        assert select.high_vt_fraction > ripple.high_vt_fraction

    def test_parameters_validated(self, tech):
        netlist = ripple_carry_adder(4)
        with pytest.raises(OptimizationError):
            DualVtOptimizer(netlist, tech, vdd=1.0, high_vt_shift=0.0)
        with pytest.raises(OptimizationError):
            DualVtOptimizer(netlist, tech, vdd=1.0).optimize(0.9)
