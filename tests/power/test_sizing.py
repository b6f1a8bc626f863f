"""Tests for slack-driven gate downsizing."""

import pytest

from repro.circuits.builders import carry_select_adder, ripple_carry_adder
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import NetlistError, OptimizationError
from repro.power.sizing import GateSizingOptimizer


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture(scope="module")
def optimizer(tech):
    return GateSizingOptimizer(carry_select_adder(12, 4), tech, vdd=1.0)


class TestSizedTiming:
    def test_downsizing_a_fanout_gate_speeds_its_driver(self, tech):
        # Shrinking a load reduces the driver's delay: the sized STA
        # must see through the fanout.
        from repro.circuits.netlist import Netlist
        from repro.tech.cells import standard_cells

        cells = standard_cells()
        netlist = Netlist("chain")
        netlist.add_input("in")
        netlist.add_gate(cells["INV"], ["in"], "x", name="driver")
        netlist.add_gate(cells["INV"], ["x"], "y", name="load")
        netlist.add_output("x")
        netlist.add_output("y")
        plan = NetlistPlan(netlist, tech)
        base = plan.analyze(1.0).arrival_times["x"]
        resized = plan.analyze(
            1.0, per_instance_size_factors={"load": 0.5}
        ).arrival_times["x"]
        assert resized < base

    def test_downsizing_everything_slows_endpoints(self, tech):
        netlist = ripple_carry_adder(8)
        plan = NetlistPlan(netlist, tech)
        base = plan.analyze(1.0).delay_s
        # Uniform shrink: internal load ratios unchanged but wire and
        # register loads don't shrink, so paths get slower.
        sizes = {name: 0.3 for name in netlist.instances}
        resized = plan.analyze(1.0, per_instance_size_factors=sizes).delay_s
        assert resized > base

    def test_invalid_factors_rejected(self, tech):
        netlist = ripple_carry_adder(4)
        plan = NetlistPlan(netlist, tech)
        with pytest.raises(NetlistError, match="positive"):
            plan.analyze(
                1.0,
                per_instance_size_factors={
                    next(iter(netlist.instances)): 0.0
                },
            )
        with pytest.raises(NetlistError, match="unknown"):
            plan.analyze(1.0, per_instance_size_factors={"ghost": 0.5})


class TestOptimizer:
    def test_meets_delay_budget(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert result.delay_s <= result.baseline_delay_s * 1.0001

    def test_reduces_capacitance_and_leakage(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert result.capacitance_reduction > 1.5
        assert result.leakage_reduction > 1.5
        assert result.downsized_gates > 0

    def test_factors_come_from_the_allowed_set(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert set(result.size_factors.values()) <= set(
            optimizer.allowed_factors
        )

    def test_solution_is_verifiable(self, optimizer):
        result = optimizer.optimize(delay_budget=1.0)
        assert optimizer.delay(result.size_factors) == pytest.approx(
            result.delay_s
        )
        assert optimizer.leakage(result.size_factors) == pytest.approx(
            result.leakage_a
        )

    def test_looser_budget_downsizes_at_least_as_much(self, optimizer):
        tight = optimizer.optimize(delay_budget=1.0)
        loose = optimizer.optimize(delay_budget=1.2)
        assert loose.input_capacitance_f <= tight.input_capacitance_f * 1.01

    def test_validation(self, tech):
        netlist = ripple_carry_adder(4)
        with pytest.raises(OptimizationError):
            GateSizingOptimizer(netlist, tech, vdd=0.0)
        with pytest.raises(OptimizationError):
            GateSizingOptimizer(netlist, tech, 1.0, allowed_factors=())
        with pytest.raises(OptimizationError):
            GateSizingOptimizer(
                netlist, tech, 1.0, allowed_factors=(1.5,)
            )
        with pytest.raises(OptimizationError):
            GateSizingOptimizer(netlist, tech, 1.0).optimize(0.5)
