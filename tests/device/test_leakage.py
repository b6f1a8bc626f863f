"""Unit tests for gate/stack leakage and the stack effect."""

import pytest

from repro.device.leakage import (
    StackLeakageModel,
    StackSolver,
    gate_leakage_current,
    stack_leakage_current,
)
from repro.device.mosfet import Mosfet, MosfetParameters
from repro.device.technology import soi_low_vt
from repro.errors import DeviceModelError


@pytest.fixture
def nmos_params():
    return soi_low_vt().transistors.nmos


@pytest.fixture
def pmos_params():
    return soi_low_vt().transistors.pmos


class TestStackLeakage:
    def test_single_device_matches_off_current(self, nmos_params):
        direct = Mosfet(nmos_params, width_um=2.0).off_current(1.0)
        assert stack_leakage_current(nmos_params, [2.0], 1.0) == pytest.approx(
            direct
        )

    def test_two_stack_leaks_less_than_one_device(self, nmos_params):
        single = stack_leakage_current(nmos_params, [1.0], 1.0)
        double = stack_leakage_current(nmos_params, [1.0, 1.0], 1.0)
        assert double < 0.5 * single

    def test_deeper_stacks_leak_monotonically_less(self, nmos_params):
        currents = [
            stack_leakage_current(nmos_params, [1.0] * depth, 1.0)
            for depth in range(1, 5)
        ]
        assert currents == sorted(currents, reverse=True)

    def test_wider_stack_leaks_proportionally_more(self, nmos_params):
        narrow = stack_leakage_current(nmos_params, [1.0, 1.0], 1.0)
        wide = stack_leakage_current(nmos_params, [4.0, 4.0], 1.0)
        assert wide == pytest.approx(4.0 * narrow, rel=0.02)

    def test_vt_shift_reduces_stack_leakage(self, nmos_params):
        active = stack_leakage_current(nmos_params, [1.0, 1.0], 1.0, 0.0)
        standby = stack_leakage_current(nmos_params, [1.0, 1.0], 1.0, 0.25)
        assert standby < active / 100.0

    def test_empty_stack_rejected(self, nmos_params):
        with pytest.raises(DeviceModelError, match="at least one"):
            stack_leakage_current(nmos_params, [], 1.0)

    def test_nonpositive_vdd_rejected(self, nmos_params):
        with pytest.raises(DeviceModelError, match="vdd"):
            stack_leakage_current(nmos_params, [1.0], 0.0)

    def test_current_bounded_by_weakest_device(self, nmos_params):
        widths = [0.5, 4.0]
        stack = stack_leakage_current(nmos_params, widths, 1.0)
        weakest = Mosfet(nmos_params, width_um=0.5).off_current(1.0)
        assert stack < weakest


class TestGateLeakage:
    def test_averages_both_networks(self, nmos_params, pmos_params):
        leak = gate_leakage_current(
            nmos_params, pmos_params, [1.0], [2.0], vdd=1.0
        )
        n_leak = stack_leakage_current(nmos_params, [1.0], 1.0)
        p_leak = stack_leakage_current(pmos_params, [2.0], 1.0)
        assert leak == pytest.approx(0.5 * (n_leak + p_leak))

    def test_output_probability_weighting(self, nmos_params, pmos_params):
        always_high = gate_leakage_current(
            nmos_params, pmos_params, [1.0], [2.0], 1.0,
            output_high_probability=1.0,
        )
        n_leak = stack_leakage_current(nmos_params, [1.0], 1.0)
        assert always_high == pytest.approx(n_leak)

    def test_invalid_probability_rejected(self, nmos_params, pmos_params):
        with pytest.raises(DeviceModelError, match="probability"):
            gate_leakage_current(
                nmos_params, pmos_params, [1.0], [1.0], 1.0,
                output_high_probability=1.5,
            )

    def test_nand_style_stack_beats_inverter(self, nmos_params, pmos_params):
        inverter = gate_leakage_current(
            nmos_params, pmos_params, [1.0], [2.0], 1.0,
            output_high_probability=1.0,
        )
        nand_pull_down = gate_leakage_current(
            nmos_params, pmos_params, [1.0, 1.0], [2.0], 1.0,
            output_high_probability=1.0,
        )
        assert nand_pull_down < inverter


class TestStackLeakageModel:
    def test_current_is_the_one_solvers_answer(self, nmos_params):
        # No memo in front of the solver: every value is the widths
        # tuple's one solver's exact answer, whatever was asked before,
        # a shift within 1e-6 V included.
        model = StackLeakageModel(nmos_params)
        solver = model.solver([1.0, 1.0])
        assert model.solver((1.0, 1.0)) is solver
        first = model.current([1.0, 1.0], 1.0, 0.01)
        near = model.current([1.0, 1.0], 1.0, 0.0100004)
        assert near != first
        assert model.current([1.0, 1.0], 1.0, 0.01) == first
        assert first == solver.current(1.0, 0.01)
        assert first == StackSolver(nmos_params, [1.0, 1.0]).current(
            1.0, 0.01
        )

    def test_suppression_factor_above_one(self, nmos_params):
        model = StackLeakageModel(nmos_params)
        assert model.suppression_factor(2, 1.0, 1.0) > 1.0

    def test_suppression_factor_depth_one_is_unity(self, nmos_params):
        model = StackLeakageModel(nmos_params)
        assert model.suppression_factor(1, 1.0, 1.0) == pytest.approx(1.0)

    def test_suppression_grows_with_depth(self, nmos_params):
        model = StackLeakageModel(nmos_params)
        factors = [
            model.suppression_factor(d, 1.0, 1.0) for d in range(1, 5)
        ]
        assert factors == sorted(factors)

    def test_invalid_depth_rejected(self, nmos_params):
        with pytest.raises(DeviceModelError, match="depth"):
            StackLeakageModel(nmos_params).suppression_factor(0, 1.0, 1.0)
