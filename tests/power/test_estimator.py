"""Unit tests for the netlist power estimator."""

import pytest

from repro.circuits.builders import ripple_carry_adder
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import AnalysisError
from repro.power.estimator import PowerEstimator
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import counting_bus_vectors, random_bus_vectors
from repro.tech.characterize import CellCharacterizer


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture(scope="module")
def adder():
    return ripple_carry_adder(8)


@pytest.fixture(scope="module")
def estimator(adder, tech):
    return PowerEstimator(adder, tech)


@pytest.fixture(scope="module")
def report(adder, tech):
    vectors = random_bus_vectors({"a": 8, "b": 8}, 150, seed=33)
    return SwitchLevelSimulator(adder, tech, 1.0).run_vectors(vectors)


VDD = 1.0
FREQ = 1e6


class TestSwitching:
    def test_positive_and_linear_in_frequency(self, estimator, report):
        p1 = estimator.switching_power(report, VDD, FREQ)
        p2 = estimator.switching_power(report, VDD, 2 * FREQ)
        assert p1 > 0.0
        assert p2 == pytest.approx(2.0 * p1)

    def test_correlated_inputs_use_less(self, adder, tech, estimator, report):
        vectors = counting_bus_vectors(
            "b", 8, 150, fixed_buses={"a": 85}, fixed_widths={"a": 8}
        )
        quiet = SwitchLevelSimulator(adder, tech, VDD).run_vectors(vectors)
        assert estimator.switching_power(
            quiet, VDD, FREQ
        ) < estimator.switching_power(report, VDD, FREQ)


class TestLeakage:
    def test_scales_with_gate_count(self, tech):
        small = PowerEstimator(ripple_carry_adder(4), tech)
        large = PowerEstimator(ripple_carry_adder(16), tech)
        assert large.leakage_current(VDD) > 3.0 * small.leakage_current(VDD)

    def test_vt_shift_suppresses(self, estimator):
        active = estimator.leakage_power(VDD)
        standby = estimator.leakage_power(VDD, vt_shift=0.264)
        assert active > 1e3 * standby

    def test_vdd_validation(self, estimator):
        with pytest.raises(AnalysisError):
            estimator.leakage_current(0.0)


class TestShortCircuit:
    def test_small_fraction_of_switching(self, estimator, report):
        # Paper Section 2: with matched edges short-circuit stays below
        # ~10 % of total power.
        switching = estimator.switching_power(report, VDD, FREQ)
        short = estimator.short_circuit_power(report, VDD, FREQ)
        assert 0.0 <= short < 0.15 * switching

    def test_zero_at_overlap_free_supply(self, adder, report):
        # V_DD below V_Tn + V_Tp: crowbar path impossible.
        tech = soi_low_vt(vt0=0.3)
        estimator = PowerEstimator(adder, tech)
        assert estimator.short_circuit_power(report, 0.55, FREQ) == 0.0

    def test_transition_time_is_the_driving_gates_delay(
        self, adder, tech, estimator
    ):
        # A gate's input edge is as slow as the gate driving that input,
        # timed with its external load: the driver's own output
        # capacitance is counted once, by the cell, not again through
        # the net's Eq. 1 capacitance.
        plan = NetlistPlan(adder, tech)
        delays = dict(zip(adder.instances, plan.gate_delays(VDD)))
        net_capacitance = plan.net_capacitances(VDD)
        characterizer = CellCharacterizer(tech)
        driven = 0
        for instance, time in zip(
            adder.instances.values(),
            estimator._input_transition_times(VDD),
        ):
            driver = adder.driver(instance.inputs[0])
            if driver is None:
                continue
            driven += 1
            assert time == delays[driver.name]
            assert time < characterizer.propagation_delay(
                driver.cell, VDD, net_capacitance[driver.output]
            )
        assert driven > 0


class TestBreakdown:
    def test_components_sum(self, estimator, report):
        breakdown = estimator.breakdown(report, VDD, FREQ)
        assert breakdown.total_w == pytest.approx(
            breakdown.switching_w
            + breakdown.short_circuit_w
            + breakdown.leakage_w
        )

    def test_switching_dominates_when_clocked_near_capability(
        self, estimator, report
    ):
        # Paper: "in conventional process technology using proper
        # circuit design, the switching component dominates".  For the
        # calibrated low-V_T SOI process that holds when the module is
        # clocked near its capability (100 MHz+); at 1 MHz the same
        # module is leakage-limited — the paper's low-voltage premise.
        fast = estimator.breakdown(report, VDD, 1e8)
        assert fast.fraction("switching") > 0.5
        slow = estimator.breakdown(report, VDD, 1e6)
        assert slow.fraction("leakage") > 0.5

    def test_leakage_dominates_when_idle_at_low_vt(
        self, adder, tech, estimator
    ):
        # An idle module (no transitions) at low V_T burns leakage only.
        vectors = [
            {f"a[{i}]": 0 for i in range(8)} | {f"b[{i}]": 0 for i in range(8)}
        ] * 3
        quiet = SwitchLevelSimulator(adder, tech, VDD).run_vectors(vectors)
        breakdown = estimator.breakdown(quiet, VDD, FREQ)
        assert breakdown.fraction("leakage") > 0.9
