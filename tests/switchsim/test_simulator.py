"""Unit and integration tests for the event-driven simulator."""

import pytest

from repro.circuits.builders import (
    pipelined_adder,
    ring_oscillator,
    ripple_carry_adder,
)
from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import SimulationError
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture
def cells():
    return standard_cells()


def bus(prefix, width, value):
    return {f"{prefix}[{i}]": (value >> i) & 1 for i in range(width)}


class TestBasicPropagation:
    def test_inverter_chain_settles(self, tech, cells):
        netlist = Netlist("chain")
        netlist.add_input("in")
        netlist.add_gate(cells["INV"], ["in"], "mid")
        netlist.add_gate(cells["INV"], ["mid"], "out")
        sim = SwitchLevelSimulator(netlist, tech, 1.0)
        sim.initialize({"in": 0})
        assert sim.state == {"in": 0, "mid": 1, "out": 0}
        sim.apply({"in": 1})
        assert sim.state == {"in": 1, "mid": 0, "out": 1}

    def test_time_advances_with_each_gate(self, tech, cells):
        netlist = Netlist("chain")
        netlist.add_input("in")
        netlist.add_gate(cells["INV"], ["in"], "mid")
        netlist.add_gate(cells["INV"], ["mid"], "out")
        sim = SwitchLevelSimulator(netlist, tech, 1.0)
        sim.initialize({"in": 0})
        sim.apply({"in": 1})
        assert sim.now_fs > 0

    def test_unknown_input_name_rejected(self, tech, cells):
        netlist = Netlist("x")
        netlist.add_input("in")
        netlist.add_gate(cells["INV"], ["in"], "out")
        sim = SwitchLevelSimulator(netlist, tech, 1.0)
        with pytest.raises(SimulationError, match="primary input"):
            sim.initialize({"bogus": 1})

    def test_non_binary_input_rejected(self, tech, cells):
        netlist = Netlist("x")
        netlist.add_input("in")
        netlist.add_gate(cells["INV"], ["in"], "out")
        sim = SwitchLevelSimulator(netlist, tech, 1.0)
        with pytest.raises(SimulationError, match="0/1"):
            sim.initialize({"in": 7})

    def test_unchanged_input_is_free(self, tech, cells):
        netlist = Netlist("x")
        netlist.add_input("in")
        netlist.add_gate(cells["INV"], ["in"], "out")
        sim = SwitchLevelSimulator(netlist, tech, 1.0)
        sim.initialize({"in": 1})
        assert sim.apply({"in": 1}) == 0


class TestGateDelays:
    def test_register_d_pins_load_their_drivers(self, tech):
        # Each gate's inertial delay is the plan's, whose loads count
        # every register D pin and its wire: a gate driving D pins is
        # slower than with its gate pins alone.
        netlist = pipelined_adder(16, 4)
        simulator = SwitchLevelSimulator(netlist, tech, 0.6)
        plan = NetlistPlan(netlist, tech)
        assert simulator._delay_fs == {
            instance.name: max(int(delay * 1e15), 1)
            for instance, delay in zip(plan.instances, plan.gate_delays(0.6))
        }
        characterizer = CellCharacterizer(tech)
        d_nets = {
            register.data_input for register in netlist.registers.values()
        }
        drivers = [
            instance
            for instance in netlist.instances.values()
            if instance.output in d_nets
        ]
        assert drivers
        for instance in drivers:
            pins = netlist.fanout(instance.output)
            gate_pins_only = sum(
                load.cell.input_capacitance(tech, 0.6) for load, _ in pins
            ) + tech.wire_cap.wire_capacitance(5.0 * max(len(pins), 1))
            delay = characterizer.propagation_delay(
                instance.cell, 0.6, gate_pins_only
            )
            assert simulator._delay_fs[instance.name] > max(
                int(delay * 1e15), 1
            )


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adder_matches_zero_delay_model(self, tech, seed):
        adder = ripple_carry_adder(8)
        sim = SwitchLevelSimulator(adder, tech, 1.0)
        vectors = random_bus_vectors({"a": 8, "b": 8}, 50, seed=seed)
        sim.run_vectors(vectors)
        reference = adder.evaluate(vectors[-1])
        for net, value in reference.items():
            assert sim.state[net] == value, net

    def test_final_value_independent_of_order(self, tech):
        # Applying A then B ends in the same state as applying B alone.
        adder = ripple_carry_adder(4)
        first = {**bus("a", 4, 5), **bus("b", 4, 9)}
        second = {**bus("a", 4, 12), **bus("b", 4, 3)}
        sim1 = SwitchLevelSimulator(adder, tech, 1.0)
        sim1.initialize(first)
        sim1.apply(second)
        sim2 = SwitchLevelSimulator(adder, tech, 1.0)
        sim2.initialize(second)
        assert sim1.state == sim2.state


class TestGlitches:
    def test_ripple_adder_produces_extra_transitions(self, tech):
        # A carry ripple after sum bits settle re-toggles the sum XORs:
        # more events than the functional Hamming distance.
        adder = ripple_carry_adder(8)
        sim = SwitchLevelSimulator(adder, tech, 1.0)
        sim.initialize({**bus("a", 8, 0), **bus("b", 8, 0)})
        before = dict(sim.state)
        sim.reset_activity()
        # 255 + 1: every sum XOR goes high on its fast input, then the
        # rippling carry pulls it back low — a pulse on every bit.
        sim.apply({**bus("a", 8, 255), **bus("b", 8, 1)})
        after = dict(sim.state)
        functional_changes = sum(
            1 for net in after if after[net] != before[net]
        )
        report = sim.activity_report()
        assert report.total_transitions() > functional_changes

    def test_glitch_counts_depend_on_corner(self, tech):
        # The simulator is deterministic per corner.
        adder = ripple_carry_adder(8)
        vectors = random_bus_vectors({"a": 8, "b": 8}, 30, seed=3)
        first = SwitchLevelSimulator(adder, tech, 1.0).run_vectors(vectors)
        second = SwitchLevelSimulator(adder, tech, 1.0).run_vectors(vectors)
        assert first.rising == second.rising
        assert first.falling == second.falling


class TestRingOscillator:
    def test_free_run_oscillates(self, tech):
        ring = ring_oscillator(5)
        sim = SwitchLevelSimulator(ring, tech, 1.0)
        stage_fs = next(iter(sim._delay_fs.values()))
        duration = 20 * 5 * stage_fs  # ten full periods
        report = sim.run_free(preset={"ro[0]": 0}, duration_fs=duration)
        transitions = report.transitions("ro[0]")
        assert transitions == pytest.approx(20, abs=3)

    def test_period_matches_stage_delay(self, tech):
        stages = 7
        ring = ring_oscillator(stages)
        sim = SwitchLevelSimulator(ring, tech, 1.0)
        stage_fs = next(iter(sim._delay_fs.values()))
        cycles = 8
        duration = 2 * stages * stage_fs * cycles
        report = sim.run_free(preset={"ro[0]": 0}, duration_fs=duration)
        measured_period_fs = duration / (report.transitions("ro[0]") / 2.0)
        assert measured_period_fs == pytest.approx(
            2 * stages * stage_fs, rel=0.15
        )

    def test_preset_validated(self, tech):
        sim = SwitchLevelSimulator(ring_oscillator(3), tech, 1.0)
        with pytest.raises(SimulationError, match="unknown net"):
            sim.run_free(preset={"nosuch": 0}, duration_fs=100)
        with pytest.raises(SimulationError, match="0/1"):
            sim.run_free(preset={"ro[0]": 2}, duration_fs=100)

    def test_event_budget_guards_oscillation(self, tech):
        ring = ring_oscillator(3)
        sim = SwitchLevelSimulator(ring, tech, 1.0)
        with pytest.raises(SimulationError, match="budget"):
            sim.run_free(
                preset={"ro[0]": 0}, duration_fs=10**12, max_events=100
            )


class TestActivityAccumulation:
    def test_run_vectors_counts_cycles(self, tech):
        adder = ripple_carry_adder(4)
        vectors = random_bus_vectors({"a": 4, "b": 4}, 21, seed=0)
        report = SwitchLevelSimulator(adder, tech, 1.0).run_vectors(vectors)
        assert report.cycles == 20  # first vector initializes

    def test_empty_stimulus_rejected(self, tech):
        adder = ripple_carry_adder(4)
        sim = SwitchLevelSimulator(adder, tech, 1.0)
        with pytest.raises(SimulationError, match="at least one"):
            sim.run_vectors([])

    def test_reset_activity_zeroes(self, tech):
        adder = ripple_carry_adder(4)
        sim = SwitchLevelSimulator(adder, tech, 1.0)
        vectors = random_bus_vectors({"a": 4, "b": 4}, 10, seed=0)
        sim.run_vectors(vectors)
        sim.reset_activity()
        assert sim.activity_report().total_transitions() == 0
