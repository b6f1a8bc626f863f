"""Tests for register support: netlist, timing, clocked simulation."""

import random

import pytest

from repro.circuits.builders import pipelined_adder, ripple_carry_adder
from repro.circuits.netlist import Netlist, Register
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import NetlistError, SimulationError
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.tech.cells import standard_cells


def bus(prefix, width, value):
    return {f"{prefix}[{i}]": (value >> i) & 1 for i in range(width)}


@pytest.fixture
def cells():
    return standard_cells()


@pytest.fixture
def toggler(cells):
    """Classic divide-by-two: Q feeds back through an inverter."""
    netlist = Netlist("toggle")
    netlist.add_input("en")
    netlist.add_register("d", "q", name="ff", initial=0)
    netlist.add_gate(cells["INV"], ["q"], "nq")
    netlist.add_gate(cells["AND2"], ["nq", "en"], "d")
    netlist.add_output("q")
    return netlist


class TestRegisterStructure:
    def test_register_validation(self):
        with pytest.raises(NetlistError, match="initial"):
            Register(name="r", data_input="d", output="q", initial=2)
        with pytest.raises(NetlistError, match="different"):
            Register(name="r", data_input="x", output="x")

    def test_q_net_cannot_be_redriven(self, toggler, cells):
        with pytest.raises(NetlistError, match="register"):
            toggler.add_gate(cells["INV"], ["en"], "q")

    def test_duplicate_register_name_rejected(self, toggler):
        with pytest.raises(NetlistError, match="duplicate"):
            toggler.add_register("en", "q2", name="ff")

    def test_sequential_flag_and_repr(self, toggler):
        assert toggler.is_sequential
        assert "1 registers" in repr(toggler)
        assert not ripple_carry_adder(4).is_sequential

    def test_feedback_through_register_is_acyclic(self, toggler):
        order = [i.name for i in toggler.levelize()]
        assert len(order) == 2  # INV and AND2 levelize fine

    def test_undriven_d_net_caught(self, cells):
        netlist = Netlist("bad")
        netlist.add_register("floating", "q")
        netlist.add_gate(cells["INV"], ["q"], "y")
        with pytest.raises(NetlistError, match="floating"):
            netlist.validate()

    def test_nets_include_register_pins(self, toggler):
        nets = toggler.nets()
        assert "q" in nets and "d" in nets

    def test_register_fanout_tracked(self, toggler):
        assert [r.name for r in toggler.register_fanout("d")] == ["ff"]

    def test_d_pin_adds_capacitance(self, toggler):
        tech = soi_low_vt()
        with_register = NetlistPlan(toggler, tech).net_capacitances(1.0)["d"]
        bare = Netlist("bare")
        bare.add_input("en")
        cells = standard_cells()
        bare.add_gate(cells["INV"], ["en"], "d")
        without = NetlistPlan(bare, tech).net_capacitances(1.0)["d"]
        assert with_register > without


class TestSequentialEvaluation:
    def test_toggler_divides_by_two(self, toggler):
        history = toggler.evaluate_sequence([{"en": 1}] * 6)
        assert [cycle["q"] for cycle in history] == [0, 1, 0, 1, 0, 1]

    def test_enable_freezes_state(self, toggler):
        history = toggler.evaluate_sequence(
            [{"en": 1}, {"en": 1}, {"en": 0}, {"en": 0}, {"en": 1}]
        )
        assert [cycle["q"] for cycle in history] == [0, 1, 0, 0, 0]

    def test_initial_value_respected(self, cells):
        netlist = Netlist("init1")
        netlist.add_input("d_in")
        netlist.add_register("d_in", "q", initial=1)
        netlist.add_output("q")
        values = netlist.evaluate({"d_in": 0})
        assert values["q"] == 1

    def test_missing_state_rejected(self, toggler):
        with pytest.raises(NetlistError, match="missing state"):
            toggler.evaluate({"en": 1}, register_state={})

    def test_state_on_combinational_netlist_rejected(self):
        adder = ripple_carry_adder(2)
        with pytest.raises(NetlistError, match="combinational"):
            adder.evaluate(
                {**bus("a", 2, 0), **bus("b", 2, 0)},
                register_state={"x": 0},
            )


class TestPipelinedAdder:
    @pytest.mark.parametrize("width,stages", [(8, 1), (8, 2), (16, 4), (7, 3)])
    def test_matches_integer_addition_after_latency(self, width, stages):
        netlist = pipelined_adder(width, stages)
        rng = random.Random(width * 31 + stages)
        pairs = [
            (rng.randrange(2**width), rng.randrange(2**width))
            for _ in range(10)
        ]
        vectors = [
            {**bus("a", width, a), **bus("b", width, b)} for a, b in pairs
        ]
        vectors += [vectors[-1]] * (stages - 1)
        history = netlist.evaluate_sequence(vectors)
        latency = stages - 1
        for k, (a, b) in enumerate(pairs):
            values = history[k + latency]
            got = sum(values[f"sum[{i}]"] << i for i in range(width))
            got |= values["cout"] << width
            assert got == a + b, (a, b, k)

    def test_single_stage_is_combinational(self):
        assert not pipelined_adder(8, 1).is_sequential

    def test_deeper_pipelines_cut_the_cycle_time(self):
        times = [
            NetlistPlan(pipelined_adder(16, s), soi_low_vt()).analyze(
                1.0
            ).delay_s
            for s in (1, 2, 4)
        ]
        assert times[0] > 1.7 * times[1] > 1.7 * 1.7 * times[2] / 1.7

    def test_register_count_grows_with_stages(self):
        shallow = pipelined_adder(16, 2)
        deep = pipelined_adder(16, 4)
        assert len(deep.registers) > len(shallow.registers) > 0

    def test_stage_bounds_validated(self):
        with pytest.raises(NetlistError):
            pipelined_adder(8, 0)
        with pytest.raises(NetlistError):
            pipelined_adder(4, 5)


class TestClockedSimulation:
    def test_matches_zero_delay_sequence(self):
        width, stages = 8, 2
        netlist = pipelined_adder(width, stages)
        rng = random.Random(7)
        vectors = [
            {
                **bus("a", width, rng.randrange(2**width)),
                **bus("b", width, rng.randrange(2**width)),
            }
            for _ in range(12)
        ]
        simulator = SwitchLevelSimulator(netlist, soi_low_vt(), 1.0)
        simulator.run_clocked(vectors)
        reference = netlist.evaluate_sequence(vectors)[-1]
        for net, value in reference.items():
            assert simulator.state[net] == value, net

    def test_q_transitions_counted(self, toggler):
        simulator = SwitchLevelSimulator(toggler, soi_low_vt(), 1.0)
        report = simulator.run_clocked([{"en": 1}] * 9)
        # q toggles every cycle after the first.
        assert report.transitions("q") == 8

    def test_clock_cycle_requires_registers(self):
        adder = ripple_carry_adder(4)
        simulator = SwitchLevelSimulator(adder, soi_low_vt(), 1.0)
        simulator.initialize({**bus("a", 4, 0), **bus("b", 4, 0)})
        with pytest.raises(SimulationError, match="no registers"):
            simulator.clock_cycle({})

    def test_clock_cycle_requires_initialization(self, toggler):
        simulator = SwitchLevelSimulator(toggler, soi_low_vt(), 1.0)
        simulator.initialize({"en": 1})  # no register preset: d unknown?
        # After initialize with preset-free registers, q is unknown ->
        # d may be unknown and clocking must complain.
        if simulator.state["d"] is None:
            with pytest.raises(SimulationError, match="unknown"):
                simulator.clock_cycle({"en": 1})
