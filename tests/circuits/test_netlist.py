"""Unit tests for the netlist graph."""

import pytest

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import NetlistError
from repro.tech.cells import standard_cells


@pytest.fixture
def cells():
    return standard_cells()


@pytest.fixture
def inverter_chain(cells):
    netlist = Netlist("chain")
    netlist.add_input("in")
    netlist.add_gate(cells["INV"], ["in"], "mid")
    netlist.add_gate(cells["INV"], ["mid"], "out")
    netlist.add_output("out")
    return netlist


class TestConstruction:
    def test_add_inputs_bus(self, cells):
        netlist = Netlist("bus")
        nets = netlist.add_inputs("a", 4)
        assert nets == ["a[0]", "a[1]", "a[2]", "a[3]"]
        assert netlist.primary_inputs == nets

    def test_duplicate_driver_rejected(self, cells):
        netlist = Netlist("dup")
        netlist.add_input("x")
        netlist.add_gate(cells["INV"], ["x"], "y")
        with pytest.raises(NetlistError, match="already driven"):
            netlist.add_gate(cells["INV"], ["x"], "y")

    def test_driving_primary_input_rejected(self, cells):
        netlist = Netlist("bad")
        netlist.add_input("x")
        netlist.add_input("y")
        with pytest.raises(NetlistError, match="primary input"):
            netlist.add_gate(cells["INV"], ["y"], "x")

    def test_duplicate_instance_name_rejected(self, cells):
        netlist = Netlist("dup")
        netlist.add_input("x")
        netlist.add_gate(cells["INV"], ["x"], "y", name="g")
        with pytest.raises(NetlistError, match="duplicate"):
            netlist.add_gate(cells["INV"], ["x"], "z", name="g")

    def test_arity_mismatch_rejected(self, cells):
        netlist = Netlist("bad")
        netlist.add_input("x")
        with pytest.raises(NetlistError, match="2 inputs"):
            netlist.add_gate(cells["NAND2"], ["x"], "y")

    def test_constant_value_checked(self):
        netlist = Netlist("c")
        with pytest.raises(NetlistError, match="0/1"):
            netlist.add_constant("k", 2)

    def test_repr_and_stats(self, inverter_chain):
        assert "2 gates" in repr(inverter_chain)
        assert inverter_chain.stats() == {"INV": 2}


class TestStructure:
    def test_driver_and_fanout(self, inverter_chain):
        driver = inverter_chain.driver("mid")
        assert driver is not None and driver.cell.name == "INV"
        assert inverter_chain.driver("in") is None
        fanout = inverter_chain.fanout("mid")
        assert len(fanout) == 1
        assert fanout[0][0].output == "out"

    def test_nets_deterministic(self, inverter_chain):
        assert inverter_chain.nets() == ["in", "mid", "out"]

    def test_validate_detects_floating_input(self, cells):
        netlist = Netlist("float")
        netlist.add_input("x")
        netlist.add_gate(cells["NAND2"], ["x", "ghost"], "y")
        with pytest.raises(NetlistError, match="ghost"):
            netlist.validate()

    def test_validate_detects_undriven_output(self, cells):
        netlist = Netlist("float")
        netlist.add_output("nowhere")
        with pytest.raises(NetlistError, match="nowhere"):
            netlist.validate()

    def test_levelize_orders_dependencies(self, cells):
        netlist = Netlist("diamond")
        netlist.add_input("x")
        netlist.add_gate(cells["INV"], ["x"], "a", name="ga")
        netlist.add_gate(cells["INV"], ["x"], "b", name="gb")
        netlist.add_gate(cells["NAND2"], ["a", "b"], "y", name="gy")
        order = [i.name for i in netlist.levelize()]
        assert order.index("gy") > order.index("ga")
        assert order.index("gy") > order.index("gb")

    def test_levelize_rejects_cycles(self, cells):
        netlist = Netlist("ring")
        netlist.add_gate(cells["INV"], ["b"], "a")
        netlist.add_gate(cells["INV"], ["a"], "b")
        with pytest.raises(NetlistError, match="cycle"):
            netlist.levelize()


class TestEvaluation:
    def test_inverter_chain(self, inverter_chain):
        assert inverter_chain.evaluate({"in": 0})["out"] == 0
        assert inverter_chain.evaluate({"in": 1})["out"] == 1

    def test_constants_participate(self, cells):
        netlist = Netlist("const")
        netlist.add_input("x")
        netlist.add_constant("one", 1)
        netlist.add_gate(cells["AND2"], ["x", "one"], "y")
        assert netlist.evaluate({"x": 1})["y"] == 1
        assert netlist.evaluate({"x": 0})["y"] == 0

    def test_missing_input_rejected(self, inverter_chain):
        with pytest.raises(NetlistError, match="missing value"):
            inverter_chain.evaluate({})

    def test_non_binary_input_rejected(self, inverter_chain):
        with pytest.raises(NetlistError, match="0/1"):
            inverter_chain.evaluate({"in": 3})

    def test_extra_net_values_rejected(self, inverter_chain):
        with pytest.raises(NetlistError, match="non-input"):
            inverter_chain.evaluate({"in": 1, "mid": 0})

    def test_evaluate_bus_packs_bits(self, cells):
        netlist = Netlist("pack")
        nets = netlist.add_inputs("a", 3)
        for i, net in enumerate(nets):
            netlist.add_gate(cells["BUF"], [net], f"y[{i}]")
            netlist.add_output(f"y[{i}]")
        value = netlist.evaluate_bus(
            {"a[0]": 1, "a[1]": 0, "a[2]": 1}, "y", 3
        )
        assert value == 0b101


class TestCapacitance:
    def test_net_capacitance_positive(self, inverter_chain):
        plan = NetlistPlan(inverter_chain, soi_low_vt())
        capacitance = plan.net_capacitances(1.0)
        assert list(capacitance) == inverter_chain.nets()
        assert all(c > 0.0 for c in capacitance.values())

    def test_fanout_increases_capacitance(self, cells):
        tech = soi_low_vt()
        netlist = Netlist("fan")
        netlist.add_input("x")
        netlist.add_gate(cells["INV"], ["x"], "y")
        single = NetlistPlan(netlist, tech).net_capacitances(1.0)["x"]
        netlist.add_gate(cells["INV"], ["x"], "z")
        double = NetlistPlan(netlist, tech).net_capacitances(1.0)["x"]
        assert double > single

    def test_switched_capacitance_sums_nets(self, inverter_chain):
        plan = NetlistPlan(inverter_chain, soi_low_vt())
        capacitance = plan.net_capacitances(1.0)
        every_net_once = dict.fromkeys(capacitance, 1.0)
        assert plan.switched_capacitance(every_net_once, 1.0) == sum(
            capacitance.values()
        )

    def test_capacitance_grows_with_vdd(self, inverter_chain):
        # The Fig. 1 non-linearity propagates to net extraction.
        plan = NetlistPlan(inverter_chain, soi_low_vt())
        low = plan.net_capacitances(0.8)["mid"]
        high = plan.net_capacitances(1.8)["mid"]
        assert high > low
