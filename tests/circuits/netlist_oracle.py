"""Per-instance netlist chain: the test-only oracle for NetlistPlan.

:class:`~repro.circuits.plan.NetlistPlan` decodes a netlist once and
evaluates each distinct cell's C(V) views once per supply, one kernel
call per (cell, load) group and one leakage call per distinct cell.
This module is the chain it replaces, kept per pin and per instance:

* :func:`external_load` and :func:`net_capacitance` sum one C(V) view
  per load pin (register D pins included);
* :class:`StaticTimingAnalyzer` levelizes on every query and takes
  each gate's delay from a scalar
  :meth:`~repro.tech.characterize.CellCharacterizer.propagation_delay`;
* :func:`leakage_current` adds one scalar
  :meth:`~repro.tech.characterize.CellCharacterizer.leakage_current`
  per instance.

The plan must match it float for float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import NetlistError
from repro.tech.characterize import CellCharacterizer

#: Device widths of a register's D-pin load (one inverter-equivalent
#: gate), as in the plan.
_REGISTER_D_NMOS_UM = 2.0
_REGISTER_D_PMOS_UM = 4.0


def _register_pin(technology, vdd: float) -> float:
    length = technology.drawn_length_um
    return technology.gate_cap.gate_capacitance(
        _REGISTER_D_NMOS_UM, length, vdd
    ) + technology.gate_cap.gate_capacitance(_REGISTER_D_PMOS_UM, length, vdd)


def external_load(
    netlist,
    net: str,
    technology,
    vdd: float,
    wire_length_per_fanout_um: float = 5.0,
    sizes: Optional[Mapping[str, float]] = None,
) -> float:
    """Fanout pin capacitances (sized), register D pins and wire [F]."""
    sizes = sizes or {}
    loads = netlist.fanout(net)
    capacitance = sum(
        instance.cell.input_capacitance(technology, vdd)
        * sizes.get(instance.name, 1.0)
        for instance, _ in loads
    )
    register_loads = netlist.register_fanout(net)
    if register_loads:
        capacitance += len(register_loads) * _register_pin(technology, vdd)
    total_fanout = len(loads) + len(register_loads)
    wire = technology.wire_cap.wire_capacitance(
        wire_length_per_fanout_um * max(total_fanout, 1)
    )
    return capacitance + wire


def net_capacitance(
    netlist,
    net: str,
    technology,
    vdd: float,
    wire_length_per_fanout_um: float = 5.0,
) -> float:
    """Total switched capacitance attached to a net: the C of Eq. 1 [F]."""
    loads = netlist.fanout(net)
    capacitance = sum(
        instance.cell.input_capacitance(technology, vdd)
        for instance, _ in loads
    )
    register_loads = netlist.register_fanout(net)
    if register_loads:
        capacitance += len(register_loads) * _register_pin(technology, vdd)
    driver = netlist.driver(net)
    if driver is not None:
        capacitance += driver.cell.output_capacitance(technology, vdd)
    total_fanout = len(loads) + len(register_loads)
    wire_length = wire_length_per_fanout_um * max(total_fanout, 1)
    capacitance += technology.wire_cap.wire_capacitance(wire_length)
    return capacitance


def switched_capacitance(
    netlist, alphas: Mapping[str, float], technology, vdd: float,
    wire_length_per_fanout_um: float = 5.0,
) -> float:
    """``sum alpha(net) * C(net)`` over ``alphas``, per net [F]."""
    return sum(
        [
            alpha * net_capacitance(
                netlist, net, technology, vdd, wire_length_per_fanout_um
            )
            for net, alpha in alphas.items()
        ],
        0.0,
    )


def leakage_current(
    characterizer: CellCharacterizer,
    netlist,
    vdd: float,
    vt_shift: float = 0.0,
    per_instance_vt_shifts: Optional[Mapping[str, float]] = None,
    per_instance_size_factors: Optional[Mapping[str, float]] = None,
) -> float:
    """Per-instance leakage (times its size factor), in netlist order [A]."""
    shifts = per_instance_vt_shifts or {}
    sizes = per_instance_size_factors or {}
    return sum(
        characterizer.leakage_current(
            instance.cell, vdd, vt_shift=shifts.get(name, vt_shift)
        )
        * sizes.get(name, 1.0)
        for name, instance in netlist.instances.items()
    )


@dataclass(frozen=True)
class Timing:
    """One static-timing run: the critical path and every gate delay."""

    delay_s: float
    path_nets: Tuple[str, ...]
    arrival_times: Dict[str, float]
    gate_delays: Dict[str, float]


class StaticTimingAnalyzer:
    """Topological arrival-time propagation, one scalar characterizer
    delay per gate, loads per pin."""

    def __init__(self, technology, wire_length_per_fanout_um: float = 5.0):
        self.technology = technology
        self.wire_length_per_fanout_um = wire_length_per_fanout_um
        self.characterizer = CellCharacterizer(technology)

    def gate_delay(self, netlist, instance, vdd, shift, sizes=None) -> float:
        """One gate's delay driving its external load over its size [s]."""
        sizes = sizes or {}
        load = external_load(
            netlist, instance.output, self.technology, vdd,
            self.wire_length_per_fanout_um, sizes,
        )
        return self.characterizer.propagation_delay(
            instance.cell, vdd, load / sizes.get(instance.name, 1.0), shift
        )

    def analyze(
        self,
        netlist,
        vdd: float,
        vt_shift: float = 0.0,
        per_instance_vt_shifts: Optional[Mapping[str, float]] = None,
        per_instance_size_factors: Optional[Mapping[str, float]] = None,
    ) -> Timing:
        """Arrival times and critical path at a corner."""
        shifts = per_instance_vt_shifts or {}
        sizes = per_instance_size_factors or {}
        for label, mapping in (("V_T shifts", shifts), ("sizes", sizes)):
            unknown = set(mapping) - set(netlist.instances)
            if unknown:
                raise NetlistError(
                    f"{label} for unknown instances: {sorted(unknown)[:5]}"
                )
        if any(k <= 0.0 for k in sizes.values()):
            raise NetlistError("size factors must be positive")
        order = netlist.levelize()
        arrival: Dict[str, float] = {
            net: 0.0 for net in netlist.primary_inputs
        }
        arrival.update({net: 0.0 for net in netlist.constants})
        arrival.update({net: 0.0 for net in netlist.register_outputs()})
        worst_input: Dict[str, str] = {}
        delays: Dict[str, float] = {}
        for instance in order:
            latest_time, latest_net = max(
                (arrival[net], net) for net in instance.inputs
            )
            delay = self.gate_delay(
                netlist, instance, vdd,
                shifts.get(instance.name, vt_shift), sizes,
            )
            delays[instance.name] = delay
            arrival[instance.output] = latest_time + delay
            worst_input[instance.output] = latest_net
        endpoints = list(netlist.primary_outputs) + [
            register.data_input for register in netlist.registers.values()
        ]
        if not endpoints:
            endpoints = [instance.output for instance in order]
        end_net = max(endpoints, key=lambda net: arrival[net])
        path: List[str] = [end_net]
        while path[-1] in worst_input:
            path.append(worst_input[path[-1]])
        path.reverse()
        return Timing(arrival[end_net], tuple(path), arrival, delays)

    def slacks(
        self,
        netlist,
        vdd: float,
        vt_shift: float = 0.0,
        per_instance_vt_shifts: Optional[Mapping[str, float]] = None,
        required_time_s: Optional[float] = None,
        per_instance_size_factors: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Per-instance slack from the required-time backward pass [s]."""
        timing = self.analyze(
            netlist, vdd, vt_shift, per_instance_vt_shifts,
            per_instance_size_factors,
        )
        if required_time_s is None:
            required_time_s = timing.delay_s
        order = netlist.levelize()
        endpoints = set(netlist.primary_outputs) | {
            register.data_input for register in netlist.registers.values()
        }
        required: Dict[str, float] = {
            net: required_time_s for net in endpoints
        }
        for instance in reversed(order):
            at_output = required.get(instance.output, float("inf"))
            needed = at_output - timing.gate_delays[instance.name]
            for net in instance.inputs:
                required[net] = min(required.get(net, float("inf")), needed)
        return {
            instance.name: (
                required.get(instance.output, float("inf"))
                - timing.arrival_times[instance.output]
            )
            for instance in order
        }
