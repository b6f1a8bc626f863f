"""One decoded netlist: net loads, gate delays, static timing, leakage.

A :class:`NetlistPlan` decodes a netlist once against a technology and
a wire load (``wire_length_per_fanout_um`` per load pin, at least one)
and answers every netlist-level question about the paper's two
low-voltage effects, C_L(V_DD) (Fig. 1) and subthreshold leakage
(Fig. 2): the simulator's inertial delays, Eq. 1's per-net capacitance,
static timing, and the estimator's and optimizers' delays and leakage.
Per V_DD it evaluates each distinct cell's C(V) views once; gates of one
cell and load share one :class:`~repro.tech.opplan.CornerPlan` delay
call, and each distinct cell makes one leakage call, summed per
instance in netlist order.  A plan is a snapshot of its netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.tech.characterize import CellCharacterizer

__all__ = ["CriticalPath", "NetlistPlan"]

#: Device widths assumed for a register's D-pin load (one
#: inverter-equivalent gate).
_REGISTER_D_NMOS_UM = 2.0
_REGISTER_D_PMOS_UM = 4.0
#: A per-instance map: instance name -> V_T shift or size factor.
_PerInstance = Optional[Mapping[str, float]]


@dataclass(frozen=True)
class CriticalPath:
    """Result of a timing run: worst arrival and the path that sets it."""

    delay_s: float
    path_nets: Tuple[str, ...]
    arrival_times: Dict[str, float]

    @property
    def depth(self) -> int:
        """Number of gates along the critical path."""
        return max(len(self.path_nets) - 1, 0)


class NetlistPlan:
    """A netlist decoded for load, delay, timing and leakage queries.

    A gate's external load is its output net's pin capacitances (each
    times the loading gate's size factor) summed in fanout order, then
    the register D pins, then the wire; a net's Eq. 1 capacitance adds
    the driver's output capacitance before the wire.  A size factor
    scales all of a gate's widths: drive, capacitances and leakage.
    ``per_instance_vt_shifts`` overrides the common shift of named
    gates.  Timing endpoints are the primary outputs and register D
    pins (else every gate output); sources, register outputs included,
    arrive at t = 0.  The netlist is levelized on the first timing
    query, so a cyclic one (a ring oscillator) still decodes.
    """

    def __init__(self, netlist, technology, wire_length_per_fanout_um=5.0):
        self.netlist = netlist
        self.technology = technology
        self.characterizer = CellCharacterizer(technology)
        #: Nets in :meth:`Netlist.nets` order, gates in netlist order,
        #: the distinct cells and each gate's cell index and output net.
        self.nets: List[str] = netlist.nets()
        self.net_ids = {net: i for i, net in enumerate(self.nets)}
        self.instances = list(netlist.instances.values())
        self.cells: list = []
        self.gate_cells: List[int] = []
        self.gate_outputs: List[int] = []
        #: Per net: its ``(gate, pin)`` loads in fanout order, and the
        #: gate driving it (``None`` for inputs and register outputs).
        self.fanout: List[List[Tuple[int, int]]] = [[] for _ in self.nets]
        self.drivers: List[Optional[int]] = [None] * len(self.nets)
        ids, cell_index = self.net_ids, {}
        for k, instance in enumerate(self.instances):
            c = cell_index.setdefault(id(instance.cell), len(self.cells))
            if c == len(self.cells):
                self.cells.append(instance.cell)
            self.gate_cells.append(c)
            self.gate_outputs.append(ids[instance.output])
            self.drivers[ids[instance.output]] = k
            for pin, net in enumerate(instance.inputs):
                self.fanout[ids[net]].append((k, pin))
        self._d_pins = [0] * len(self.nets)
        for register in netlist.registers.values():
            self._d_pins[ids[register.data_input]] += 1
        cells = self.gate_cells
        self._pin_cells = [[cells[k] for k, _ in pins] for pins in self.fanout]
        wire = technology.wire_cap.wire_capacitance
        self._wires = [
            wire(wire_length_per_fanout_um * max(len(pins) + d_pins, 1))
            for pins, d_pins in zip(self.fanout, self._d_pins)
        ]
        self._gate_index = {i.name: k for k, i in enumerate(self.instances)}
        self._cell_gates: List[List[int]] = [[] for _ in self.cells]
        for k, c in enumerate(self.gate_cells):
            self._cell_gates[c].append(k)
        self._levels: Optional[list] = None
        self._endpoints: List[int] = []

    # ------------------------------------------------------------------
    # Capacitance
    # ------------------------------------------------------------------
    def _pin_loads(self, vdd, nets, sizes=None) -> List[float]:
        """Each of ``nets``' gate pins (times ``sizes``, one factor per
        gate) plus register D pins [F]."""
        technology = self.technology
        cin = [cell.input_capacitance(technology, vdd) for cell in self.cells]
        if sizes is None:
            loads = [sum([cin[c] for c in self._pin_cells[i]]) for i in nets]
        else:
            cells = self.gate_cells
            loads = [
                sum([cin[cells[k]] * sizes[k] for k, _ in self.fanout[i]])
                for i in nets
            ]
        d_pins = self._d_pins
        if any(d_pins):
            length, gate = technology.drawn_length_um, technology.gate_cap
            d_pin = gate.gate_capacitance(
                _REGISTER_D_NMOS_UM, length, vdd
            ) + gate.gate_capacitance(_REGISTER_D_PMOS_UM, length, vdd)
            for j, i in enumerate(nets):
                if d_pins[i]:
                    loads[j] += d_pins[i] * d_pin
        return loads

    def net_capacitances(self, vdd: float) -> Dict[str, float]:
        """Every net's switched capacitance, the C of Eq. 1 [F]."""
        loads = self._pin_loads(vdd, range(len(self.nets)))
        technology = self.technology
        cout = [c.output_capacitance(technology, vdd) for c in self.cells]
        for out, k in enumerate(self.drivers):
            if k is not None:
                loads[out] += cout[self.gate_cells[k]]
        return {
            net: load + wire
            for net, load, wire in zip(self.nets, loads, self._wires)
        }

    def switched_capacitance(
        self, alphas: Mapping[str, float], vdd: float
    ) -> float:
        """``sum of alpha(net) * C(net)`` over ``alphas`` [F]."""
        capacitance = self.net_capacitances(vdd)
        unknown = [net for net in alphas if net not in capacitance]
        if unknown:
            raise NetlistError(f"{unknown[:5]} not in {self.netlist.name!r}")
        return sum(
            [alpha * capacitance[net] for net, alpha in alphas.items()], 0.0
        )

    def total_input_capacitance(
        self, vdd: float, per_instance_size_factors: _PerInstance = None
    ) -> float:
        """Every gate's input pins times its size factor, summed [F]."""
        _, sizes = self._instance_maps(None, per_instance_size_factors)
        pins = [
            cell.input_capacitance(self.technology, vdd) * cell.n_inputs
            for cell in self.cells
        ]
        sizes = sizes or [1.0] * len(self.instances)
        return sum([pins[c] * size for c, size in zip(self.gate_cells, sizes)])

    # ------------------------------------------------------------------
    # Gate delays
    # ------------------------------------------------------------------
    def _instance_maps(
        self, per_instance_vt_shifts: _PerInstance,
        per_instance_size_factors: _PerInstance,
    ) -> Tuple[Dict[int, float], Optional[List[float]]]:
        """Checked per-instance maps: shift overrides by gate index and
        one size factor per gate (``None`` when no gate is sized)."""
        shifts = per_instance_vt_shifts or {}
        sizes = per_instance_size_factors or {}
        index = self._gate_index
        for label, mapping in (("V_T shifts", shifts), ("sizes", sizes)):
            unknown = [name for name in mapping if name not in index]
            if unknown:
                raise NetlistError(
                    f"{label} for unknown instances: {sorted(unknown)[:5]}"
                )
        if any(k <= 0.0 for k in sizes.values()):
            raise NetlistError("size factors must be positive")
        overrides = {index[name]: shift for name, shift in shifts.items()}
        if not sizes:
            return overrides, None
        factors = [1.0] * len(self.instances)
        for name, factor in sizes.items():
            factors[index[name]] = factor
        return overrides, factors

    def _delay_rows(self, vdd, shifts, overrides, sizes) -> List[List[float]]:
        """Every gate's delay at ``vdd`` for each common shift [s]; a gate
        in ``overrides`` takes its own shift in every row."""
        outputs, wires = self.gate_outputs, self._wires
        loads = self._pin_loads(vdd, outputs, sizes)
        loads = [load + wires[out] for load, out in zip(loads, outputs)]
        if sizes is not None:
            loads = [load / size for load, size in zip(loads, sizes)]
        groups: Dict[tuple, List[int]] = {}
        for k, key in enumerate(zip(self.gate_cells, loads)):
            groups.setdefault(key, []).append(k)
        rows = [[0.0] * len(loads) for _ in shifts]
        for (c, load), members in groups.items():
            own = {k: overrides[k] for k in members if k in overrides}
            members = [k for k in members if k not in own]
            wanted = [*dict.fromkeys([*shifts, *own.values()])]
            plan = self.characterizer.corner_plan(self.cells[c])
            supplies = [plan.supply(vdd, load)] * len(wanted)
            delay_at = dict(
                zip(wanted, plan.delays(None, wanted, supplies=supplies))
            )
            for shift, row in zip(shifts, rows):
                delay = delay_at[shift]
                for k in members:
                    row[k] = delay
                for k, own_shift in own.items():
                    row[k] = delay_at[own_shift]
        return rows

    def gate_delays(
        self, vdd: float, vt_shift: float = 0.0,
        per_instance_vt_shifts: _PerInstance = None,
        per_instance_size_factors: _PerInstance = None,
    ) -> List[float]:
        """Every gate's propagation delay [s], in netlist order."""
        overrides, sizes = self._instance_maps(
            per_instance_vt_shifts, per_instance_size_factors
        )
        return self._delay_rows(vdd, (vt_shift,), overrides, sizes)[0]

    # ------------------------------------------------------------------
    # Static timing
    # ------------------------------------------------------------------
    def _levelized(self) -> list:
        """``(gate, input nets, output net)`` in topological order; the
        netlist is levelized (and validated: a cycle or a floating net
        raises :class:`NetlistError`) on first use."""
        if self._levels is None:
            netlist, ids, index = self.netlist, self.net_ids, self._gate_index
            self._levels = [
                (index[i.name], [ids[net] for net in i.inputs], ids[i.output])
                for i in netlist.levelize()
            ]
            self._endpoints = [ids[net] for net in netlist.primary_outputs]
            self._endpoints += [
                ids[register.data_input]
                for register in netlist.registers.values()
            ]
        return self._levels

    def _arrivals(self, delays: Sequence[float]) -> List[float]:
        """Every net's arrival time [s], sources at t = 0."""
        arrival = [0.0] * len(self.nets)
        at = arrival.__getitem__
        for k, inputs, out in self._levelized():
            arrival[out] = max(map(at, inputs)) + delays[k]
        return arrival

    def _end(self, arrival: Sequence[float]) -> int:
        """The latest endpoint (the first, if several tie)."""
        endpoints = self._endpoints or [out for _, _, out in self._levels]
        return max(endpoints, key=arrival.__getitem__)

    def critical_delays(
        self, vdds: Sequence[float], shifts: Sequence[float]
    ) -> List[float]:
        """The critical-path delay at each ``(V_DD, common shift)`` [s];
        queries at one supply share their loads and kernel calls."""
        self._levelized()
        queries: Dict[float, List[int]] = {}
        for q, vdd in enumerate(vdds):
            queries.setdefault(vdd, []).append(q)
        out = [0.0] * len(vdds)
        for vdd, lanes in queries.items():
            rows = self._delay_rows(vdd, [shifts[q] for q in lanes], {}, None)
            for q, delays in zip(lanes, rows):
                arrival = self._arrivals(delays)
                out[q] = arrival[self._end(arrival)]
        return out

    def analyze(
        self, vdd: float, vt_shift: float = 0.0,
        per_instance_vt_shifts: _PerInstance = None,
        per_instance_size_factors: _PerInstance = None,
    ) -> CriticalPath:
        """Arrival times and critical path at a corner.  Each gate's
        arrival follows its latest input (on a tie, the input with the
        greatest net name)."""
        self._levelized()
        delays = self.gate_delays(
            vdd, vt_shift, per_instance_vt_shifts, per_instance_size_factors
        )
        arrival = self._arrivals(delays)
        end = self._end(arrival)
        nets, ids = self.nets, self.net_ids
        path = [nets[end]]
        driver = self.drivers[end]
        while driver is not None:
            path.append(
                max(
                    self.instances[driver].inputs,
                    key=lambda net: (arrival[ids[net]], net),
                )
            )
            driver = self.drivers[ids[path[-1]]]
        return CriticalPath(
            delay_s=arrival[end],
            path_nets=tuple(reversed(path)),
            arrival_times=dict(zip(nets, arrival)),
        )

    def min_cycle_time(
        self, vdd: float, vt_shift: float = 0.0,
        sequencing_overhead: float = 0.1,
    ) -> float:
        """Critical path plus register/clocking overhead [s]."""
        if sequencing_overhead < 0.0:
            raise NetlistError("sequencing_overhead must be >= 0")
        return self.analyze(vdd, vt_shift).delay_s * (1.0 + sequencing_overhead)

    def max_frequency(self, vdd: float, vt_shift: float = 0.0) -> float:
        """Highest clock frequency the module supports [Hz]."""
        return 1.0 / self.min_cycle_time(vdd, vt_shift)

    def slacks(
        self, vdd: float, vt_shift: float = 0.0,
        per_instance_vt_shifts: _PerInstance = None,
        required_time_s: Optional[float] = None,
        per_instance_size_factors: _PerInstance = None,
    ) -> Dict[str, float]:
        """Per-instance slack [s], in topological order: how much each
        gate could slow before an endpoint misses ``required_time_s``
        (default: the critical-path delay, so the worst gate has zero
        slack) — the budget a dual-V_T or gate-sizing pass spends."""
        levels = self._levelized()
        delays = self.gate_delays(
            vdd, vt_shift, per_instance_vt_shifts, per_instance_size_factors
        )
        arrival = self._arrivals(delays)
        if required_time_s is None:
            required_time_s = arrival[self._end(arrival)]
        required = [float("inf")] * len(self.nets)
        for end in self._endpoints:
            required[end] = required_time_s
        for k, inputs, out in reversed(levels):
            needed = required[out] - delays[k]
            for i in inputs:
                if needed < required[i]:
                    required[i] = needed
        return {
            self.instances[k].name: required[out] - arrival[out]
            for k, _, out in levels
        }

    # ------------------------------------------------------------------
    # Leakage
    # ------------------------------------------------------------------
    def leakage_currents(
        self, vdd: float, shifts: Sequence[float],
        per_instance_vt_shifts: _PerInstance = None,
        per_instance_size_factors: _PerInstance = None,
    ) -> List[float]:
        """The netlist's leakage current at each common shift [A]: one
        :meth:`CornerPlan.leakages` call per distinct cell, each total
        adding its instances in netlist order."""
        overrides, sizes = self._instance_maps(
            per_instance_vt_shifts, per_instance_size_factors
        )
        count = len(shifts)
        columns: list = [None] * len(self.instances)
        for c, gates in enumerate(self._cell_gates):
            own = [overrides[k] for k in gates if k in overrides]
            corners = [*shifts, *dict.fromkeys(own)]
            plan = self.characterizer.corner_plan(self.cells[c])
            leaks = plan.leakages((vdd,) * len(corners), corners)
            common = leaks[:count]
            at = dict(zip(corners[count:], leaks[count:]))
            for k in gates:
                shift = overrides.get(k)
                column = common if shift is None else [at[shift]] * count
                if sizes is not None:
                    column = [leak * sizes[k] for leak in column]
                columns[k] = column
        return [sum(total) for total in zip(*columns)] or [0.0] * count
