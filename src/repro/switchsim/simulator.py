"""Event-driven gate-level simulator with inertial delays.

Each gate's propagation delay is its :class:`~repro.circuits.plan.
NetlistPlan` delay at the simulation corner (every load pin and wire
counted) — so heavily loaded nets are slower, carry chains straggle,
and the sum XORs of a ripple adder glitch as the paper's IRSIM showed.

The simulator exposes two levels of use:

* :meth:`SwitchLevelSimulator.apply` — change primary inputs, run until
  quiescence, and return the per-net transition counts of that vector.
* :meth:`SwitchLevelSimulator.run_vectors` — apply a stimulus sequence
  and accumulate an :class:`~repro.switchsim.activity.ActivityReport`.

Every entry point runs one indexed event kernel:

* **Decoded loads.** Nets and gates are the plan's integers.  Each net
  carries one ``(gate, pin weight, output net, delay, table)`` entry
  per gate it drives; a gate that takes the net on several pins gets
  one entry whose weight sums those pins.
* **Three-valued gate tables.** Each cell type has one table indexed in
  base 3, digit ``i`` being input ``i``'s value (0, 1, or 2 for
  unknown), built from :meth:`Cell.evaluate`.  Every gate keeps its
  current index, so an input change is one add per load and an
  evaluation one lookup.
* **Inertial queue.** Per net: the value it is destined for and the id
  of its one live event, so a newer event (or an unknown result)
  supersedes the pending one.  Events wait in per-time FIFO buckets
  under a heap of distinct times; every delay is at least 1 fs, so a
  bucket never grows while it is being fired and bucket order is
  exactly (time, schedule) order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import SimulationError
from repro.switchsim.activity import ActivityReport
from repro.tech.cells import Cell

__all__ = ["SwitchLevelSimulator"]

_FS_PER_S = 1e15

#: Digit of an unknown value, in net values and gate-table indices.
_X = 2


def _ternary_table(cell: Cell) -> Tuple[int, ...]:
    """``cell``'s output for every base-3 input index (2 = unknown)."""
    table = []
    for index in range(3**cell.n_inputs):
        operands = []
        for _ in range(cell.n_inputs):
            index, digit = divmod(index, 3)
            operands.append(None if digit == _X else digit)
        value = cell.evaluate(operands)
        table.append(_X if value is None else value)
    return tuple(table)


class SwitchLevelSimulator:
    """Simulates one netlist at one (V_DD, V_T-shift) corner.

    Parameters
    ----------
    netlist:
        The circuit; may be cyclic (e.g. ring oscillators) as long as
        runs are bounded with ``max_events``.
    technology, vdd, vt_shift:
        The electrical corner; sets every gate's inertial delay.
    wire_length_per_fanout_um:
        Wire-load assumption used for both delay and capacitance.
    """

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        vt_shift: float = 0.0,
        wire_length_per_fanout_um: float = 5.0,
    ):
        netlist.validate()
        self.netlist = netlist
        self.technology = technology
        self.vdd = vdd
        self.vt_shift = vt_shift
        self.wire_length_per_fanout_um = wire_length_per_fanout_um

        plan = NetlistPlan(netlist, technology, wire_length_per_fanout_um)
        names = plan.nets
        ids = plan.net_ids
        instances = plan.instances
        fanouts = plan.fanout
        tables = [_ternary_table(cell) for cell in plan.cells]
        self._outs = plan.gate_outputs
        self._tables = [tables[c] for c in plan.gate_cells]
        self._delay_fs: Dict[str, int] = {}
        self._delays: List[int] = []
        for instance, delay_s in zip(
            instances, plan.gate_delays(vdd, vt_shift)
        ):
            delay_fs = max(int(delay_s * _FS_PER_S), 1)
            self._delay_fs[instance.name] = delay_fs
            self._delays.append(delay_fs)

        self._names = names
        self._ids = ids
        self._inputs = frozenset(netlist.primary_inputs)
        self._pins: List[Tuple[Tuple[int, int], ...]] = [
            tuple((ids[net], 3**pin) for pin, net in enumerate(instance.inputs))
            for instance in instances
        ]
        self._loads: List[Tuple[Tuple[int, int, int, int, tuple], ...]] = []
        for fanout in fanouts:
            weights: Dict[int, int] = {}
            for k, pin in fanout:
                weights[k] = weights.get(k, 0) + 3**pin
            self._loads.append(
                tuple(
                    (k, w, self._outs[k], self._delays[k], self._tables[k])
                    for k, w in weights.items()
                )
            )

        n = len(names)
        self._unset = [_X] * n
        for net, value in netlist.constants.items():
            self._unset[ids[net]] = value
        self._vals = list(self._unset)
        self._dest = list(self._unset)
        self._live = [0] * n
        self._idx = [0] * len(instances)
        self._rising = [0] * n
        self._falling = [0] * n
        self._vectors_applied = 0
        self._buckets: Dict[int, List[int]] = {}
        self._times: List[int] = []
        # Event ids are ``seq + net`` with ``seq`` a multiple of the
        # stride, so an id names its net; ``seq`` restarts at 0 whenever
        # the queue drains.  ``_fired`` counts live events fired since.
        self._stride = max(n, 1)
        self._seq = 0
        self._fired = 0
        self._superseded = 0
        self.now_fs = 0
        self._sync()

    @property
    def state(self) -> Dict[str, Optional[int]]:
        """Snapshot of net name -> current value, ``None`` while unknown."""
        return {
            name: None if value == _X else value
            for name, value in zip(self._names, self._vals)
        }

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(
        self, input_values: Mapping[str, int], preset: Optional[Mapping[str, int]] = None
    ) -> None:
        """Settle the circuit from an all-unknown state.

        Primary inputs take ``input_values``; ``preset`` optionally
        pins internal nets (needed to start cyclic circuits such as
        ring oscillators).  Settling transitions are *not* counted as
        activity.
        """
        vals = self._vals
        vals[:] = self._unset
        try:
            if preset:
                for net, value in preset.items():
                    if net not in self._ids:
                        raise SimulationError(f"preset for unknown net {net!r}")
                    if value not in (0, 1):
                        raise SimulationError(
                            f"preset {net!r} must be 0/1, got {value}"
                        )
                    vals[self._ids[net]] = int(value)
            for net, value in input_values.items():
                vals[self._input_id(net, value)] = int(value)
        except SimulationError:
            self._sync()
            raise
        # Three-valued relaxation to a fixpoint: repeatedly evaluate
        # every gate until nothing changes.  Gates whose output was
        # preset keep their preset if evaluation is consistent-unknown.
        outs, tables = self._outs, self._tables
        for _ in range(len(outs) + 2):
            changed = False
            for k, pins in enumerate(self._pins):
                index = 0
                for i, weight in pins:
                    index += vals[i] * weight
                value = tables[k][index]
                if value != _X and vals[outs[k]] != value:
                    vals[outs[k]] = value
                    changed = True
            if not changed:
                break
        self.now_fs = 0
        self._buckets = {}
        self._times = []
        self._live[:] = [0] * len(vals)
        self._seq = self._fired = self._superseded = 0
        self._sync()

    # ------------------------------------------------------------------
    # Vector application
    # ------------------------------------------------------------------
    def apply(
        self,
        input_values: Mapping[str, int],
        max_events: int = 1_000_000,
    ) -> int:
        """Apply an input vector and simulate to quiescence.

        Returns the number of value-change events processed (a glitchy
        vector processes more events than the functional minimum).
        """
        events = self._settle(self._input_changes(input_values), max_events)
        self._vectors_applied += 1
        return events

    def run_vectors(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Apply a stimulus sequence; first vector initializes silently.

        Returns the accumulated :class:`ActivityReport` over the
        remaining vectors — the paper's per-node transition statistics.
        """
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(first)
        self.reset_activity()
        events = 0
        with obs.span("simulator.run"):
            for vector in iterator:
                events += self.apply(vector, max_events=max_events_per_vector)
        self._record(events)
        return self.activity_report()

    def clock_cycle(
        self,
        input_values: Mapping[str, int],
        max_events: int = 1_000_000,
    ) -> int:
        """One clock edge of a sequential netlist.

        Samples every register's D from the settled state, then applies
        the new primary-input values and the captured Q values
        simultaneously (the post-edge wavefront) and simulates to
        quiescence.
        """
        if not self.netlist.registers:
            raise SimulationError(
                f"netlist {self.netlist.name!r} has no registers; "
                "use apply()"
            )
        vals, ids = self._vals, self._ids
        captured = []
        for register in self.netlist.registers.values():
            value = vals[ids[register.data_input]]
            if value == _X:
                raise SimulationError(
                    f"register D value for {register.output!r} is unknown; "
                    "initialize() the circuit first"
                )
            captured.append((ids[register.output], value))
        changes = self._input_changes(input_values)
        changes += [(i, value) for i, value in captured if vals[i] != value]
        events = self._settle(changes, max_events)
        self._vectors_applied += 1
        return events

    def run_clocked(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Clock a stimulus sequence through a sequential netlist.

        The first vector initializes (registers take their declared
        reset values); each further vector is one clock cycle.
        """
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(
            first, preset=self.netlist.initial_register_state()
        )
        self.reset_activity()
        events = 0
        with obs.span("simulator.run"):
            for vector in iterator:
                events += self.clock_cycle(
                    vector, max_events=max_events_per_vector
                )
        self._record(events)
        return self.activity_report()

    def run_free(
        self,
        preset: Mapping[str, int],
        duration_fs: int,
        max_events: int = 1_000_000,
    ) -> ActivityReport:
        """Free-run a cyclic circuit (ring oscillator) for a duration.

        The preset seeds the loop; simulation stops at ``duration_fs``.
        The report's ``cycles`` field is 1 — use raw transition counts.
        Raises once ``max_events`` events have fired.
        """
        self.initialize({net: 0 for net in self.netlist.primary_inputs},
                        preset=preset)
        self.reset_activity()
        budget = max(max_events, 0)
        with obs.span("simulator.run"):
            self._kick()
            events = self._drain(budget, until=duration_fs)
        if events == budget:
            raise SimulationError(
                f"event budget {max_events} exhausted in free-run"
            )
        self._vectors_applied = 1
        self._record(events)
        return self.activity_report()

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def reset_activity(self) -> None:
        """Zero the transition counters."""
        self._rising[:] = [0] * len(self._rising)
        self._falling[:] = [0] * len(self._falling)
        self._vectors_applied = 0

    def activity_report(self) -> ActivityReport:
        """Snapshot of accumulated transition counts."""
        return ActivityReport(
            netlist_name=self.netlist.name,
            cycles=max(self._vectors_applied, 1),
            rising=dict(zip(self._names, self._rising)),
            falling=dict(zip(self._names, self._falling)),
            primary_inputs=tuple(self.netlist.primary_inputs),
            constants=tuple(self.netlist.constants),
        )

    def _record(self, events: int) -> None:
        """Add one finished run to the ``simulator.*`` counters."""
        if obs.ENABLED:
            pending = sum(1 for event in self._live if event)
            obs.incr("simulator.runs")
            obs.incr("simulator.vectors", self._vectors_applied)
            obs.incr("simulator.events", events)
            obs.incr(
                "simulator.superseded",
                self._superseded
                + self._seq // self._stride
                - self._fired
                - pending,
            )

    # ------------------------------------------------------------------
    # Kernel
    # ------------------------------------------------------------------
    def _input_id(self, net: str, value: int) -> int:
        if net not in self._inputs:
            raise SimulationError(
                f"{net!r} is not a primary input of {self.netlist.name!r}"
            )
        if value not in (0, 1):
            raise SimulationError(f"input {net!r} must be 0/1, got {value}")
        return self._ids[net]

    def _input_changes(
        self, input_values: Mapping[str, int]
    ) -> List[Tuple[int, int]]:
        """(net id, value) for each input that changes, in order.

        An invalid entry raises after the changes before it have been
        committed and their loads scheduled, as the inputs are applied
        one at a time.
        """
        vals = self._vals
        changes = []
        try:
            for net, value in input_values.items():
                i = self._input_id(net, value)
                if vals[i] != value:
                    changes.append((i, int(value)))
        except SimulationError:
            self._post(changes)
            self._drain(len(changes))
            raise
        return changes

    def _settle(self, changes: List[Tuple[int, int]], max_events: int) -> int:
        """Commit ``changes`` now, then simulate to quiescence.

        Returns the changes plus the events fired after them; raises
        when more than ``max_events`` events follow the changes.
        """
        self._post(changes)
        fired = self._drain(len(changes) + max(max_events, 0))
        if self._times:
            # Event max_events + 1 is due: consume it uncommitted.
            e = self._buckets[self._times[0]][0]
            net = e % self._stride
            self._live[net] = 0
            self._dest[net] = self._vals[net]
            self._fired += 1
            raise SimulationError(
                f"event budget {max_events} exhausted; netlist "
                f"{self.netlist.name!r} may oscillate"
            )
        return fired

    def _post(self, changes: Sequence[Tuple[int, int]]) -> None:
        """Queue ``changes`` as events due now, ahead of any already due."""
        if not changes:
            return
        n = self._stride
        seq = self._seq
        events = []
        for i, value in changes:
            seq += n
            self._live[i] = seq + i
            self._dest[i] = value
            events.append(seq + i)
        self._seq = seq
        bucket = self._buckets.get(self.now_fs)
        if bucket is None:
            self._buckets[self.now_fs] = events
            heappush(self._times, self.now_fs)
        else:
            bucket[:0] = events

    def _kick(self) -> None:
        """Evaluate every gate once and schedule its output if it moves.

        Runs right after :meth:`initialize`, so no event is pending and
        an unknown result has nothing to cancel.
        """
        dest, live, idx = self._dest, self._live, self._idx
        n = self._stride
        for k, out in enumerate(self._outs):
            value = self._tables[k][idx[k]]
            if value == dest[out] or value == _X:
                continue
            dest[out] = value
            self._seq += n
            live[out] = self._seq + out
            when = self.now_fs + self._delays[k]
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [live[out]]
                heappush(self._times, when)
            else:
                bucket.append(live[out])

    def _drain(self, max_events: int, until: Optional[int] = None) -> int:
        """Fire live events in (time, schedule) order; return how many.

        Stops when the queue is empty, when the next event is due after
        ``until``, or before firing a live event beyond ``max_events``,
        which then stays queued.
        """
        vals, dest, live, idx = self._vals, self._dest, self._live, self._idx
        loads, rising, falling = self._loads, self._rising, self._falling
        buckets, times = self._buckets, self._times
        n = self._stride
        seq = self._seq
        now = self.now_fs
        fired = 0
        while times:
            t = times[0]
            if until is not None and t > until:
                break
            heappop(times)
            bucket = buckets.pop(t)
            for e in bucket:
                net = e % n
                if live[net] != e:
                    continue
                if fired == max_events:
                    buckets[t] = bucket[bucket.index(e):]
                    heappush(times, t)
                    break
                live[net] = 0
                fired += 1
                now = t
                value = dest[net]
                old = vals[net]
                if old == value:
                    continue
                vals[net] = value
                if old != _X:
                    if value:
                        rising[net] += 1
                    else:
                        falling[net] += 1
                delta = value - old
                for k, weight, out, delay, table in loads[net]:
                    index = idx[k] + weight * delta
                    idx[k] = index
                    new = table[index]
                    if new == dest[out]:
                        continue
                    if new == _X:
                        if live[out]:
                            live[out] = 0
                            dest[out] = vals[out]
                        continue
                    dest[out] = new
                    seq += n
                    live[out] = event = seq + out
                    when = now + delay
                    pending = buckets.get(when)
                    if pending is None:
                        buckets[when] = [event]
                        heappush(times, when)
                    else:
                        pending.append(event)
            else:
                continue
            break
        self.now_fs = now
        self._fired += fired
        if times:
            self._seq = seq
        else:
            self._superseded += seq // n - self._fired
            self._seq = self._fired = 0
        return fired

    def _sync(self) -> None:
        """Recompute every gate's table index, and the destined value of
        every net without a live event, from the current net values."""
        vals, dest, live = self._vals, self._dest, self._live
        for k, pins in enumerate(self._pins):
            index = 0
            for i, weight in pins:
                index += vals[i] * weight
            self._idx[k] = index
        for i, value in enumerate(vals):
            if not live[i]:
                dest[i] = value
