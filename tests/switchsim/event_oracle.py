"""Dict-keyed event loop: the test-only oracle for the switch-level kernel.

This is the straightforward simulator the library used before the
indexed kernel in :mod:`repro.switchsim.simulator`: net names resolved
through dicts, every gate evaluated with :meth:`Cell.evaluate`, and a
min-heap of :class:`Event` records with per-net generation numbers for
inertial cancellation.  It is several times slower, but obviously
right, so the tests require the kernel to equal it exactly: the same
:class:`ActivityReport`, final state, ``now_fs``, superseded count and
errors.  It takes its gate delays from the netlist's
:class:`~repro.circuits.plan.NetlistPlan`, as the kernel does, so it
tests event semantics only (the plan's loads have their own oracle in
``tests/circuits/netlist_oracle.py``).

:class:`EventQueue` also counts the events it supersedes (a pending
event replaced by a newer one or cancelled), which the kernel reports
as the ``simulator.superseded`` metric.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import SimulationError
from repro.switchsim.activity import ActivityReport

__all__ = ["Event", "EventQueue", "ReferenceSimulator"]

_FS_PER_S = 1e15


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled value change on a net.

    Ordering is (time, sequence) so simultaneous events pop in
    scheduling order — deterministic across runs.
    """

    time_fs: int
    sequence: int
    net: str = field(compare=False)
    value: Optional[int] = field(compare=False)
    generation: int = field(compare=False, default=0)


class EventQueue:
    """Min-heap of :class:`Event` with per-net superseding."""

    def __init__(self) -> None:
        self._heap: list = []
        self._sequence = 0
        self._generation: Dict[str, int] = {}
        self._pending_value: Dict[str, Optional[int]] = {}
        self._pending_time: Dict[str, int] = {}
        #: Pending events replaced by a newer one or cancelled.
        self.superseded = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time_fs: int, net: str, value: Optional[int]) -> None:
        """Schedule ``net`` to take ``value``, superseding older events.

        Inertial-delay semantics: at most one event per net is live; a
        later scheduling replaces it (the earlier pulse is swallowed).
        """
        if time_fs < 0:
            raise SimulationError(f"cannot schedule in negative time: {time_fs}")
        if net in self._pending_value:
            self.superseded += 1
        generation = self._generation.get(net, 0) + 1
        self._generation[net] = generation
        self._pending_value[net] = value
        self._pending_time[net] = time_fs
        self._sequence += 1
        heapq.heappush(
            self._heap,
            Event(
                time_fs=time_fs,
                sequence=self._sequence,
                net=net,
                value=value,
                generation=generation,
            ),
        )

    def cancel(self, net: str) -> None:
        """Invalidate any pending event for ``net``."""
        if net in self._pending_value:
            self.superseded += 1
            self._generation[net] = self._generation.get(net, 0) + 1
            del self._pending_value[net]
            self._pending_time.pop(net, None)

    def pending_value(self, net: str) -> Optional[int]:
        """Value the net is destined for, or None if nothing pending.

        Note a pending event *to* ``None`` (unknown) is reported the
        same as no pending event; callers use :meth:`has_pending` to
        distinguish.
        """
        return self._pending_value.get(net)

    def has_pending(self, net: str) -> bool:
        """Whether a live event exists for ``net``."""
        return net in self._pending_value

    def pop(self) -> Optional[Event]:
        """Next live event in time order, or None when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if self._generation.get(event.net) == event.generation:
                del self._pending_value[event.net]
                self._pending_time.pop(event.net, None)
                return event
        return None

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None."""
        while self._heap:
            event = self._heap[0]
            if self._generation.get(event.net) == event.generation:
                return event.time_fs
            heapq.heappop(self._heap)
        return None


class ReferenceSimulator:
    """The dict-keyed simulator; same constructor and entry points as
    :class:`~repro.switchsim.simulator.SwitchLevelSimulator`."""

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
        self._delay_fs: Dict[str, int] = {
            instance.name: max(int(delay_s * _FS_PER_S), 1)
            for instance, delay_s in zip(
                plan.instances, plan.gate_delays(vdd, vt_shift)
            )
        }

        self.state: Dict[str, Optional[int]] = {
            net: None for net in netlist.nets()
        }
        self.state.update(netlist.constants)
        self.now_fs = 0
        self._queue = EventQueue()
        self._rising: Dict[str, int] = {net: 0 for net in self.state}
        self._falling: Dict[str, int] = {net: 0 for net in self.state}
        self._vectors_applied = 0

    @property
    def superseded(self) -> int:
        """Events superseded or cancelled since the last initialize."""
        return self._queue.superseded

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(
        self, input_values: Mapping[str, int], preset: Optional[Mapping[str, int]] = None
    ) -> None:
        """Settle the circuit from an all-unknown state."""
        for net in self.state:
            self.state[net] = None
        self.state.update(self.netlist.constants)
        if preset:
            for net, value in preset.items():
                if net not in self.state:
                    raise SimulationError(f"preset for unknown net {net!r}")
                self.state[net] = value
        self._set_inputs(input_values)
        # Three-valued relaxation to a fixpoint: repeatedly evaluate
        # every gate until nothing changes.  Gates whose output was
        # preset keep their preset if evaluation is consistent-unknown.
        for _ in range(len(self.netlist.instances) + 2):
            changed = False
            for instance in self.netlist.instances.values():
                operands = [self.state[n] for n in instance.inputs]
                value = instance.cell.evaluate(operands)
                if value is not None and self.state[instance.output] != value:
                    self.state[instance.output] = value
                    changed = True
            if not changed:
                break
        self.now_fs = 0
        self._queue = EventQueue()

    # ------------------------------------------------------------------
    # Vector application
    # ------------------------------------------------------------------
    def apply(
        self,
        input_values: Mapping[str, int],
        max_events: int = 1_000_000,
    ) -> int:
        """Apply an input vector and simulate to quiescence."""
        changed = self._set_inputs(input_values, count=True, propagate=True)
        processed = self._drain(max_events)
        self._vectors_applied += 1
        return processed + changed

    def run_vectors(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Apply a stimulus sequence; first vector initializes silently."""
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(first)
        self.reset_activity()
        for vector in iterator:
            self.apply(vector, max_events=max_events_per_vector)
        return self.activity_report()

    def clock_cycle(
        self,
        input_values: Mapping[str, int],
        max_events: int = 1_000_000,
    ) -> int:
        """One clock edge of a sequential netlist."""
        if not self.netlist.registers:
            raise SimulationError(
                f"netlist {self.netlist.name!r} has no registers; "
                "use apply()"
            )
        captured = {
            register.output: self.state[register.data_input]
            for register in self.netlist.registers.values()
        }
        for net, value in captured.items():
            if value is None:
                raise SimulationError(
                    f"register D value for {net!r} is unknown; "
                    "initialize() the circuit first"
                )
        changed = self._set_inputs(input_values, count=True, propagate=True)
        changed += self._set_register_outputs(captured)
        processed = self._drain(max_events)
        self._vectors_applied += 1
        return processed + changed

    def run_clocked(
        self,
        vectors: Iterable[Mapping[str, int]],
        max_events_per_vector: int = 1_000_000,
    ) -> ActivityReport:
        """Clock a stimulus sequence through a sequential netlist."""
        iterator = iter(vectors)
        try:
            first = next(iterator)
        except StopIteration:
            raise SimulationError("stimulus must contain at least one vector")
        self.initialize(
            first, preset=self.netlist.initial_register_state()
        )
        self.reset_activity()
        for vector in iterator:
            self.clock_cycle(vector, max_events=max_events_per_vector)
        return self.activity_report()

    def _set_register_outputs(self, captured: Mapping[str, int]) -> int:
        changed = 0
        for net, value in captured.items():
            old = self.state[net]
            if old == value:
                continue
            self.state[net] = value
            changed += 1
            if old is not None:
                if value == 1:
                    self._rising[net] += 1
                else:
                    self._falling[net] += 1
            for instance, _ in self.netlist.fanout(net):
                self._evaluate_and_schedule(instance)
        return changed

    def run_free(
        self,
        preset: Mapping[str, int],
        duration_fs: int,
        max_events: int = 1_000_000,
    ) -> ActivityReport:
        """Free-run a cyclic circuit (ring oscillator) for a duration."""
        self.initialize({net: 0 for net in self.netlist.primary_inputs},
                        preset=preset)
        self.reset_activity()
        # Kick every gate once so inconsistent preset values propagate.
        for instance in self.netlist.instances.values():
            self._evaluate_and_schedule(instance)
        processed = 0
        while processed < max_events:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > duration_fs:
                break
            event = self._queue.pop()
            assert event is not None
            self._commit(event, count=True)
            processed += 1
        else:
            raise SimulationError(
                f"event budget {max_events} exhausted in free-run"
            )
        self._vectors_applied = 1
        return self.activity_report()

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def reset_activity(self) -> None:
        """Zero the transition counters."""
        for net in self._rising:
            self._rising[net] = 0
            self._falling[net] = 0
        self._vectors_applied = 0

    def activity_report(self) -> ActivityReport:
        """Snapshot of accumulated transition counts."""
        return ActivityReport(
            netlist_name=self.netlist.name,
            cycles=max(self._vectors_applied, 1),
            rising=dict(self._rising),
            falling=dict(self._falling),
            primary_inputs=tuple(self.netlist.primary_inputs),
            constants=tuple(self.netlist.constants),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _set_inputs(
        self,
        input_values: Mapping[str, int],
        count: bool = False,
        propagate: bool = False,
    ) -> int:
        changed = 0
        for net, value in input_values.items():
            if net not in self.netlist.primary_inputs:
                raise SimulationError(
                    f"{net!r} is not a primary input of "
                    f"{self.netlist.name!r}"
                )
            if value not in (0, 1):
                raise SimulationError(
                    f"input {net!r} must be 0/1, got {value}"
                )
            old = self.state[net]
            if old == value:
                continue
            self.state[net] = value
            changed += 1
            if count and old is not None:
                if value == 1:
                    self._rising[net] += 1
                else:
                    self._falling[net] += 1
            if propagate:
                for instance, _ in self.netlist.fanout(net):
                    self._evaluate_and_schedule(instance)
        return changed

    def _evaluate_and_schedule(self, instance) -> None:
        operands = [self.state[n] for n in instance.inputs]
        new_value = instance.cell.evaluate(operands)
        output = instance.output
        destined = (
            self._queue.pending_value(output)
            if self._queue.has_pending(output)
            else self.state[output]
        )
        if new_value == destined:
            return
        if new_value is None:
            # Do not schedule transitions to unknown after init.
            self._queue.cancel(output)
            return
        self._queue.schedule(
            self.now_fs + self._delay_fs[instance.name], output, new_value
        )

    def _commit(self, event, count: bool) -> None:
        self.now_fs = event.time_fs
        old = self.state[event.net]
        if old == event.value:
            return
        self.state[event.net] = event.value
        if count and old is not None and event.value is not None:
            if event.value == 1:
                self._rising[event.net] += 1
            else:
                self._falling[event.net] += 1
        for instance, _ in self.netlist.fanout(event.net):
            self._evaluate_and_schedule(instance)

    def _drain(self, max_events: int) -> int:
        processed = 0
        while True:
            event = self._queue.pop()
            if event is None:
                return processed
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"event budget {max_events} exhausted; netlist "
                    f"{self.netlist.name!r} may oscillate"
                )
            self._commit(event, count=True)
