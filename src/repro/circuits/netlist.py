"""Gate-level netlist graph.

A :class:`Netlist` is a named graph of cell :class:`Instance`s wired by
string-named nets.  It supports:

* structural queries (drivers, fanout, levelization),
* zero-delay functional evaluation (the reference model the
  event-driven simulator is checked against).

Its electrical view (per-net capacitance, gate delays, static timing
and leakage) is a :class:`~repro.circuits.plan.NetlistPlan` decoded
from it.

Cycles are allowed structurally (ring oscillators need them) but
rejected by :meth:`Netlist.levelize` and functional evaluation.

Sequential support: :meth:`Netlist.add_register` places an
edge-triggered register (D -> Q).  For levelization and evaluation a
register's Q output behaves like a primary input and its D input like
a primary output — the classic cut that keeps the combinational core
acyclic even in pipelines with feedback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.tech.cells import Cell

__all__ = ["Instance", "Register", "Netlist"]


@dataclass(frozen=True)
class Register:
    """An edge-triggered register: captures D, drives Q."""

    name: str
    data_input: str
    output: str
    initial: int = 0

    def __post_init__(self) -> None:
        if self.initial not in (0, 1):
            raise NetlistError(
                f"register {self.name}: initial value must be 0/1"
            )
        if self.data_input == self.output:
            raise NetlistError(
                f"register {self.name}: D and Q must be different nets"
            )


@dataclass(frozen=True)
class Instance:
    """One placed cell: a name, the cell template, and its connections."""

    name: str
    cell: Cell
    inputs: Tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        if len(self.inputs) != self.cell.n_inputs:
            raise NetlistError(
                f"instance {self.name}: cell {self.cell.name} has "
                f"{self.cell.n_inputs} inputs, got {len(self.inputs)} nets"
            )


class Netlist:
    """A combinational (optionally cyclic) gate-level netlist."""

    def __init__(self, name: str):
        self.name = name
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self.constants: Dict[str, int] = {}
        self.instances: Dict[str, Instance] = {}
        self.registers: Dict[str, Register] = {}
        self._driver_of: Dict[str, str] = {}  # net -> instance name
        self._loads_of: Dict[str, List[Tuple[str, int]]] = {}
        self._register_loads: Dict[str, List[str]] = {}  # net -> reg names
        self._register_output_of: Dict[str, str] = {}  # q net -> reg name
        self._counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        self._check_new_source(net)
        self.primary_inputs.append(net)
        return net

    def add_inputs(self, prefix: str, width: int) -> List[str]:
        """Declare a bus of primary inputs ``prefix[0..width)``."""
        return [self.add_input(f"{prefix}[{i}]") for i in range(width)]

    def add_constant(self, net: str, value: int) -> str:
        """Declare a net tied to a constant 0 or 1."""
        if value not in (0, 1):
            raise NetlistError(f"constant must be 0/1, got {value}")
        self._check_new_source(net)
        self.constants[net] = value
        return net

    def add_output(self, net: str) -> str:
        """Mark an existing or future net as a primary output."""
        if net in self.primary_outputs:
            raise NetlistError(f"net {net!r} already a primary output")
        self.primary_outputs.append(net)
        return net

    def add_gate(
        self,
        cell: Cell,
        inputs: Sequence[str],
        output: str,
        name: Optional[str] = None,
    ) -> Instance:
        """Place a cell instance driving ``output`` from ``inputs``."""
        if name is None:
            self._counter += 1
            name = f"{cell.name.lower()}_{self._counter}"
        if name in self.instances:
            raise NetlistError(f"duplicate instance name {name!r}")
        self._check_new_source(output)
        instance = Instance(
            name=name, cell=cell, inputs=tuple(inputs), output=output
        )
        self.instances[name] = instance
        self._driver_of[output] = name
        for pin, net in enumerate(instance.inputs):
            self._loads_of.setdefault(net, []).append((name, pin))
        return instance

    def add_register(
        self,
        data_input: str,
        output: str,
        name: Optional[str] = None,
        initial: int = 0,
    ) -> Register:
        """Place an edge-triggered register capturing ``data_input``."""
        if name is None:
            self._counter += 1
            name = f"reg_{self._counter}"
        if name in self.registers or name in self.instances:
            raise NetlistError(f"duplicate element name {name!r}")
        self._check_new_source(output)
        register = Register(
            name=name,
            data_input=data_input,
            output=output,
            initial=initial,
        )
        self.registers[name] = register
        self._register_output_of[output] = name
        self._register_loads.setdefault(data_input, []).append(name)
        return register

    @property
    def is_sequential(self) -> bool:
        """Whether the netlist contains registers."""
        return bool(self.registers)

    def register_outputs(self) -> List[str]:
        """Q nets, in insertion order."""
        return [register.output for register in self.registers.values()]

    def initial_register_state(self) -> Dict[str, int]:
        """Q net -> declared reset value."""
        return {
            register.output: register.initial
            for register in self.registers.values()
        }

    def _check_new_source(self, net: str) -> None:
        if net in self._driver_of:
            raise NetlistError(
                f"net {net!r} already driven by {self._driver_of[net]!r}"
            )
        if net in self._register_output_of:
            raise NetlistError(
                f"net {net!r} already driven by register "
                f"{self._register_output_of[net]!r}"
            )
        if net in self.primary_inputs:
            raise NetlistError(f"net {net!r} already a primary input")
        if net in self.constants:
            raise NetlistError(f"net {net!r} already a constant")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def nets(self) -> List[str]:
        """All nets, in deterministic order (sources then sinks)."""
        seen: Dict[str, None] = {}
        for net in self.primary_inputs:
            seen.setdefault(net)
        for net in self.constants:
            seen.setdefault(net)
        for register in self.registers.values():
            seen.setdefault(register.output)
        for instance in self.instances.values():
            for net in instance.inputs:
                seen.setdefault(net)
            seen.setdefault(instance.output)
        for register in self.registers.values():
            seen.setdefault(register.data_input)
        return list(seen)

    def driver(self, net: str) -> Optional[Instance]:
        """The instance driving a net, or None for PIs/constants."""
        name = self._driver_of.get(net)
        return self.instances[name] if name is not None else None

    def fanout(self, net: str) -> List[Tuple[Instance, int]]:
        """(instance, pin) pairs loading a net (gates only)."""
        return [
            (self.instances[name], pin)
            for name, pin in self._loads_of.get(net, [])
        ]

    def register_fanout(self, net: str) -> List[Register]:
        """Registers whose D input is this net."""
        return [
            self.registers[name]
            for name in self._register_loads.get(net, [])
        ]

    def validate(self) -> None:
        """Check every instance input has a source.

        Raises
        ------
        NetlistError
            Naming the first floating net found.
        """
        sources = (
            set(self.primary_inputs)
            | set(self.constants)
            | set(self._driver_of)
            | set(self._register_output_of)
        )
        for instance in self.instances.values():
            for net in instance.inputs:
                if net not in sources:
                    raise NetlistError(
                        f"instance {instance.name!r} input net {net!r} "
                        "has no driver"
                    )
        for net in self.primary_outputs:
            if net not in sources:
                raise NetlistError(
                    f"primary output {net!r} has no driver"
                )
        for register in self.registers.values():
            if register.data_input not in sources:
                raise NetlistError(
                    f"register {register.name!r} data net "
                    f"{register.data_input!r} has no driver"
                )

    def levelize(self) -> List[Instance]:
        """Topological order of instances.

        Raises
        ------
        NetlistError
            If the netlist is cyclic (e.g. a ring oscillator).
        """
        self.validate()
        in_degree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        external = (
            set(self.primary_inputs)
            | set(self.constants)
            | set(self._register_output_of)
        )
        for instance in self.instances.values():
            internal_inputs = [
                net for net in instance.inputs if net not in external
            ]
            in_degree[instance.name] = len(internal_inputs)
            for net in internal_inputs:
                driver_name = self._driver_of[net]
                dependents.setdefault(driver_name, []).append(instance.name)
        ready = [
            name for name, degree in in_degree.items() if degree == 0
        ]
        order: List[Instance] = []
        while ready:
            name = ready.pop()
            order.append(self.instances[name])
            for dependent in dependents.get(name, []):
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.instances):
            stuck = sorted(
                name for name, degree in in_degree.items() if degree > 0
            )
            raise NetlistError(
                f"netlist {self.name!r} has a combinational cycle through "
                f"{stuck[:5]}"
            )
        return order

    # ------------------------------------------------------------------
    # Functional evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Mapping[str, int],
        register_state: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Zero-delay evaluation of every net.

        The reference model used to verify the event-driven simulator
        and the arithmetic builders.  For sequential netlists the
        current Q values come from ``register_state`` (Q net -> value;
        defaults to the declared initial state).
        """
        values: Dict[str, int] = dict(self.constants)
        for net in self.primary_inputs:
            if net not in input_values:
                raise NetlistError(f"missing value for primary input {net!r}")
            value = input_values[net]
            if value not in (0, 1):
                raise NetlistError(
                    f"primary input {net!r} must be 0/1, got {value}"
                )
            values[net] = value
        unknown = set(input_values) - set(self.primary_inputs)
        if unknown:
            raise NetlistError(
                f"values supplied for non-input nets: {sorted(unknown)[:5]}"
            )
        if self.registers:
            state = (
                self.initial_register_state()
                if register_state is None
                else dict(register_state)
            )
            for register in self.registers.values():
                if register.output not in state:
                    raise NetlistError(
                        f"missing state for register output "
                        f"{register.output!r}"
                    )
                values[register.output] = state[register.output]
        elif register_state:
            raise NetlistError("register_state given for a purely "
                               "combinational netlist")
        for instance in self.levelize():
            operands = [values[net] for net in instance.inputs]
            values[instance.output] = instance.cell.evaluate(operands)
        return values

    def next_register_state(
        self, values: Mapping[str, int]
    ) -> Dict[str, int]:
        """Q values after a clock edge, given settled net values."""
        return {
            register.output: values[register.data_input]
            for register in self.registers.values()
        }

    def evaluate_sequence(
        self,
        vectors: Sequence[Mapping[str, int]],
        register_state: Optional[Mapping[str, int]] = None,
    ) -> List[Dict[str, int]]:
        """Clock-by-clock zero-delay evaluation of a vector sequence.

        Vector ``k`` is applied in cycle ``k`` with the register state
        left by cycle ``k - 1``; the returned list holds the settled
        values of every cycle.
        """
        state = (
            self.initial_register_state()
            if register_state is None
            else dict(register_state)
        )
        history: List[Dict[str, int]] = []
        for vector in vectors:
            values = self.evaluate(vector, register_state=state)
            history.append(values)
            state = self.next_register_state(values)
        return history

    def evaluate_bus(
        self, input_values: Mapping[str, int], prefix: str, width: int
    ) -> int:
        """Evaluate and pack an output bus ``prefix[i]`` into an integer."""
        values = self.evaluate(input_values)
        result = 0
        for i in range(width):
            net = f"{prefix}[{i}]"
            if net not in values:
                raise NetlistError(f"no net {net!r} in {self.name!r}")
            result |= values[net] << i
        return result

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        sequential = (
            f", {len(self.registers)} registers" if self.registers else ""
        )
        return (
            f"Netlist({self.name!r}, {len(self.instances)} gates"
            f"{sequential}, {len(self.primary_inputs)} PIs, "
            f"{len(self.primary_outputs)} POs)"
        )

    def stats(self) -> Dict[str, int]:
        """Gate-count summary by cell type."""
        counts: Dict[str, int] = {}
        for instance in self.instances.values():
            counts[instance.cell.name] = counts.get(instance.cell.name, 0) + 1
        return counts
