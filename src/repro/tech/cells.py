"""Static CMOS cell templates and register styles.

A :class:`Cell` is a *structural* description: a truth table plus the
transistor topology facts the characterizer needs (worst-case series
path widths, device counts, drains on the output node).  It knows
nothing about voltage — that is the characterizer's job — so one cell
catalog serves every technology corner.

:class:`RegisterStyle` describes the three register circuits whose
switched capacitance the paper compares in Fig. 1 (C2MOS, TSPC and a
low-clock-load register, "LCLR").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Type

from repro.device.technology import Technology
from repro.errors import NetlistError

__all__ = [
    "Cell",
    "RegisterStyle",
    "standard_cells",
    "register_styles",
    "check_ring_stages",
    "UNKNOWN",
]

#: Three-valued logic "unknown" marker used before nodes settle.
UNKNOWN: Optional[int] = None


@dataclass(frozen=True)
class Cell:
    """A combinational static CMOS cell.

    Parameters
    ----------
    name:
        Catalog name, e.g. ``"NAND2"``.
    n_inputs:
        Number of logic inputs.
    truth_table:
        Output for every input combination; index is the binary value
        of the inputs with input 0 as the least-significant bit.
    nmos_path_widths_um:
        Widths of the devices along the worst-case (deepest) series
        pull-down path, source-side first [um].
    pmos_path_widths_um:
        Same for the pull-up network [um].
    nmos_count, pmos_count:
        Total device counts (for capacitance bookkeeping).
    nmos_drains_on_output, pmos_drains_on_output:
        How many drains of each polarity touch the output node.
    input_nmos_width_um, input_pmos_width_um:
        Gate widths seen by each input (one N and one P per input in
        fully complementary CMOS).
    """

    name: str
    n_inputs: int
    truth_table: Tuple[int, ...]
    nmos_path_widths_um: Tuple[float, ...]
    pmos_path_widths_um: Tuple[float, ...]
    nmos_count: int
    pmos_count: int
    nmos_drains_on_output: int
    pmos_drains_on_output: int
    input_nmos_width_um: float
    input_pmos_width_um: float

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise NetlistError(f"cell {self.name}: needs at least one input")
        if len(self.truth_table) != 2**self.n_inputs:
            raise NetlistError(
                f"cell {self.name}: truth table must have "
                f"{2 ** self.n_inputs} entries, got {len(self.truth_table)}"
            )
        if any(v not in (0, 1) for v in self.truth_table):
            raise NetlistError(f"cell {self.name}: truth table must be 0/1")
        if not self.nmos_path_widths_um or not self.pmos_path_widths_um:
            raise NetlistError(
                f"cell {self.name}: both networks need at least one device"
            )

    # ------------------------------------------------------------------
    # Logic
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Sequence[Optional[int]]) -> Optional[int]:
        """Three-valued evaluation.

        ``None`` inputs are unknown; the output is known only when every
        completion of the unknowns agrees (e.g. NAND with one input at
        0 is 1 regardless of the other input).
        """
        if len(inputs) != self.n_inputs:
            raise NetlistError(
                f"cell {self.name}: expected {self.n_inputs} inputs, "
                f"got {len(inputs)}"
            )
        unknown_positions = [
            i for i, v in enumerate(inputs) if v is UNKNOWN
        ]
        if not unknown_positions:
            return self.truth_table[self._index(inputs)]
        seen = set()
        for fill in range(2 ** len(unknown_positions)):
            candidate = list(inputs)
            for bit, position in enumerate(unknown_positions):
                candidate[position] = (fill >> bit) & 1
            seen.add(self.truth_table[self._index(candidate)])
            if len(seen) > 1:
                return UNKNOWN
        return seen.pop()

    def _index(self, inputs: Sequence[int]) -> int:
        index = 0
        for bit, value in enumerate(inputs):
            if value not in (0, 1):
                raise NetlistError(
                    f"cell {self.name}: input values must be 0/1, got {value}"
                )
            index |= value << bit
        return index

    # ------------------------------------------------------------------
    # Structure-derived electrical quantities
    # ------------------------------------------------------------------
    @property
    def nmos_stack_depth(self) -> int:
        """Series depth of the pull-down network."""
        return len(self.nmos_path_widths_um)

    @property
    def pmos_stack_depth(self) -> int:
        """Series depth of the pull-up network."""
        return len(self.pmos_path_widths_um)

    def input_capacitance(self, technology: Technology, vdd: float) -> float:
        """Switched gate capacitance presented by one input [F]."""
        length = technology.drawn_length_um
        gate = technology.gate_cap
        return gate.gate_capacitance(
            self.input_nmos_width_um, length, vdd
        ) + gate.gate_capacitance(self.input_pmos_width_um, length, vdd)

    def output_capacitance(self, technology: Technology, vdd: float) -> float:
        """Self (drain-junction) capacitance on the output node [F]."""
        junction = technology.junction_cap
        extent = technology.drain_extent_um
        n_part = junction.drain_capacitance(
            self.input_nmos_width_um * self.nmos_drains_on_output,
            extent,
            vdd,
        )
        p_part = junction.drain_capacitance(
            self.input_pmos_width_um * self.pmos_drains_on_output,
            extent,
            vdd,
        )
        return n_part + p_part

    def series_equivalent_width(self, widths_um: Sequence[float]) -> float:
        """Width of the single device equivalent to a series path.

        Series conductances add as reciprocals, so k identical devices
        of width w behave like one device of width w/k.
        """
        return 1.0 / sum(1.0 / w for w in widths_um)


@dataclass(frozen=True)
class RegisterStyle:
    """A register circuit style for the Fig. 1 comparison.

    Parameters
    ----------
    name:
        Style name ("C2MOS", "TSPC", "LCLR").
    nmos_count, pmos_count:
        Device counts.
    nmos_width_um, pmos_width_um:
        Typical device widths [um].
    clock_device_count:
        Devices whose gates load the clock.
    internal_activity:
        Average fraction of internal nodes that toggle per captured
        datum (data activity 1).
    wire_length_um:
        Local interconnect attributed to the cell [um].
    """

    name: str
    nmos_count: int
    pmos_count: int
    nmos_width_um: float
    pmos_width_um: float
    clock_device_count: int
    internal_activity: float
    wire_length_um: float

    def __post_init__(self) -> None:
        if self.nmos_count < 1 or self.pmos_count < 1:
            raise NetlistError(f"register {self.name}: empty network")
        if not 0.0 < self.internal_activity <= 1.0:
            raise NetlistError(
                f"register {self.name}: internal_activity must be in (0, 1]"
            )

    @property
    def device_count(self) -> int:
        """Total transistor count."""
        return self.nmos_count + self.pmos_count

    def switched_capacitance(
        self,
        technology: Technology,
        vdd: float,
        data_activity: float = 1.0,
    ) -> float:
        """Effective switched capacitance per clock cycle [F].

        This is the quantity of the paper's Fig. 1: energy per cycle
        divided by V_DD^2.  It includes the clock load (which switches
        every cycle) plus the data-activity-weighted internal gate,
        junction and wire capacitance.  Because the gate component uses
        the non-linear :class:`GateCapacitanceModel`, the result rises
        with V_DD.
        """
        if not 0.0 <= data_activity <= 1.0:
            raise NetlistError("data_activity must be in [0, 1]")
        length = technology.drawn_length_um
        gate = technology.gate_cap
        junction = technology.junction_cap
        average_width = 0.5 * (self.nmos_width_um + self.pmos_width_um)

        clock_cap = self.clock_device_count * gate.gate_capacitance(
            average_width, length, vdd
        )
        internal_gate_cap = (
            self.nmos_count * gate.gate_capacitance(self.nmos_width_um, length, vdd)
            + self.pmos_count
            * gate.gate_capacitance(self.pmos_width_um, length, vdd)
        )
        internal_junction_cap = junction.drain_capacitance(
            self.nmos_count * self.nmos_width_um
            + self.pmos_count * self.pmos_width_um,
            technology.drain_extent_um,
            vdd,
        )
        wire_cap = technology.wire_cap.wire_capacitance(self.wire_length_um)
        data_cap = internal_gate_cap + internal_junction_cap + wire_cap
        return clock_cap + data_activity * self.internal_activity * data_cap


def _simple_cell(
    name: str,
    truth_table: Tuple[int, ...],
    n_inputs: int,
    nmos_series: int,
    pmos_series: int,
    nmos_count: int,
    pmos_count: int,
    nmos_drains: int,
    pmos_drains: int,
    unit_nmos_um: float = 2.0,
    unit_pmos_um: float = 4.0,
) -> Cell:
    """Build a cell with stack-compensated device sizing.

    Series devices are widened by the stack depth so every cell has
    roughly inverter-equivalent drive, the usual sizing discipline.
    """
    nmos_width = unit_nmos_um * nmos_series
    pmos_width = unit_pmos_um * pmos_series
    return Cell(
        name=name,
        n_inputs=n_inputs,
        truth_table=truth_table,
        nmos_path_widths_um=(nmos_width,) * nmos_series,
        pmos_path_widths_um=(pmos_width,) * pmos_series,
        nmos_count=nmos_count,
        pmos_count=pmos_count,
        nmos_drains_on_output=nmos_drains,
        pmos_drains_on_output=pmos_drains,
        input_nmos_width_um=nmos_width,
        input_pmos_width_um=pmos_width,
    )


def standard_cells() -> Dict[str, Cell]:
    """The cell catalog used by all netlist builders.

    Truth-table index convention: input 0 is the least-significant bit.
    Each call returns a new dict of the one immutable catalog, built
    once at import.
    """
    return dict(_CATALOG)


def check_ring_stages(stages: int, error: Type[Exception]) -> None:
    """Reject an inverter ring that cannot oscillate.

    A ring oscillates only with an odd number of at least three
    inverters.  ``ring_oscillator`` netlists, the ring-oscillator model
    and the energy surface share this rule; each raises its own layer's
    ``error`` type.
    """
    if stages < 3 or stages % 2 == 0:
        raise error(f"ring stages must be odd and >= 3, got {stages}")


_CATALOG: Dict[str, Cell] = {
    cell.name: cell
    for cell in (
        _simple_cell("INV", (1, 0), 1, 1, 1, 1, 1, 1, 1),
        _simple_cell("BUF", (0, 1), 1, 1, 1, 2, 2, 1, 1),
        _simple_cell("NAND2", (1, 1, 1, 0), 2, 2, 1, 2, 2, 1, 2),
        _simple_cell("NAND3", (1,) * 7 + (0,), 3, 3, 1, 3, 3, 1, 3),
        _simple_cell("NOR2", (1, 0, 0, 0), 2, 1, 2, 2, 2, 2, 1),
        _simple_cell("NOR3", (1,) + (0,) * 7, 3, 1, 3, 3, 3, 3, 1),
        _simple_cell("AND2", (0, 0, 0, 1), 2, 2, 1, 3, 3, 1, 1),
        _simple_cell("OR2", (0, 1, 1, 1), 2, 1, 2, 3, 3, 1, 1),
        _simple_cell("XOR2", (0, 1, 1, 0), 2, 2, 2, 6, 6, 2, 2),
        _simple_cell("XNOR2", (1, 0, 0, 1), 2, 2, 2, 6, 6, 2, 2),
        # AOI21: out = !((a & b) | c); index = a + 2b + 4c.
        _simple_cell("AOI21", (1, 1, 1, 0, 0, 0, 0, 0), 3, 2, 2, 3, 3, 2, 1),
        # OAI21: out = !((a | b) & c).
        _simple_cell("OAI21", (1, 1, 1, 1, 1, 0, 0, 0), 3, 2, 2, 3, 3, 1, 2),
        # MUX2: inputs (a, b, sel); out = b if sel else a.
        _simple_cell("MUX2", (0, 1, 0, 1, 0, 0, 1, 1), 3, 2, 2, 6, 6, 2, 2),
    )
}


def register_styles() -> Dict[str, RegisterStyle]:
    """The three register styles of the paper's Fig. 1.

    Ordering by switched capacitance (C2MOS > TSPC > LCLR) follows the
    device counts and clock loading; the paper attributes the upward
    slope versus V_DD to gate-capacitance non-linearity, which
    :meth:`RegisterStyle.switched_capacitance` inherits from the
    technology's gate model.
    """
    styles = [
        RegisterStyle(
            name="C2MOS",
            nmos_count=10,
            pmos_count=10,
            nmos_width_um=3.0,
            pmos_width_um=6.0,
            clock_device_count=8,
            internal_activity=0.6,
            wire_length_um=40.0,
        ),
        RegisterStyle(
            name="TSPC",
            nmos_count=6,
            pmos_count=5,
            nmos_width_um=2.5,
            pmos_width_um=5.0,
            clock_device_count=4,
            internal_activity=0.55,
            wire_length_um=25.0,
        ),
        RegisterStyle(
            name="LCLR",
            nmos_count=5,
            pmos_count=4,
            nmos_width_um=2.0,
            pmos_width_um=4.0,
            clock_device_count=2,
            internal_activity=0.5,
            wire_length_um=18.0,
        ),
    ]
    return {style.name: style for style in styles}
