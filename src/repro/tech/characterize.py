"""Cell characterization: the library's stand-in for SPICE.

Given a :class:`~repro.device.technology.Technology` and a
:class:`~repro.tech.cells.Cell`, the characterizer produces the four
numbers the circuit and power layers consume at any supply/threshold
corner:

* propagation delay under a load,
* switching energy per output charging event,
* state-averaged leakage current,
* input capacitance.

The delay model is the classic ``t = k * C * V / I_drive`` with the
alpha-power-law drive current, which is what makes the fixed-delay
V_DD-vs-V_T trade-off of the paper's Figs. 3-4 emerge.  Because the
drive current includes the subthreshold floor, delays stay finite even
for V_DD below V_T (sub-threshold operation), just exponentially slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs as _obs
from repro.device.leakage import StackLeakageModel
from repro.device.mosfet import Mosfet
from repro.device.technology import Technology
from repro.errors import CharacterizationError
from repro.tech.cells import Cell
from repro.tech.opplan import CornerPlan

__all__ = ["CellTimings", "CellCharacterizer"]


@dataclass(frozen=True)
class CellTimings:
    """Characterized numbers for one cell at one corner.

    All values are SI: seconds, joules, amperes, farads.
    """

    cell_name: str
    vdd: float
    vt_shift: float
    load_f: float
    delay_s: float
    energy_per_transition_j: float
    leakage_current_a: float
    input_capacitance_f: float
    output_capacitance_f: float

    @property
    def leakage_power_w(self) -> float:
        """Static power at this corner [W]."""
        return self.leakage_current_a * self.vdd


class CellCharacterizer:
    """Characterizes cells of one technology.

    Each cell is decoded once, on first use, into a
    :class:`~repro.tech.opplan.CornerPlan` (:meth:`corner_plan`), and
    every delay, switching-energy and leakage query is a one-element
    call of that plan, so a scalar query and a batched one give the
    same float.  The drive currents and the short-circuit energy are
    closed forms.  The stack-leakage solve
    (:class:`~repro.device.leakage.StackSolver`) keeps nothing beyond
    one reference root per V_DD, so a leakage never depends on which
    corners were asked before it.

    ``Cell`` is a frozen dataclass, so cells key the plans by *value*:
    equal cells share one plan.
    """

    def __init__(self, technology: Technology):
        self.technology = technology
        self._nmos_stacks = StackLeakageModel(technology.transistors.nmos)
        self._pmos_stacks = StackLeakageModel(technology.transistors.pmos)
        # Cell -> CornerPlan; plans share the stack models above.
        self._plans: dict = {}

    def corner_plan(self, cell: Cell) -> CornerPlan:
        """The cell's :class:`~repro.tech.opplan.CornerPlan`.

        Decoded on first use and kept for this characterizer's life; it
        shares this characterizer's stack solvers with every scalar
        query.  Counted by ``optimizer.plan_builds``.
        """
        plan = self._plans.get(cell)
        if plan is None:
            plan = self._plans[cell] = CornerPlan(self, cell)
            if _obs.ENABLED:
                _obs.incr("optimizer.plan_builds")
        return plan

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def pull_down_current(
        self, cell: Cell, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """Worst-case pull-down drive current [A]."""
        width = cell.series_equivalent_width(cell.nmos_path_widths_um)
        device = Mosfet(self.technology.transistors.nmos, width_um=width)
        return device.on_current(vdd, vt_shift)

    def pull_up_current(
        self, cell: Cell, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """Worst-case pull-up drive current [A]."""
        width = cell.series_equivalent_width(cell.pmos_path_widths_um)
        device = Mosfet(self.technology.transistors.pmos, width_um=width)
        return device.on_current(vdd, vt_shift)

    # ------------------------------------------------------------------
    # Timing / energy / leakage
    # ------------------------------------------------------------------
    def propagation_delay(
        self,
        cell: Cell,
        vdd: float,
        load_f: float,
        vt_shift: float = 0.0,
    ) -> float:
        """Worst-edge propagation delay driving ``load_f`` [s]."""
        return self.corner_plan(cell).delay(vdd, vt_shift, load_f)

    def energy_per_transition(
        self, cell: Cell, vdd: float, load_f: float
    ) -> float:
        """Supply energy drawn per output charging event [J].

        Charging a node to V_DD draws ``C V^2`` from the supply (half
        stored, half dissipated; the stored half is dissipated on the
        subsequent discharge).  Counting ``C V^2`` per 0->1 transition
        matches the paper's Eq. 1 convention with alpha_0->1.
        """
        # A supply record's second field is load_f + C_out.
        total = self.corner_plan(cell).supplies((vdd,), load_f)[0][1]
        return total * vdd * vdd

    def short_circuit_energy(
        self,
        cell: Cell,
        vdd: float,
        load_f: float,
        input_transition_time_s: float,
    ) -> float:
        """Short-circuit energy per input edge (Veendrick-style) [J].

        Zero when the supply cannot turn both networks on at once
        (V_DD < V_Tn + |V_Tp|) — the classic result that slow rails
        remove short-circuit power entirely.
        """
        if not 0.0 < vdd < math.inf:
            raise CharacterizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        nmos = self.technology.transistors.nmos
        pmos = self.technology.transistors.pmos
        overlap = vdd - nmos.vt0 - pmos.vt0
        if overlap <= 0.0:
            return 0.0
        # Veendrick: E_sc ~ (k/12) * (V_DD - V_Tn - V_Tp)^3 * tau / V_DD
        # with k the drive factor of the weaker device.
        k_eff = min(
            nmos.k_drive
            * cell.series_equivalent_width(cell.nmos_path_widths_um),
            pmos.k_drive
            * cell.series_equivalent_width(cell.pmos_path_widths_um),
        )
        return k_eff / 12.0 * overlap**3 * input_transition_time_s / vdd

    def leakage_current(
        self,
        cell: Cell,
        vdd: float,
        vt_shift: float = 0.0,
        output_high_probability: float = 0.5,
    ) -> float:
        """State-averaged cell leakage with stack effect [A]."""
        return self.corner_plan(cell).leakages(
            (vdd,), (vt_shift,), output_high_probability
        )[0]

    # ------------------------------------------------------------------
    # One-call corner characterization
    # ------------------------------------------------------------------
    def characterize(
        self,
        cell: Cell,
        vdd: float,
        load_f: float = 0.0,
        vt_shift: float = 0.0,
    ) -> CellTimings:
        """Produce a full :class:`CellTimings` record for a corner."""
        return CellTimings(
            cell_name=cell.name,
            vdd=vdd,
            vt_shift=vt_shift,
            load_f=load_f,
            delay_s=self.propagation_delay(cell, vdd, load_f, vt_shift),
            energy_per_transition_j=self.energy_per_transition(
                cell, vdd, load_f
            ),
            leakage_current_a=self.leakage_current(cell, vdd, vt_shift),
            input_capacitance_f=cell.input_capacitance(self.technology, vdd),
            output_capacitance_f=cell.output_capacitance(
                self.technology, vdd
            ),
        )

    def fanout_delay(
        self,
        cell: Cell,
        vdd: float,
        fanout: int = 1,
        vt_shift: float = 0.0,
    ) -> float:
        """Delay driving ``fanout`` copies of the cell's own input [s].

        Fanout-of-1 inverter delay is the ring-oscillator stage delay
        used throughout the Fig. 3-4 experiments.
        """
        return self.corner_plan(cell).delay(vdd, vt_shift, fanout=fanout)
