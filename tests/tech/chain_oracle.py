"""The scalar characterization chain: the test-only corner oracle.

Before :class:`repro.tech.opplan.CornerPlan` served every cell corner,
the characterizer computed each one by walking the device models: each
polarity's ``Mosfet.on_current`` for the series-equivalent device, the
cell's ``input_capacitance``/``output_capacitance`` C(V) views and one
stack solve per polarity.  :class:`ChainOracle` is that chain, with no
memo and a fresh stack solver per leakage, so nothing it answers
depends on what it was asked before.  The plan must match it bit for
bit.
"""

from __future__ import annotations

from repro.device.leakage import StackSolver
from repro.device.mosfet import Mosfet
from repro.errors import CharacterizationError

#: The delay constant of ``t = 0.7 C V / I``.
_DELAY_CONSTANT = 0.7


class ChainOracle:
    """Test-only oracle: one technology's per-corner device chain."""

    def __init__(self, technology):
        self.technology = technology

    def _on_currents(self, cell, vdd, vt_shift):
        transistors = self.technology.transistors
        pull_down = Mosfet(
            transistors.nmos,
            width_um=cell.series_equivalent_width(cell.nmos_path_widths_um),
        ).on_current(vdd, vt_shift)
        pull_up = Mosfet(
            transistors.pmos,
            width_um=cell.series_equivalent_width(cell.pmos_path_widths_um),
        ).on_current(vdd, vt_shift)
        return pull_down, pull_up

    def propagation_delay(self, cell, vdd, load_f, vt_shift=0.0):
        total_load = load_f + cell.output_capacitance(self.technology, vdd)
        weakest = min(self._on_currents(cell, vdd, vt_shift))
        if weakest <= 0.0:
            raise CharacterizationError(
                f"cell {cell.name} has no drive at V_DD = {vdd} V"
            )
        return _DELAY_CONSTANT * total_load * vdd / weakest

    def fanout_delay(self, cell, vdd, fanout=1, vt_shift=0.0):
        load = fanout * cell.input_capacitance(self.technology, vdd)
        return self.propagation_delay(cell, vdd, load, vt_shift)

    def energy_per_transition(self, cell, vdd, load_f):
        total = load_f + cell.output_capacitance(self.technology, vdd)
        return total * vdd * vdd

    def leakage_current(
        self, cell, vdd, vt_shift=0.0, output_high_probability=0.5
    ):
        transistors = self.technology.transistors
        nmos_leak = StackSolver(
            transistors.nmos, cell.nmos_path_widths_um
        ).current(vdd, vt_shift)
        pmos_leak = StackSolver(
            transistors.pmos, cell.pmos_path_widths_um
        ).current(vdd, vt_shift)
        p_high = output_high_probability
        return p_high * nmos_leak + (1.0 - p_high) * pmos_leak
