"""Netlist-level power estimation.

Combines an :class:`~repro.switchsim.activity.ActivityReport` with the
technology models to produce the Section 2 power breakdown — including
the two effects the paper says contemporary tools missed: the
non-linear C(V_DD) (inherited from net extraction) and subthreshold
leakage (summed per cell with the stack effect).
"""

from __future__ import annotations

from typing import List

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import AnalysisError
from repro.power.components import PowerBreakdown
from repro.switchsim.activity import ActivityReport
from repro.tech.cells import standard_cells

__all__ = ["PowerEstimator"]

_INVERTER = standard_cells()["INV"]


class PowerEstimator:
    """Estimates the power of one netlist in one technology."""

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology,
        wire_length_per_fanout_um: float = 5.0,
    ):
        netlist.validate()
        self.netlist = netlist
        self.technology = technology
        self.wire_length_per_fanout_um = wire_length_per_fanout_um
        self.plan = NetlistPlan(netlist, technology, wire_length_per_fanout_um)

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def switching_power(
        self, report: ActivityReport, vdd: float, frequency_hz: float
    ) -> float:
        """Eq. 1 summed over nets, using simulated alphas [W]."""
        self._check(vdd, frequency_hz)
        energy = report.switched_capacitance_on(self.plan, vdd) * vdd * vdd
        return energy * frequency_hz

    def leakage_current(self, vdd: float, vt_shift: float = 0.0) -> float:
        """Total subthreshold leakage of the netlist [A]."""
        if vdd <= 0.0:
            raise AnalysisError("vdd must be positive")
        (total,) = self.plan.leakage_currents(vdd, (vt_shift,))
        return total

    def leakage_power(self, vdd: float, vt_shift: float = 0.0) -> float:
        """Static power of the netlist [W]."""
        return self.leakage_current(vdd, vt_shift) * vdd

    def short_circuit_power(
        self, report: ActivityReport, vdd: float, frequency_hz: float
    ) -> float:
        """Veendrick short-circuit power over all gates [W].

        Each gate's input transition time is approximated by its
        driver's propagation delay — the matched-edge-rate assumption
        under which the paper bounds this term below ~10 %.
        """
        self._check(vdd, frequency_hz)
        transition_times = self._input_transition_times(vdd)
        characterizer = self.plan.characterizer
        total_energy = 0.0
        for instance, driver_delay in zip(
            self.plan.instances, transition_times
        ):
            transitions = sum(
                report.rising.get(net, 0) + report.falling.get(net, 0)
                for net in instance.inputs
            ) / report.cycles
            if transitions == 0.0:
                continue
            energy = characterizer.short_circuit_energy(
                instance.cell, vdd, 0.0, driver_delay
            )
            total_energy += energy * transitions
        return total_energy * frequency_hz

    def breakdown(
        self,
        report: ActivityReport,
        vdd: float,
        frequency_hz: float,
        vt_shift: float = 0.0,
    ) -> PowerBreakdown:
        """Full Section 2 decomposition at an operating point."""
        return PowerBreakdown(
            switching_w=self.switching_power(report, vdd, frequency_hz),
            short_circuit_w=self.short_circuit_power(
                report, vdd, frequency_hz
            ),
            leakage_w=self.leakage_power(vdd, vt_shift),
        )

    def _input_transition_times(self, vdd: float) -> List[float]:
        """Each gate's input transition time [s], in netlist order: the
        delay of the gate driving its first input, or of an inverter
        driving 10 fF for a primary input (an inverter-quality edge)."""
        plan = self.plan
        delays = plan.gate_delays(vdd)
        edge = plan.characterizer.propagation_delay(_INVERTER, vdd, 10e-15)
        firsts = (plan.net_ids[i.inputs[0]] for i in plan.instances)
        drivers = [plan.drivers[net] for net in firsts]
        return [edge if k is None else delays[k] for k in drivers]

    @staticmethod
    def _check(vdd: float, frequency_hz: float) -> None:
        if vdd <= 0.0 or frequency_hz <= 0.0:
            raise AnalysisError("vdd and frequency must be positive")
