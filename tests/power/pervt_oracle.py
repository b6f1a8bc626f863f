"""Per-V_T ring corners: the test-only oracle for the one ring decode.

Before :class:`repro.power.optimizer.RingOscillatorModel` decoded its
inverter once at ``V_T0 = 0``, every V_T probe built the corner
``technology.with_vt(vt)``: a new technology, characterizer and plan.
:class:`PerVtRing` is that chain, with a fresh characterizer per
query, so nothing it answers depends on what it was asked before.  It
carries its own fixed-delay locus, sweep and optimum, with the yield
percentile taken over the full sampled delay vector; the ring and
:class:`~repro.power.optimizer.FixedThroughputOptimizer` must match it
bit for bit.
"""

from __future__ import annotations

from repro.analysis.variation import (
    Distribution,
    lognormal_leakage_amplification,
)
from repro.errors import OptimizationError
from repro.power.optimizer import (
    OperatingPoint,
    StatisticalOperatingPoint,
    VariationSpec,
)
from repro.power.search import _bracketed_golden_minimum
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer
from tests.power.supply_oracle import solve_probe_by_probe


class PerVtRing:
    """Test-only oracle: the ring as one fresh characterizer of
    ``technology.with_vt(vt)`` per query, asked at shift 0.

    Answers the ring model's ``stage_delay`` and ``energy_per_cycle``
    and the optimizer's ``locus_point``, ``sweep`` and ``optimum``,
    leakage integrating over one ring period.
    """

    def __init__(self, technology, stages=101, activity=1.0):
        self.technology = technology
        self.stages = stages
        self.activity = activity
        self.inverter = standard_cells()["INV"]
        self.bounds = (technology.min_vdd, technology.max_vdd)

    def corner(self, vt):
        return CellCharacterizer(self.technology.with_vt(vt))

    def stage_delay(self, vdd, vt):
        return self.corner(vt).fanout_delay(self.inverter, vdd, fanout=1)

    def solve_vdd_for_delay(self, target, vt):
        plan = self.corner(vt).corner_plan(self.inverter)
        vdd = solve_probe_by_probe(
            lambda v: plan.delay(v, fanout=1),
            target,
            *self.bounds,
            plan.delay_breaks(),
        )
        if vdd is None:
            raise OptimizationError("unreachable")
        return vdd

    def energy_per_cycle(self, vdd, vt, cycle_time_s):
        corner = self.corner(vt)
        load = self.inverter.input_capacitance(corner.technology, vdd)
        switching = (
            self.stages
            * self.activity
            * corner.energy_per_transition(self.inverter, vdd, load)
        )
        leakage_current = self.stages * corner.leakage_current(
            self.inverter, vdd
        )
        leakage = leakage_current * vdd * cycle_time_s
        return OperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.stage_delay(vdd, vt),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
        )

    def _percentile_delay(self, corner, vdd, shifts, percentile):
        load = self.inverter.input_capacitance(corner.technology, vdd)
        return Distribution(
            tuple(
                corner.propagation_delay(self.inverter, vdd, load, shift)
                for shift in shifts
            )
        ).percentile(percentile)

    def solve_vdd_for_yield(
        self, target, vt, percentile, vt_sigma, n_samples, seed
    ):
        shifts = VariationSpec(
            percentile, vt_sigma, n_samples, seed
        ).draw_shifts()
        corner = self.corner(vt)
        vdd = solve_probe_by_probe(
            lambda v: self._percentile_delay(corner, v, shifts, percentile),
            target,
            *self.bounds,
            None,
        )
        if vdd is None:
            raise OptimizationError("unreachable")
        return vdd

    def statistical_energy_per_cycle(self, vdd, vt, cycle_time_s, spec):
        shifts = spec.draw_shifts()
        corner = self.corner(vt)
        nominal = self.energy_per_cycle(vdd, vt, cycle_time_s)
        leakages = [
            corner.leakage_current(self.inverter, vdd, shift)
            for shift in shifts
        ]
        mean_leakage = sum(leakages) / len(leakages)
        leakage = self.stages * mean_leakage * vdd * cycle_time_s
        predicted = lognormal_leakage_amplification(
            spec.vt_sigma,
            self.technology.transistors.nmos.subthreshold_swing,
        )
        return StatisticalOperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=nominal.stage_delay_s,
            energy_per_cycle_j=nominal.switching_energy_j + leakage,
            switching_energy_j=nominal.switching_energy_j,
            leakage_energy_j=leakage,
            percentile=spec.percentile,
            delay_percentile_s=self._percentile_delay(
                corner, vdd, shifts, spec.percentile
            ),
            leakage_amplification=(
                mean_leakage / corner.leakage_current(self.inverter, vdd)
            ),
            lognormal_amplification=predicted,
        )

    def locus_point(self, vt, target, variation=None):
        period = (2 * self.stages) * target
        if variation is None:
            vdd = self.solve_vdd_for_delay(target, vt)
            return self.energy_per_cycle(vdd, vt, period)
        vdd = self.solve_vdd_for_yield(
            target,
            vt,
            variation.percentile,
            variation.vt_sigma,
            variation.n_samples,
            variation.seed,
        )
        return self.statistical_energy_per_cycle(vdd, vt, period, variation)

    def sweep(self, vts, target, variation=None):
        points = []
        for vt in vts:
            try:
                points.append(self.locus_point(vt, target, variation))
            except OptimizationError:
                pass
        return points

    def optimum(
        self, target, vt_bounds=(0.01, 0.6), tolerance=1e-3, variation=None
    ):
        probed = {}

        def energy(vt):
            try:
                point = self.locus_point(vt, target, variation)
            except OptimizationError:
                return float("inf")
            probed[vt] = point
            return point.energy_per_cycle_j

        low, high = vt_bounds
        return probed[
            _bracketed_golden_minimum(
                lambda vts: [energy(vt) for vt in vts], low, high, tolerance
            )
        ]
