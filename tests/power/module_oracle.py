"""Per-instance module chain: the test-only oracle for the module optimizer.

:class:`~repro.power.optimizer.ModuleThroughputOptimizer` times and
prices a module through one :class:`~repro.circuits.plan.NetlistPlan`:
loads once per supply, one kernel call per (cell, load) group, one
leakage call per distinct cell over a whole shift vector, and a yield
percentile from the two bracketing shift order statistics.
:class:`PerInstanceModule` is the chain those shortcuts replace, built
on the per-pin, per-instance oracle in
``tests/circuits/netlist_oracle.py``: static timing at every sample,
one scalar characterizer leakage per instance and shift, per-net
switched capacitance, and the full delay vector's
:meth:`~repro.analysis.variation.Distribution.percentile`.  The
optimizer's locus points, sweeps and optima must match it bit for bit.
"""

from __future__ import annotations

from repro.analysis.variation import (
    Distribution,
    lognormal_leakage_amplification,
)
from repro.errors import OptimizationError
from repro.power.optimizer import OperatingPoint, StatisticalOperatingPoint
from repro.power.search import _bracketed_golden_minimum
from tests.circuits import netlist_oracle
from tests.power.supply_oracle import solve_probe_by_probe


class PerInstanceModule:
    """Test-only oracle: a module optimizer without the shortcuts."""

    def __init__(self, netlist, technology, report, wire_length_um=5.0):
        self.netlist = netlist
        self.technology = technology
        self.report = report
        self.wire = wire_length_um
        self.analyzer = netlist_oracle.StaticTimingAnalyzer(
            technology, wire_length_um
        )
        self.characterizer = self.analyzer.characterizer
        self.base_vt = technology.transistors.nmos.vt0
        self.bounds = (technology.min_vdd, technology.max_vdd)

    def delay(self, vdd, shift):
        return self.analyzer.analyze(
            self.netlist, vdd, vt_shift=shift
        ).delay_s

    def percentile_delay(self, vdd, shift, samples, percentile):
        return Distribution(
            tuple(self.delay(vdd, shift + sample) for sample in samples)
        ).percentile(percentile)

    def leakage_current(self, vdd, shift):
        return netlist_oracle.leakage_current(
            self.characterizer, self.netlist, vdd, shift
        )

    def solve(self, delay_at, target):
        vdd = solve_probe_by_probe(delay_at, target, *self.bounds, None)
        if vdd is None:
            raise OptimizationError("unreachable")
        return vdd

    def energy(self, vdd, vt, seconds):
        shift = vt - self.base_vt
        alphas = {
            net: self.report.alpha(net)
            for net, count in self.report.rising.items()
            if count
        }
        switching = (
            netlist_oracle.switched_capacitance(
                self.netlist, alphas, self.technology, vdd, self.wire
            )
            * vdd
            * vdd
        )
        leakage = self.leakage_current(vdd, shift) * vdd * seconds
        return OperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=self.delay(vdd, shift),
            energy_per_cycle_j=switching + leakage,
            switching_energy_j=switching,
            leakage_energy_j=leakage,
        )

    def locus_point(self, vt, target, utilization=1.0, variation=None):
        shift = vt - self.base_vt
        seconds = target / utilization
        if variation is None:
            vdd = self.solve(lambda v: self.delay(v, shift), target)
            return self.energy(vdd, vt, seconds)
        samples = variation.draw_shifts()
        percentile = variation.percentile
        vdd = self.solve(
            lambda v: self.percentile_delay(v, shift, samples, percentile),
            target,
        )
        nominal = self.energy(vdd, vt, seconds)
        currents = [
            self.leakage_current(vdd, shift + sample)
            for sample in samples
        ]
        mean = sum(currents) / len(currents)
        leakage = mean * vdd * seconds
        return StatisticalOperatingPoint(
            vt=vt,
            vdd=vdd,
            stage_delay_s=nominal.stage_delay_s,
            energy_per_cycle_j=nominal.switching_energy_j + leakage,
            switching_energy_j=nominal.switching_energy_j,
            leakage_energy_j=leakage,
            percentile=percentile,
            delay_percentile_s=self.percentile_delay(
                vdd, shift, samples, percentile
            ),
            leakage_amplification=(
                mean / self.leakage_current(vdd, shift)
            ),
            lognormal_amplification=lognormal_leakage_amplification(
                variation.vt_sigma,
                self.technology.transistors.nmos.subthreshold_swing,
            ),
        )

    def sweep(self, vts, target, utilization=1.0, variation=None):
        points = []
        for vt in vts:
            try:
                points.append(
                    self.locus_point(vt, target, utilization, variation)
                )
            except OptimizationError:
                pass
        return points

    def optimum(
        self, target, vt_bounds, tolerance, utilization=1.0, variation=None
    ):
        probed = {}

        def energy(vt):
            try:
                point = self.locus_point(vt, target, utilization, variation)
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
