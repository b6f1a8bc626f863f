"""Yield-constrained (statistical) optimizer tests.

Covers the VariationSpec plumbing, the percentile math shared with the
Monte-Carlo analyzer, the ring and module yield solves, the
nominal-equivalence guarantee (``variation=None`` is bit-identical to
the plain optimizer), and the low-V_DD-clamp interaction.
"""

import pytest

from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
    StatisticalOperatingPoint,
    VariationSpec,
    _percentile,
)

VTS = [0.1, 0.2, 0.3]


@pytest.fixture(scope="module")
def ring():
    return RingOscillatorModel(soi_low_vt(), stages=11)


@pytest.fixture(scope="module")
def target(ring):
    return 2.0 * ring.stage_delay(1.0, 0.2)


@pytest.fixture(scope="module")
def spec():
    return VariationSpec(
        percentile=99.0, vt_sigma=0.03, n_samples=60, seed=0
    )


class TestVariationSpec:
    def test_defaults(self):
        spec = VariationSpec()
        assert spec.percentile == 99.0
        assert spec.vt_sigma == 0.03
        assert spec.n_samples == 300
        assert spec.seed == 0

    def test_validation(self):
        with pytest.raises(OptimizationError, match="percentile"):
            VariationSpec(percentile=101.0)
        with pytest.raises(OptimizationError, match="percentile"):
            VariationSpec(percentile=-1.0)
        with pytest.raises(OptimizationError, match="vt_sigma"):
            VariationSpec(vt_sigma=-0.01)
        with pytest.raises(OptimizationError, match="samples"):
            VariationSpec(n_samples=1)

    def test_draw_shifts_deterministic_and_matches_analyzer(self):
        from repro.analysis.variation import MonteCarloAnalyzer

        spec = VariationSpec(vt_sigma=0.05, n_samples=40, seed=7)
        shifts = spec.draw_shifts()
        assert shifts == spec.draw_shifts()
        analyzer = MonteCarloAnalyzer(
            soi_low_vt(), vt_sigma=0.05, n_samples=40, seed=7
        )
        assert shifts == analyzer.sample_vt_shifts()

    def test_optimizer_rejects_non_spec(self, ring):
        with pytest.raises(OptimizationError, match="VariationSpec"):
            FixedThroughputOptimizer(ring, variation=0.99)


class TestPercentileMath:
    def test_matches_distribution_percentile(self):
        from repro.analysis.variation import Distribution

        values = [4.0, 1.0, 3.5, 2.0, 9.0, 0.5, 6.25]
        dist = Distribution(values)
        for p in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
            assert _percentile(values, p) == dist.percentile(p)


class TestRingYieldSolve:
    def test_percentile_delay_hits_target(self, ring, target, spec):
        vdd = ring.solve_vdd_for_yield(
            target, 0.2, percentile=spec.percentile,
            vt_sigma=spec.vt_sigma, n_samples=spec.n_samples,
            seed=spec.seed,
        )
        shifts = spec.draw_shifts()
        plan_delay = ring._stage_delay_percentile(
            vdd, 0.2, shifts, spec.percentile
        )
        assert plan_delay == pytest.approx(target, rel=1e-6)

    def test_guard_band_over_nominal(self, ring, target):
        for vt in VTS:
            nominal = ring.solve_vdd_for_delay(target, vt)
            statistical = ring.solve_vdd_for_yield(
                target, vt, n_samples=60
            )
            assert statistical > nominal

    def test_median_solve_tracks_nominal(self, ring, target):
        # p50 of a zero-mean spread should need roughly the nominal
        # supply — well inside the p99 guard band.
        p50 = ring.solve_vdd_for_yield(
            target, 0.2, percentile=50.0, n_samples=200
        )
        p99 = ring.solve_vdd_for_yield(
            target, 0.2, percentile=99.0, n_samples=200
        )
        nominal = ring.solve_vdd_for_delay(target, 0.2)
        assert abs(p50 - nominal) < p99 - nominal

    def test_zero_sigma_matches_nominal(self, ring, target):
        exact = ring.solve_vdd_for_delay(target, 0.2)
        degenerate = ring.solve_vdd_for_yield(
            target, 0.2, vt_sigma=0.0, n_samples=10
        )
        assert degenerate == pytest.approx(exact, rel=1e-9)

    def test_unreachable_target_raises(self, ring):
        with pytest.raises(OptimizationError, match="unreachable"):
            ring.solve_vdd_for_yield(1e-15, 0.4, n_samples=10)

    def test_validation(self, ring, target):
        with pytest.raises(OptimizationError, match="positive"):
            ring.solve_vdd_for_yield(-1.0, 0.2)
        with pytest.raises(OptimizationError, match="positive"):
            ring.solve_vdd_for_yield(float("nan"), 0.2)
        with pytest.raises(OptimizationError, match="V_T must be finite"):
            ring.solve_vdd_for_yield(target, float("nan"))
        with pytest.raises(OptimizationError, match="bounds"):
            ring.solve_vdd_for_yield(
                target, 0.2, vdd_bounds=(1.0, 0.5)
            )
        with pytest.raises(OptimizationError, match="samples"):
            ring.solve_vdd_for_yield(target, 0.2, n_samples=1)


class TestLowBoundClampInteraction:
    def test_statistical_solve_exceeds_nominal_clamp(self, ring):
        # A relaxed target the ring meets at the minimum supply
        # nominally, but not at the p99 corner: delay at V_DD near
        # (below) V_T is exponentially sensitive to the V_T spread, so
        # the slow tail misses timing where the nominal corner
        # coasts.  The nominal solve clamps; the statistical one must
        # keep bisecting to a strictly higher supply.
        vt = 0.2
        min_vdd = ring.technology.min_vdd
        relaxed = 1.05 * ring.stage_delay(min_vdd, vt)
        nominal = ring.solve_vdd_for_delay(relaxed, vt)
        assert nominal == pytest.approx(min_vdd)
        statistical = ring.solve_vdd_for_yield(
            relaxed, vt, percentile=99.0, vt_sigma=0.03, n_samples=60
        )
        assert statistical > min_vdd
        shifts = VariationSpec(n_samples=60).draw_shifts()
        assert (
            ring._stage_delay_percentile(min_vdd, vt, shifts, 99.0)
            > relaxed
        )

    def test_statistical_solve_still_clamps_when_tail_meets_timing(
        self, ring
    ):
        # A target so relaxed even the p99 corner meets it at the
        # minimum supply keeps the clamp semantics.
        vt = 0.2
        min_vdd = ring.technology.min_vdd
        very_relaxed = 1e6 * ring.stage_delay(min_vdd, vt)
        assert ring.solve_vdd_for_yield(
            very_relaxed, vt, n_samples=20
        ) == pytest.approx(min_vdd)


class TestStatisticalEnergy:
    def test_point_shape(self, ring, target, spec):
        vdd = ring.solve_vdd_for_yield(
            target, 0.2, n_samples=spec.n_samples, seed=spec.seed
        )
        point = ring.statistical_energy_per_cycle(vdd, 0.2, 1e-8, spec)
        assert isinstance(point, StatisticalOperatingPoint)
        assert point.percentile == spec.percentile
        # The p99 corner is slower than the nominal corner at the
        # same supply.
        assert point.delay_percentile_s > point.stage_delay_s
        assert point.energy_per_cycle_j == pytest.approx(
            point.switching_energy_j + point.leakage_energy_j
        )

    def test_leakage_amplification_tracks_lognormal(self, ring, spec):
        big = VariationSpec(
            percentile=spec.percentile, vt_sigma=spec.vt_sigma,
            n_samples=400, seed=0,
        )
        point = ring.statistical_energy_per_cycle(0.8, 0.2, 1e-8, big)
        assert point.lognormal_amplification > 1.5
        assert point.leakage_amplification == pytest.approx(
            point.lognormal_amplification, rel=0.15
        )

    def test_statistical_leakage_exceeds_nominal(self, ring, spec):
        nominal = ring.energy_per_cycle(0.8, 0.2, 1e-8)
        statistical = ring.statistical_energy_per_cycle(
            0.8, 0.2, 1e-8, spec
        )
        assert (
            statistical.leakage_energy_j > nominal.leakage_energy_j
        )
        assert statistical.switching_energy_j == pytest.approx(
            nominal.switching_energy_j
        )

    def test_validation(self, ring, spec):
        with pytest.raises(OptimizationError, match="positive"):
            ring.statistical_energy_per_cycle(0.8, 0.2, -1.0, spec)
        for cycle in (float("nan"), float("inf")):
            with pytest.raises(OptimizationError, match="finite"):
                ring.statistical_energy_per_cycle(0.8, 0.2, cycle, spec)


class TestNominalEquivalence:
    def test_locus_sweep_optimum_bit_identical(self, ring, target):
        seed_style = FixedThroughputOptimizer(ring, cycle_stages=22)
        threaded = FixedThroughputOptimizer(
            ring, cycle_stages=22, variation=None
        )
        vts = [0.05 + 0.05 * i for i in range(6)]
        assert seed_style.sweep(vts, target) == threaded.sweep(
            vts, target
        )
        assert seed_style.optimum(
            target, vt_bounds=(0.05, 0.45)
        ) == threaded.optimum(target, vt_bounds=(0.05, 0.45))

    def test_statistical_optimum_spends_more_energy(self, ring, target):
        nominal = FixedThroughputOptimizer(ring, cycle_stages=22)
        statistical = FixedThroughputOptimizer(
            ring, cycle_stages=22,
            variation=VariationSpec(n_samples=40),
        )
        best_nom = nominal.optimum(target, vt_bounds=(0.05, 0.45))
        best_stat = statistical.optimum(target, vt_bounds=(0.05, 0.45))
        assert isinstance(best_stat, StatisticalOperatingPoint)
        # Guaranteeing the p99 corner costs energy over the nominal
        # optimum (higher supply at whatever V_T the search picks).
        assert (
            best_stat.energy_per_cycle_j > best_nom.energy_per_cycle_j
        )


class TestModuleYieldSolve:
    @pytest.fixture(scope="class")
    def module_optimizer(self):
        from repro.circuits.builders import ripple_carry_adder
        from repro.power.optimizer import ModuleThroughputOptimizer
        from repro.switchsim.simulator import SwitchLevelSimulator
        from repro.switchsim.stimulus import random_bus_vectors

        technology = soi_low_vt()
        adder = ripple_carry_adder(4)
        report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors(
            random_bus_vectors({"a": 4, "b": 4}, 30, seed=0)
        )
        return ModuleThroughputOptimizer(adder, technology, report)

    @pytest.fixture(scope="class")
    def module_target(self, module_optimizer):
        base_vt = module_optimizer.technology.transistors.nmos.vt0
        return 3.0 * module_optimizer.delay(1.0, base_vt)

    def test_order_statistic_shortcut_is_exact(self, module_optimizer):
        # The shortcut evaluates STA at only the two bracketing shift
        # order statistics; because STA delay is monotone in the
        # global shift, that must equal the full-vector percentile
        # bit-for-bit.
        spec = VariationSpec(
            percentile=97.0, vt_sigma=0.03, n_samples=41, seed=3
        )
        shifts = spec.draw_shifts()
        base = module_optimizer._shift(0.2)
        full = [
            module_optimizer._delay_at_shift(0.7, base + s)
            for s in shifts
        ]
        assert module_optimizer._delay_percentile(
            0.7, 0.2, sorted(shifts), 97.0
        ) == _percentile(full, 97.0)

    def test_guard_band_over_nominal(
        self, module_optimizer, module_target
    ):
        nominal = module_optimizer.solve_vdd_for_delay(
            module_target, 0.2
        )
        statistical = module_optimizer.solve_vdd_for_yield(
            module_target, 0.2, n_samples=40
        )
        assert statistical > nominal

    def test_statistical_locus_point(
        self, module_optimizer, module_target
    ):
        from repro.power.optimizer import ModuleThroughputOptimizer

        statistical = ModuleThroughputOptimizer(
            module_optimizer.netlist,
            module_optimizer.technology,
            module_optimizer.report,
            variation=VariationSpec(n_samples=40),
        )
        point = statistical.locus_point(0.2, module_target)
        assert isinstance(point, StatisticalOperatingPoint)
        assert point.delay_percentile_s > point.stage_delay_s
        assert point.leakage_amplification > 1.0
        nominal_point = module_optimizer.locus_point(0.2, module_target)
        assert point.vdd > nominal_point.vdd

    def test_nominal_module_parity(
        self, module_optimizer, module_target
    ):
        from repro.power.optimizer import ModuleThroughputOptimizer

        threaded = ModuleThroughputOptimizer(
            module_optimizer.netlist,
            module_optimizer.technology,
            module_optimizer.report,
            variation=None,
        )
        assert threaded.locus_point(
            0.2, module_target
        ) == module_optimizer.locus_point(0.2, module_target)


class TestFlowThreading:
    def test_flow_carries_variation_into_optimizer(self, target):
        from repro.core.flow import LowVoltageDesignFlow

        spec = VariationSpec(n_samples=40)
        flow = LowVoltageDesignFlow(
            technology=soi_low_vt(), variation=spec
        )
        optimizer = flow.throughput_optimizer(stages=11)
        assert optimizer.variation is spec
        assert optimizer.cycle_stages == 22
        point = optimizer.locus_point(0.2, target)
        assert isinstance(point, StatisticalOperatingPoint)

    def test_flow_nominal_parity(self, ring, target):
        from repro.core.flow import LowVoltageDesignFlow

        flow = LowVoltageDesignFlow(technology=soi_low_vt())
        best_flow = flow.optimize_throughput(
            target, stages=11, vt_bounds=(0.05, 0.45)
        )
        seed_style = FixedThroughputOptimizer(
            RingOscillatorModel(soi_low_vt(), stages=11),
            cycle_stages=22,
        )
        assert best_flow == seed_style.optimum(
            target, vt_bounds=(0.05, 0.45)
        )

    def test_flow_rejects_bad_variation(self):
        from repro.core.flow import LowVoltageDesignFlow
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="VariationSpec"):
            LowVoltageDesignFlow(variation=0.99)
