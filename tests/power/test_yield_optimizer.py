"""Yield-constrained (statistical) optimizer tests.

Covers the VariationSpec plumbing, the percentile math shared with the
Monte-Carlo analyzer, the ring and module yield solves, the
nominal-equivalence guarantee (``variation=None`` is bit-identical to
the plain optimizer), and the low-V_DD-clamp interaction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.variation import Distribution
from repro.device.technology import (
    bulk_cmos_06um,
    soi_low_vt,
    soias_technology,
)
from repro.errors import OptimizationError
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
    StatisticalOperatingPoint,
    VariationSpec,
)
from tests.power.module_oracle import PerInstanceModule

VTS = [0.1, 0.2, 0.3]


@pytest.fixture(scope="module")
def ring():
    return RingOscillatorModel(soi_low_vt(), stages=11)


@pytest.fixture(scope="module")
def optimizer(ring):
    return FixedThroughputOptimizer(ring)


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


#: Rings the order-statistic property is drawn over: the paper's two
#: processes, bulk, and an N/P pair with unmatched thresholds.
SHORTCUT_RINGS = {
    name: RingOscillatorModel(technology, stages=11)
    for name, technology in {
        "soi": soi_low_vt(),
        "soias": soias_technology(),
        "bulk": bulk_cmos_06um(),
        "unmatched": soi_low_vt().with_vt(0.2, 0.3),
    }.items()
}


class TestOrderStatisticShortcut:
    """The yield percentile probes only two sampled thresholds.

    That is exact because the ring stage delay never falls as the
    threshold rises at a fixed supply: sorting the shifts sorts the
    delays.
    """

    @settings(deadline=None, max_examples=150)
    @given(
        name=st.sampled_from(sorted(SHORTCUT_RINGS)),
        supply=st.floats(0.0, 1.0),
        vt=st.floats(0.02, 0.5),
        sigma=st.floats(0.005, 0.06),
        n_samples=st.integers(2, 80),
        percentile=st.floats(0.0, 100.0),
        seed=st.integers(0, 2**16),
    )
    def test_two_sample_percentile_is_the_full_vector_percentile(
        self, name, supply, vt, sigma, n_samples, percentile, seed
    ):
        ring = SHORTCUT_RINGS[name]
        technology = ring.technology
        vdd = technology.min_vdd + supply * (
            technology.max_vdd - technology.min_vdd
        )
        shifts = sorted(
            VariationSpec(percentile, sigma, n_samples, seed).draw_shifts()
        )
        delays = ring._plan.delays(
            (vdd,) * n_samples, [vt + shift for shift in shifts], fanout=1
        )
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert FixedThroughputOptimizer(ring)._percentile_delays(
            (vt,), (vdd,), shifts, percentile, {}
        ) == [Distribution(tuple(delays)).percentile(percentile)]


class TestRingYieldSolve:
    def test_percentile_delay_hits_target(self, optimizer, target, spec):
        vdd = optimizer.solve_vdd_for_yield(
            target, 0.2, percentile=spec.percentile,
            vt_sigma=spec.vt_sigma, n_samples=spec.n_samples,
            seed=spec.seed,
        )
        shifts = sorted(spec.draw_shifts())
        (plan_delay,) = optimizer._percentile_delays(
            (0.2,), (vdd,), shifts, spec.percentile, {}
        )
        assert plan_delay == pytest.approx(target, rel=1e-6)

    def test_guard_band_over_nominal(self, optimizer, target):
        for vt in VTS:
            nominal = optimizer.solve_vdd_for_delay(target, vt)
            statistical = optimizer.solve_vdd_for_yield(
                target, vt, n_samples=60
            )
            assert statistical > nominal

    def test_median_solve_tracks_nominal(self, optimizer, target):
        # p50 of a zero-mean spread should need roughly the nominal
        # supply — well inside the p99 guard band.
        p50 = optimizer.solve_vdd_for_yield(
            target, 0.2, percentile=50.0, n_samples=200
        )
        p99 = optimizer.solve_vdd_for_yield(
            target, 0.2, percentile=99.0, n_samples=200
        )
        nominal = optimizer.solve_vdd_for_delay(target, 0.2)
        assert abs(p50 - nominal) < p99 - nominal

    def test_zero_sigma_matches_nominal(self, optimizer, target):
        exact = optimizer.solve_vdd_for_delay(target, 0.2)
        degenerate = optimizer.solve_vdd_for_yield(
            target, 0.2, vt_sigma=0.0, n_samples=10
        )
        assert degenerate == pytest.approx(exact, rel=1e-9)

    def test_unreachable_target_raises(self, optimizer):
        with pytest.raises(OptimizationError, match="unreachable"):
            optimizer.solve_vdd_for_yield(1e-15, 0.4, n_samples=10)

    def test_validation(self, optimizer, target):
        with pytest.raises(OptimizationError, match="positive"):
            optimizer.solve_vdd_for_yield(-1.0, 0.2)
        with pytest.raises(OptimizationError, match="positive"):
            optimizer.solve_vdd_for_yield(float("nan"), 0.2)
        with pytest.raises(OptimizationError, match="V_T must be finite"):
            optimizer.solve_vdd_for_yield(target, float("nan"))
        with pytest.raises(OptimizationError, match="bounds"):
            optimizer.solve_vdd_for_yield(
                target, 0.2, vdd_bounds=(1.0, 0.5)
            )
        with pytest.raises(OptimizationError, match="samples"):
            optimizer.solve_vdd_for_yield(target, 0.2, n_samples=1)


class TestLowBoundClampInteraction:
    def test_statistical_solve_exceeds_nominal_clamp(self, ring, optimizer):
        # A relaxed target the ring meets at the minimum supply
        # nominally, but not at the p99 corner: delay at V_DD near
        # (below) V_T is exponentially sensitive to the V_T spread, so
        # the slow tail misses timing where the nominal corner
        # coasts.  The nominal solve clamps; the statistical one must
        # keep bisecting to a strictly higher supply.
        vt = 0.2
        min_vdd = ring.technology.min_vdd
        relaxed = 1.05 * ring.stage_delay(min_vdd, vt)
        nominal = optimizer.solve_vdd_for_delay(relaxed, vt)
        assert nominal == pytest.approx(min_vdd)
        statistical = optimizer.solve_vdd_for_yield(
            relaxed, vt, percentile=99.0, vt_sigma=0.03, n_samples=60
        )
        assert statistical > min_vdd
        shifts = sorted(VariationSpec(n_samples=60).draw_shifts())
        assert (
            optimizer._percentile_delays((vt,), (min_vdd,), shifts, 99.0, {})
            > [relaxed]
        )

    def test_statistical_solve_still_clamps_when_tail_meets_timing(
        self, ring, optimizer
    ):
        # A target so relaxed even the p99 corner meets it at the
        # minimum supply keeps the clamp semantics.
        vt = 0.2
        min_vdd = ring.technology.min_vdd
        very_relaxed = 1e6 * ring.stage_delay(min_vdd, vt)
        assert optimizer.solve_vdd_for_yield(
            very_relaxed, vt, n_samples=20
        ) == pytest.approx(min_vdd)


class TestStatisticalEnergy:
    def test_point_shape(self, optimizer, target, spec):
        vdd = optimizer.solve_vdd_for_yield(
            target, 0.2, n_samples=spec.n_samples, seed=spec.seed
        )
        point = optimizer.statistical_energy_per_operation(
            vdd, 0.2, 1e-8, spec
        )
        assert isinstance(point, StatisticalOperatingPoint)
        assert point.percentile == spec.percentile
        # The p99 corner is slower than the nominal corner at the
        # same supply.
        assert point.delay_percentile_s > point.stage_delay_s
        assert point.energy_per_cycle_j == pytest.approx(
            point.switching_energy_j + point.leakage_energy_j
        )

    def test_leakage_amplification_tracks_lognormal(self, optimizer, spec):
        big = VariationSpec(
            percentile=spec.percentile, vt_sigma=spec.vt_sigma,
            n_samples=400, seed=0,
        )
        point = optimizer.statistical_energy_per_operation(
            0.8, 0.2, 1e-8, big
        )
        assert point.lognormal_amplification > 1.5
        assert point.leakage_amplification == pytest.approx(
            point.lognormal_amplification, rel=0.15
        )

    def test_statistical_leakage_exceeds_nominal(
        self, ring, optimizer, spec
    ):
        nominal = ring.energy_per_cycle(0.8, 0.2, 1e-8)
        statistical = optimizer.statistical_energy_per_operation(
            0.8, 0.2, 1e-8, spec
        )
        assert (
            statistical.leakage_energy_j > nominal.leakage_energy_j
        )
        assert statistical.switching_energy_j == pytest.approx(
            nominal.switching_energy_j
        )

    def test_validation(self, optimizer, spec):
        with pytest.raises(OptimizationError, match="positive"):
            optimizer.statistical_energy_per_operation(
                0.8, 0.2, -1.0, spec
            )
        for cycle in (float("nan"), float("inf")):
            with pytest.raises(OptimizationError, match="finite"):
                optimizer.statistical_energy_per_operation(
                    0.8, 0.2, cycle, spec
                )


class TestNominalEquivalence:
    def test_locus_sweep_optimum_bit_identical(self, ring, target):
        seed_style = FixedThroughputOptimizer(ring)
        threaded = FixedThroughputOptimizer(ring, variation=None)
        vts = [0.05 + 0.05 * i for i in range(6)]
        assert seed_style.sweep(vts, target) == threaded.sweep(
            vts, target
        )
        assert seed_style.optimum(
            target, vt_bounds=(0.05, 0.45)
        ) == threaded.optimum(target, vt_bounds=(0.05, 0.45))

    def test_statistical_optimum_spends_more_energy(self, ring, target):
        nominal = FixedThroughputOptimizer(ring)
        statistical = FixedThroughputOptimizer(
            ring, variation=VariationSpec(n_samples=40)
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
        count = len(shifts)
        full = module_optimizer._delays(
            [0.2] * count, shifts, [0.7] * count, {}
        )
        assert module_optimizer._percentile_delays(
            (0.2,), (0.7,), sorted(shifts), 97.0, {}
        ) == [Distribution(tuple(full)).percentile(97.0)]

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
        # Leakage integrates over one ring period: 2 * 11 stage delays.
        assert optimizer._period_units == 22
        point = optimizer.locus_point(0.2, target)
        assert isinstance(point, StatisticalOperatingPoint)

    def test_flow_nominal_parity(self, ring, target):
        from repro.core.flow import LowVoltageDesignFlow

        flow = LowVoltageDesignFlow(technology=soi_low_vt())
        best_flow = flow.optimize_throughput(
            target, stages=11, vt_bounds=(0.05, 0.45)
        )
        seed_style = FixedThroughputOptimizer(
            RingOscillatorModel(soi_low_vt(), stages=11)
        )
        assert best_flow == seed_style.optimum(
            target, vt_bounds=(0.05, 0.45)
        )

    def test_flow_rejects_bad_variation(self):
        from repro.core.flow import LowVoltageDesignFlow
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="VariationSpec"):
            LowVoltageDesignFlow(variation=0.99)


class TestModuleOracle:
    """The module optimizer against its per-instance chain, bit for bit:
    per-instance leakage at every shift, per-pin static timing at every
    sample."""

    SPEC = VariationSpec(percentile=90.0, vt_sigma=0.03, n_samples=5, seed=4)

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.circuits.builders import ripple_carry_adder
        from repro.power.optimizer import ModuleThroughputOptimizer
        from repro.switchsim.simulator import SwitchLevelSimulator
        from repro.switchsim.stimulus import random_bus_vectors

        technology = soi_low_vt()
        adder = ripple_carry_adder(4)
        report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors(
            random_bus_vectors({"a": 4, "b": 4}, 30, seed=0)
        )
        oracle = PerInstanceModule(adder, technology, report)
        target = 3.0 * oracle.delay(1.0, 0.0)
        return (
            lambda variation=None: ModuleThroughputOptimizer(
                adder, technology, report, variation=variation
            ),
            oracle,
            target,
        )

    def test_statistical_locus_point_adds_no_leak_memo(self, pair):
        make, oracle, target = pair
        optimizer = make(self.SPEC)
        point = optimizer.locus_point(0.2, target, 0.5)
        assert isinstance(point, StatisticalOperatingPoint)
        assert point == oracle.locus_point(0.2, target, 0.5, self.SPEC)

    def test_sweeps_identical(self, pair):
        make, oracle, target = pair
        vts = [0.05, 0.15, 0.25, 0.35]
        assert make().sweep(vts, target, 0.1) == oracle.sweep(
            vts, target, 0.1
        )
        statistical = make(self.SPEC).sweep(vts, target, 0.1)
        assert len(statistical) == len(vts)
        assert statistical == oracle.sweep(vts, target, 0.1, self.SPEC)

    def test_optima_identical(self, pair):
        make, oracle, target = pair
        assert make().optimum(target, utilization=0.1) == oracle.optimum(
            target, (0.02, 0.5), 2e-3, 0.1
        )
        # A coarse tolerance keeps the statistical search to its scan.
        assert make(self.SPEC).optimum(
            target, vt_bounds=(0.05, 0.4), utilization=0.1, tolerance=0.05
        ) == oracle.optimum(target, (0.05, 0.4), 0.05, 0.1, self.SPEC)
