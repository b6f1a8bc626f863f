"""Unit tests for the fixed-throughput optimizer (Figs. 3-4 machinery)."""

import pytest

from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.power.optimizer import FixedThroughputOptimizer, RingOscillatorModel


@pytest.fixture(scope="module")
def ring():
    return RingOscillatorModel(soi_low_vt(), stages=101)


@pytest.fixture(scope="module")
def target(ring):
    # A mid-range delay target: achievable over a wide V_T span.
    return 2.0 * ring.stage_delay(1.0, 0.2)


@pytest.fixture(scope="module")
def optimizer(ring):
    return FixedThroughputOptimizer(ring)


class TestRingModel:
    def test_stage_delay_falls_with_vdd(self, ring):
        delays = [ring.stage_delay(0.4 + 0.2 * i, 0.2) for i in range(6)]
        assert delays == sorted(delays, reverse=True)

    def test_stage_delay_rises_with_vt(self, ring):
        assert ring.stage_delay(0.8, 0.3) > ring.stage_delay(0.8, 0.1)

    def test_oscillation_period(self, ring):
        assert ring.oscillation_period(1.0, 0.2) == pytest.approx(
            2 * 101 * ring.stage_delay(1.0, 0.2)
        )

    def test_even_stage_count_rejected(self):
        with pytest.raises(OptimizationError):
            RingOscillatorModel(soi_low_vt(), stages=100)

    def test_bad_activity_rejected(self):
        with pytest.raises(OptimizationError):
            RingOscillatorModel(soi_low_vt(), activity=0.0)


class TestVddSolve:
    def test_solution_hits_target(self, ring, optimizer, target):
        vdd = optimizer.solve_vdd_for_delay(target, vt=0.2)
        assert ring.stage_delay(vdd, 0.2) == pytest.approx(target, rel=1e-6)

    def test_fig3_vdd_falls_with_vt(self, optimizer, target):
        # The headline of Fig. 3: lower V_T allows lower V_DD at fixed
        # performance.
        vdds = [
            optimizer.solve_vdd_for_delay(target, vt)
            for vt in (0.1, 0.2, 0.3, 0.4)
        ]
        assert vdds == sorted(vdds)

    def test_fig3_slower_target_needs_less_vdd(self, optimizer, target):
        fast = optimizer.solve_vdd_for_delay(target, 0.25)
        slow = optimizer.solve_vdd_for_delay(2.0 * target, 0.25)
        assert slow < fast

    def test_unreachable_fast_target(self, optimizer):
        with pytest.raises(OptimizationError, match="unreachable"):
            optimizer.solve_vdd_for_delay(1e-15, vt=0.4)

    def test_slow_target_clamps_to_low_bound(self, ring, optimizer):
        # A target the ring already meets at the minimum supply clamps
        # to the low bound (the shared semantics with
        # ModuleThroughputOptimizer) instead of raising.
        vdd = optimizer.solve_vdd_for_delay(1.0, vt=0.05)
        assert vdd == pytest.approx(ring.technology.min_vdd)
        assert ring.stage_delay(vdd, 0.05) < 1.0

    def test_bad_bounds_rejected(self, optimizer, target):
        with pytest.raises(OptimizationError, match="bounds"):
            optimizer.solve_vdd_for_delay(
                target, 0.2, vdd_bounds=(1.0, 0.5)
            )

    def test_nonfinite_target_rejected(self, optimizer):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(OptimizationError, match="target delay"):
                optimizer.solve_vdd_for_delay(bad, 0.2)

    def test_nonfinite_vt_rejected(self, ring, optimizer, target):
        for vt in (float("nan"), float("inf")):
            with pytest.raises(OptimizationError, match="V_T must be finite"):
                optimizer.solve_vdd_for_delay(target, vt)
            with pytest.raises(OptimizationError, match="V_T must be finite"):
                ring.stage_delay(0.8, vt)
            with pytest.raises(OptimizationError, match="V_T must be finite"):
                ring.energy_per_cycle(0.8, vt, 1e-8)

    @pytest.mark.parametrize("vdd", [float("nan"), float("inf")])
    def test_nonfinite_stage_vdd_rejected(self, vdd):
        # The fanout-mode C(V) view let these through as a NaN delay.
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        with pytest.raises(OptimizationError, match="vdd"):
            ring.stage_delay(vdd, 0.2)

    @pytest.mark.parametrize(
        "cycle", [float("nan"), float("inf"), 0.0, -1e-9]
    )
    def test_nonfinite_cycle_time_rejected(self, ring, cycle):
        with pytest.raises(OptimizationError, match="cycle time"):
            ring.energy_per_cycle(0.5, 0.2, cycle)


class TestEnergyModel:
    def test_energy_components_positive(self, ring):
        point = ring.energy_per_cycle(0.8, 0.2, 1e-8)
        assert point.switching_energy_j > 0.0
        assert point.leakage_energy_j > 0.0
        assert point.energy_per_cycle_j == pytest.approx(
            point.switching_energy_j + point.leakage_energy_j
        )

    def test_leakage_scales_with_cycle_time(self, ring):
        short = ring.energy_per_cycle(0.8, 0.2, 1e-9)
        long = ring.energy_per_cycle(0.8, 0.2, 1e-6)
        assert long.leakage_energy_j == pytest.approx(
            1000.0 * short.leakage_energy_j
        )
        assert long.switching_energy_j == pytest.approx(
            short.switching_energy_j
        )

    def test_lower_vt_leaks_more(self, ring):
        high = ring.energy_per_cycle(0.6, 0.35, 1e-7)
        low = ring.energy_per_cycle(0.6, 0.05, 1e-7)
        assert low.leakage_energy_j > 100.0 * high.leakage_energy_j


class TestModuleThroughputOptimizer:
    @pytest.fixture(scope="class")
    def module_optimizer(self):
        from repro.circuits.builders import ripple_carry_adder
        from repro.power.optimizer import ModuleThroughputOptimizer
        from repro.switchsim.simulator import SwitchLevelSimulator
        from repro.switchsim.stimulus import random_bus_vectors

        technology = soi_low_vt()
        adder = ripple_carry_adder(8)
        report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors(
            random_bus_vectors({"a": 8, "b": 8}, 60, seed=0)
        )
        return ModuleThroughputOptimizer(adder, technology, report)

    @pytest.fixture(scope="class")
    def module_target(self, module_optimizer):
        base_vt = module_optimizer.technology.transistors.nmos.vt0
        return 3.0 * module_optimizer.delay(1.0, base_vt)

    @pytest.mark.parametrize(
        "seconds", [float("nan"), float("inf"), 0.0]
    )
    def test_nonfinite_operation_time_rejected(
        self, module_optimizer, seconds
    ):
        from repro.power.optimizer import VariationSpec

        with pytest.raises(OptimizationError, match="operation time"):
            module_optimizer.energy_per_operation(0.8, 0.2, seconds)
        with pytest.raises(OptimizationError, match="operation time"):
            module_optimizer.statistical_energy_per_operation(
                0.8, 0.2, seconds, VariationSpec(n_samples=4)
            )

    def test_solved_vdd_hits_target(self, module_optimizer, module_target):
        vdd = module_optimizer.solve_vdd_for_delay(module_target, 0.25)
        assert module_optimizer.delay(vdd, 0.25) == pytest.approx(
            module_target, rel=1e-5
        )

    def test_locus_vdd_rises_with_vt(self, module_optimizer, module_target):
        points = module_optimizer.sweep(
            [0.1, 0.2, 0.3, 0.4], module_target
        )
        vdds = [p.vdd for p in points]
        assert vdds == sorted(vdds)

    def test_low_utilization_has_interior_optimum(
        self, module_optimizer, module_target
    ):
        points = module_optimizer.sweep(
            [0.05 + 0.05 * i for i in range(8)],
            module_target,
            utilization=0.02,
        )
        energies = [p.energy_per_cycle_j for p in points]
        best = min(range(len(energies)), key=energies.__getitem__)
        assert 0 < best < len(energies) - 1

    def test_lower_utilization_raises_optimal_vt(
        self, module_optimizer, module_target
    ):
        busy = module_optimizer.optimum(module_target, utilization=1.0)
        idle = module_optimizer.optimum(module_target, utilization=0.02)
        assert idle.vt > busy.vt

    def test_optimum_vdd_below_one_volt(
        self, module_optimizer, module_target
    ):
        best = module_optimizer.optimum(module_target, utilization=0.1)
        assert best.vdd < 1.0

    def test_optimum_solves_once_per_probe(
        self, module_optimizer, module_target
    ):
        # The winner is a probed V_T, so it is returned, not re-solved.
        from repro import obs

        with obs.enabled_scope():
            best = module_optimizer.optimum(module_target, utilization=0.1)
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.vdd_solves"] == counters[
            "optimizer.golden_probes"
        ]
        assert best == module_optimizer.locus_point(
            best.vt, module_target, 0.1
        )

    def test_validation(self, module_optimizer, module_target):
        with pytest.raises(OptimizationError):
            module_optimizer.solve_vdd_for_delay(-1.0, 0.2)
        with pytest.raises(OptimizationError, match="target delay"):
            module_optimizer.solve_vdd_for_delay(float("nan"), 0.2)
        with pytest.raises(OptimizationError, match="target delay"):
            module_optimizer.solve_vdd_for_yield(float("nan"), 0.2)
        with pytest.raises(OptimizationError, match="V_T must be finite"):
            module_optimizer.solve_vdd_for_delay(
                module_target, float("nan")
            )
        with pytest.raises(OptimizationError, match="V_T must be finite"):
            module_optimizer.sweep([float("nan"), 0.2], module_target)
        with pytest.raises(OptimizationError, match="target delay"):
            module_optimizer.optimum(float("nan"))
        with pytest.raises(OptimizationError):
            module_optimizer.locus_point(0.2, module_target, utilization=0.0)
        with pytest.raises(OptimizationError, match="utilization"):
            module_optimizer.optimum(module_target, utilization=0.0)
        with pytest.raises(OptimizationError):
            module_optimizer.sweep([], module_target)
        with pytest.raises(OptimizationError, match="unreachable"):
            module_optimizer.solve_vdd_for_delay(1e-18, 0.4)


class TestFixedThroughputSweep:
    def test_sweep_produces_fig4_curve(self, optimizer, target):
        points = optimizer.sweep(
            [0.05 + 0.05 * i for i in range(8)], target
        )
        assert len(points) >= 5
        # Supply rises with V_T along the locus (Fig. 3 embedded).
        vdds = [p.vdd for p in points]
        assert vdds == sorted(vdds)

    def test_leakage_fraction_falls_with_vt(self, optimizer, target):
        points = optimizer.sweep([0.05, 0.15, 0.3], target)
        fractions = [p.leakage_fraction for p in points]
        assert fractions == sorted(fractions, reverse=True)

    def test_optimum_is_interior_or_boundary_minimum(
        self, optimizer, target
    ):
        best = optimizer.optimum(target, vt_bounds=(0.02, 0.5))
        sampled = optimizer.sweep(
            [0.02 + 0.02 * i for i in range(24)], target
        )
        assert best.energy_per_cycle_j <= 1.02 * min(
            p.energy_per_cycle_j for p in sampled
        )

    def test_fig4_optimum_vdd_below_1v(self, optimizer, target):
        # The paper's headline: the optimum supply is well below 1 V.
        best = optimizer.optimum(target, vt_bounds=(0.02, 0.5))
        assert best.vdd < 1.0

    def test_lower_activity_raises_optimal_vt(self, target):
        # Paper: "a circuit which has very low switching activity will
        # require a high-threshold voltage".
        busy = FixedThroughputOptimizer(
            RingOscillatorModel(soi_low_vt(), stages=101, activity=1.0)
        ).optimum(target, vt_bounds=(0.02, 0.5))
        idle = FixedThroughputOptimizer(
            RingOscillatorModel(soi_low_vt(), stages=101, activity=0.05)
        ).optimum(target, vt_bounds=(0.02, 0.5))
        assert idle.vt > busy.vt

    def test_empty_sweep_rejected(self, optimizer, target):
        with pytest.raises(OptimizationError):
            optimizer.sweep([], target)

    def test_nonfinite_sweep_inputs_rejected(self, optimizer, target):
        # A NaN is a configuration error, not an infeasible corner the
        # default ``skip_infeasible`` may drop.
        with pytest.raises(OptimizationError, match="V_T must be finite"):
            optimizer.sweep([float("nan"), 0.2], target)
        with pytest.raises(OptimizationError, match="target delay"):
            optimizer.sweep([0.1, 0.2], float("nan"))
        with pytest.raises(OptimizationError, match="target delay"):
            optimizer.optimum(float("nan"))
        with pytest.raises(OptimizationError, match="vt bounds"):
            optimizer.optimum(target, vt_bounds=(0.02, float("nan")))

    @pytest.mark.parametrize("utilization", [0.0, 1.5, float("nan")])
    def test_bad_utilization_rejected_before_search(
        self, optimizer, target, utilization
    ):
        # Every locus point rejects it, so the search and the default
        # sweep used to drop each V_T as infeasible and report that.
        from repro import obs

        with obs.enabled_scope():
            with pytest.raises(OptimizationError, match="utilization"):
                optimizer.optimum(target, utilization=utilization)
            assert obs.counter_value("optimizer.golden_probes") == 0
        with pytest.raises(OptimizationError, match="utilization"):
            optimizer.sweep([0.1, 0.2], target, utilization=utilization)

    def test_all_infeasible_sweep_rejected(self, optimizer):
        with pytest.raises(OptimizationError, match="no feasible"):
            optimizer.sweep([0.1, 0.2], 1e-18)

    def test_infeasible_optimum_rejected(self, optimizer):
        with pytest.raises(OptimizationError, match="infeasible"):
            optimizer.optimum(1e-18)


class TestGoldenTieBreaking:
    def test_flat_plateau_ties_break_to_lowest_vt(self):
        from repro.power.search import _bracketed_golden_minimum

        # Every candidate has the same energy: the explicit key must
        # resolve the tie to the lowest V_T, not to float luck in
        # tuple comparison.
        assert _bracketed_golden_minimum(
            lambda vts: [1.0] * len(vts), 0.1, 0.5, 1e-3
        ) == 0.1

    def test_degenerate_bracket_on_entry(self):
        from repro.power.search import _bracketed_golden_minimum

        # b - a <= tolerance before the first golden iteration: the
        # refinement loop never runs and only the coarse-scan
        # candidates compete.
        result = _bracketed_golden_minimum(
            lambda vts: [(vt - 0.05) ** 2 for vt in vts], 0.0, 1e-4, 1e-3
        )
        assert 0.0 <= result <= 1e-4
        # A plateau inside the degenerate bracket still resolves to
        # the lowest V_T.
        assert (
            _bracketed_golden_minimum(
                lambda vts: [7.0] * len(vts), 0.3, 0.3005, 1e-3
            )
            == 0.3
        )

    def test_degenerate_vt_bounds_through_optimum(self, optimizer, target):
        # End-to-end: bounds tighter than the tolerance-scaled bracket
        # still produce a feasible point inside them.
        best = optimizer.optimum(target, vt_bounds=(0.2, 0.201))
        assert 0.2 <= best.vt <= 0.201
        assert best.energy_per_cycle_j > 0.0


def _bounded_energy(minimum_at=0.1234, max_calls=10_000):
    """Convex energies that fail the test instead of letting it hang."""
    calls = [0]

    def energies(vts):
        calls[0] += len(vts)
        if calls[0] > max_calls:
            raise AssertionError("golden-section search did not terminate")
        return [(vt - minimum_at) ** 2 for vt in vts]

    return energies


class TestGoldenTermination:
    @pytest.mark.parametrize("tolerance", [1e-18, 5e-324])
    def test_tolerance_below_float_spacing_terminates(self, tolerance):
        from repro.power.search import _bracketed_golden_minimum

        best = _bracketed_golden_minimum(
            _bounded_energy(), 0.02, 0.45, tolerance
        )
        assert best == pytest.approx(0.1234, abs=1e-12)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, float("nan")])
    def test_nonpositive_tolerance_rejected(self, tolerance):
        from repro.power.search import _bracketed_golden_minimum

        with pytest.raises(OptimizationError, match="tolerance"):
            _bracketed_golden_minimum(
                _bounded_energy(), 0.02, 0.45, tolerance
            )


class TestModuleSweepSkipInfeasible:
    @pytest.fixture(scope="class")
    def small_module_optimizer(self):
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
    def small_module_target(self, small_module_optimizer):
        base_vt = (
            small_module_optimizer.technology.transistors.nmos.vt0
        )
        return 3.0 * small_module_optimizer.delay(1.0, base_vt)

    def test_config_errors_surface(
        self, small_module_optimizer, small_module_target
    ):
        # Regression: the bare ``continue`` used to swallow *every*
        # OptimizationError, so a bad utilization surfaced only as a
        # misleading "no feasible V_T in the sweep".
        with pytest.raises(OptimizationError, match="utilization"):
            small_module_optimizer.sweep(
                [0.1, 0.2],
                small_module_target,
                utilization=0.0,
                skip_infeasible=False,
            )

    def test_unreachable_target_surfaces(self, small_module_optimizer):
        with pytest.raises(OptimizationError, match="unreachable"):
            small_module_optimizer.sweep(
                [0.25], 1e-18, skip_infeasible=False
            )

    def test_default_still_skips_infeasible(
        self, small_module_optimizer, small_module_target
    ):
        points = small_module_optimizer.sweep(
            [0.25], small_module_target
        )
        assert len(points) == 1
