"""The kink-aware supply solve against the 70-step bisection oracle.

The ring-oscillator delay is not monotone in V_DD: it rises for a band
above the kink where the gate drive crosses zero
(:meth:`repro.tech.opplan.CornerPlan.delay_breaks`), so a target in
that band has three roots.  The solve must land on the root the
bisection oracle in ``tests/power/supply_oracle.py`` picks, to
``ORACLE_RTOL``, and solves that bisect throughout (module, yield) must
equal it exactly.  A regression to bisection-like cost fails
:class:`TestEvaluationBudget`.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.variation import Distribution
from repro.core.flow import LowVoltageDesignFlow
from repro.device.technology import (
    TransistorPair,
    bulk_cmos_06um,
    mtcmos_technology,
    soi_low_vt,
    soias_technology,
)
from repro.errors import OptimizationError
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
    VariationSpec,
)
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer
from tests.power.supply_oracle import ORACLE_RTOL, oracle_supply

SHIPPED = {
    "bulk": bulk_cmos_06um(),
    "soi": soi_low_vt(),
    "soias": soias_technology(),
    "mtcmos": mtcmos_technology(),
}


def _with_pmos(technology, **changes):
    pair = technology.transistors
    return replace(
        technology,
        transistors=TransistorPair(pair.nmos, replace(pair.pmos, **changes)),
    )


#: N/P pairs that differ by more than a common drive scale: each
#: polarity kinks at its own supply, or the weaker one changes with V_DD.
NON_PROPORTIONAL = {
    "pmos-dibl": _with_pmos(soi_low_vt(), dibl=0.06),
    "pmos-alpha": _with_pmos(soi_low_vt(), alpha=1.3),
    "pmos-drive": _with_pmos(
        soi_low_vt(), k_drive=soi_low_vt().transistors.nmos.k_drive
    ),
}

RINGS = {
    name: RingOscillatorModel(technology, stages=101)
    for name, technology in {**SHIPPED, **NON_PROPORTIONAL}.items()
}


def _kinks(technology, vt):
    """Each polarity's zero-gate-drive supply at logic threshold ``vt``."""
    pair = technology.transistors
    return [vt / (1.0 + pair.nmos.dibl), vt / (1.0 + pair.pmos.dibl)]


def _target(ring, vt, kind, scale, offset, rel, polarity=0):
    """A stage-delay target: scaled off V_T = 0.2, or in the kink band."""
    if kind == "scaled":
        return scale * ring.stage_delay(1.0, 0.2)
    kink = _kinks(ring.technology, vt)[polarity]
    return ring.stage_delay(kink + offset, vt) * (1.0 + rel)


def _assert_matches_oracle(ring, vt, target):
    technology = ring.technology
    optimizer = FixedThroughputOptimizer(ring)
    want = oracle_supply(
        lambda v: ring.stage_delay(v, vt),
        target,
        technology.min_vdd,
        technology.max_vdd,
    )
    if want is None:
        with pytest.raises(OptimizationError, match="unreachable"):
            optimizer.solve_vdd_for_delay(target, vt)
        return
    got = optimizer.solve_vdd_for_delay(target, vt)
    assert math.isclose(got, want, rel_tol=ORACLE_RTOL), (got, want)


targets = dict(
    kind=st.sampled_from(["scaled", "band"]),
    scale=st.floats(2.0, 8.0),
    offset=st.floats(-0.002, 0.030),
    rel=st.floats(-1e-3, 1e-3),
)


class TestOracleAgreement:
    @settings(deadline=None, max_examples=200)
    @given(
        technology=st.sampled_from(sorted(SHIPPED)),
        vt=st.floats(0.02, 0.5),
        **targets,
    )
    # Roots near 0.1713, 0.1719 and 0.1861 V; the oracle returns the
    # lowest, a secant from the full bracket the highest.
    @example(
        technology="soias", vt=0.1765, kind="band", scale=2.0,
        offset=0.0147, rel=0.0,
    )
    def test_ring_solve_matches_oracle(
        self, technology, vt, kind, scale, offset, rel
    ):
        ring = RINGS[technology]
        _assert_matches_oracle(
            ring, vt, _target(ring, vt, kind, scale, offset, rel)
        )

    @settings(deadline=None, max_examples=60)
    @given(
        technology=st.sampled_from(sorted(NON_PROPORTIONAL)),
        vt=st.floats(0.02, 0.5),
        polarity=st.sampled_from([0, 1]),
        **targets,
    )
    # Were the NMOS kink reported as the only break, the secant phase
    # would land 15 % and 70 % away from the oracle here.
    @example(
        technology="pmos-drive", vt=0.08, polarity=1, kind="band",
        scale=2.0, offset=0.03, rel=0.0,
    )
    @example(
        technology="pmos-alpha", vt=0.04, polarity=0, kind="band",
        scale=2.0, offset=0.012, rel=0.0,
    )
    def test_non_proportional_pair_matches_oracle(
        self, technology, vt, polarity, kind, scale, offset, rel
    ):
        ring = RINGS[technology]
        _assert_matches_oracle(
            ring, vt, _target(ring, vt, kind, scale, offset, rel, polarity)
        )


class TestDelayBreaks:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_technologies_share_one_kink(self, name):
        technology = SHIPPED[name]
        nmos = technology.transistors.nmos
        characterizer = CellCharacterizer(technology)
        for cell in standard_cells().values():
            plan = characterizer.corner_plan(cell)
            for shift in (-0.1, 0.0, 0.05):
                assert plan.delay_breaks(shift) == (
                    (nmos.vt0 + shift) / (1.0 + nmos.dibl),
                )

    @pytest.mark.parametrize("vt", [0.05, 0.2, 0.5])
    def test_delay_stops_falling_at_the_kink(self, vt):
        plan = CellCharacterizer(soi_low_vt().with_vt(vt)).corner_plan(
            standard_cells()["INV"]
        )
        (kink,) = plan.delay_breaks()
        below, at, above = plan.delays(
            (kink - 1e-4, kink, kink + 1e-4), (0.0,) * 3, fanout=1
        )
        assert below > at < above

    @pytest.mark.parametrize("name", sorted(NON_PROPORTIONAL))
    def test_non_proportional_pair_has_no_breaks(self, name):
        plan = CellCharacterizer(NON_PROPORTIONAL[name]).corner_plan(
            standard_cells()["INV"]
        )
        assert plan.delay_breaks() is None


class TestExactSolves:
    """Solves without breaks bisect throughout: equal to the oracle."""

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

    @pytest.mark.parametrize("vt", [0.1, 0.25])
    def test_module_solve_equals_oracle(self, module_optimizer, vt):
        technology = module_optimizer.technology
        target = 3.0 * module_optimizer.delay(1.0, technology.active_vt())
        assert module_optimizer.solve_vdd_for_delay(
            target, vt
        ) == oracle_supply(
            lambda v: module_optimizer.delay(v, vt),
            target,
            technology.min_vdd,
            technology.max_vdd,
        )

    def test_module_yield_solve_equals_oracle(self, module_optimizer):
        technology = module_optimizer.technology
        target = 3.0 * module_optimizer.delay(1.0, technology.active_vt())
        spec = VariationSpec(percentile=97.0, n_samples=24, seed=3)
        ordered = sorted(spec.draw_shifts())
        assert module_optimizer.solve_vdd_for_yield(
            target, 0.2, percentile=97.0, n_samples=24, seed=3
        ) == oracle_supply(
            lambda v: module_optimizer._percentile_delays(
                (0.2,), (v,), ordered, 97.0, {}
            )[0],
            target,
            technology.min_vdd,
            technology.max_vdd,
        )

    @pytest.mark.parametrize("vt", [0.1, 0.1765, 0.3])
    def test_ring_yield_solve_equals_oracle(self, vt):
        # The oracle's percentile sorts the full batched delay vector,
        # so this also pins the solve's two-order-statistic shortcut.
        ring = RINGS["soias"]
        plan = ring._plan
        target = 3.0 * ring.stage_delay(1.0, 0.2)
        thresholds = [
            vt + shift for shift in VariationSpec(n_samples=24).draw_shifts()
        ]
        assert FixedThroughputOptimizer(ring).solve_vdd_for_yield(
            target, vt, n_samples=24
        ) == oracle_supply(
            lambda v: Distribution(
                tuple(
                    plan.delays((v,) * len(thresholds), thresholds, fanout=1)
                )
            ).percentile(99.0),
            target,
            ring.technology.min_vdd,
            ring.technology.max_vdd,
        )


class TestEvaluationBudget:
    #: The fixed 70-step bisection took 72 per solve.
    MAX_MEAN_EVALUATIONS = 20

    def test_optimize_defaults_solve_cheaply(self):
        # ``repro optimize`` defaults: soi, 101 stages, delay factor 4.
        optimizer = LowVoltageDesignFlow(
            technology=soi_low_vt()
        ).throughput_optimizer(stages=101)
        target = 4.0 * optimizer.ring.stage_delay(1.0, 0.2)
        with obs.enabled_scope():
            optimizer.sweep([0.04 + 0.02 * i for i in range(20)], target)
            optimizer.optimum(target, vt_bounds=(0.02, 0.45))
            counters = obs.snapshot()["counters"]
        solved = counters["optimizer.vdd_solves"] - counters.get(
            "optimizer.low_bound_clamps", 0
        )
        assert solved > 0
        assert (
            counters["optimizer.supply_evals"]
            <= self.MAX_MEAN_EVALUATIONS * solved
        )

    def test_bracket_checks_are_counted(self):
        optimizer = FixedThroughputOptimizer(RINGS["soi"])
        with obs.enabled_scope():
            optimizer.solve_vdd_for_delay(1.0, vt=0.05)
            clamped = obs.counter_value("optimizer.supply_evals")
        with obs.enabled_scope():
            with pytest.raises(OptimizationError):
                optimizer.solve_vdd_for_delay(1e-15, vt=0.4)
            unreachable = obs.counter_value("optimizer.supply_evals")
        assert (clamped, unreachable) == (2, 1)


def _one_lane_solves(optimizer, vts, target, spec):
    """Each V_T solved alone: its supply or its error message, and the
    solve counters."""
    answers = []
    with obs.enabled_scope():
        for vt in vts:
            try:
                if spec is None:
                    answers.append(optimizer.solve_vdd_for_delay(target, vt))
                else:
                    answers.append(
                        optimizer.solve_vdd_for_yield(
                            target, vt, spec.percentile, spec.vt_sigma,
                            spec.n_samples, spec.seed,
                        )
                    )
            except OptimizationError as error:
                answers.append(str(error))
        counters = obs.snapshot()["counters"]
    return answers, counters


def _batch_solves(optimizer, vts, target, spec):
    """The same V_Ts as one lockstep batch."""
    with obs.enabled_scope():
        lanes = optimizer._solve_lanes(vts, target, None, spec, {})
        counters = obs.snapshot()["counters"]
    answers = [
        lane if isinstance(lane, float) else str(lane) for lane in lanes
    ]
    return answers, counters


SOLVE_COUNTERS = (
    "optimizer.supply_evals",
    "optimizer.low_bound_clamps",
    "optimizer.vdd_solves",
    "optimizer.yield_solves",
    "optimizer.mc_probes",
)


class TestLockstep:
    """A lockstep batch answers every lane exactly as a batch of one."""

    @settings(deadline=None, max_examples=80)
    @given(
        technology=st.sampled_from(["soi", "soias"]),
        stages=st.integers(1, 50).map(lambda half: 2 * half + 1),
        vts=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=10),
        scale=st.floats(0.5, 8.0),
        duplicate=st.booleans(),
    )
    # Two lanes clamp, one is unreachable, one repeats; the rest bisect
    # across the kink and finish in different rounds.
    @example(
        technology="soi", stages=11,
        vts=[0.02, 0.05, 0.1, 0.2, 0.4, 1.8], scale=4.0, duplicate=True,
    )
    def test_batch_equals_one_lane_solves(
        self, technology, stages, vts, scale, duplicate
    ):
        ring = RingOscillatorModel(SHIPPED[technology], stages=stages)
        optimizer = FixedThroughputOptimizer(ring)
        target = scale * ring.stage_delay(1.0, 0.2)
        if duplicate:
            vts = vts + vts[:1]
        alone, alone_counts = _one_lane_solves(optimizer, vts, target, None)
        batch, batch_counts = _batch_solves(optimizer, vts, target, None)
        assert batch == alone
        for name in SOLVE_COUNTERS:
            assert batch_counts.get(name, 0) == alone_counts.get(name, 0)

    @settings(deadline=None, max_examples=25)
    @given(
        technology=st.sampled_from(["soi", "soias"]),
        stages=st.integers(1, 50).map(lambda half: 2 * half + 1),
        vts=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
        scale=st.floats(0.5, 8.0),
        percentile=st.floats(50.0, 100.0),
    )
    def test_yield_batch_equals_one_lane_solves(
        self, technology, stages, vts, scale, percentile
    ):
        ring = RingOscillatorModel(SHIPPED[technology], stages=stages)
        optimizer = FixedThroughputOptimizer(ring)
        target = scale * ring.stage_delay(1.0, 0.2)
        spec = VariationSpec(percentile, 0.03, 16, 5)
        alone, alone_counts = _one_lane_solves(optimizer, vts, target, spec)
        batch, batch_counts = _batch_solves(optimizer, vts, target, spec)
        assert batch == alone
        for name in SOLVE_COUNTERS:
            assert batch_counts.get(name, 0) == alone_counts.get(name, 0)

    def test_mixed_batch_reaches_every_exit(self):
        # The explicit example above does cover clamped, unreachable
        # and bisecting lanes that finish in different rounds.
        ring = RingOscillatorModel(SHIPPED["soi"], stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        vts = [0.02, 0.05, 0.1, 0.2, 0.4, 1.8, 0.02]
        rounds = []
        for vt in vts:
            _, counters = _one_lane_solves(optimizer, [vt], target, None)
            rounds.append(counters["optimizer.supply_evals"])
        batch, counters = _batch_solves(optimizer, vts, target, None)
        assert counters["optimizer.low_bound_clamps"] == 3
        assert sum(isinstance(lane, str) for lane in batch) == 1
        assert len(set(rounds)) >= 3

    def test_sweep_raises_the_first_infeasible_message(self):
        ring = RingOscillatorModel(SHIPPED["soias"], stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        with pytest.raises(OptimizationError) as first:
            optimizer.solve_vdd_for_delay(target, 1.8)
        with pytest.raises(OptimizationError) as raised:
            optimizer.sweep(
                [0.2, 1.8, 1.9, 0.3], target, skip_infeasible=False
            )
        assert str(raised.value) == str(first.value)
        assert [point.vt for point in optimizer.sweep(
            [0.2, 1.8, 1.9, 0.3], target
        )] == [0.2, 0.3]


class TestBoundValidation:
    def test_infinite_high_bound_rejected(self):
        ring = RINGS["soi"]
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        bounds = (0.1, math.inf)
        with pytest.raises(OptimizationError, match="bad vdd bounds"):
            optimizer.solve_vdd_for_delay(target, 0.2, vdd_bounds=bounds)
        with pytest.raises(OptimizationError, match="bad vdd bounds"):
            optimizer.solve_vdd_for_yield(
                target, 0.2, n_samples=10, vdd_bounds=bounds
            )
