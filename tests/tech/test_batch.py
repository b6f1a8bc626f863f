"""Tests for fixed-V_DD shift sweeps through the corner plan.

Monte-Carlo variation asks for one cell at one (V_DD, load) under many
V_T shifts: one :class:`~repro.tech.opplan.CornerPlan` kernel call with
the supply repeated and its shift-independent terms computed once
through the plan's ``supplies``.  These tests pin that sweep against
the scalar chain oracle (``tests/tech/chain_oracle.py``) and the
characterizer's per-sample path; ``tests/tech/test_opplan.py`` covers
the supply axis.
"""

import math

import pytest

from repro import obs
from repro.analysis.variation import MonteCarloAnalyzer
from repro.device.technology import bulk_cmos_06um, soi_low_vt
from repro.errors import CharacterizationError
from repro.tech.characterize import CellCharacterizer
from repro.tech.cells import standard_cells
from repro.tech.opplan import CornerPlan
from tests.tech.chain_oracle import ChainOracle

SHIFTS = [0.0, 0.02, -0.03, 0.051, -0.0149, 0.1, -0.08]


def sweep_delays(plan, vdd, load_f, shifts):
    """The Monte-Carlo delay sweep: one supply record, repeated."""
    count = len(shifts)
    return plan.delays(
        (vdd,) * count,
        shifts,
        supplies=plan.supplies((vdd,), load_f) * count,
    )


def sweep_leakages(plan, vdd, shifts, output_high_probability=0.5):
    return plan.leakages(
        (vdd,) * len(shifts), shifts, output_high_probability
    )


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


@pytest.fixture
def characterizer():
    return CellCharacterizer(soi_low_vt())


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["INV", "NAND2", "NOR3", "AOI21"])
    @pytest.mark.parametrize("vdd", [0.4, 0.8, 1.5])
    def test_delays_match_per_sample_path(
        self, characterizer, cells, name, vdd
    ):
        cell = cells[name]
        plan = characterizer.corner_plan(cell)
        oracle = ChainOracle(soi_low_vt())
        expected = [
            oracle.propagation_delay(cell, vdd, 10e-15, vt_shift=s)
            for s in SHIFTS
        ]
        assert sweep_delays(plan, vdd, 10e-15, SHIFTS) == expected
        reference = CellCharacterizer(soi_low_vt())
        assert [
            reference.propagation_delay(cell, vdd, 10e-15, vt_shift=s)
            for s in SHIFTS
        ] == expected

    @pytest.mark.parametrize("name", ["INV", "NAND2", "NOR3", "AOI21"])
    @pytest.mark.parametrize("vdd", [0.4, 0.8, 1.5])
    def test_leakages_match_per_sample_path(
        self, characterizer, cells, name, vdd
    ):
        cell = cells[name]
        plan = characterizer.corner_plan(cell)
        oracle = ChainOracle(soi_low_vt())
        expected = [
            oracle.leakage_current(cell, vdd, vt_shift=s) for s in SHIFTS
        ]
        assert sweep_leakages(plan, vdd, SHIFTS) == expected
        reference = CellCharacterizer(soi_low_vt())
        assert [
            reference.leakage_current(cell, vdd, vt_shift=s) for s in SHIFTS
        ] == expected

    def test_output_high_probability_weighting(self, characterizer, cells):
        cell = cells["NAND2"]
        plan = characterizer.corner_plan(cell)
        oracle = ChainOracle(soi_low_vt())
        expected = [
            oracle.leakage_current(
                cell, 0.9, vt_shift=s, output_high_probability=0.8
            )
            for s in SHIFTS
        ]
        assert sweep_leakages(plan, 0.9, SHIFTS, 0.8) == expected

    def test_other_technology(self, cells):
        cell = cells["NOR2"]
        plan = CellCharacterizer(bulk_cmos_06um()).corner_plan(cell)
        oracle = ChainOracle(bulk_cmos_06um())
        assert sweep_delays(plan, 1.2, 5e-15, SHIFTS) == [
            oracle.propagation_delay(cell, 1.2, 5e-15, vt_shift=s)
            for s in SHIFTS
        ]
        assert sweep_leakages(plan, 1.2, SHIFTS) == [
            oracle.leakage_current(cell, 1.2, vt_shift=s) for s in SHIFTS
        ]

    def test_scalar_conveniences_match_vector_loop(
        self, characterizer, cells
    ):
        plan = characterizer.corner_plan(cells["INV"])
        assert plan.delay(0.7, 0.02, 10e-15) == sweep_delays(
            plan, 0.7, 10e-15, [0.02]
        )[0]
        assert plan.leakages((0.7,), (0.02,)) == sweep_leakages(
            plan, 0.7, [0.02]
        )

    def test_interleaving_with_per_sample_calls_on_one_characterizer(
        self, characterizer, cells
    ):
        # The plan shares its characterizer's stack solvers, so mixing
        # plan and per-sample calls in any order must agree with the
        # history-free oracle.
        cell = cells["NAND3"]
        oracle = ChainOracle(soi_low_vt())
        expected = [
            oracle.leakage_current(cell, 0.6, vt_shift=s) for s in SHIFTS
        ]
        plan = characterizer.corner_plan(cell)
        first = sweep_leakages(plan, 0.6, SHIFTS[:3])
        middle = [
            characterizer.leakage_current(cell, 0.6, vt_shift=s)
            for s in SHIFTS[3:5]
        ]
        last = sweep_leakages(plan, 0.6, SHIFTS[5:])
        assert first + middle + last == expected


class TestPlanMemo:
    def test_same_corner_returns_same_plan(self, characterizer, cells):
        first = characterizer.corner_plan(cells["INV"])
        again = characterizer.corner_plan(cells["INV"])
        assert first is again

    def test_one_plan_per_cell(self, characterizer, cells):
        # Supplies and loads are call arguments: one decode per cell.
        inv = characterizer.corner_plan(cells["INV"])
        nand = characterizer.corner_plan(cells["NAND2"])
        assert inv is not nand
        characterizer.propagation_delay(cells["INV"], 0.8, 10e-15)
        characterizer.propagation_delay(cells["INV"], 0.9, 0.0)
        characterizer.fanout_delay(cells["INV"], 0.9, fanout=3)
        assert characterizer.corner_plan(cells["INV"]) is inv

    def test_uncached_characterizer_builds_fresh_plans(self, cells):
        # The uncached reference is a fresh characterizer: it decodes
        # its own plan.
        first = CellCharacterizer(soi_low_vt()).corner_plan(cells["INV"])
        again = CellCharacterizer(soi_low_vt()).corner_plan(cells["INV"])
        assert first is not again


class TestValidation:
    def test_bad_vdd_rejected(self, characterizer, cells):
        plan = characterizer.corner_plan(cells["INV"])
        with pytest.raises(CharacterizationError, match="vdd"):
            sweep_delays(plan, 0.0, 0.0, SHIFTS)
        with pytest.raises(CharacterizationError, match="vdd"):
            sweep_leakages(plan, 0.0, SHIFTS)

    def test_negative_load_rejected(self, characterizer, cells):
        plan = characterizer.corner_plan(cells["INV"])
        with pytest.raises(CharacterizationError, match="load"):
            sweep_delays(plan, 1.0, -1e-15, SHIFTS)

    def test_bad_probability_rejected(self, characterizer, cells):
        plan = characterizer.corner_plan(cells["INV"])
        with pytest.raises(
            CharacterizationError, match="output_high_probability"
        ):
            sweep_leakages(plan, 1.0, SHIFTS, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, characterizer, cells, bad):
        plan = characterizer.corner_plan(cells["NAND2"])
        shifts = [0.0, bad]
        for kernel in (
            lambda: sweep_delays(plan, 0.5, 10e-15, shifts),
            lambda: sweep_leakages(plan, 0.5, shifts),
            lambda: plan.operating_points((0.5, 0.5), shifts),
            lambda: plan.delay(0.5, bad),
        ):
            with pytest.raises(CharacterizationError, match="vt_shift"):
                kernel()

    def test_unequal_lengths_rejected(self, characterizer, cells):
        plan = characterizer.corner_plan(cells["INV"])
        with pytest.raises(CharacterizationError, match="supplies"):
            plan.delays((0.5, 0.6), (0.0,))
        with pytest.raises(CharacterizationError, match="supplies"):
            plan.leakages((0.5,), (0.0, 0.1))


class TestObservability:
    def test_plan_builds_counted_on_miss_only(self, cells):
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt())
            characterizer.corner_plan(cells["INV"])
            characterizer.corner_plan(cells["INV"])
            characterizer.corner_plan(cells["NAND2"])
            assert obs.counter_value("optimizer.plan_builds") == 2

    def test_samples_batched_counts_evaluations(self, cells):
        # The plan counts every corner it evaluates; the Monte-Carlo
        # analyzer counts its samples.
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt())
            plan = characterizer.corner_plan(cells["INV"])
            sweep_delays(plan, 0.8, 1e-15, SHIFTS)
            sweep_leakages(plan, 0.8, SHIFTS[:4])
            assert obs.counter_value("opplan.points_batched") == (
                len(SHIFTS) + 4
            )
            assert obs.counter_value("variation.samples_batched") == 0
            analyzer = MonteCarloAnalyzer(soi_low_vt(), n_samples=12)
            analyzer.delay_distribution(cells["INV"], 0.8)
            analyzer.leakage_distribution(cells["INV"], 0.8)
            analyzer.leakage_amplification(cells["INV"], 0.8)
            assert obs.counter_value("variation.samples_batched") == 24


class TestDirectBuild:
    def test_constructor_matches_characterizer_entry_point(
        self, characterizer, cells
    ):
        plan = CornerPlan(characterizer, cells["NAND2"])
        via_api = characterizer.corner_plan(cells["NAND2"])
        assert plan is not via_api
        assert sweep_delays(plan, 0.7, 10e-15, SHIFTS) == sweep_delays(
            via_api, 0.7, 10e-15, SHIFTS
        )
        assert sweep_leakages(plan, 0.7, SHIFTS) == sweep_leakages(
            via_api, 0.7, SHIFTS
        )
