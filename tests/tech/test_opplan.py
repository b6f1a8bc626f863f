"""Unit tests for the decoded corner plan.

Bit-identity against the scalar chain oracle is covered by
``tests/property/test_opplan_differential.py``; this module pins the
plumbing — one plan per cell in the characterizer, cache invalidation,
input validation, the error types on bad corners, and the
``optimizer.plan_builds`` counter.
"""

import dataclasses
import math

import pytest

from repro import obs
from repro.device.technology import soi_low_vt
from repro.errors import CharacterizationError
from repro.tech.characterize import CellCharacterizer
from repro.tech.cells import standard_cells
from tests.tech.chain_oracle import ChainOracle

_CELLS = standard_cells()


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


def _inverter_plan():
    return CellCharacterizer(soi_low_vt()).corner_plan(_CELLS["INV"])


class TestPlanMemoization:
    def test_same_corner_returns_same_plan(self):
        characterizer = CellCharacterizer(soi_low_vt())
        inv = _CELLS["INV"]
        first = characterizer.corner_plan(inv)
        second = characterizer.corner_plan(inv)
        assert first is second

    def test_one_plan_serves_every_load(self):
        # The load is a call argument, so fanout and fixed-load corners
        # come from one decode, each matching its scalar chain.
        characterizer = CellCharacterizer(soi_low_vt())
        inv = _CELLS["INV"]
        plan = characterizer.corner_plan(inv)
        oracle = ChainOracle(soi_low_vt())
        vdds = (0.4, 0.9)
        assert plan.delays(vdds, (0.0, 0.0), fanout=2) == [
            oracle.fanout_delay(inv, vdd, fanout=2) for vdd in vdds
        ]
        assert plan.delays(vdds, (0.0, 0.0), load_f=10e-15) == [
            oracle.propagation_delay(inv, vdd, 10e-15) for vdd in vdds
        ]
        characterizer.fanout_delay(inv, 0.5, fanout=2)
        characterizer.propagation_delay(inv, 0.5, 10e-15)
        assert characterizer.corner_plan(inv) is plan

    def test_equal_cells_share_one_plan(self):
        # Cells key the plans by value: an equal copy of a cell is
        # served by the plan already decoded.
        characterizer = CellCharacterizer(soi_low_vt())
        other = dataclasses.replace(_CELLS["INV"])
        assert other is not _CELLS["INV"] and other == _CELLS["INV"]
        plan = characterizer.corner_plan(_CELLS["INV"])
        assert characterizer.corner_plan(other) is plan

    def test_uncached_characterizer_builds_fresh_plans(self):
        # The uncached reference is a fresh characterizer per query.
        inv = _CELLS["INV"]
        first = CellCharacterizer(soi_low_vt()).corner_plan(inv)
        second = CellCharacterizer(soi_low_vt()).corner_plan(inv)
        assert first is not second

    def test_plan_builds_counter(self):
        inv = _CELLS["INV"]
        nand = _CELLS["NAND2"]
        with obs.enabled_scope():
            characterizer = CellCharacterizer(soi_low_vt())
            characterizer.corner_plan(inv)
            characterizer.corner_plan(inv)  # already decoded
            characterizer.corner_plan(nand)
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.plan_builds"] == 2

    def test_plan_builds_counter_uncached(self):
        # Scalar queries decode the cell's plan once; a fresh
        # characterizer decodes again.
        inv = _CELLS["INV"]
        with obs.enabled_scope():
            for _ in range(2):
                characterizer = CellCharacterizer(soi_low_vt())
                characterizer.fanout_delay(inv, 1.0)
                characterizer.leakage_current(inv, 1.0)
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.plan_builds"] == 2


class TestValidation:
    def test_negative_load_rejected(self):
        with pytest.raises(CharacterizationError, match="load"):
            _inverter_plan().delays((1.0,), (0.0,), load_f=-1e-15)

    def test_bad_fanout_rejected(self):
        with pytest.raises(CharacterizationError, match="fanout"):
            _inverter_plan().delays((1.0,), (0.0,), fanout=0)

    def test_bad_probability_rejected(self):
        plan = _inverter_plan()
        for kernel in (plan.operating_points, plan.leakages):
            with pytest.raises(
                CharacterizationError, match="output_high_probability"
            ):
                kernel((1.0,), (0.0,), output_high_probability=1.5)

    def test_one_point_delay_validates_fanout(self):
        with pytest.raises(CharacterizationError, match="fanout"):
            _inverter_plan().delay(1.0, fanout=0)


class TestErrorParity:
    """Every kernel rejects a bad V_DD with CharacterizationError."""

    def test_fanout_mode_nonpositive_vdd(self):
        with pytest.raises(
            CharacterizationError, match="vdd must be positive"
        ):
            _inverter_plan().delays([1.0, 0.0], [0.0, 0.0], fanout=1)

    def test_fixed_load_mode_nonpositive_vdd(self):
        with pytest.raises(
            CharacterizationError, match="vdd must be positive"
        ):
            _inverter_plan().delays([-0.5], [0.0], load_f=10e-15)

    def test_leakages_nonpositive_vdd(self):
        with pytest.raises(
            CharacterizationError, match="vdd must be positive"
        ):
            _inverter_plan().leakages([0.0], [0.0])

    @pytest.mark.parametrize("vdd", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fanout", [None, 1])
    def test_non_finite_vdd_rejected_by_every_kernel(self, vdd, fanout):
        plan = _inverter_plan()
        load = {"load_f": 10e-15} if fanout is None else {"fanout": 1}
        for kernel in (
            lambda: plan.delays((0.5, vdd), (0.0, 0.0), **load),
            lambda: plan.delay(vdd, 0.0, **load),
            lambda: plan.supplies((vdd,), **load),
            lambda: plan.operating_points((vdd,), (0.0,), **load),
            lambda: plan.supply(vdd, **load),
            lambda: plan.leakages((vdd,), (0.0,)),
        ):
            with pytest.raises(CharacterizationError, match="vdd"):
                kernel()

    @pytest.mark.parametrize("vdd", [math.nan, math.inf])
    def test_fanout_delay_rejects_non_finite_vdd(self, vdd):
        with pytest.raises(CharacterizationError, match="vdd"):
            CellCharacterizer(soi_low_vt()).fanout_delay(_CELLS["INV"], vdd)
