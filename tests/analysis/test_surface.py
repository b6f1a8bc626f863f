"""Tests for the Fig. 3/4 (V_DD, V_T) energy surface."""

import pytest

from repro import obs
from repro.analysis.surface import _EnergyCell, energy_surface
from repro.core.flow import LowVoltageDesignFlow
from repro.device.technology import soi_low_vt
from repro.errors import AnalysisError

#: Small/fast surface knobs shared by every test: an 11-stage ring on
#: a grid where the 2e7 Hz clock leaves part of the plane infeasible.
STAGES = 11
CLOCK_HZ = 2e7
T_CYCLE = 1.0 / CLOCK_HZ


def _vts(n=5):
    return [0.1 + 0.4 * i / (n - 1) for i in range(n)]


def _vdds(n=5):
    return [0.2 + 1.3 * j / (n - 1) for j in range(n)]


def _surface(**kwargs):
    kwargs.setdefault("stages", STAGES)
    return energy_surface(
        soi_low_vt(), _vts(), _vdds(), T_CYCLE, **kwargs
    )


class TestSurfaceGrid:
    def test_axes_and_orientation(self):
        surface = _surface()
        assert surface.grid.x_name == "vt"
        assert surface.grid.y_name == "vdd"
        assert surface.grid.xs == tuple(_vts())
        assert surface.grid.ys == tuple(_vdds())
        assert len(surface.grid.zs) == len(_vts())

    def test_default_budget_is_ring_period(self):
        surface = _surface()
        assert surface.cycle_stages == 2 * STAGES
        assert surface.target_stage_delay_s == T_CYCLE / (2 * STAGES)

    def test_infeasible_cells_are_none(self):
        # High V_T at the lowest V_DD cannot meet a 2e7 Hz cycle.
        surface = _surface()
        defined = surface.grid.defined_cells()
        total = len(_vts()) * len(_vdds())
        assert 0 < defined < total

    def test_cells_match_direct_model(self):
        surface = _surface()
        cell = _EnergyCell(
            soi_low_vt(), STAGES, 1.0, T_CYCLE,
            surface.target_stage_delay_s,
        )
        for i, vt in enumerate(_vts()):
            for j, vdd in enumerate(_vdds()):
                assert surface.grid.zs[i][j] == cell(vt, vdd)

    def test_cells_match_ring_model(self):
        # The cell's plan kernels and association must be float-for-
        # float the ring model's stage_delay/energy_per_cycle chain.
        from repro.power.optimizer import RingOscillatorModel

        surface = _surface()
        ring = RingOscillatorModel(soi_low_vt(), stages=STAGES)
        for i, vt in enumerate(_vts()):
            for j, vdd in enumerate(_vdds()):
                if ring.stage_delay(vdd, vt) > surface.target_stage_delay_s:
                    assert surface.grid.zs[i][j] is None
                else:
                    point = ring.energy_per_cycle(vdd, vt, T_CYCLE)
                    assert surface.grid.zs[i][j] == point.energy_per_cycle_j

    def test_optimum_locus_rows(self):
        surface = _surface()
        locus = surface.optimum_locus()
        assert locus
        for vt, vdd, energy in locus:
            i = surface.grid.xs.index(vt)
            row = [v for v in surface.grid.zs[i] if v is not None]
            assert energy == min(row)
            assert surface.grid.zs[i][surface.grid.ys.index(vdd)] == energy

    def test_optimum_is_global_minimum(self):
        surface = _surface()
        vdd, vt, energy = surface.optimum()
        defined = [
            value
            for row in surface.grid.zs
            for value in row
            if value is not None
        ]
        assert energy == min(defined)
        assert vt in surface.grid.xs and vdd in surface.grid.ys

    def test_fully_infeasible_surface_raises(self):
        surface = energy_surface(
            soi_low_vt(), _vts(), [0.2, 0.25], 1e-10, stages=STAGES
        )
        assert surface.grid.defined_cells() == 0
        with pytest.raises(AnalysisError, match="no feasible"):
            surface.optimum()


class TestValidation:
    def test_nonpositive_cycle_rejected(self):
        for t_cycle in (0.0, float("nan"), float("inf")):
            with pytest.raises(AnalysisError, match="cycle time"):
                energy_surface(soi_low_vt(), _vts(), _vdds(), t_cycle)

    def test_nonpositive_vdd_rejected(self):
        for vdds in ([0.0, 0.5], [float("nan"), 0.5], [0.5, float("inf")]):
            with pytest.raises(AnalysisError, match="vdd values"):
                energy_surface(
                    soi_low_vt(), _vts(), vdds, T_CYCLE, stages=STAGES
                )

    def test_nonfinite_vt_rejected(self):
        for vts in ([0.2, float("nan")], [float("-inf"), 0.2]):
            with pytest.raises(AnalysisError, match="vt values"):
                energy_surface(
                    soi_low_vt(), vts, _vdds(), T_CYCLE, stages=STAGES
                )

    def test_bad_activity_rejected(self):
        for activity in (0.0, 2.5, float("nan")):
            with pytest.raises(AnalysisError, match="activity"):
                _surface(activity=activity)

    def test_bad_cycle_stages_rejected(self):
        with pytest.raises(AnalysisError, match="cycle_stages"):
            _surface(cycle_stages=0)

    def test_negative_refine_levels_rejected(self):
        with pytest.raises(AnalysisError, match="refine_levels"):
            _surface(refine_levels=-1)

    def test_excessive_refine_levels_rejected(self):
        with pytest.raises(AnalysisError, match="refine_levels"):
            _surface(refine_levels=11)

    def test_bad_band_rejected(self):
        with pytest.raises(AnalysisError, match="refine_band"):
            _surface(refine_levels=1, refine_band=0.0)

    def test_refinement_needs_two_points_per_axis(self):
        with pytest.raises(AnalysisError, match="two points"):
            energy_surface(
                soi_low_vt(), [0.2], _vdds(), T_CYCLE,
                stages=STAGES, refine_levels=1,
            )


class TestRefinement:
    def test_refined_absent_by_default(self):
        assert _surface().refined is None

    def test_refined_points_match_uniform_grid(self):
        surface = _surface(refine_levels=2)
        refined = surface.refined
        assert refined.levels == 2
        uniform = energy_surface(
            soi_low_vt(), refined.xs, refined.ys, T_CYCLE,
            stages=STAGES,
        )
        for (i, j), value in refined.known().items():
            assert uniform.grid.zs[i][j] == value

    def test_refinement_skips_flat_regions(self):
        surface = _surface(refine_levels=2)
        refined = surface.refined
        assert refined.cells_refined > 0
        assert refined.cells_skipped > 0
        assert 0.0 < refined.coverage < 1.0
        assert refined.evaluated == len(refined.indices)
        assert refined.total_points == len(refined.xs) * len(refined.ys)

    def test_axes_subdivided_per_level(self):
        refined = _surface(refine_levels=3).refined
        assert len(refined.xs) == (len(_vts()) - 1) * 8 + 1
        assert len(refined.ys) == (len(_vdds()) - 1) * 8 + 1
        assert refined.xs[0] == _vts()[0] and refined.xs[-1] == _vts()[-1]

    def test_value_at_unevaluated_point_raises(self):
        refined = _surface(refine_levels=2).refined
        evaluated = set(refined.indices)
        unevaluated = next(
            (i, j)
            for i in range(len(refined.xs))
            for j in range(len(refined.ys))
            if (i, j) not in evaluated
        )
        with pytest.raises(AnalysisError, match="not evaluated"):
            refined.value_at(*unevaluated)
        i, j = refined.indices[0]
        assert refined.value_at(i, j) == refined.values[0]

    def test_base_grid_unchanged(self):
        assert _surface(refine_levels=1).grid.zs == _surface().grid.zs

    def test_refinement_tracks_row_minima(self):
        # Every base cell holding a row's minimum must be refined:
        # its best corner is trivially within the band of itself.
        surface = _surface(refine_levels=1, refine_band=0.1)
        known = surface.refined.known()
        locus = surface.optimum_locus()
        assert locus
        for vt, vdd, _energy in locus:
            i = 2 * surface.grid.xs.index(vt)
            j = 2 * surface.grid.ys.index(vdd)
            neighbours = [
                known.get((i + di, j + dj))
                for di in (-1, 1)
                for dj in (-1, 1)
                if 0 <= i + di < len(surface.refined.xs)
                and 0 <= j + dj < len(surface.refined.ys)
            ]
            assert any(value is not None for value in neighbours)

    def test_counters(self):
        with obs.enabled_scope():
            _surface(refine_levels=1)
            counters = obs.snapshot()["counters"]
        assert counters["surface.cells_refined"] > 0
        assert counters["surface.cells_skipped"] > 0


class TestExecutionContract:
    def test_flow_passthrough_spans(self):
        flow = LowVoltageDesignFlow(
            technology=soi_low_vt(), clock_hz=CLOCK_HZ
        )
        with obs.enabled_scope():
            surface = flow.energy_surface(
                _vts(), _vdds(), stages=STAGES, refine_levels=1
            )
            timers = obs.snapshot()["timers"]
        assert "flow.energy_surface" in timers
        assert "analysis.energy_surface" in timers
        assert "analysis.surface_refine" in timers
        assert surface.t_cycle_s == flow.t_cycle_s
        reference = _surface(refine_levels=1)
        assert surface.grid.zs == reference.grid.zs
