"""Unit tests for the Fig. 10 surface and break-even contour."""

import math

import pytest

from repro.analysis.contour import (
    breakeven_bga,
    energy_ratio_surface,
    zero_crossing_cells,
)
from repro.errors import AnalysisError
from repro.power.energy import (
    ModuleEnergyParameters,
    e_soi,
    e_soias,
)


@pytest.fixture
def module():
    return ModuleEnergyParameters(
        name="adder",
        switched_capacitance_f=300e-15,
        leakage_low_vt_a=5e-7,
        leakage_high_vt_a=1e-10,
        back_gate_capacitance_f=250e-15,
        back_gate_swing_v=3.0,
    )


VDD = 1.0
T = 1e-6


class TestBreakevenFormula:
    def test_closed_form_matches_energy_equality(self, module):
        fga = 0.1
        bga_star = breakeven_bga(module, fga, VDD, T)
        assert bga_star is not None
        soi = e_soi(module, fga, VDD, T)
        soias = e_soias(module, fga, min(bga_star, fga), VDD, T)
        if bga_star <= fga:
            assert soias == pytest.approx(soi, rel=1e-9)

    def test_idle_modules_have_higher_breakeven(self, module):
        busy = breakeven_bga(module, 0.9, VDD, T)
        idle = breakeven_bga(module, 0.1, VDD, T)
        assert idle > busy

    def test_no_back_gate_cap_returns_none(self, module):
        free = ModuleEnergyParameters(
            name="x",
            switched_capacitance_f=1e-13,
            leakage_low_vt_a=1e-9,
            leakage_high_vt_a=0.0,
            back_gate_capacitance_f=0.0,
            back_gate_swing_v=0.0,
        )
        assert breakeven_bga(free, 0.5, VDD, T) is None

    def test_validation(self, module):
        with pytest.raises(AnalysisError):
            breakeven_bga(module, 1.5, VDD, T)
        with pytest.raises(AnalysisError):
            breakeven_bga(module, 0.5, 0.0, T)


class TestRatioSurface:
    def test_infeasible_cells_are_none(self, module):
        surface = energy_ratio_surface(
            module, VDD, T, fga_values=[0.01, 0.1], bga_values=[0.05, 0.2]
        )
        # bga 0.05 > fga 0.01 and bga 0.2 > both.
        assert surface.grid.at(0, 0) is None
        assert surface.grid.at(0, 1) is None
        assert surface.grid.at(1, 1) is None
        assert surface.grid.at(1, 0) is not None

    def test_ratio_increases_with_bga(self, module):
        surface = energy_ratio_surface(
            module, VDD, T, [0.5], [0.001, 0.01, 0.1, 0.5]
        )
        row = [surface.grid.at(0, j) for j in range(4)]
        assert row == sorted(row)

    def test_exact_point_matches_grid(self, module):
        surface = energy_ratio_surface(module, VDD, T, [0.2], [0.05])
        assert surface.log10_ratio(0.2, 0.05) == pytest.approx(
            surface.grid.at(0, 0)
        )

    def test_application_point_semantics(self, module):
        surface = energy_ratio_surface(module, VDD, T, [0.2], [0.05])
        winner = surface.application_point("idle-unit", 0.05, 0.0005)
        assert winner.soias_wins
        assert 0.0 < winner.saving_fraction < 1.0
        loser = surface.application_point("busy-unit", 1.0, 0.9)
        assert not loser.soias_wins
        assert loser.saving_fraction < 0.0

    def test_saving_fraction_from_log_ratio(self, module):
        surface = energy_ratio_surface(module, VDD, T, [0.2], [0.05])
        point = surface.application_point("p", 0.1, 0.001)
        assert point.saving_fraction == pytest.approx(
            1.0 - 10.0**point.log10_ratio
        )

    def test_breakeven_contour_clipped_to_feasible(self, module):
        surface = energy_ratio_surface(
            module, VDD, T, [0.001, 0.5], [0.001]
        )
        contour = surface.breakeven_contour([0.001, 0.5])
        # At tiny fga the break-even bga exceeds fga -> None (SOIAS
        # always wins there).
        assert contour[0] is None or contour[0] <= 0.001

    def test_contour_zero_crossing(self, module):
        # Points straddling the contour have opposite-sign log ratios.
        fga = 0.3
        bga_star = breakeven_bga(module, fga, VDD, T)
        assert bga_star is not None and bga_star < fga
        surface = energy_ratio_surface(module, VDD, T, [fga], [0.001])
        below = surface.log10_ratio(fga, bga_star * 0.5)
        above = surface.log10_ratio(fga, min(bga_star * 2.0, fga))
        assert below < 0.0 < above


@pytest.fixture(scope="module")
def datapath_modules():
    """Eq. 3/4 parameters of the contour verb's three units (8 bit)."""
    from repro.core.flow import LowVoltageDesignFlow
    from repro.core.scenarios import standard_datapath

    flow = LowVoltageDesignFlow(vdd=VDD)
    modules = {}
    for name, unit in standard_datapath(width=8, stimulus_vectors=80).items():
        if name in ("adder", "shifter", "multiplier"):
            report = flow.unit_activity(unit.netlist, unit.vectors)
            modules[name] = flow.module_parameters(unit.netlist, report)
    return modules


def _closed_form_cells(module, t_cycle_s, fgas, bgas):
    """Cells whose defined corners lie on both sides of bga*(fga)."""
    cells = []
    for i in range(len(fgas) - 1):
        for j in range(len(bgas) - 1):
            sides = set()
            for fga in fgas[i : i + 2]:
                bga_star = breakeven_bga(module, fga, VDD, t_cycle_s)
                for bga in bgas[j : j + 2]:
                    if bga <= fga and bga != bga_star:
                        sides.add(bga > bga_star)
            if len(sides) == 2:
                cells.append((i, j))
    return tuple(cells)


class TestContourCells:
    def test_zero_crossing_cells_helper(self):
        zs = [
            [-1.0, -0.5, 0.5],
            [-0.5, 0.5, 1.0],
            [None, 1.0, 2.0],
        ]
        assert zero_crossing_cells(zs) == ((0, 0), (0, 1), (1, 0))

    @pytest.mark.parametrize("unit", ["adder", "shifter", "multiplier"])
    @pytest.mark.parametrize("t_cycle_s", [1e-7, 1e-6, 1e-5])
    @pytest.mark.parametrize("n", [24, 96])
    def test_cells_match_closed_form_breakeven(
        self, datapath_modules, unit, t_cycle_s, n
    ):
        # The physical oracle: a cell straddles the break-even contour
        # exactly when its feasible (bga <= fga) corners fall on both
        # sides of the closed-form bga*(fga).
        module = datapath_modules[unit]
        grid = [i / n for i in range(1, n + 1)]
        surface = energy_ratio_surface(module, VDD, t_cycle_s, grid, grid)
        assert zero_crossing_cells(surface.grid.zs) == _closed_form_cells(
            module, t_cycle_s, surface.grid.xs, surface.grid.ys
        )


class TestLogRatioMath:
    def test_log10_consistency(self, module):
        surface = energy_ratio_surface(module, VDD, T, [0.2], [0.01])
        fga, bga = 0.2, 0.01
        expected = math.log10(
            e_soias(module, fga, bga, VDD, T) / e_soi(module, fga, VDD, T)
        )
        assert surface.log10_ratio(fga, bga) == pytest.approx(expected)
