"""Unit tests for cell templates and register styles."""

import pytest

from repro.device.technology import soi_low_vt
from repro.errors import NetlistError
from repro.tech.cells import (
    Cell,
    RegisterStyle,
    register_styles,
    standard_cells,
)


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


class TestCatalog:
    def test_calls_share_cells_but_not_the_dict(self):
        first, second = standard_cells(), standard_cells()
        assert first == second and first is not second
        assert all(first[name] is second[name] for name in first)
        first["INV"] = first["NAND2"]
        del first["MUX2"]
        assert second["INV"].name == "INV" and "MUX2" in second
        assert standard_cells() == second

    def test_expected_cells_present(self, cells):
        for name in [
            "INV", "BUF", "NAND2", "NAND3", "NOR2", "NOR3",
            "AND2", "OR2", "XOR2", "XNOR2", "AOI21", "OAI21", "MUX2",
        ]:
            assert name in cells

    def test_inverter_truth_table(self, cells):
        inv = cells["INV"]
        assert inv.evaluate([0]) == 1
        assert inv.evaluate([1]) == 0

    @pytest.mark.parametrize(
        "a,b,expected",
        [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
    )
    def test_nand2(self, cells, a, b, expected):
        assert cells["NAND2"].evaluate([a, b]) == expected

    @pytest.mark.parametrize(
        "a,b,expected",
        [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
    )
    def test_xor2(self, cells, a, b, expected):
        assert cells["XOR2"].evaluate([a, b]) == expected

    @pytest.mark.parametrize(
        "a,b,sel,expected",
        [
            (0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0), (1, 1, 0, 1),
            (0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1),
        ],
    )
    def test_mux2_selects(self, cells, a, b, sel, expected):
        assert cells["MUX2"].evaluate([a, b, sel]) == expected

    def test_aoi21(self, cells):
        aoi = cells["AOI21"]
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    expected = 0 if ((a and b) or c) else 1
                    assert aoi.evaluate([a, b, c]) == expected

    def test_oai21(self, cells):
        oai = cells["OAI21"]
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    expected = 0 if ((a or b) and c) else 1
                    assert oai.evaluate([a, b, c]) == expected

    def test_stack_depths_match_logic(self, cells):
        assert cells["NAND2"].nmos_stack_depth == 2
        assert cells["NAND2"].pmos_stack_depth == 1
        assert cells["NOR2"].nmos_stack_depth == 1
        assert cells["NOR2"].pmos_stack_depth == 2


class TestThreeValuedLogic:
    def test_controlling_value_resolves_unknown(self, cells):
        assert cells["NAND2"].evaluate([0, None]) == 1
        assert cells["NOR2"].evaluate([1, None]) == 0
        assert cells["AND2"].evaluate([None, 0]) == 0

    def test_noncontrolling_unknown_stays_unknown(self, cells):
        assert cells["NAND2"].evaluate([1, None]) is None
        assert cells["XOR2"].evaluate([0, None]) is None
        assert cells["INV"].evaluate([None]) is None

    def test_mux_with_unknown_select_but_equal_data(self, cells):
        # If both data inputs agree the select doesn't matter.
        assert cells["MUX2"].evaluate([1, 1, None]) == 1
        assert cells["MUX2"].evaluate([0, 0, None]) == 0
        assert cells["MUX2"].evaluate([0, 1, None]) is None

    def test_wrong_arity_rejected(self, cells):
        with pytest.raises(NetlistError, match="expected 2"):
            cells["NAND2"].evaluate([1])

    def test_non_binary_value_rejected(self, cells):
        with pytest.raises(NetlistError, match="0/1"):
            cells["INV"].evaluate([2])


class TestCellValidation:
    def test_truth_table_length_checked(self):
        with pytest.raises(NetlistError, match="truth table"):
            Cell(
                name="BAD",
                n_inputs=2,
                truth_table=(0, 1),
                nmos_path_widths_um=(1.0,),
                pmos_path_widths_um=(1.0,),
                nmos_count=1,
                pmos_count=1,
                nmos_drains_on_output=1,
                pmos_drains_on_output=1,
                input_nmos_width_um=1.0,
                input_pmos_width_um=1.0,
            )

    def test_truth_table_values_checked(self):
        with pytest.raises(NetlistError, match="0/1"):
            Cell(
                name="BAD",
                n_inputs=1,
                truth_table=(0, 2),
                nmos_path_widths_um=(1.0,),
                pmos_path_widths_um=(1.0,),
                nmos_count=1,
                pmos_count=1,
                nmos_drains_on_output=1,
                pmos_drains_on_output=1,
                input_nmos_width_um=1.0,
                input_pmos_width_um=1.0,
            )


class TestElectricalStructure:
    def test_input_capacitance_positive_and_voltage_dependent(
        self, cells, tech
    ):
        inv = cells["INV"]
        low = inv.input_capacitance(tech, 0.8)
        high = inv.input_capacitance(tech, 2.0)
        assert 0.0 < low < high

    def test_bigger_cells_present_more_capacitance(self, cells, tech):
        assert cells["NAND2"].input_capacitance(tech, 1.0) > cells[
            "INV"
        ].input_capacitance(tech, 1.0)

    def test_series_equivalent_width(self, cells):
        inv = cells["INV"]
        assert inv.series_equivalent_width([4.0, 4.0]) == pytest.approx(2.0)
        assert inv.series_equivalent_width([6.0]) == pytest.approx(6.0)

    def test_output_capacitance_positive(self, cells, tech):
        for cell in cells.values():
            assert cell.output_capacitance(tech, 1.0) > 0.0


class TestRegisterStyles:
    def test_three_styles(self):
        styles = register_styles()
        assert set(styles) == {"C2MOS", "TSPC", "LCLR"}

    def test_fig1_ordering_by_device_count(self):
        styles = register_styles()
        assert (
            styles["C2MOS"].device_count
            > styles["TSPC"].device_count
            > styles["LCLR"].device_count
        )

    def test_switched_capacitance_ordering(self, tech):
        # Fig. 1: C2MOS > TSPC > LCLR at every supply.
        styles = register_styles()
        for vdd in (1.0, 2.0, 3.0):
            values = [
                styles[name].switched_capacitance(tech, vdd)
                for name in ("C2MOS", "TSPC", "LCLR")
            ]
            assert values[0] > values[1] > values[2]

    def test_switched_capacitance_rises_with_vdd(self, tech):
        # Fig. 1: non-linear C means C_sw grows with V_DD.
        style = register_styles()["C2MOS"]
        sweep = [
            style.switched_capacitance(tech, 1.0 + 0.25 * i)
            for i in range(9)
        ]
        assert sweep == sorted(sweep)

    def test_data_activity_scales_only_data_component(self, tech):
        style = register_styles()["TSPC"]
        idle = style.switched_capacitance(tech, 1.5, data_activity=0.0)
        busy = style.switched_capacitance(tech, 1.5, data_activity=1.0)
        assert 0.0 < idle < busy  # clock still burns when data is idle

    def test_invalid_activity_rejected(self, tech):
        with pytest.raises(NetlistError, match="data_activity"):
            register_styles()["TSPC"].switched_capacitance(
                tech, 1.0, data_activity=1.5
            )

    def test_invalid_internal_activity_rejected(self):
        with pytest.raises(NetlistError, match="internal_activity"):
            RegisterStyle(
                name="BAD",
                nmos_count=4,
                pmos_count=4,
                nmos_width_um=2.0,
                pmos_width_um=4.0,
                clock_device_count=2,
                internal_activity=0.0,
                wire_length_um=10.0,
            )
