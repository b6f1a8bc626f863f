"""Unit tests for DC inverter analysis and the minimum-supply floor."""

import pytest

from repro.circuits.dc import InverterDcAnalysis
from repro.device.technology import bulk_cmos_06um, soi_low_vt
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def dc():
    return InverterDcAnalysis(soi_low_vt())


class TestTransferCurve:
    def test_rails_recovered(self, dc):
        # Strong 0 in -> strong 1 out and vice versa.
        assert dc.output_voltage(0.0, 1.0) > 0.95
        assert dc.output_voltage(1.0, 1.0) < 0.05

    def test_monotone_decreasing(self, dc):
        curve = dc.transfer_curve(1.0, points=41)
        outputs = [v for _, v in curve]
        assert all(b <= a + 1e-9 for a, b in zip(outputs, outputs[1:]))

    def test_current_balance_at_solution(self, dc):
        vin, vdd = 0.45, 1.0
        vout = dc.output_voltage(vin, vdd)
        pull_down = dc.nmos.drain_current(vin, vout)
        pull_up = dc.pmos.drain_current(vdd - vin, vdd - vout)
        assert pull_down == pytest.approx(pull_up, rel=1e-6)

    def test_input_range_validated(self, dc):
        with pytest.raises(AnalysisError):
            dc.output_voltage(-0.1, 1.0)
        with pytest.raises(AnalysisError):
            dc.output_voltage(1.5, 1.0)
        with pytest.raises(AnalysisError):
            dc.output_voltage(0.5, 0.0)

    def test_point_count_validated(self, dc):
        with pytest.raises(AnalysisError):
            dc.transfer_curve(1.0, points=2)


class TestSwitchingThreshold:
    def test_fixed_point_property(self, dc):
        vm = dc.switching_threshold(1.0)
        assert dc.output_voltage(vm, 1.0) == pytest.approx(vm, abs=1e-6)

    def test_near_midrail_for_compensated_sizing(self, dc):
        # W_p/W_n = 2 against a 0.45 mobility ratio leaves the
        # threshold slightly below midrail.
        vm = dc.switching_threshold(1.0)
        assert 0.35 < vm < 0.55

    def test_wider_pmos_raises_threshold(self):
        weak = InverterDcAnalysis(soi_low_vt(), 2.0, 2.0)
        strong = InverterDcAnalysis(soi_low_vt(), 2.0, 8.0)
        assert strong.switching_threshold(1.0) > weak.switching_threshold(
            1.0
        )


class TestGainAndMargins:
    def test_peak_gain_exceeds_one_at_nominal(self, dc):
        assert dc.peak_gain(1.0) > 3.0

    def test_gain_negative_through_transition(self, dc):
        vm = dc.switching_threshold(1.0)
        assert dc.gain(vm, 1.0) < -1.0

    def test_margins_positive_and_bounded(self, dc):
        margins = dc.noise_margins(1.0)
        assert margins.is_regenerative
        assert 0.0 < margins.low < 1.0
        assert 0.0 < margins.high < 1.0
        assert margins.vil < margins.vih
        assert margins.worst == min(margins.low, margins.high)

    def test_margins_shrink_with_supply(self, dc):
        big = dc.noise_margins(1.0)
        small = dc.noise_margins(0.2)
        assert small.low < big.low
        assert small.high < big.high

    @pytest.mark.parametrize("vdd", [0.02, 0.03])
    def test_non_regenerative_inverter_has_zero_margins(self, dc, vdd):
        # Peak gain 0.42 at 20 mV and 0.69 at 30 mV: the VTC never
        # reaches unity gain, so there are no unity-gain points and the
        # gate restores nothing.
        assert dc.peak_gain(vdd) <= 1.0
        margins = dc.noise_margins(vdd)
        assert (margins.vil, margins.vih) == (margins.vol, margins.voh)
        assert margins.low == 0.0
        assert margins.high == 0.0
        assert not margins.is_regenerative

    def test_bulk_inverter_margins_at_3v(self):
        dc = InverterDcAnalysis(bulk_cmos_06um())
        margins = dc.noise_margins(3.3)
        assert margins.is_regenerative
        assert margins.worst > 0.8


class TestMinimumSupply:
    def test_floor_is_sub_200mv(self, dc):
        # The paper's aggressive-scaling premise: logic still works far
        # below 1 V; the regeneration floor is ~100 mV class.
        floor = dc.minimum_supply(margin_fraction=0.3)
        assert 0.03 < floor < 0.2

    def test_floor_is_above_the_non_regenerative_supplies(self, dc):
        # With zero margins below unity gain the 10 % floor can no
        # longer sit on the 20 mV search bound.
        assert dc.minimum_supply(0.1) > 0.03

    def test_stricter_margin_raises_floor(self, dc):
        assert dc.minimum_supply(0.35) > dc.minimum_supply(0.25)

    def test_margin_holds_at_the_floor(self, dc):
        floor = dc.minimum_supply(0.3)
        margins = dc.noise_margins(floor)
        assert margins.worst >= 0.3 * floor * 0.98

    def test_impossible_budget_rejected(self, dc):
        with pytest.raises(AnalysisError, match="fails"):
            dc.minimum_supply(0.49)

    def test_parameters_validated(self, dc):
        with pytest.raises(AnalysisError):
            dc.minimum_supply(0.0)
        with pytest.raises(AnalysisError):
            dc.minimum_supply(0.1, vdd_bounds=(1.0, 0.5))
        with pytest.raises(AnalysisError):
            InverterDcAnalysis(soi_low_vt(), nmos_width_um=0.0)
