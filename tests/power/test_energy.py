"""Unit tests for the Eq. 3/4 energy models and their variants."""

import math

import pytest

from repro.analysis.comparator import TechnologyComparator
from repro.analysis.contour import breakeven_bga
from repro.circuits.builders import ripple_carry_adder
from repro.device.technology import soi_low_vt, soias_technology
from repro.errors import AnalysisError
from repro.power.energy import (
    ModuleEnergyParameters,
    e_mtcmos,
    e_soi,
    e_soias,
    e_soias_gated,
    e_vtcmos,
    energy_ratio_soias_vs_soi,
    module_parameters_from_activity,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors


@pytest.fixture
def module():
    return ModuleEnergyParameters(
        name="adder",
        switched_capacitance_f=500e-15,
        leakage_low_vt_a=1e-7,
        leakage_high_vt_a=1e-11,
        back_gate_capacitance_f=2e-12,
        back_gate_swing_v=3.0,
    )


VDD = 1.0
T_CYCLE = 1e-6  # 1 MHz, the paper's operating class


class TestEq3:
    def test_terms_add_up(self, module):
        energy = e_soi(module, fga=0.5, vdd=VDD, t_cycle_s=T_CYCLE)
        switching = 0.5 * 500e-15 * VDD * VDD
        leak = 1e-7 * VDD * T_CYCLE
        assert energy == pytest.approx(switching + leak)

    def test_leakage_burns_even_when_idle(self, module):
        idle = e_soi(module, fga=0.0, vdd=VDD, t_cycle_s=T_CYCLE)
        assert idle == pytest.approx(1e-7 * VDD * T_CYCLE)

    def test_validation(self, module):
        with pytest.raises(AnalysisError):
            e_soi(module, fga=1.5, vdd=VDD, t_cycle_s=T_CYCLE)
        with pytest.raises(AnalysisError):
            e_soi(module, fga=0.5, vdd=0.0, t_cycle_s=T_CYCLE)


class TestEq4:
    def test_terms_add_up(self, module):
        energy = e_soias(
            module, fga=0.5, bga=0.1, vdd=VDD, t_cycle_s=T_CYCLE
        )
        switching = 0.5 * 500e-15
        back_gate = 0.1 * 2e-12 * 9.0
        active_leak = 0.5 * 1e-7 * T_CYCLE
        standby_leak = 0.5 * 1e-11 * T_CYCLE
        assert energy == pytest.approx(
            switching + back_gate + active_leak + standby_leak
        )

    def test_idle_module_wins_big(self, module):
        # fga -> 0: SOIAS retains only high-V_T leakage; SOI leaks at
        # low V_T continuously.
        soi = e_soi(module, fga=0.001, vdd=VDD, t_cycle_s=T_CYCLE)
        soias = e_soias(
            module, fga=0.001, bga=0.0005, vdd=VDD, t_cycle_s=T_CYCLE
        )
        assert soias < 0.25 * soi

    def test_busy_module_pays_overhead(self, module):
        # fga = 1 with bga > 0: SOIAS adds back-gate energy and wins
        # nothing on leakage.
        soi = e_soi(module, fga=1.0, vdd=VDD, t_cycle_s=T_CYCLE)
        soias = e_soias(
            module, fga=1.0, bga=0.5, vdd=VDD, t_cycle_s=T_CYCLE
        )
        assert soias > soi

    def test_bga_above_fga_rejected(self, module):
        with pytest.raises(AnalysisError, match="bga"):
            e_soias(module, fga=0.1, bga=0.2, vdd=VDD, t_cycle_s=T_CYCLE)

    def test_ratio_below_one_at_low_duty(self, module):
        ratio = energy_ratio_soias_vs_soi(
            module, fga=0.01, bga=0.001, vdd=VDD, t_cycle_s=T_CYCLE
        )
        assert ratio < 1.0


class TestVariants:
    def test_mtcmos_control_charges_to_vdd(self, module):
        energy = e_mtcmos(
            module, fga=0.5, bga=0.1, vdd=VDD, t_cycle_s=T_CYCLE
        )
        soias = e_soias(
            module, fga=0.5, bga=0.1, vdd=VDD, t_cycle_s=T_CYCLE
        )
        # Same algebra, but control swing is V_DD = 1 V < 3 V back-gate
        # swing, so MTCMOS control overhead is smaller here.
        assert energy < soias

    def test_mtcmos_custom_control_cap(self, module):
        small = e_mtcmos(
            module, 0.5, 0.1, VDD, T_CYCLE,
            sleep_control_capacitance_f=1e-13,
        )
        large = e_mtcmos(
            module, 0.5, 0.1, VDD, T_CYCLE,
            sleep_control_capacitance_f=1e-11,
        )
        assert small < large

    def test_vtcmos_large_swing_is_expensive(self, module):
        cheap = e_vtcmos(
            module, 0.5, 0.1, VDD, T_CYCLE,
            well_capacitance_f=5e-12, body_bias_swing_v=1.0,
        )
        costly = e_vtcmos(
            module, 0.5, 0.1, VDD, T_CYCLE,
            well_capacitance_f=5e-12, body_bias_swing_v=4.0,
        )
        # Quadratic in swing: 16x on the control term.
        assert costly > cheap

    def test_vtcmos_validation(self, module):
        with pytest.raises(AnalysisError):
            e_vtcmos(
                module, 0.5, 0.1, VDD, T_CYCLE,
                well_capacitance_f=-1.0, body_bias_swing_v=1.0,
            )


class TestParameterValidation:
    def test_high_vt_leakage_cannot_exceed_low(self):
        with pytest.raises(AnalysisError, match="high-V_T"):
            ModuleEnergyParameters(
                name="bad",
                switched_capacitance_f=1e-13,
                leakage_low_vt_a=1e-12,
                leakage_high_vt_a=1e-9,
                back_gate_capacitance_f=0.0,
                back_gate_swing_v=0.0,
            )

    def test_negative_field_rejected(self):
        with pytest.raises(AnalysisError):
            ModuleEnergyParameters(
                name="bad",
                switched_capacitance_f=-1.0,
                leakage_low_vt_a=0.0,
                leakage_high_vt_a=0.0,
                back_gate_capacitance_f=0.0,
                back_gate_swing_v=0.0,
            )

    def test_with_back_gate_swing(self, module):
        assert module.with_back_gate_swing(1.5).back_gate_swing_v == 1.5


#: Every entry point of the Eq. 3/4 algebra, as (module, vdd, t_cycle)
#: -> energy, saving or break-even.
ENERGY_ENTRY_POINTS = {
    "e_soi": lambda m, vdd, t: e_soi(m, 0.5, vdd, t),
    "e_soias": lambda m, vdd, t: e_soias(m, 0.5, 0.1, vdd, t),
    "e_mtcmos": lambda m, vdd, t: e_mtcmos(m, 0.5, 0.1, vdd, t),
    "e_vtcmos": lambda m, vdd, t: e_vtcmos(m, 0.5, 0.1, vdd, t, 6e-12, 3.0),
    "e_soias_gated": lambda m, vdd, t: e_soias_gated(m, 0.5, 0.6, 0.1, vdd, t),
    "breakeven_bga": lambda m, vdd, t: breakeven_bga(m, 0.5, vdd, t),
    "comparator": lambda m, vdd, t: TechnologyComparator(
        m, vdd, t
    ).verdict("soias", 0.5, 0.1).saving_percent,
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("entry", sorted(ENERGY_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "vdd, t_cycle",
        [
            (math.nan, T_CYCLE),
            (math.inf, T_CYCLE),
            (VDD, math.nan),
            (VDD, math.inf),
        ],
    )
    def test_operating_point_rejected(self, module, entry, vdd, t_cycle):
        with pytest.raises(AnalysisError, match="finite"):
            ENERGY_ENTRY_POINTS[entry](module, vdd, t_cycle)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "switched_capacitance_f",
            "leakage_low_vt_a",
            "leakage_high_vt_a",
            "back_gate_capacitance_f",
            "back_gate_swing_v",
        ],
    )
    def test_module_field_rejected(self, module, field, value):
        fields = {
            "name": "bad",
            "switched_capacitance_f": 1e-13,
            "leakage_low_vt_a": 1e-9,
            "leakage_high_vt_a": 1e-12,
            "back_gate_capacitance_f": 1e-12,
            "back_gate_swing_v": 1.0,
            field: value,
        }
        with pytest.raises(AnalysisError, match="finite"):
            ModuleEnergyParameters(**fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_control_capacitance_and_swing_rejected(self, module, value):
        with pytest.raises(AnalysisError, match="finite"):
            e_mtcmos(module, 0.5, 0.1, VDD, T_CYCLE, value)
        with pytest.raises(AnalysisError, match="finite"):
            e_vtcmos(module, 0.5, 0.1, VDD, T_CYCLE, value, 3.0)
        with pytest.raises(AnalysisError, match="finite"):
            e_vtcmos(module, 0.5, 0.1, VDD, T_CYCLE, 6e-12, value)


class TestExtractionFromActivity:
    @pytest.fixture(scope="class")
    def extracted(self):
        technology = soias_technology()
        adder = ripple_carry_adder(8)
        vectors = random_bus_vectors({"a": 8, "b": 8}, 100, seed=21)
        report = SwitchLevelSimulator(
            adder, technology, 1.0,
            vt_shift=technology.back_gate.vt_shift_at(3.0),
        ).run_vectors(vectors)
        return module_parameters_from_activity(
            adder, report, technology, vdd=1.0
        )

    def test_fields_positive(self, extracted):
        assert extracted.switched_capacitance_f > 0.0
        assert extracted.leakage_low_vt_a > 0.0
        assert extracted.back_gate_capacitance_f > 0.0
        assert extracted.back_gate_swing_v == pytest.approx(3.0)

    def test_leakage_corners_ordered(self, extracted):
        # Low (active) V_T leaks orders of magnitude more than the
        # standby corner.
        assert extracted.leakage_low_vt_a > 100.0 * extracted.leakage_high_vt_a

    def test_non_backgated_extraction(self):
        technology = soi_low_vt()
        adder = ripple_carry_adder(4)
        vectors = random_bus_vectors({"a": 4, "b": 4}, 50, seed=5)
        report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors(
            vectors
        )
        module = module_parameters_from_activity(
            adder, report, technology, vdd=1.0
        )
        assert module.back_gate_capacitance_f == 0.0
        assert module.leakage_low_vt_a == pytest.approx(
            module.leakage_high_vt_a
        )
