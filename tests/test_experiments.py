"""Cross-experiment shape regressions (DESIGN.md acceptance criteria).

The benchmarks assert each experiment's shape in isolation; this file
checks the *relations between* experiments that the paper's argument
depends on — with smaller workloads so it stays fast in the unit-test
run.
"""

import math

import pytest

from repro.device.mosfet import Mosfet
from repro.device.technology import bulk_cmos_06um, soi_low_vt, soias_technology
from repro.isa.profiler import profile_program
from repro.isa.workloads import espresso_like, idea, li_like
from repro.power.optimizer import FixedThroughputOptimizer, RingOscillatorModel
from repro.tech.cells import register_styles


@pytest.fixture(scope="module")
def profiles():
    return {
        "espresso": profile_program(espresso_like.build_program(24, 8)),
        "li": profile_program(li_like.build_program(32, 20)),
        "idea": profile_program(idea.build_program(idea.random_blocks(4))),
    }


class TestCrossTableRelations:
    """Tables 1-3 only make the paper's point *together*."""

    def test_idea_multiplier_dominates_spec_codes(self, profiles):
        assert profiles["idea"].fga("multiplier") > 10.0 * max(
            profiles["espresso"].fga("multiplier"),
            profiles["li"].fga("multiplier"),
            1e-6,
        ) - 1e-6

    def test_espresso_shifter_dominates_li(self, profiles):
        assert (
            profiles["espresso"].fga("shifter")
            > profiles["li"].fga("shifter")
        )

    def test_adder_is_the_busiest_unit_everywhere(self, profiles):
        for profile in profiles.values():
            assert profile.fga("adder") == max(
                profile.fga(u) for u in ("adder", "shifter", "multiplier")
            )

    def test_run_structure_differs_by_unit(self, profiles):
        # Adder uses cluster; multiplier/shifter uses are isolated
        # (mean run length ~1) — the structure Fig. 7 illustrates.
        for profile in profiles.values():
            adder_runs = profile.stats("adder").mean_run_length
            assert adder_runs > 1.5
        idea_mult = profiles["idea"].stats("multiplier").mean_run_length
        assert idea_mult == pytest.approx(1.0, abs=0.3)


class TestDeviceCalibrationCoherence:
    """Figs. 2 and 6 must describe the same transistor physics."""

    def test_fig6_vt_pair_spans_fig2_band(self):
        back_gate = soias_technology().back_gate
        assert back_gate.vt_at(0.0) > 0.40
        assert back_gate.vt_at(3.0) < 0.25

    def test_off_current_gap_follows_swing_in_both(self):
        # Fig. 2's V_T pair and Fig. 6's V_T pair must both obey
        # gap = dVT / S with the same S.
        # Anchor at the standby V_T so both shifts stay in the
        # subthreshold regime (effective V_T > 0).
        technology = soi_low_vt(vt0=0.45)
        device = Mosfet(technology.transistors.nmos)
        swing = technology.transistors.nmos.subthreshold_swing
        for delta_vt in (0.15, 0.264):
            ratio = device.off_current(1.0, vt_shift=-delta_vt) / (
                device.off_current(1.0)
            )
            assert math.log10(ratio) == pytest.approx(
                delta_vt / swing, rel=1e-6
            )

    def test_on_off_window_is_four_decades_class(self):
        # The Fig. 6 calibration anchor.
        device = Mosfet(soi_low_vt().transistors.nmos)
        window = math.log10(device.on_current(1.0) / device.off_current(1.0))
        assert 3.5 < window < 5.0


class TestFig1FeedsFig4:
    """The non-linear C and the optimum point share one C(V) model."""

    def test_register_capacitance_uses_the_gate_model(self):
        technology = bulk_cmos_06um()
        style = register_styles()["TSPC"]
        ratio = style.switched_capacitance(
            technology, 3.0
        ) / style.switched_capacitance(technology, 1.0)
        gate_ratio = technology.gate_cap.switched_capacitance(
            3.0
        ) / technology.gate_cap.switched_capacitance(1.0)
        # The register rise is driven by (and bounded by) the gate
        # model's rise.
        assert 1.0 < ratio <= gate_ratio + 0.05

    def test_optimum_supply_below_one_volt(self):
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        best = optimizer.optimum(target, vt_bounds=(0.03, 0.45))
        assert best.vdd < 1.0

    def test_fixed_delay_locus_is_fig3(self):
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 2.0 * ring.stage_delay(1.0, 0.2)
        vdds = [
            optimizer.solve_vdd_for_delay(target, vt)
            for vt in (0.1, 0.2, 0.3)
        ]
        assert vdds == sorted(vdds)
