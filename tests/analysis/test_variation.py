"""Tests for Monte-Carlo V_T variation analysis."""

import math

import pytest

from repro import obs
from repro.analysis.variation import (
    Distribution,
    MonteCarloAnalyzer,
    lognormal_leakage_amplification,
)
from repro.device.technology import soi_low_vt
from repro.errors import AnalysisError
from repro.tech.cells import standard_cells


@pytest.fixture(scope="module")
def inverter():
    return standard_cells()["INV"]


@pytest.fixture(scope="module")
def analyzer():
    return MonteCarloAnalyzer(
        soi_low_vt(), vt_sigma=0.03, n_samples=400, seed=1
    )


class TestDistribution:
    def test_moments(self):
        d = Distribution(samples=(1.0, 2.0, 3.0, 4.0))
        assert d.mean == pytest.approx(2.5)
        assert d.std == pytest.approx(math.sqrt(5.0 / 3.0))
        assert d.coefficient_of_variation == pytest.approx(d.std / 2.5)

    def test_percentiles(self):
        d = Distribution(samples=tuple(float(i) for i in range(101)))
        assert d.percentile(0) == 0.0
        assert d.percentile(50) == pytest.approx(50.0)
        assert d.percentile(100) == 100.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            Distribution(samples=(1.0,))
        with pytest.raises(AnalysisError):
            Distribution(samples=(1.0, 2.0)).percentile(101)

    def test_moments_computed_once_and_cached(self):
        d = Distribution(samples=(3.0, 1.0, 2.0))
        assert d._moments is None
        mean = d.mean
        cached = d._moments
        assert cached is not None
        assert d.std == cached[1] and d.mean == mean
        assert d._moments is cached

    def test_sorted_view_cached_across_percentile_calls(self):
        d = Distribution(samples=(3.0, 1.0, 2.0))
        assert d._ordered is None
        first = d.percentile(50)
        cached = d._ordered
        assert cached == [1.0, 2.0, 3.0]
        assert d.percentile(50) == first
        assert d._ordered is cached


class TestSampling:
    def test_deterministic_by_seed(self, analyzer):
        assert analyzer.sample_vt_shifts() == analyzer.sample_vt_shifts()

    def test_sample_moments_match_sigma(self, analyzer):
        shifts = analyzer.sample_vt_shifts()
        mean = sum(shifts) / len(shifts)
        var = sum((s - mean) ** 2 for s in shifts) / (len(shifts) - 1)
        assert abs(mean) < 0.01
        assert math.sqrt(var) == pytest.approx(0.03, rel=0.2)

    def test_zero_sigma_collapses(self, inverter):
        tight = MonteCarloAnalyzer(
            soi_low_vt(), vt_sigma=0.0, n_samples=10
        )
        d = tight.delay_distribution(inverter, 1.0)
        assert d.coefficient_of_variation < 1e-12


class TestLeakageAmplification:
    def test_closed_form_value(self):
        # sigma_ln = 0.03 * ln10 / 0.066 ~ 1.047 -> exp(0.548) ~ 1.73.
        amplification = lognormal_leakage_amplification(0.03, 0.066)
        assert amplification == pytest.approx(1.73, rel=0.02)

    def test_measured_matches_closed_form(self, analyzer, inverter):
        measured = analyzer.leakage_amplification(inverter, 1.0)
        predicted = lognormal_leakage_amplification(0.03, 0.066)
        assert measured == pytest.approx(predicted, rel=0.25)

    def test_stacked_cell_amplification_is_mean_shift_factor(self):
        # In the subthreshold window a common shift scales every off
        # device, stacked or single, by exp(-dVT / (n phi_t)) (both soi
        # flavours share n phi_t), so the measured amplification is
        # exactly the sample mean of that factor; the lognormal closed
        # form estimates the same mean.
        technology = soi_low_vt()
        nmos = technology.transistors.nmos
        n_phi = nmos.ideality * nmos.thermal_voltage
        vdd = 0.6
        analyzer = MonteCarloAnalyzer(
            technology, vt_sigma=0.03, n_samples=400, seed=5
        )
        shifts = analyzer.sample_vt_shifts()
        assert min(shifts) > nmos.dibl * vdd - nmos.vt0
        with obs.enabled_scope():
            measured = analyzer.leakage_amplification(
                standard_cells()["NAND3"], vdd
            )
            # All draws in the window: only the shift-0 reference solves.
            assert obs.counter_value("leakage.stack_solves") == 1
        # The stack memo keys shifts to 1e-6 V, so a later draw in the
        # same bucket is served the first one's value.
        first = {}
        for s in shifts:
            first.setdefault(round(s, 6), s)
        expected = math.fsum(
            math.exp(-first[round(s, 6)] / n_phi) for s in shifts
        ) / len(shifts)
        assert measured == pytest.approx(expected, rel=1e-12)
        assert measured == pytest.approx(
            lognormal_leakage_amplification(0.03, nmos.subthreshold_swing),
            rel=0.25,
        )

    def test_amplification_grows_with_sigma(self, inverter):
        small = MonteCarloAnalyzer(
            soi_low_vt(), vt_sigma=0.01, n_samples=300, seed=2
        ).leakage_amplification(inverter, 1.0)
        large = MonteCarloAnalyzer(
            soi_low_vt(), vt_sigma=0.05, n_samples=300, seed=2
        ).leakage_amplification(inverter, 1.0)
        assert large > small > 1.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            lognormal_leakage_amplification(-0.01, 0.066)


class TestDelaySpread:
    def test_spread_grows_as_vdd_falls(self, analyzer, inverter):
        # The low-voltage variation penalty: CV(delay) explodes as the
        # overdrive shrinks.
        sweep = analyzer.delay_spread_vs_vdd(
            inverter, [1.2, 0.8, 0.5, 0.35]
        )
        cvs = [cv for _, cv in sweep]
        assert cvs == sorted(cvs)
        assert cvs[-1] > 3.0 * cvs[0]

    def test_empty_sweep_rejected(self, analyzer, inverter):
        with pytest.raises(AnalysisError):
            analyzer.delay_spread_vs_vdd(inverter, [])


class TestTimingYield:
    def test_guard_band_exceeds_nominal_solve(self, analyzer, inverter):
        from repro.tech.characterize import CellCharacterizer

        nominal = CellCharacterizer(soi_low_vt())
        target = nominal.propagation_delay(inverter, 0.6, 10e-15)
        guarded_vdd = analyzer.timing_yield_vdd(
            inverter, target, percentile=99.0
        )
        # Slow-corner devices need more supply than the nominal 0.6 V.
        assert guarded_vdd > 0.6

    def test_looser_percentile_needs_less_guard_band(
        self, analyzer, inverter
    ):
        from repro.tech.characterize import CellCharacterizer

        nominal = CellCharacterizer(soi_low_vt())
        target = nominal.propagation_delay(inverter, 0.6, 10e-15)
        strict = analyzer.timing_yield_vdd(inverter, target, percentile=99.0)
        loose = analyzer.timing_yield_vdd(inverter, target, percentile=50.0)
        assert loose < strict

    def test_unreachable_target_rejected(self, analyzer, inverter):
        with pytest.raises(AnalysisError, match="unreachable"):
            analyzer.timing_yield_vdd(inverter, 1e-18)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            MonteCarloAnalyzer(soi_low_vt(), vt_sigma=-1.0)
        with pytest.raises(AnalysisError):
            MonteCarloAnalyzer(soi_low_vt(), n_samples=1)

    @pytest.mark.parametrize(
        "bounds", [(0.0, 1.0), (-0.1, 1.0), (1.0, 1.0), (2.0, 0.1)]
    )
    def test_bad_vdd_bounds_rejected(self, analyzer, inverter, bounds):
        with pytest.raises(AnalysisError, match="bounds"):
            analyzer.timing_yield_vdd(inverter, 1e-9, vdd_bounds=bounds)

    def test_solve_memoizes_per_vdd_distributions(self, inverter):
        # The bisection revisits its bracket endpoints; each distinct
        # V_DD must be evaluated exactly once within one solve.
        analyzer = MonteCarloAnalyzer(
            soi_low_vt(), vt_sigma=0.03, n_samples=50, seed=1
        )
        evaluated = []
        original = analyzer.delay_distribution

        def counting(cell, vdd, load_f=10e-15):
            evaluated.append(vdd)
            return original(cell, vdd, load_f)

        analyzer.delay_distribution = counting
        from repro.tech.characterize import CellCharacterizer

        target = CellCharacterizer(soi_low_vt()).propagation_delay(
            inverter, 0.6, 10e-15
        )
        analyzer.timing_yield_vdd(inverter, target)
        assert len(evaluated) == len(set(evaluated))


class TestBatchedPathParity:
    def test_serial_matches_per_sample_reference(self, inverter):
        analyzer = MonteCarloAnalyzer(
            soi_low_vt(), vt_sigma=0.03, n_samples=24, seed=3
        )
        from repro.tech.characterize import CellCharacterizer

        reference = CellCharacterizer(soi_low_vt())
        shifts = analyzer.sample_vt_shifts()
        assert analyzer.delay_distribution(
            inverter, 0.6, 10e-15
        ).samples == tuple(
            reference.propagation_delay(inverter, 0.6, 10e-15, vt_shift=s)
            for s in shifts
        )
        assert analyzer.leakage_distribution(
            inverter, 0.6
        ).samples == tuple(
            reference.leakage_current(inverter, 0.6, vt_shift=s)
            for s in shifts
        )
