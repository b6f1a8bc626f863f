"""Persistent-characterization and Monte-Carlo store integration tests."""

import pytest

from repro import obs
from repro.analysis.variation import MonteCarloAnalyzer
from repro.device.technology import soi_low_vt, soias_technology
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
)
from repro.store import ResultStore
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer


@pytest.fixture()
def store(tmp_path):
    return ResultStore.at(str(tmp_path / "cache"))


class TestCharacterizerStore:
    def test_flush_then_restore_bit_identical(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        first = CellCharacterizer(technology, store=store)
        reference = [
            first.propagation_delay(inv, vdd, 10e-15)
            for vdd in (0.4, 0.7, 1.0)
        ] + [first.leakage_current(inv, 1.0)]
        written = first.flush_store()
        assert written > 0

        second = CellCharacterizer(technology, store=store)
        restored = [
            second.propagation_delay(inv, vdd, 10e-15)
            for vdd in (0.4, 0.7, 1.0)
        ] + [second.leakage_current(inv, 1.0)]
        assert restored == reference
        assert second.store_restored > 0

    def test_restored_entries_count_as_memo_hits(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        first = CellCharacterizer(technology, store=store)
        first.propagation_delay(inv, 1.0, 10e-15)
        first.flush_store()

        second = CellCharacterizer(technology, store=store)
        second.propagation_delay(inv, 1.0, 10e-15)
        info = second.cache_info()
        assert info.hits >= 1

    def test_different_technology_does_not_cross_pollinate(self, store):
        inv = standard_cells()["INV"]
        first = CellCharacterizer(soias_technology(), store=store)
        first.propagation_delay(inv, 1.0, 10e-15)
        first.flush_store()

        other = CellCharacterizer(soi_low_vt(), store=store)
        other.propagation_delay(inv, 1.0, 10e-15)
        assert other.store_restored == 0

    def test_flush_preserves_other_cells_entries(self, store):
        technology = soias_technology()
        cells = standard_cells()
        first = CellCharacterizer(technology, store=store)
        first.propagation_delay(cells["INV"], 1.0, 10e-15)
        first.propagation_delay(cells["NAND2"], 1.0, 10e-15)
        first.flush_store()

        # Touches only NAND2, then flushes: INV entries must survive.
        second = CellCharacterizer(technology, store=store)
        second.propagation_delay(cells["NAND2"], 0.8, 10e-15)
        second.flush_store()

        third = CellCharacterizer(technology, store=store)
        third.propagation_delay(cells["INV"], 1.0, 10e-15)
        assert third.store_restored > 0

    def test_flush_without_store_is_noop(self):
        characterizer = CellCharacterizer(soias_technology())
        assert characterizer.flush_store() == 0

    def test_uncached_mode_ignores_store(self, store):
        characterizer = CellCharacterizer(
            soias_technology(), cache=False, store=store
        )
        inv = standard_cells()["INV"]
        characterizer.propagation_delay(inv, 1.0, 10e-15)
        assert characterizer.flush_store() == 0

    def test_clear_cache_restages_persisted_entries(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        characterizer = CellCharacterizer(technology, store=store)
        reference = characterizer.propagation_delay(inv, 1.0, 10e-15)
        characterizer.flush_store()
        characterizer.clear_cache()
        assert characterizer.propagation_delay(inv, 1.0, 10e-15) == reference
        assert characterizer.store_restored > 0


class TestRingStore:
    def test_warm_optimum_matches_cold(self, store):
        technology = soi_low_vt()
        cold_ring = RingOscillatorModel(technology, store=store)
        target = 4.0 * cold_ring.stage_delay(1.0, 0.2)
        cold = FixedThroughputOptimizer(cold_ring).optimum(target)
        assert cold_ring.flush_store() > 0

        warm_ring = RingOscillatorModel(technology, store=store)
        warm = FixedThroughputOptimizer(warm_ring).optimum(target)
        assert warm == cold
        assert warm_ring._characterizer.store_restored > 0

    def test_flush_without_store_is_noop(self):
        ring = RingOscillatorModel(soi_low_vt())
        ring.stage_delay(1.0, 0.2)
        assert ring.flush_store() == 0


class TestMonteCarloStore:
    def test_distributions_match_unstored_run(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        stored = MonteCarloAnalyzer(
            technology, n_samples=16, store=store
        )
        plain = MonteCarloAnalyzer(technology, n_samples=16)
        assert (
            stored.delay_distribution(inv, 1.0).samples
            == plain.delay_distribution(inv, 1.0).samples
        )
        assert (
            stored.leakage_distribution(inv, 1.0).samples
            == plain.leakage_distribution(inv, 1.0).samples
        )

    def test_second_run_restores_all_samples(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        first = MonteCarloAnalyzer(technology, n_samples=16, store=store)
        reference = first.delay_distribution(inv, 1.0).samples

        with obs.enabled_scope():
            second = MonteCarloAnalyzer(
                technology, n_samples=16, store=store
            )
            resumed = second.delay_distribution(inv, 1.0).samples
            restored = obs.counter_value("store.sweep_cells_restored")
        assert resumed == reference
        assert restored == 16

    def test_parallel_store_run_matches_serial(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        parallel = MonteCarloAnalyzer(
            technology, n_samples=12, workers=2, store=store
        )
        plain = MonteCarloAnalyzer(technology, n_samples=12)
        assert (
            parallel.delay_distribution(inv, 1.0).samples
            == plain.delay_distribution(inv, 1.0).samples
        )

    def test_sampling_parameters_key_the_checkpoint(self, store):
        technology = soias_technology()
        inv = standard_cells()["INV"]
        MonteCarloAnalyzer(
            technology, n_samples=16, store=store
        ).delay_distribution(inv, 1.0)
        # A different seed must not be served from the first run's
        # checkpoints.
        other = MonteCarloAnalyzer(
            technology, n_samples=16, seed=7, store=store
        )
        plain = MonteCarloAnalyzer(technology, n_samples=16, seed=7)
        assert (
            other.delay_distribution(inv, 1.0).samples
            == plain.delay_distribution(inv, 1.0).samples
        )
