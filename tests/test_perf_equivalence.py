"""Equivalence tests for the hot-path performance layer.

Every fast path in the performance layer — the characterizer memo, the
indexed simulator kernel, the process-pool grid fan-out, and the
corner-cached optimizer — must be *bit-identical* to the reference
path it accelerates.  These tests pin that contract.
"""

import pytest

from repro import obs
from repro.analysis.contour import energy_ratio_surface
from repro.analysis.parallel import map_grid, map_items, resolve_workers
from repro.analysis.sweep import sweep_2d
from repro.analysis.variation import MonteCarloAnalyzer
from repro.circuits.builders import pipelined_adder, ripple_carry_adder
from repro.device.technology import soi_low_vt, soias_technology
from repro.errors import AnalysisError, CharacterizationError, SimulationError
from repro.isa.instructions import FUNCTIONAL_UNITS
from repro.isa.machine import Machine
from repro.isa.profiler import profile_program
from repro.isa.workloads import WORKLOAD_NAMES, build as build_workload
from repro.power.energy import ModuleEnergyParameters
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer
from tests.switchsim.event_oracle import ReferenceSimulator


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


# ----------------------------------------------------------------------
# Characterizer memo vs uncached reference
# ----------------------------------------------------------------------
class TestCharacterizerCacheEquivalence:
    VDDS = (0.4, 0.7, 1.0)
    LOADS = (5e-15, 20e-15)
    SHIFTS = (-0.05, 0.0, 0.1)

    def test_all_memoized_methods_bit_identical(self, tech, cells):
        cached = CellCharacterizer(tech)
        uncached = CellCharacterizer(tech, cache=False)
        for name in ("INV", "NAND2", "NOR3", "XOR2", "MUX2", "OAI21"):
            cell = cells[name]
            for vdd in self.VDDS:
                for shift in self.SHIFTS:
                    assert cached.pull_down_current(
                        cell, vdd, shift
                    ) == uncached.pull_down_current(cell, vdd, shift)
                    assert cached.pull_up_current(
                        cell, vdd, shift
                    ) == uncached.pull_up_current(cell, vdd, shift)
                    assert cached.leakage_current(
                        cell, vdd, vt_shift=shift
                    ) == uncached.leakage_current(cell, vdd, vt_shift=shift)
                    assert cached.fanout_delay(
                        cell, vdd, fanout=3, vt_shift=shift
                    ) == uncached.fanout_delay(
                        cell, vdd, fanout=3, vt_shift=shift
                    )
                    for load in self.LOADS:
                        assert cached.propagation_delay(
                            cell, vdd, load, vt_shift=shift
                        ) == uncached.propagation_delay(
                            cell, vdd, load, vt_shift=shift
                        )
                for load in self.LOADS:
                    assert cached.energy_per_transition(
                        cell, vdd, load
                    ) == uncached.energy_per_transition(cell, vdd, load)
                    assert cached.short_circuit_energy(
                        cell, vdd, load, 50e-12
                    ) == uncached.short_circuit_energy(
                        cell, vdd, load, 50e-12
                    )
        assert cached.cache_size > 0
        assert uncached.cache_size == 0

    def test_characterize_summary_identical(self, tech, cells):
        cached = CellCharacterizer(tech)
        uncached = CellCharacterizer(tech, cache=False)
        for name in ("INV", "AOI21", "BUF"):
            assert cached.characterize(
                cells[name], 0.9
            ) == uncached.characterize(cells[name], 0.9)

    def test_repeat_queries_hit_the_memo(self, tech, cells):
        characterizer = CellCharacterizer(tech)
        first = characterizer.propagation_delay(cells["INV"], 1.0, 10e-15)
        size = characterizer.cache_size
        second = characterizer.propagation_delay(cells["INV"], 1.0, 10e-15)
        assert first == second
        assert characterizer.cache_size == size

    def test_clear_cache_empties_and_preserves_values(self, tech, cells):
        characterizer = CellCharacterizer(tech)
        before = characterizer.leakage_current(cells["NAND2"], 1.0)
        characterizer.clear_cache()
        assert characterizer.cache_size == 0
        assert characterizer.leakage_current(cells["NAND2"], 1.0) == before

    def test_validation_still_raises_with_cache_on(self, tech, cells):
        characterizer = CellCharacterizer(tech)
        with pytest.raises(CharacterizationError):
            characterizer.propagation_delay(cells["INV"], -1.0, 10e-15)
        with pytest.raises(CharacterizationError):
            characterizer.propagation_delay(cells["INV"], 1.0, -5e-15)

    def test_distinct_technologies_do_not_share_entries(self, cells):
        a = CellCharacterizer(soi_low_vt())
        b = CellCharacterizer(soias_technology())
        assert a.propagation_delay(
            cells["INV"], 1.0, 10e-15
        ) != b.propagation_delay(cells["INV"], 1.0, 10e-15)


# ----------------------------------------------------------------------
# Simulator event kernel vs the dict-keyed reference loop
# ----------------------------------------------------------------------
class TestSimulatorFastPathEquivalence:
    def test_ripple_carry_adder_reports_identical(self, tech):
        netlist = ripple_carry_adder(8)
        vectors = random_bus_vectors({"a": 8, "b": 8}, count=80, seed=7)
        reference = ReferenceSimulator(netlist, tech, 1.0)
        kernel = SwitchLevelSimulator(netlist, tech, 1.0)
        assert reference.run_vectors(vectors) == kernel.run_vectors(vectors)

    def test_registered_circuit_reports_identical(self, tech):
        netlist = pipelined_adder(8, stages=2)
        vectors = random_bus_vectors({"a": 8, "b": 8}, count=40, seed=3)
        reference = ReferenceSimulator(netlist, tech, 1.0)
        kernel = SwitchLevelSimulator(netlist, tech, 1.0)
        assert reference.run_vectors(vectors) == kernel.run_vectors(vectors)
        assert reference.run_clocked(vectors) == kernel.run_clocked(vectors)

    def test_final_state_matches_reference(self, tech):
        netlist = ripple_carry_adder(4)
        vectors = random_bus_vectors({"a": 4, "b": 4}, count=25, seed=11)
        reference = ReferenceSimulator(netlist, tech, 1.0)
        kernel = SwitchLevelSimulator(netlist, tech, 1.0)
        reference.run_vectors(vectors)
        kernel.run_vectors(vectors)
        assert kernel.state == reference.state
        assert kernel.now_fs == reference.now_fs

    def test_fast_path_validates_inputs_like_reference(self, tech):
        netlist = ripple_carry_adder(4)
        good = random_bus_vectors({"a": 4, "b": 4}, count=1, seed=0)[0]
        for bad in (dict(good, nosuch=1), dict(good, **{"a[0]": 2})):
            messages = []
            for simulator in (
                ReferenceSimulator(netlist, tech, 1.0),
                SwitchLevelSimulator(netlist, tech, 1.0),
            ):
                with pytest.raises(SimulationError) as error:
                    simulator.run_vectors([bad])
                messages.append(str(error.value))
            assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Parallel grid fan-out vs serial
# ----------------------------------------------------------------------
def _grid_fn(x, y):
    return None if y > x else x * 10.0 + y


def _item_fn(x):
    return x * x + 1.0


MODULE = ModuleEnergyParameters(
    name="eqtest",
    switched_capacitance_f=45e-12,
    leakage_low_vt_a=2.0e-6,
    leakage_high_vt_a=4.0e-9,
    back_gate_capacitance_f=18e-12,
    back_gate_swing_v=2.0,
)


class TestParallelEquivalence:
    XS = [0.1 * i for i in range(1, 9)]
    YS = [0.05 * i for i in range(1, 7)]

    def test_map_grid_matches_serial_sweep(self):
        serial = sweep_2d("x", "y", "z", self.XS, self.YS, _grid_fn)
        rows = map_grid(_grid_fn, self.XS, self.YS, workers=2)
        assert tuple(tuple(row) for row in rows) == serial.zs

    def test_sweep_2d_workers_matches_serial(self):
        serial = sweep_2d("x", "y", "z", self.XS, self.YS, _grid_fn)
        parallel = sweep_2d(
            "x", "y", "z", self.XS, self.YS, _grid_fn, workers=2
        )
        assert parallel == serial

    def test_map_items_matches_serial(self):
        items = [0.25 * i for i in range(17)]
        assert map_items(_item_fn, items, workers=2) == [
            _item_fn(x) for x in items
        ]

    # The fallback now announces itself once per process (see
    # tests/analysis/test_parallel_thresholds.py); this test only cares
    # about the results.
    @pytest.mark.filterwarnings("ignore:map_items:RuntimeWarning")
    def test_closure_falls_back_to_serial(self):
        offset = 2.0
        rows = map_grid(
            lambda x, y: x + y + offset, [1.0, 2.0], [3.0], workers=2
        )
        assert rows == [[6.0], [7.0]]

    def test_energy_ratio_surface_workers_parity(self):
        grid = [i / 12 for i in range(1, 13)]
        serial = energy_ratio_surface(MODULE, 1.0, 1e-6, grid, grid)
        parallel = energy_ratio_surface(
            MODULE, 1.0, 1e-6, grid, grid, workers=2
        )
        assert parallel.grid == serial.grid

    def test_monte_carlo_workers_parity(self, tech, cells):
        serial = MonteCarloAnalyzer(tech, n_samples=24, workers=0)
        parallel = MonteCarloAnalyzer(tech, n_samples=24, workers=2)
        inv = cells["INV"]
        assert (
            parallel.delay_distribution(inv, 0.8).samples
            == serial.delay_distribution(inv, 0.8).samples
        )
        assert (
            parallel.leakage_distribution(inv, 0.8).samples
            == serial.leakage_distribution(inv, 0.8).samples
        )

    def test_resolve_workers_validates(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(AnalysisError):
            resolve_workers(-1)

    def test_resolve_workers_env_override(self, monkeypatch):
        """Precedence: explicit ``workers=`` > REPRO_WORKERS > cpus.

        Scheduler workers export ``REPRO_WORKERS=0`` so nested
        ``map_items(workers=None)`` calls stay serial (no fork bomb on
        a saturated host); an explicit argument must still win.
        """
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit arg beats the env
        assert resolve_workers(0) == 0
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers(None) == 0
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) >= 1  # falls back to cpu count

    def test_resolve_workers_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(AnalysisError, match="REPRO_WORKERS"):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(AnalysisError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_picklable_probe_memoized_per_function(self):
        from repro.analysis.parallel import _PICKLABLE_MEMO, _picklable

        def local_fn(x):
            return x

        assert _picklable(resolve_workers) is True
        assert _PICKLABLE_MEMO.get(resolve_workers) is True
        # Closures/local functions pickle by reference lookup and fail;
        # the negative result is memoized too.
        assert _picklable(local_fn) is False
        assert _PICKLABLE_MEMO.get(local_fn) is False
        # The memo answers without re-probing: poison pickle.dumps and
        # confirm the cached verdicts still come back.
        import pickle as pickle_module
        from unittest import mock

        with mock.patch.object(
            pickle_module, "dumps",
            side_effect=AssertionError("re-probed a memoized callable"),
        ):
            assert _picklable(resolve_workers) is True
            assert _picklable(local_fn) is False

    def test_picklable_handles_unhashable_callables(self):
        from repro.analysis.parallel import _picklable

        class UnhashableCallable:
            __hash__ = None

            def __call__(self, x):
                return x

        fn = UnhashableCallable()
        assert _picklable(fn) in (True, False)
        assert _picklable(fn) == _picklable(fn)


# ----------------------------------------------------------------------
# Corner-cached optimizer vs seed-style uncached corners
# ----------------------------------------------------------------------
class TestOptimizerCornerCacheEquivalence:
    def test_sweep_identical_to_uncached_corners(self, tech):
        vts = [0.06 + 0.06 * i for i in range(5)]

        def run(ring):
            optimizer = FixedThroughputOptimizer(ring, cycle_stages=202)
            target = 4.0 * ring.stage_delay(1.0, 0.2)
            return [
                (p.vt, p.vdd, p.energy_per_cycle_j, p.leakage_energy_j)
                for p in optimizer.sweep(vts, target)
            ]

        cached_ring = RingOscillatorModel(tech, stages=101)
        uncached_ring = RingOscillatorModel(tech, stages=101)
        uncached_ring._corner = lambda vt: CellCharacterizer(
            tech.with_vt(vt), cache=False
        )
        assert run(cached_ring) == run(uncached_ring)
        assert len(cached_ring._corners) > 0


# ----------------------------------------------------------------------
# Decoded ISA engine + counter profiler vs reference stepper
# ----------------------------------------------------------------------
class TestDecodedInterpreterEquivalence:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_state_identical(self, name):
        program = build_workload(name, scale=16)
        reference = Machine(program)
        reference.run()
        fast = Machine(build_workload(name, scale=16))
        retired = fast.run_fast()
        assert retired == reference.instructions_retired
        assert fast.registers == reference.registers
        assert fast.memory == reference.memory
        assert fast.pc == reference.pc
        assert fast.halted == reference.halted

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_profile_identical(self, name):
        fast = profile_program(build_workload(name, scale=16), engine="fast")
        ref = profile_program(
            build_workload(name, scale=16), engine="reference"
        )
        assert fast.total_instructions == ref.total_instructions
        for unit in FUNCTIONAL_UNITS:
            assert fast.stats(unit) == ref.stats(unit), (name, unit)

    @pytest.mark.parametrize("name", ("matmul", "espresso"))
    def test_translated_workload_identical(self, name):
        # At the fig10 scale these two run much of their work in
        # generated code; state and class transitions must still be
        # exactly what the reference stepper sees.
        fast = Machine(build_workload(name, scale=48))
        with obs.enabled_scope(fresh=True):
            counts = fast.run_counted()
            assert obs.counter_value("machine.translations") > 0
        reference = Machine(build_workload(name, scale=48))
        k = len(counts.classes)
        transitions = [0] * (k * k)
        previous = [0]

        def count_transition(pc, instruction):
            current = counts.classes.index(instruction.units)
            transitions[previous[0] * k + current] += 1
            previous[0] = current

        reference.add_hook(count_transition)
        reference.run()
        assert counts.transitions == tuple(transitions)
        assert counts.retired == reference.instructions_retired
        assert counts.final_class == previous[0]
        assert fast.registers == reference.registers
        assert fast.memory == reference.memory
        assert fast.pc == reference.pc
        assert fast.halted == reference.halted
