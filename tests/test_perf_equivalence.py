"""Equivalence tests for the hot-path performance layer.

Every fast path in the performance layer — a long-lived characterizer's
decoded plans, the indexed simulator kernel, and the ring optimizer's
one zero-threshold decode — must be *bit-identical* to the reference
path it accelerates.  These tests pin that contract.
"""

import pytest

from repro import obs
from repro.analysis.surface import energy_surface
from repro.circuits.builders import pipelined_adder, ripple_carry_adder
from repro.device.technology import soi_low_vt, soias_technology
from repro.errors import CharacterizationError, SimulationError
from repro.isa.instructions import FUNCTIONAL_UNITS
from repro.isa.machine import Machine
from repro.isa.profiler import profile_program
from repro.isa.workloads import WORKLOAD_NAMES, build as build_workload
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
    VariationSpec,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer
from tests.power.pervt_oracle import PerVtRing
from tests.switchsim.event_oracle import ReferenceSimulator


@pytest.fixture(scope="module")
def tech():
    return soi_low_vt()


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


# ----------------------------------------------------------------------
# A long-lived characterizer vs the reference: a fresh characterizer
# per query
# ----------------------------------------------------------------------
class _Uncached:
    """Answers every query from a fresh characterizer."""

    def __init__(self, technology):
        self.technology = technology

    def __getattr__(self, name):
        return getattr(CellCharacterizer(self.technology), name)


class TestCharacterizerCacheEquivalence:
    VDDS = (0.4, 0.7, 1.0)
    LOADS = (5e-15, 20e-15)
    SHIFTS = (-0.05, 0.0, 0.1)

    def test_long_lived_matches_fresh_characterizers(self, tech, cells):
        long_lived = CellCharacterizer(tech)
        fresh = _Uncached(tech)
        for name in ("INV", "NAND2", "NOR3", "XOR2", "MUX2", "OAI21"):
            cell = cells[name]
            for vdd in self.VDDS:
                for shift in self.SHIFTS:
                    assert long_lived.pull_down_current(
                        cell, vdd, shift
                    ) == fresh.pull_down_current(cell, vdd, shift)
                    assert long_lived.pull_up_current(
                        cell, vdd, shift
                    ) == fresh.pull_up_current(cell, vdd, shift)
                    assert long_lived.leakage_current(
                        cell, vdd, vt_shift=shift
                    ) == fresh.leakage_current(cell, vdd, vt_shift=shift)
                    assert long_lived.fanout_delay(
                        cell, vdd, fanout=3, vt_shift=shift
                    ) == fresh.fanout_delay(
                        cell, vdd, fanout=3, vt_shift=shift
                    )
                    for load in self.LOADS:
                        assert long_lived.propagation_delay(
                            cell, vdd, load, vt_shift=shift
                        ) == fresh.propagation_delay(
                            cell, vdd, load, vt_shift=shift
                        )
                for load in self.LOADS:
                    assert long_lived.energy_per_transition(
                        cell, vdd, load
                    ) == fresh.energy_per_transition(cell, vdd, load)
                    assert long_lived.short_circuit_energy(
                        cell, vdd, load, 50e-12
                    ) == fresh.short_circuit_energy(
                        cell, vdd, load, 50e-12
                    )

    def test_characterize_summary_identical(self, tech, cells):
        cached = CellCharacterizer(tech)
        cached.characterize(cells["INV"], 0.7)
        uncached = _Uncached(tech)
        for name in ("INV", "AOI21", "BUF"):
            assert cached.characterize(
                cells[name], 0.9
            ) == uncached.characterize(cells[name], 0.9)

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
# Zero-threshold ring decode vs uncached per-V_T corners
# ----------------------------------------------------------------------
#: The oracle's processes: the paper's two, plus one whose N and P
#: thresholds differ, where only ``with_vt``'s meaning (both polarities
#: at V_T) is right and a shift from the base thresholds is not.
ORACLE_TECHNOLOGIES = {
    "soi": soi_low_vt,
    "soias": soias_technology,
    "unmatched": lambda: soi_low_vt().with_vt(0.2, 0.3),
}


class TestOptimizerCornerCacheEquivalence:
    """The one zero-threshold decode answers every V_T probe with the
    float a fresh, uncached characterizer of ``with_vt(vt)`` gives."""

    VTS = (0.04, 0.1, 0.1765, 0.25, 0.37, 0.45)

    @staticmethod
    def _pair(name, stages=101, activity=1.0):
        technology = ORACLE_TECHNOLOGIES[name]()
        return (
            RingOscillatorModel(technology, stages=stages, activity=activity),
            PerVtRing(technology, stages=stages, activity=activity),
        )

    @pytest.mark.parametrize("name", ORACLE_TECHNOLOGIES)
    def test_stage_delay_and_energy_identical(self, name):
        ring, oracle = self._pair(name, activity=0.3)
        for vt in self.VTS:
            for vdd in (0.05, 0.17, 0.4, 0.93, 1.5):
                assert ring.stage_delay(vdd, vt) == oracle.stage_delay(
                    vdd, vt
                )
                assert ring.energy_per_cycle(
                    vdd, vt, 3e-8
                ) == oracle.energy_per_cycle(vdd, vt, 3e-8)

    def test_sweep_identical_to_uncached_corners(self):
        for name in ORACLE_TECHNOLOGIES:
            ring, oracle = self._pair(name)
            target = 4.0 * ring.stage_delay(1.0, 0.2)
            vts = [0.04 + 0.02 * i for i in range(20)]
            assert FixedThroughputOptimizer(ring).sweep(
                vts, target
            ) == oracle.sweep(vts, target), name

    @pytest.mark.parametrize("name", ORACLE_TECHNOLOGIES)
    def test_optimum_identical(self, name):
        ring, oracle = self._pair(name, activity=0.4)
        target = 3.0 * ring.stage_delay(1.0, 0.2)
        assert FixedThroughputOptimizer(ring).optimum(
            target, vt_bounds=(0.02, 0.45)
        ) == oracle.optimum(target, vt_bounds=(0.02, 0.45))

    @pytest.mark.parametrize("name", ORACLE_TECHNOLOGIES)
    def test_yield_locus_identical(self, name):
        # A relaxed target clamps several V_T probes at the minimum
        # supply, where the 300 sampled thresholds of every probe are
        # priced on the ring's one decode at one V_DD.
        ring, oracle = self._pair(name, stages=11)
        spec = VariationSpec(n_samples=300)
        target = 50.0 * ring.stage_delay(1.0, 0.2)
        vts = [0.02 + 0.01 * i for i in range(8)]
        points = FixedThroughputOptimizer(ring, variation=spec).sweep(
            vts, target
        )
        assert sum(p.vdd == ring.technology.min_vdd for p in points) > 1
        assert points == oracle.sweep(vts, target, spec)

    @pytest.mark.parametrize("name", ORACLE_TECHNOLOGIES)
    def test_yield_optimum_identical(self, name):
        # The statistical optimum, golden probes and all: the core's
        # two-order-statistic percentile against the oracle's sort of
        # every sampled delay at every probe.
        ring, oracle = self._pair(name, stages=11, activity=0.4)
        spec = VariationSpec(n_samples=40, seed=2)
        target = 3.0 * ring.stage_delay(1.0, 0.2)
        best = FixedThroughputOptimizer(ring, variation=spec).optimum(
            target, vt_bounds=(0.02, 0.45)
        )
        assert best.delay_percentile_s > best.stage_delay_s
        assert best == oracle.optimum(
            target, vt_bounds=(0.02, 0.45), variation=spec
        )

    @pytest.mark.parametrize("name", ORACLE_TECHNOLOGIES)
    def test_energy_surface_identical(self, name):
        technology = ORACLE_TECHNOLOGIES[name]()
        oracle = PerVtRing(technology, stages=11, activity=0.5)
        vts = [0.1 + 0.4 * i / 7 for i in range(8)]
        vdds = [0.2 + 1.3 * j / 9 for j in range(10)]
        t_cycle_s = 5e-8
        surface = energy_surface(
            technology, vts, vdds, t_cycle_s, stages=11, activity=0.5
        )
        expected = tuple(
            tuple(
                None
                if oracle.stage_delay(vdd, vt) > surface.target_stage_delay_s
                else oracle.energy_per_cycle(
                    vdd, vt, t_cycle_s
                ).energy_per_cycle_j
                for vdd in vdds
            )
            for vt in vts
        )
        assert 0 < surface.grid.defined_cells() < len(vts) * len(vdds)
        assert surface.grid.zs == expected


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
