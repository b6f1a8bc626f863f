"""Hot-path performance benchmark for the repro toolkit.

Times the three paths the performance layer optimizes and writes the
measurements to ``BENCH_hotpaths.json`` at the repo root:

1. **Switch-level simulation** — the dict-keyed reference event loop
   (the test-only oracle in ``tests/switchsim/event_oracle.py``) vs the
   indexed event kernel behind ``SwitchLevelSimulator.run_vectors``, on
   a ripple-carry adder and on the Fig. 10 8-bit array multiplier at 80
   vectors, under identical random stimulus.  The kernel must produce a
   bit-identical :class:`ActivityReport`.
2. **Fixed-throughput optimizer V_T sweep** (Figs. 3-4) — the seed's
   behavior (a fresh, uncached :class:`CellCharacterizer` per corner
   query) vs the corner-cached ring model, measured both cold (first
   sweep, memo empty) and steady-state (repeated sweeps on one model,
   the production-service workload).  Operating points must match
   exactly.
3. **Grid fan-out** — the Fig. 10 energy-ratio surface and a
   Monte-Carlo leakage distribution, serial vs ``workers=2``.  The
   parallel results must equal the serial results cell for cell; the
   measured ratio is recorded honestly together with ``os.cpu_count()``
   (on a single-CPU host process fan-out *loses* to serial — the
   point of the record is scaling on real multi-core machines).
4. **ISA interpreter** — the reference per-step loop (``run``) vs the
   decoded block-dispatch engine (``run_fast``) on the Table-2 li-like
   workload, and on matmul, which retires most of its instructions in
   translated blocks.  Architectural state must be bit-identical.
5. **ATOM profiler** — the hook-instrumented reference profile vs the
   counter-based decoded profile (``run_counted`` +
   ``profile_from_counts``) on the same two workloads.  Profiles must
   be identical; the acceptance target is a >=5x speedup.
6. **Batched variation engine** — the per-sample Monte-Carlo path (one
   full ``propagation_delay``/``leakage_current`` call chain per V_T
   sample) vs the decoded :class:`VariationPlan` batch path on the
   same shift vector.  Samples must be bit-identical; the acceptance
   target is a >=5x speedup.
7. **Adaptive contour refinement** — a uniform grid at the finest
   refinement resolution vs the adaptive surface that subdivides only
   the cells near the break-even contour.  Every point the adaptive
   surface evaluates must be bit-identical to the uniform grid, the
   resolved contour cells must match exactly, and the adaptive pass
   must evaluate at most half the uniform grid's points.
8. **Distributed scheduler** — the Fig. 10 contour workload drained
   through the durable ``repro.sched`` queue by 1 and 2 local worker
   subprocesses vs the plain serial loop.  Assembled surfaces must be
   digest-identical to serial; the 2-worker/1-worker scaling ratio is
   recorded honestly alongside ``os.cpu_count()``.
9. **Batched (V_DD, V_T) energy surface** — the per-point chain (one
   ``fanout_delay``/``energy_per_transition``/``leakage_current`` call
   stack per grid cell, one cached characterizer per V_T corner) vs
   the plan-based Fig. 3/4 ``energy_surface`` whose rows run through
   decoded operating plans.  Grids must be bit-identical; the
   acceptance target is a >=3x speedup.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_hotpaths.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

from repro import obs
from repro.analysis.contour import energy_ratio_surface, zero_crossing_cells
from repro.isa.instructions import FUNCTIONAL_UNITS
from repro.isa.machine import Machine
from repro.isa.profiler import profile_program
from repro.isa.workloads import build as build_workload
from repro.analysis.variation import MonteCarloAnalyzer
from repro.circuits.builders import array_multiplier, ripple_carry_adder
from repro.core.flow import LowVoltageDesignFlow
from repro.device.technology import soi_low_vt, soias_technology
from repro.power.energy import ModuleEnergyParameters
from repro.power.optimizer import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
    VariationSpec,
)
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

VT_SWEEP = [0.04 + 0.02 * i for i in range(20)]  # 0.04 .. 0.42 V


def _timed(fn):
    """(result, elapsed_seconds) of one call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# 1. Simulator: dict-keyed reference loop vs the indexed event kernel
# ----------------------------------------------------------------------
def _bench_simulator_on(reference_cls, netlist, vectors) -> dict:
    technology = soi_low_vt()
    reference = reference_cls(netlist, technology, vdd=1.0)
    kernel = SwitchLevelSimulator(netlist, technology, vdd=1.0)

    ref_report, ref_seconds = _timed(lambda: reference.run_vectors(vectors))
    report, seconds = _timed(lambda: kernel.run_vectors(vectors))
    count = len(vectors)
    return {
        "circuit": netlist.name,
        "vectors": count,
        "reference_seconds": ref_seconds,
        "kernel_seconds": seconds,
        "reference_vectors_per_s": count / ref_seconds,
        "kernel_vectors_per_s": count / seconds,
        "speedup": ref_seconds / seconds,
        "reports_identical": ref_report == report,
    }


def bench_simulator(quick: bool) -> dict:
    # The reference loop is a test-only oracle, imported from tests/.
    sys.path.insert(0, str(REPO_ROOT))
    from tests.switchsim.event_oracle import ReferenceSimulator

    width = 8
    buses = {"a": width, "b": width}
    runs = [
        _bench_simulator_on(
            ReferenceSimulator,
            ripple_carry_adder(width),
            random_bus_vectors(buses, count=60 if quick else 400, seed=42),
        ),
        _bench_simulator_on(
            ReferenceSimulator,
            array_multiplier(width),
            random_bus_vectors(buses, count=80, seed=42),
        ),
    ]
    return {
        "circuits": runs,
        "reports_identical": all(run["reports_identical"] for run in runs),
    }


# ----------------------------------------------------------------------
# 2. Optimizer sweep: uncached-per-corner (seed) vs corner-cached
# ----------------------------------------------------------------------
def _seed_behavior(ring: RingOscillatorModel) -> RingOscillatorModel:
    """Make ``ring`` characterize like the seed: a fresh uncached
    characterizer for every corner query, no sharing across the sweep."""
    ring._corner = lambda vt: CellCharacterizer(  # type: ignore[method-assign]
        ring.technology.with_vt(vt), cache=False
    )
    return ring


def bench_optimizer(quick: bool) -> dict:
    repetitions = 2 if quick else 5
    vts = VT_SWEEP[::4] if quick else VT_SWEEP
    technology = soi_low_vt()

    def sweep_with(ring: RingOscillatorModel):
        optimizer = FixedThroughputOptimizer(ring, cycle_stages=202)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        return optimizer.sweep(vts, target)

    # Before: the seed's behavior, re-timed for every repetition (it
    # has no state to reuse, so each repetition costs the same).
    uncached_rep_seconds = []
    uncached_points = None
    for _ in range(repetitions):
        ring = _seed_behavior(RingOscillatorModel(technology, stages=101))
        uncached_points, elapsed = _timed(lambda: sweep_with(ring))
        uncached_rep_seconds.append(elapsed)

    # After: one corner-cached model serving every repetition — the
    # first sweep pays to fill the memo, the rest hit it.
    cached_ring = RingOscillatorModel(technology, stages=101)
    cached_rep_seconds = []
    cached_points = None
    for _ in range(repetitions):
        cached_points, elapsed = _timed(lambda: sweep_with(cached_ring))
        cached_rep_seconds.append(elapsed)

    identical = [
        (p.vt, p.vdd, p.energy_per_cycle_j) for p in uncached_points
    ] == [(p.vt, p.vdd, p.energy_per_cycle_j) for p in cached_points]

    uncached_total = sum(uncached_rep_seconds)
    cached_total = sum(cached_rep_seconds)
    return {
        "vt_points": len(vts),
        "repetitions": repetitions,
        "uncached_seconds_per_sweep": uncached_rep_seconds,
        "cached_seconds_per_sweep": cached_rep_seconds,
        "uncached_seconds_total": uncached_total,
        "cached_seconds_total": cached_total,
        "cold_speedup": uncached_rep_seconds[0] / cached_rep_seconds[0],
        "warm_speedup": min(uncached_rep_seconds) / min(cached_rep_seconds),
        "speedup": uncached_total / cached_total,
        "points_identical": identical,
    }


# ----------------------------------------------------------------------
# 3. Grid fan-out: contour surface and Monte-Carlo, serial vs workers
# ----------------------------------------------------------------------
def _bench_grid_module() -> ModuleEnergyParameters:
    """A representative datapath module (Fig. 10 operating regime)."""
    return ModuleEnergyParameters(
        name="bench-adder",
        switched_capacitance_f=45e-12,
        leakage_low_vt_a=2.0e-6,
        leakage_high_vt_a=4.0e-9,
        back_gate_capacitance_f=18e-12,
        back_gate_swing_v=2.0,
    )


def bench_contour(quick: bool, workers: int) -> dict:
    from repro.analysis.parallel import _MIN_PARALLEL_ITEMS

    n = 24 if quick else 64
    grid = [i / n for i in range(1, n + 1)]
    module = _bench_grid_module()

    # Warm the characterizer memos before timing either strategy:
    # whichever call runs second in this process hits warm memos and
    # would otherwise be credited with a fictitious cache speedup.
    energy_ratio_surface(module, 1.0, 1e-6, grid, grid)

    serial, serial_seconds = _timed(
        lambda: energy_ratio_surface(module, 1.0, 1e-6, grid, grid)
    )
    parallel, parallel_seconds = _timed(
        lambda: energy_ratio_surface(
            module, 1.0, 1e-6, grid, grid, workers=workers
        )
    )
    return {
        "grid": [n, n],
        "workers": workers,
        # Below the min-items threshold the workers= path deliberately
        # runs serially (the small-grid fan-out regression fix), so the
        # ratio measures fallback overhead, not pool scaling.
        "min_items_fallback": n * n < _MIN_PARALLEL_ITEMS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "parallel_speedup": serial_seconds / parallel_seconds,
        "grids_identical": serial.grid.zs == parallel.grid.zs,
    }


def bench_monte_carlo(quick: bool, workers: int) -> dict:
    n_samples = 40 if quick else 240
    technology = soi_low_vt()
    inverter = standard_cells()["INV"]

    serial_mc = MonteCarloAnalyzer(
        technology, n_samples=n_samples, workers=0
    )
    parallel_mc = MonteCarloAnalyzer(
        technology, n_samples=n_samples, workers=workers
    )
    serial, serial_seconds = _timed(
        lambda: serial_mc.leakage_distribution(inverter, 1.0)
    )
    parallel, parallel_seconds = _timed(
        lambda: parallel_mc.leakage_distribution(inverter, 1.0)
    )
    return {
        "samples": n_samples,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "parallel_speedup": serial_seconds / parallel_seconds,
        "distributions_identical": serial.samples == parallel.samples,
    }


# ----------------------------------------------------------------------
# 4. ISA interpreter: reference stepper vs decoded dispatch engine
# ----------------------------------------------------------------------
_BENCH_WORKLOAD = "li"  # the Table-2 workload named by the target
#: The workload that retires most of its instructions in translated
#: blocks (a hot 23-instruction self-looping inner product).
_TRANSLATED_WORKLOAD = "matmul"


def _bench_program(quick: bool, name: str = _BENCH_WORKLOAD):
    if name == _BENCH_WORKLOAD:
        return build_workload(name, scale=64 if quick else 192)
    return build_workload(name, scale=48 if quick else 96)


def _bench_interpreter_on(quick: bool, name: str) -> dict:
    reference = Machine(_bench_program(quick, name))
    retired, ref_seconds = _timed(lambda: reference.run())

    fast = Machine(_bench_program(quick, name))
    # Decode ahead of the timed run so its one-time cost is reported
    # separately from the steady-state dispatch rate.
    _, decode_seconds = _timed(lambda: fast.decode())
    fast_retired, fast_seconds = _timed(lambda: fast.run_fast())

    identical = (
        fast_retired == retired
        and fast.registers == reference.registers
        and fast.memory == reference.memory
        and fast.pc == reference.pc
        and fast.halted == reference.halted
    )
    return {
        "workload": name,
        "instructions": retired,
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "decode_seconds": decode_seconds,
        "reference_instructions_per_s": retired / ref_seconds,
        "fast_instructions_per_s": fast_retired / fast_seconds,
        "speedup": ref_seconds / fast_seconds,
        "state_identical": identical,
    }


def bench_interpreter(quick: bool) -> dict:
    return {
        **_bench_interpreter_on(quick, _BENCH_WORKLOAD),
        _TRANSLATED_WORKLOAD: _bench_interpreter_on(
            quick, _TRANSLATED_WORKLOAD
        ),
    }


# ----------------------------------------------------------------------
# 5. ATOM profiler: per-instruction hook vs decoded transition counters
# ----------------------------------------------------------------------
def _bench_profiler_on(quick: bool, name: str) -> dict:
    def profile(engine):
        return profile_program(_bench_program(quick, name), engine=engine)

    ref_profile, ref_seconds = _timed(lambda: profile("reference"))
    fast_profile, fast_seconds = _timed(lambda: profile("fast"))
    identical = (
        fast_profile.total_instructions == ref_profile.total_instructions
        and all(
            fast_profile.stats(u) == ref_profile.stats(u)
            for u in FUNCTIONAL_UNITS
        )
    )
    return {
        "workload": name,
        "instructions": ref_profile.total_instructions,
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "reference_instructions_per_s": (
            ref_profile.total_instructions / ref_seconds
        ),
        "fast_instructions_per_s": (
            fast_profile.total_instructions / fast_seconds
        ),
        "speedup": ref_seconds / fast_seconds,
        "profiles_identical": identical,
        "adder_fga": fast_profile.fga("adder"),
        "adder_bga": fast_profile.bga("adder"),
    }


def bench_profiler(quick: bool) -> dict:
    return {
        **_bench_profiler_on(quick, _BENCH_WORKLOAD),
        _TRANSLATED_WORKLOAD: _bench_profiler_on(quick, _TRANSLATED_WORKLOAD),
    }


# ----------------------------------------------------------------------
# 6. Batched variation engine: per-sample chain vs decoded plan
# ----------------------------------------------------------------------
def bench_variation(quick: bool) -> dict:
    n_samples = 40 if quick else 240
    vdd = 0.6
    load_f = 10e-15
    technology = soi_low_vt()
    cell = standard_cells()["NAND2"]

    shifts = MonteCarloAnalyzer(
        technology, n_samples=n_samples, seed=0
    ).sample_vt_shifts()

    # Before: the per-sample path — the full characterization call
    # chain (effective-V_T resolve, drive solve, stack solve) runs once
    # per V_T sample, exactly as the analyzer did pre-plan.  Both sides
    # share one StackSolver kernel, which dominates the leakage half,
    # so this ratio only measures the per-sample overhead the plan
    # hoists: it fell from ~7x (when the per-sample path paid an
    # ~13k-evaluation nested bisection per stack) to well under 2x.
    reference = CellCharacterizer(technology)
    ref_delays, ref_delay_seconds = _timed(
        lambda: [
            reference.propagation_delay(cell, vdd, load_f, vt_shift=s)
            for s in shifts
        ]
    )
    ref_leakages, ref_leakage_seconds = _timed(
        lambda: [
            reference.leakage_current(cell, vdd, vt_shift=s)
            for s in shifts
        ]
    )

    # After: the analyzer decodes the corner into one plan and pushes
    # the whole shift vector through its tight inner loops.
    analyzer = MonteCarloAnalyzer(
        technology, n_samples=n_samples, seed=0, workers=0
    )
    delay_dist, fast_delay_seconds = _timed(
        lambda: analyzer.delay_distribution(cell, vdd, load_f)
    )
    leakage_dist, fast_leakage_seconds = _timed(
        lambda: analyzer.leakage_distribution(cell, vdd)
    )

    identical = (
        tuple(ref_delays) == delay_dist.samples
        and tuple(ref_leakages) == leakage_dist.samples
    )
    ref_total = ref_delay_seconds + ref_leakage_seconds
    fast_total = fast_delay_seconds + fast_leakage_seconds
    return {
        "cell": cell.name,
        "vdd": vdd,
        "samples": n_samples,
        "reference_delay_seconds": ref_delay_seconds,
        "reference_leakage_seconds": ref_leakage_seconds,
        "batched_delay_seconds": fast_delay_seconds,
        "batched_leakage_seconds": fast_leakage_seconds,
        "reference_seconds": ref_total,
        "batched_seconds": fast_total,
        "delay_speedup": ref_delay_seconds / fast_delay_seconds,
        "leakage_speedup": ref_leakage_seconds / fast_leakage_seconds,
        "speedup": ref_total / fast_total,
        "identical": identical,
    }


# ----------------------------------------------------------------------
# 7. Adaptive contour refinement: uniform finest grid vs refined
# ----------------------------------------------------------------------
def bench_contour_refine(quick: bool) -> dict:
    base_n = 8 if quick else 12
    levels = 2 if quick else 3
    band = 0.1
    # At a 10 us cycle the leakage term dominates at low fga, so the
    # break-even contour (bga* ~ 0.28 * (1 - fga)) crosses the grid
    # diagonally with genuinely flat regions on both sides — the
    # workload adaptive refinement is for.
    t_cycle_s = 1e-5
    module = _bench_grid_module()
    grid = [i / base_n for i in range(1, base_n + 1)]

    adaptive, adaptive_seconds = _timed(
        lambda: energy_ratio_surface(
            module, 1.0, t_cycle_s, grid, grid,
            refine_levels=levels, refine_band=band,
        )
    )
    refined = adaptive.refined

    # The honest reference: a uniform grid at the resolution the
    # refinement reaches, evaluated everywhere.
    uniform, uniform_seconds = _timed(
        lambda: energy_ratio_surface(
            module, 1.0, t_cycle_s, refined.xs, refined.ys
        )
    )

    identical = all(
        uniform.grid.zs[i][j] == value
        for (i, j), value in refined.known().items()
    )
    contour_match = refined.zero_cells() == zero_crossing_cells(
        uniform.grid.zs
    )
    return {
        "base_grid": [base_n, base_n],
        "refine_levels": levels,
        "refine_band": band,
        "finest_grid": [len(refined.xs), len(refined.ys)],
        "points_evaluated": refined.evaluated,
        "uniform_points": refined.total_points,
        "coverage": refined.coverage,
        "cells_refined": refined.cells_refined,
        "cells_skipped": refined.cells_skipped,
        "contour_cells": len(refined.zero_cells()),
        "uniform_seconds": uniform_seconds,
        "adaptive_seconds": adaptive_seconds,
        "speedup": uniform_seconds / adaptive_seconds,
        "identical": identical,
        "contour_match": contour_match,
    }


# ----------------------------------------------------------------------
# 8. Yield-constrained optimum vs the nominal seed path (soias)
# ----------------------------------------------------------------------
def bench_yield_optimum(quick: bool) -> dict:
    """Statistical optimizer cost and the nominal-path identity gate.

    The gate: a flow-built optimizer with no variation spec must
    reproduce the seed-style construction (bare ring + optimizer)
    bit-for-bit on the soias technology.  The statistical optimum is
    then timed and its supply guard band over the nominal solve at the
    same V_T reported.
    """
    technology = soias_technology()
    stages = 11
    samples = 24 if quick else 120
    vt_bounds = (0.05, 0.45)

    seed_ring = RingOscillatorModel(technology, stages=stages)
    seed_optimizer = FixedThroughputOptimizer(
        seed_ring, cycle_stages=2 * stages
    )
    target = 4.0 * seed_ring.stage_delay(1.0, 0.2)
    seed_best, nominal_seconds = _timed(
        lambda: seed_optimizer.optimum(target, vt_bounds=vt_bounds)
    )

    nominal_optimizer = LowVoltageDesignFlow(
        technology=technology
    ).throughput_optimizer(stages=stages)
    nominal_best = nominal_optimizer.optimum(target, vt_bounds=vt_bounds)
    identical = nominal_best == seed_best

    spec = VariationSpec(
        percentile=99.0, vt_sigma=0.03, n_samples=samples, seed=0
    )
    statistical_optimizer = LowVoltageDesignFlow(
        technology=technology, variation=spec
    ).throughput_optimizer(stages=stages)
    stat_best, statistical_seconds = _timed(
        lambda: statistical_optimizer.optimum(target, vt_bounds=vt_bounds)
    )

    # Guard band: how much supply the p99 corner demands over the
    # nominal solve at the V_T the statistical optimum picked.
    nominal_at_stat_vt = seed_optimizer.locus_point(stat_best.vt, target)
    return {
        "technology": "soias",
        "stages": stages,
        "samples": samples,
        "percentile": spec.percentile,
        "vt_sigma": spec.vt_sigma,
        "identical": identical,
        "nominal": {
            "vt": seed_best.vt,
            "vdd": seed_best.vdd,
            "energy_per_cycle_j": seed_best.energy_per_cycle_j,
        },
        "statistical": {
            "vt": stat_best.vt,
            "vdd": stat_best.vdd,
            "energy_per_cycle_j": stat_best.energy_per_cycle_j,
            "delay_percentile_s": stat_best.delay_percentile_s,
            "leakage_amplification": stat_best.leakage_amplification,
            "lognormal_amplification": stat_best.lognormal_amplification,
        },
        "guard_band_v": stat_best.vdd - nominal_at_stat_vt.vdd,
        "energy_cost_ratio": (
            stat_best.energy_per_cycle_j / seed_best.energy_per_cycle_j
        ),
        "nominal_seconds": nominal_seconds,
        "statistical_seconds": statistical_seconds,
    }


# ----------------------------------------------------------------------
# 9. Batched energy surface: per-point chain vs decoded operating plans
# ----------------------------------------------------------------------
def bench_surface(quick: bool) -> dict:
    """The Fig. 3/4 plane: per-point characterization vs plan kernels.

    The reference replicates what the surface does cell by cell with
    the pre-plan call chain — one cached characterizer per V_T corner,
    a full ``fanout_delay`` feasibility probe and (where feasible) the
    ``energy_per_transition``/``leakage_current`` pair per V_DD point,
    associated exactly like ``RingOscillatorModel.energy_per_cycle``.
    The plan path must reproduce it float for float.
    """
    from repro.analysis.surface import energy_surface

    n_vt = 10 if quick else 20
    n_vdd = 16 if quick else 40
    stages = 11
    activity = 1.0
    t_cycle_s = 5e-8  # 20 MHz: part of the plane is infeasible
    cycle_stages = 2 * stages
    target = t_cycle_s / cycle_stages
    technology = soi_low_vt()
    vts = [0.08 + 0.4 * i / (n_vt - 1) for i in range(n_vt)]
    vdds = [0.2 + 1.3 * j / (n_vdd - 1) for j in range(n_vdd)]
    inverter = standard_cells()["INV"]

    def per_point_chain():
        rows = []
        for vt in vts:
            corner = CellCharacterizer(technology.with_vt(vt))
            row = []
            for vdd in vdds:
                if corner.fanout_delay(inverter, vdd, fanout=1) > target:
                    row.append(None)
                    continue
                load = inverter.input_capacitance(corner.technology, vdd)
                switching = stages * activity * corner.energy_per_transition(
                    inverter, vdd, load
                )
                leakage_current = stages * corner.leakage_current(
                    inverter, vdd
                )
                row.append(
                    switching + leakage_current * vdd * t_cycle_s
                )
            rows.append(tuple(row))
        return tuple(rows)

    reference, ref_seconds = _timed(per_point_chain)
    planned, plan_seconds = _timed(
        lambda: energy_surface(
            technology, vts, vdds, t_cycle_s,
            stages=stages, activity=activity, cycle_stages=cycle_stages,
        )
    )
    cells = n_vt * n_vdd
    return {
        "grid": [n_vt, n_vdd],
        "stages": stages,
        "t_cycle_s": t_cycle_s,
        "feasible_cells": planned.grid.defined_cells(),
        "reference_seconds": ref_seconds,
        "planned_seconds": plan_seconds,
        "reference_cells_per_s": cells / ref_seconds,
        "planned_cells_per_s": cells / plan_seconds,
        "speedup": ref_seconds / plan_seconds,
        "identical": planned.grid.zs == reference,
    }


# ----------------------------------------------------------------------
# 10. Distributed scheduler: serial vs durable queue + local workers
# ----------------------------------------------------------------------
def bench_scheduler(quick: bool) -> dict:
    """Contour workload through the ``repro.sched`` queue.

    The same :class:`ContourCellTask` grid is evaluated serially and
    then drained through the durable queue by 1 and by 2 local worker
    subprocesses.  Every assembled surface must be bit-identical (by
    store digest) to the serial one; each run gets a fresh queue
    directory so idempotent-resume caching cannot fake the timing.
    """
    import shutil
    import tempfile

    from repro.sched import Scheduler, scheduled_map_items
    from repro.sched.workloads import (
        ContourCellTask,
        contour_grid,
        contour_pairs,
        demo_module,
    )
    from repro.store.hashing import digest

    # repeat makes each chunk expensive enough that queue latency and
    # worker startup do not drown the evaluation being distributed.
    n = 8 if quick else 14
    repeat = 3000 if quick else 10000
    task = ContourCellTask(demo_module(), 1.0, 1e-6, repeat=repeat)
    pairs = contour_pairs(contour_grid(n))

    serial, serial_seconds = _timed(lambda: [task(pair) for pair in pairs])
    serial_digest = digest(serial)

    worker_runs = {}
    identical = True
    for workers in (1, 2):
        root = tempfile.mkdtemp(prefix=f"repro-sched-bench-{workers}w-")
        try:
            with Scheduler(
                root=root,
                local_workers=workers,
                lease_s=30.0,
                poll_s=0.05,
                timeout_s=300.0,
                rescue_after_s=5.0,
            ) as scheduler:
                scheduled, seconds = _timed(
                    lambda: scheduled_map_items(task, pairs, scheduler)
                )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        identical = identical and digest(scheduled) == serial_digest
        worker_runs[str(workers)] = {
            "seconds": seconds,
            "speedup_vs_serial": serial_seconds / seconds,
        }

    return {
        "grid": [n, n],
        "repeat": repeat,
        "items": len(pairs),
        "serial_seconds": serial_seconds,
        "worker_runs": worker_runs,
        "scaling_2w_over_1w": (
            worker_runs["1"]["seconds"] / worker_runs["2"]["seconds"]
        ),
        "identical": identical,
    }


# ----------------------------------------------------------------------
# 11. Observability snapshot (instrumented rerun of small workloads)
# ----------------------------------------------------------------------
def bench_observability(workers: int) -> dict:
    """A small instrumented pass recording the hot-path counters.

    Runs *after* the timed benches (which execute with instrumentation
    disabled, the production configuration) so the snapshot documents
    what the counters look like without perturbing the measurements.
    """
    technology = soi_low_vt()
    with obs.enabled_scope():
        ring = RingOscillatorModel(technology, stages=11)
        optimizer = FixedThroughputOptimizer(ring, cycle_stages=22)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        optimizer.sweep(VT_SWEEP[::4], target)
        optimizer.optimum(target, vt_bounds=(0.05, 0.45))

        netlist = ripple_carry_adder(4)
        vectors = random_bus_vectors({"a": 4, "b": 4}, count=20, seed=1)
        SwitchLevelSimulator(netlist, technology, vdd=1.0).run_vectors(vectors)

        module = _bench_grid_module()
        grid = [i / 8 for i in range(1, 9)]
        energy_ratio_surface(
            module, 1.0, 1e-6, grid, grid, workers=workers
        )

        Machine(build_workload(_BENCH_WORKLOAD, scale=16)).run_counted()

        obs.gauge("ring.corners", ring.cache_info().currsize)
        obs.gauge("ring.corner_hit_rate", ring.cache_info().hit_rate)
        return obs.snapshot()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, workers: int) -> dict:
    results = {
        "meta": {
            "generated_unix": time.time(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "quick": quick,
        },
        "simulator": bench_simulator(quick),
        "optimizer_sweep": bench_optimizer(quick),
        "contour_grid": bench_contour(quick, workers),
        "monte_carlo": bench_monte_carlo(quick, workers),
        "interpreter": bench_interpreter(quick),
        "profiler": bench_profiler(quick),
        "variation": bench_variation(quick),
        "contour": bench_contour_refine(quick),
        "yield_optimum": bench_yield_optimum(quick),
        "scheduler": bench_scheduler(quick),
        "surface": bench_surface(quick),
        "observability": bench_observability(workers),
    }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads for CI smoke runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the grid fan-out benches",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_hotpaths.json",
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args(argv)

    results = run(args.quick, args.workers)
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    sim = results["simulator"]
    opt = results["optimizer_sweep"]
    grid = results["contour_grid"]
    mc = results["monte_carlo"]
    interp = results["interpreter"]
    prof = results["profiler"]
    var = results["variation"]
    contour = results["contour"]
    yld = results["yield_optimum"]
    sched = results["scheduler"]
    surf = results["surface"]
    print(f"wrote {args.out}")
    for circuit in sim["circuits"]:
        print(
            f"simulator       {circuit['speedup']:6.2f}x  "
            f"({circuit['reference_vectors_per_s']:.0f} -> "
            f"{circuit['kernel_vectors_per_s']:.0f} vectors/s on "
            f"{circuit['circuit']}, identical={circuit['reports_identical']})"
        )
    print(
        f"optimizer sweep {opt['speedup']:6.2f}x amortized over "
        f"{opt['repetitions']} sweeps "
        f"(cold {opt['cold_speedup']:.2f}x, warm {opt['warm_speedup']:.2f}x, "
        f"identical={opt['points_identical']})"
    )
    grid_mode = (
        "small-grid serial fallback"
        if grid["min_items_fallback"]
        else f"on {results['meta']['cpu_count']} CPU(s)"
    )
    print(
        f"contour grid    {grid['parallel_speedup']:6.2f}x with "
        f"workers={grid['workers']} ({grid_mode}, "
        f"identical={grid['grids_identical']})"
    )
    print(
        f"monte carlo     {mc['parallel_speedup']:6.2f}x with "
        f"workers={mc['workers']} "
        f"(identical={mc['distributions_identical']})"
    )
    for section in (interp, interp[_TRANSLATED_WORKLOAD]):
        print(
            f"interpreter     {section['speedup']:6.2f}x  "
            f"({section['reference_instructions_per_s']:.0f} -> "
            f"{section['fast_instructions_per_s']:.0f} instr/s on "
            f"{section['workload']}, "
            f"identical={section['state_identical']})"
        )
    for section in (prof, prof[_TRANSLATED_WORKLOAD]):
        print(
            f"profiler        {section['speedup']:6.2f}x  "
            f"({section['reference_instructions_per_s']:.0f} -> "
            f"{section['fast_instructions_per_s']:.0f} instr/s profiled "
            f"on {section['workload']}, "
            f"identical={section['profiles_identical']})"
        )
    print(
        f"variation       {var['speedup']:6.2f}x  "
        f"(delay {var['delay_speedup']:.2f}x, "
        f"leakage {var['leakage_speedup']:.2f}x over "
        f"{var['samples']} samples, identical={var['identical']})"
    )
    print(
        f"contour refine  {contour['speedup']:6.2f}x  "
        f"({contour['points_evaluated']}/{contour['uniform_points']} points "
        f"= {contour['coverage']:.0%} of the uniform grid, "
        f"identical={contour['identical']}, "
        f"contour_match={contour['contour_match']})"
    )
    print(
        f"yield optimum   {yld['statistical_seconds'] / yld['nominal_seconds']:6.2f}x nominal cost  "
        f"(guard band {yld['guard_band_v'] * 1000:.0f} mV at p{yld['percentile']:g} "
        f"over {yld['samples']} samples, "
        f"identical={yld['identical']})"
    )
    print(
        f"scheduler       {sched['worker_runs']['2']['speedup_vs_serial']:6.2f}x with 2 workers "
        f"({sched['worker_runs']['1']['speedup_vs_serial']:.2f}x with 1, "
        f"scaling {sched['scaling_2w_over_1w']:.2f}x over "
        f"{sched['items']} items, identical={sched['identical']})"
    )
    print(
        f"energy surface  {surf['speedup']:6.2f}x  "
        f"({surf['reference_cells_per_s']:.0f} -> "
        f"{surf['planned_cells_per_s']:.0f} cells/s over a "
        f"{surf['grid'][0]}x{surf['grid'][1]} (V_T, V_DD) grid, "
        f"identical={surf['identical']})"
    )
    n_counters = len(results["observability"]["counters"])
    n_timers = len(results["observability"]["timers"])
    print(
        f"observability   {n_counters} counters, {n_timers} timers "
        "recorded from the instrumented pass"
    )

    ok = (
        sim["reports_identical"]
        and opt["points_identical"]
        and grid["grids_identical"]
        and mc["distributions_identical"]
        and interp["state_identical"]
        and interp[_TRANSLATED_WORKLOAD]["state_identical"]
        and prof["profiles_identical"]
        and prof[_TRANSLATED_WORKLOAD]["profiles_identical"]
        and var["identical"]
        and contour["identical"]
        and contour["contour_match"]
        and yld["identical"]
        and sched["identical"]
        and surf["identical"]
    )
    if not ok:
        print("ERROR: fast/parallel paths diverged from reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
