"""Hot-path performance benchmark for the repro toolkit.

Times the paths the performance layer optimizes and writes the
measurements to ``BENCH_hotpaths.json`` at the repo root:

1. **Switch-level simulation** — the dict-keyed reference event loop
   (the test-only oracle in ``tests/switchsim/event_oracle.py``) vs the
   indexed event kernel behind ``SwitchLevelSimulator.run_vectors``, on
   a ripple-carry adder and on the Fig. 10 8-bit array multiplier at 80
   vectors, under identical random stimulus.  The kernel must produce a
   bit-identical :class:`ActivityReport`.
2. **Fixed-throughput optimizer V_T sweep** (Figs. 3-4) — the per-V_T
   chain (a fresh, uncached ``technology.with_vt(vt)`` characterizer
   per query, one supply probe at a time: the test-only oracle in
   ``tests/power/pervt_oracle.py``) vs the ring model's one
   zero-threshold decode, whose supply solves run in lockstep, each
   repetition on a freshly built model.  Operating points must match
   exactly, and so must the two chains' ``optimum`` (its coarse scan
   one lockstep batch).
3. **ISA interpreter** — the reference per-step loop (``run``) vs the
   decoded block-dispatch engine (``run_fast``) on the Table-2 li-like
   workload, and on matmul, which retires most of its instructions in
   translated blocks.  Architectural state must be bit-identical.
4. **ATOM profiler** — the hook-instrumented reference profile vs the
   counter-based decoded profile (``run_counted`` +
   ``profile_from_counts``) on the same two workloads.  Profiles must
   be identical; the acceptance target is a >=5x speedup.
5. **Batched variation engine** — the per-sample Monte-Carlo path (one
   scalar ``propagation_delay``/``leakage_current`` query per V_T
   sample, each a one-element call of the cell's corner plan) vs the
   analyzer's one fixed-V_DD kernel call of that
   :class:`~repro.tech.opplan.CornerPlan` over the same shift vector.
   Samples must be bit-identical.
6. **Yield-constrained optimum** — the nominal optimum through the
   flow vs the seed optimizer (bit-identical), and the p-th percentile
   optimum's guard band and cost.
7. **Batched (V_DD, V_T) energy surface** — the per-point chain (one
   ``fanout_delay``/``energy_per_transition``/``leakage_current`` call
   stack per grid cell, one characterizer per V_T corner) vs
   the plan-based Fig. 3/4 ``energy_surface`` whose rows are batched
   kernel calls of one decoded corner plan.  Grids must be
   bit-identical; the acceptance target is a >=3x speedup.
8. **Module timing** — the module optimizer's ``optimum`` on the 8-bit
   ripple adder at three utilizations, through one decoded
   :class:`~repro.circuits.plan.NetlistPlan` vs the per-pin,
   per-instance chain (static timing at every probe, the test-only
   oracle in ``tests/power/module_oracle.py``).  Optima must be
   bit-identical.

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
from repro.analysis.contour import energy_ratio_surface
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
    ModuleThroughputOptimizer,
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


def _repeats(quick: bool) -> int:
    """Timed repeats per side for the sub-millisecond batched calls,
    whose single timings are too noisy to compare across runs."""
    return 3 if quick else 9


def _best_of(repeats: int, fn):
    """(result of the last call, fastest of ``repeats`` timed calls)."""
    best = float("inf")
    for _ in range(repeats):
        result, elapsed = _timed(fn)
        best = min(best, elapsed)
    return result, best


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
# 2. Optimizer sweep: per-V_T corners vs the one zero-threshold decode
# ----------------------------------------------------------------------
def bench_optimizer(quick: bool) -> dict:
    sys.path.insert(0, str(REPO_ROOT))
    from tests.power.pervt_oracle import PerVtRing

    repetitions = 2 if quick else 5
    vts = VT_SWEEP[::4] if quick else VT_SWEEP
    technology = soi_low_vt()

    def per_vt_sweep():
        # The oracle runs its own locus chain over its per-V_T corners.
        oracle = PerVtRing(technology, stages=101)
        return oracle.sweep(vts, 4.0 * oracle.stage_delay(1.0, 0.2))

    def decoded_sweep():
        ring = RingOscillatorModel(technology, stages=101)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        return FixedThroughputOptimizer(ring).sweep(vts, target)

    # Before: a fresh, uncached technology/characterizer/plan chain for
    # every V_T query.  After: one ring decode serving every V_T.  Each
    # repetition builds its model, as one `repro optimize` does; one
    # untimed sweep each first keeps one-time setup out of the ratio.
    per_vt_sweep()
    decoded_sweep()
    per_vt_rep_seconds = []
    per_vt_points = None
    decoded_rep_seconds = []
    decoded_points = None
    for _ in range(repetitions):
        per_vt_points, elapsed = _timed(per_vt_sweep)
        per_vt_rep_seconds.append(elapsed)
        decoded_points, elapsed = _timed(decoded_sweep)
        decoded_rep_seconds.append(elapsed)

    per_vt_total = sum(per_vt_rep_seconds)
    decoded_total = sum(decoded_rep_seconds)
    oracle = PerVtRing(technology, stages=101)
    ring = RingOscillatorModel(technology, stages=101)
    target = 4.0 * ring.stage_delay(1.0, 0.2)
    optimum_identical = (
        FixedThroughputOptimizer(ring).optimum(target)
        == oracle.optimum(target)
    )
    return {
        "vt_points": len(vts),
        "repetitions": repetitions,
        "per_vt_seconds_per_sweep": per_vt_rep_seconds,
        "decoded_seconds_per_sweep": decoded_rep_seconds,
        "per_vt_seconds_total": per_vt_total,
        "decoded_seconds_total": decoded_total,
        "speedup": per_vt_total / decoded_total,
        "points_identical": per_vt_points == decoded_points,
        "optimum_identical": optimum_identical,
    }


# ----------------------------------------------------------------------
# 3. ISA interpreter: reference stepper vs decoded dispatch engine
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
# 4. ATOM profiler: per-instruction hook vs decoded transition counters
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
# 5. Batched variation engine: per-sample chain vs decoded plan
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

    # Before: the per-sample path — one scalar characterizer query per
    # V_T sample, each a one-element plan call that recomputes the
    # supply's C(V) terms.  Both sides run the
    # characterizer's one StackSolver per stack, which solves the
    # shift-0 reference once per V_DD and answers every in-window shift
    # with one exp, so the leakage ratio only measures the per-sample
    # call overhead the batch hoists; the delay half carries the
    # overall ratio.  After: the analyzer pushes the whole shift vector
    # through one kernel call of the cell's plan, the supply's terms
    # computed once.
    #
    # Each side takes the fastest of the same number of repeats, each
    # repeat on a fresh characterizer and analyzer: the analyzer keeps
    # its last leakage distribution and the characterizer its decoded
    # plans, so a second call on the same pair would time a lookup.
    ref_delay_seconds = ref_leakage_seconds = float("inf")
    fast_delay_seconds = fast_leakage_seconds = float("inf")
    for _ in range(_repeats(quick)):
        reference = CellCharacterizer(technology)
        ref_delays, elapsed = _timed(
            lambda: [
                reference.propagation_delay(cell, vdd, load_f, vt_shift=s)
                for s in shifts
            ]
        )
        ref_delay_seconds = min(ref_delay_seconds, elapsed)
        ref_leakages, elapsed = _timed(
            lambda: [
                reference.leakage_current(cell, vdd, vt_shift=s)
                for s in shifts
            ]
        )
        ref_leakage_seconds = min(ref_leakage_seconds, elapsed)

        analyzer = MonteCarloAnalyzer(
            technology, n_samples=n_samples, seed=0
        )
        delay_dist, elapsed = _timed(
            lambda: analyzer.delay_distribution(cell, vdd, load_f)
        )
        fast_delay_seconds = min(fast_delay_seconds, elapsed)
        leakage_dist, elapsed = _timed(
            lambda: analyzer.leakage_distribution(cell, vdd)
        )
        fast_leakage_seconds = min(fast_leakage_seconds, elapsed)

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
# 6. Yield-constrained optimum vs the nominal seed path (soias)
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
    seed_optimizer = FixedThroughputOptimizer(seed_ring)
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
# 7. Batched energy surface: per-point chain vs the decoded corner plan
# ----------------------------------------------------------------------
def bench_surface(quick: bool) -> dict:
    """The Fig. 3/4 plane: per-point characterization vs plan kernels.

    The reference replicates what the surface does cell by cell with
    the pre-plan call chain — one characterizer per V_T corner,
    a full ``fanout_delay`` feasibility probe and (where feasible) the
    ``energy_per_transition``/``leakage_current`` pair per V_DD point,
    associated exactly like ``RingOscillatorModel.energy_per_cycle``.
    The plan path must reproduce it float for float.  Each side is
    timed as the fastest of the same number of repeats.
    """
    from repro.analysis.surface import energy_surface

    n_vt = 10 if quick else 20
    n_vdd = 16 if quick else 40
    stages = 11
    activity = 1.0
    t_cycle_s = 5e-8  # 20 MHz: part of the plane is infeasible
    target = t_cycle_s / (2 * stages)
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

    repeats = _repeats(quick)
    reference, ref_seconds = _best_of(repeats, per_point_chain)
    planned, plan_seconds = _best_of(
        repeats,
        lambda: energy_surface(
            technology, vts, vdds, t_cycle_s,
            stages=stages, activity=activity,
        ),
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
# 8. Module timing: one decoded netlist plan vs the per-instance chain
# ----------------------------------------------------------------------
#: The module-optimum ablation's utilizations.
MODULE_UTILIZATIONS = (1.0, 0.1, 0.02)


def bench_module_timing(quick: bool) -> dict:
    # The per-instance chain is a test-only oracle, imported from tests/.
    sys.path.insert(0, str(REPO_ROOT))
    from tests.power.module_oracle import PerInstanceModule

    technology = soi_low_vt()
    width = 4 if quick else 8
    adder = ripple_carry_adder(width)
    report = SwitchLevelSimulator(adder, technology, 1.0).run_vectors(
        random_bus_vectors({"a": width, "b": width}, 80, seed=1996)
    )
    base_vt = technology.transistors.nmos.vt0

    def planned():
        optimizer = ModuleThroughputOptimizer(adder, technology, report)
        target = 3.0 * optimizer.delay(1.0, base_vt)
        return [
            optimizer.optimum(target, utilization=utilization)
            for utilization in MODULE_UTILIZATIONS
        ]

    def chain():
        oracle = PerInstanceModule(adder, technology, report)
        target = 3.0 * oracle.delay(1.0, 0.0)
        return [
            oracle.optimum(
                target,
                ModuleThroughputOptimizer._VT_BOUNDS,
                ModuleThroughputOptimizer._TOLERANCE,
                utilization,
            )
            for utilization in MODULE_UTILIZATIONS
        ]

    # Each call builds its optimizer (and plan) or its oracle afresh;
    # the fastest of a few calls per side.
    repeats = 1 if quick else 3
    planned_optima, planned_seconds = _best_of(repeats, planned)
    chain_optima, chain_seconds = _best_of(repeats, chain)
    return {
        "circuit": adder.name,
        "utilizations": list(MODULE_UTILIZATIONS),
        "optima": [
            {"vt": p.vt, "vdd": p.vdd, "energy_j": p.energy_per_cycle_j}
            for p in planned_optima
        ],
        "chain_seconds": chain_seconds,
        "plan_seconds": planned_seconds,
        "speedup": chain_seconds / planned_seconds,
        "identical": planned_optima == chain_optima,
    }


# ----------------------------------------------------------------------
# 9. Observability snapshot (instrumented rerun of small workloads)
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


def bench_observability() -> dict:
    """A small instrumented pass recording the hot-path counters.

    Runs *after* the timed benches (which execute with instrumentation
    disabled, the production configuration) so the snapshot documents
    what the counters look like without perturbing the measurements.
    """
    technology = soi_low_vt()
    with obs.enabled_scope():
        ring = RingOscillatorModel(technology, stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        optimizer.sweep(VT_SWEEP[::4], target)
        optimizer.optimum(target, vt_bounds=(0.05, 0.45))

        netlist = ripple_carry_adder(4)
        vectors = random_bus_vectors({"a": 4, "b": 4}, count=20, seed=1)
        SwitchLevelSimulator(netlist, technology, vdd=1.0).run_vectors(vectors)

        module = _bench_grid_module()
        grid = [i / 8 for i in range(1, 9)]
        energy_ratio_surface(module, 1.0, 1e-6, grid, grid)

        Machine(build_workload(_BENCH_WORKLOAD, scale=16)).run_counted()
        return obs.snapshot()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool) -> dict:
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
        "interpreter": bench_interpreter(quick),
        "profiler": bench_profiler(quick),
        "variation": bench_variation(quick),
        "yield_optimum": bench_yield_optimum(quick),
        "surface": bench_surface(quick),
        "module_timing": bench_module_timing(quick),
        "observability": bench_observability(),
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
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_hotpaths.json",
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args(argv)

    results = run(args.quick)
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    sim = results["simulator"]
    opt = results["optimizer_sweep"]
    interp = results["interpreter"]
    prof = results["profiler"]
    var = results["variation"]
    yld = results["yield_optimum"]
    surf = results["surface"]
    module = results["module_timing"]
    print(f"wrote {args.out}")
    for circuit in sim["circuits"]:
        print(
            f"simulator       {circuit['speedup']:6.2f}x  "
            f"({circuit['reference_vectors_per_s']:.0f} -> "
            f"{circuit['kernel_vectors_per_s']:.0f} vectors/s on "
            f"{circuit['circuit']}, identical={circuit['reports_identical']})"
        )
    print(
        f"optimizer sweep {opt['speedup']:6.2f}x over "
        f"{opt['repetitions']} fresh-model sweeps "
        f"(identical={opt['points_identical']}, "
        f"optimum identical={opt['optimum_identical']})"
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
        f"yield optimum   {yld['statistical_seconds'] / yld['nominal_seconds']:6.2f}x nominal cost  "
        f"(guard band {yld['guard_band_v'] * 1000:.0f} mV at p{yld['percentile']:g} "
        f"over {yld['samples']} samples, "
        f"identical={yld['identical']})"
    )
    print(
        f"energy surface  {surf['speedup']:6.2f}x  "
        f"({surf['reference_cells_per_s']:.0f} -> "
        f"{surf['planned_cells_per_s']:.0f} cells/s over a "
        f"{surf['grid'][0]}x{surf['grid'][1]} (V_T, V_DD) grid, "
        f"identical={surf['identical']})"
    )
    print(
        f"module timing   {module['speedup']:6.2f}x  "
        f"({module['chain_seconds']:.2f} -> {module['plan_seconds']:.2f} s "
        f"for {len(module['utilizations'])} optima on {module['circuit']}, "
        f"identical={module['identical']})"
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
        and opt["optimum_identical"]
        and interp["state_identical"]
        and interp[_TRANSLATED_WORKLOAD]["state_identical"]
        and prof["profiles_identical"]
        and prof[_TRANSLATED_WORKLOAD]["profiles_identical"]
        and var["identical"]
        and yld["identical"]
        and surf["identical"]
        and module["identical"]
    )
    if not ok:
        print("ERROR: fast paths diverged from reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
