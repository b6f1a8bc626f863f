"""Command-line interface to the toolkit.

Five subcommands mirror the paper's tool chain, seven more cover the
extensions::

    python -m repro profile --workload idea            # Tables 1-3
    python -m repro activity --circuit adder --width 8 # Figs. 8-9
    python -m repro optimize --delay-factor 4          # Figs. 3-4
    python -m repro compare --duty 0.2                 # Fig. 10
    python -m repro contour --grid 24                  # Fig. 10 surface
    python -m repro surface --grid 12 --refine 2       # Fig. 3/4 plane
    python -m repro variation --cell INV --vdd 0.5     # V_T Monte-Carlo
    python -m repro characterize --vdd 0.8 1.0 1.2     # liberty-lite
    python -m repro margins --floor 0.3                # V_DD floor
    python -m repro shutdown                           # policies
    python -m repro recover --circuit adder            # dual-V_T+sizing
    python -m repro runs list                          # run manifests

Every subcommand prints an ASCII table; ``characterize`` can also
write a JSON library.  ``optimize``, ``compare``, ``contour``,
``surface`` and ``variation`` accept ``--record`` (write a run
manifest under ``.repro/runs/`` — see ``docs/store.md``).  Every
verb evaluates serially in the calling process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import List, Optional, Sequence

from repro import obs
from repro.analysis.contour import zero_crossing_cells
from repro.analysis.tables import format_profile, format_table
from repro.circuits.builders import (
    array_multiplier,
    barrel_shifter,
    ripple_carry_adder,
)
from repro.core.flow import LowVoltageDesignFlow
from repro.core.scenarios import standard_datapath
from repro.device.technology import (
    bulk_cmos_06um,
    mtcmos_technology,
    soi_low_vt,
    soias_technology,
)
from repro.errors import ReproError
from repro.isa.profiler import profile_program
from repro.isa.workloads import WORKLOAD_NAMES, build as build_workload
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import counting_bus_vectors, random_bus_vectors
from repro.tech.library import CellLibrary

__all__ = ["main", "build_parser"]

_TECHNOLOGIES = {
    "soi": soi_low_vt,
    "soias": soias_technology,
    "mtcmos": mtcmos_technology,
    "bulk": bulk_cmos_06um,
}

_UNITS = ("adder", "shifter", "multiplier", "logic", "memory", "control")


def _record_run(
    args: argparse.Namespace, inputs: dict, result, wall_time_s: float
) -> None:
    """Persist a run manifest when ``--record`` was passed."""
    if not getattr(args, "record", False):
        return
    from repro.store import RunRegistry

    manifest = RunRegistry(args.runs_root).record(
        args.command,
        inputs,
        result,
        wall_time_s,
        metrics=dict(obs.snapshot()["counters"]),
    )
    print(
        f"\nRun recorded: {manifest.run_id} "
        f"(inputs {manifest.inputs_digest[:12]}, "
        f"result {manifest.result_digest[:12]})"
    )


def _profile_engine(args: argparse.Namespace) -> str:
    return "reference" if getattr(args, "reference", False) else "fast"


def _variation_spec(args: argparse.Namespace):
    """VariationSpec from the --yield-* flags, or None when unset."""
    if getattr(args, "yield_percentile", None) is None:
        return None
    from repro.power.optimizer import VariationSpec

    return VariationSpec(
        percentile=args.yield_percentile,
        vt_sigma=args.sigma,
        n_samples=args.samples,
        seed=args.seed,
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    engine = _profile_engine(args)
    programs = [
        build_workload(name, args.scale) for name in args.workload
    ]
    profiles = [profile_program(p, engine=engine) for p in programs]
    profile = functools.reduce(lambda a, b: a.merged_with(b), profiles)
    if args.duty != 1.0:
        profile = profile.scaled_by_duty_cycle(args.duty)
    print(
        format_profile(
            profile,
            _UNITS,
            title=(
                f"Profile of {'+'.join(args.workload)} "
                f"({profile.total_instructions} instruction slots, "
                f"duty {args.duty:g})"
            ),
        )
    )
    return 0


def _build_circuit(name: str, width: int):
    if name == "adder":
        return ripple_carry_adder(width), {"a": width, "b": width}
    if name == "multiplier":
        return array_multiplier(width), {"a": width, "b": width}
    if name == "shifter":
        if width < 1:
            raise ReproError(f"circuit width must be >= 1, got {width}")
        # The barrel shifter needs a power-of-two width of at least 2;
        # width 1 would round to 1 and be rejected by the builder.
        rounded = max(2, 1 << (width - 1).bit_length())
        return barrel_shifter(rounded), {
            "a": rounded,
            "s": rounded.bit_length() - 1,
        }
    raise ReproError(f"unknown circuit {name!r}")


def _cmd_activity(args: argparse.Namespace) -> int:
    netlist, buses = _build_circuit(args.circuit, args.width)
    technology = _TECHNOLOGIES[args.technology]()
    if args.stimulus == "random":
        vectors = random_bus_vectors(buses, args.vectors, seed=args.seed)
    else:
        counting = sorted(buses)[1] if len(buses) > 1 else next(iter(buses))
        fixed = {
            name: (args.seed * 37) % (2 ** buses[name])
            for name in buses
            if name != counting
        }
        vectors = counting_bus_vectors(
            counting,
            buses[counting],
            args.vectors,
            fixed_buses=fixed,
            fixed_widths={n: buses[n] for n in fixed},
        )
    simulator = SwitchLevelSimulator(netlist, technology, args.vdd)
    report = simulator.run_vectors(vectors)
    edges, counts = report.histogram(bins=args.bins)
    rows = [
        [f"{edges[i]:.3f}-{edges[i + 1]:.3f}", counts[i]]
        for i in range(args.bins)
    ]
    energy = report.switching_energy_per_cycle(
        netlist, technology, args.vdd
    )
    print(
        format_table(
            ["transition probability", "nodes"],
            rows,
            title=(
                f"{args.circuit} x{args.width}, {args.stimulus} stimulus: "
                f"mean activity {report.mean_activity():.3f}, "
                f"E_sw {energy:.3e} J/cycle at {args.vdd} V"
            ),
        )
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    technology = _TECHNOLOGIES[args.technology]()
    spec = _variation_spec(args)
    flow = LowVoltageDesignFlow(technology=technology, variation=spec)
    optimizer = flow.throughput_optimizer(
        stages=args.stages, activity=args.activity
    )
    target = args.delay_factor * optimizer.ring.stage_delay(1.0, 0.2)
    points = optimizer.sweep([0.04 + 0.02 * i for i in range(20)], target)
    rows = [
        [p.vt, p.vdd, p.energy_per_cycle_j, p.leakage_fraction]
        for p in points
    ]
    best = optimizer.optimum(target, vt_bounds=(0.02, 0.45))
    print(
        format_table(
            ["V_T [V]", "V_DD [V]", "E/cycle [J]", "leak frac"],
            rows,
            title=(
                f"Fixed-delay locus, target {target:.3e} s/stage "
                f"(activity {args.activity:g})"
            ),
        )
    )
    print(
        f"\nOptimum: V_T = {best.vt:.3f} V, V_DD = {best.vdd:.3f} V, "
        f"E = {best.energy_per_cycle_j:.3e} J/cycle"
    )
    if spec is not None:
        print(
            f"Yield: p{spec.percentile:g} delay = "
            f"{best.delay_percentile_s:.3e} s "
            f"(sigma {spec.vt_sigma:g} V, {spec.n_samples} samples, "
            f"seed {spec.seed}), leakage amplification "
            f"{best.leakage_amplification:.2f}x measured / "
            f"{best.lognormal_amplification:.2f}x lognormal"
        )
    inputs = {
        "technology": args.technology,
        "delay_factor": args.delay_factor,
        "stages": args.stages,
        "activity": args.activity,
    }
    result = {
        "target_stage_delay_s": target,
        "locus": [[p.vt, p.vdd, p.energy_per_cycle_j] for p in points],
        "optimum": {
            "vt": best.vt,
            "vdd": best.vdd,
            "energy_per_cycle_j": best.energy_per_cycle_j,
        },
    }
    # Yield keys are added only in statistical mode so nominal runs
    # keep their manifest digests from before this feature existed.
    if spec is not None:
        inputs["yield"] = {
            "percentile": spec.percentile,
            "vt_sigma": spec.vt_sigma,
            "n_samples": spec.n_samples,
            "seed": spec.seed,
        }
        result["optimum"]["delay_percentile_s"] = best.delay_percentile_s
        result["optimum"]["leakage_amplification"] = (
            best.leakage_amplification
        )
        result["optimum"]["lognormal_amplification"] = (
            best.lognormal_amplification
        )
    _record_run(
        args,
        inputs=inputs,
        result=result,
        wall_time_s=time.perf_counter() - started,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec = _variation_spec(args)
    flow = LowVoltageDesignFlow(
        vdd=args.vdd, clock_hz=args.clock, variation=spec
    )
    datapath = standard_datapath(
        width=args.width, stimulus_vectors=args.vectors
    )
    engine = _profile_engine(args)
    programs = [
        build_workload(name, args.scale) for name in args.workload
    ]
    session = functools.reduce(
        lambda a, b: a.merged_with(b),
        [profile_program(p, engine=engine) for p in programs],
    ).scaled_by_duty_cycle(args.duty)
    rows = []
    for name, unit in datapath.items():
        fga, bga = session.fga(name), session.bga(name)
        report = flow.unit_activity(unit.netlist, unit.vectors)
        module = flow.module_parameters(unit.netlist, report)
        verdicts = flow.comparator(module).all_verdicts(fga, bga)
        rows.append(
            [
                name,
                fga,
                bga,
                verdicts["soias"].saving_percent,
                verdicts["mtcmos"].saving_percent,
                verdicts["vtcmos"].saving_percent,
            ]
        )
    print(
        format_table(
            ["unit", "fga", "bga", "SOIAS %", "MTCMOS %", "VTCMOS %"],
            rows,
            title=(
                f"Burst-mode savings vs fixed-low-V_T SOI "
                f"(duty {args.duty:g}, {args.clock:g} Hz, {args.vdd} V)"
            ),
        )
    )
    compare_inputs = {
        "workload": list(args.workload),
        "engine": engine,
        "scale": args.scale,
        "duty": args.duty,
        "width": args.width,
        "vectors": args.vectors,
        "vdd": args.vdd,
        "clock": args.clock,
    }
    if spec is not None:
        compare_inputs["yield"] = {
            "percentile": spec.percentile,
            "vt_sigma": spec.vt_sigma,
            "n_samples": spec.n_samples,
            "seed": spec.seed,
        }
    _record_run(
        args,
        inputs=compare_inputs,
        result={
            row[0]: {
                "fga": row[1],
                "bga": row[2],
                "soias_percent": row[3],
                "mtcmos_percent": row[4],
                "vtcmos_percent": row[5],
            }
            for row in rows
        },
        wall_time_s=time.perf_counter() - started,
    )
    return 0


def _cmd_contour(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    flow = LowVoltageDesignFlow(vdd=args.vdd, clock_hz=args.clock)
    datapath = standard_datapath(
        width=args.width, stimulus_vectors=args.vectors
    )
    unit = datapath[args.unit]
    report = flow.unit_activity(unit.netlist, unit.vectors)
    module = flow.module_parameters(unit.netlist, report)
    grid = [i / args.grid for i in range(1, args.grid + 1)]
    surface = flow.ratio_surface(module, grid, grid)
    defined = [
        (fga, bga, value)
        for i, fga in enumerate(surface.grid.xs)
        for j, bga in enumerate(surface.grid.ys)
        if (value := surface.grid.at(i, j)) is not None
    ]
    if not defined:
        raise ReproError("contour grid has no defined cells")
    best = min(defined, key=lambda cell: cell[2])
    worst = max(defined, key=lambda cell: cell[2])
    contour_cells = zero_crossing_cells(surface.grid.zs)
    rows = [
        ["grid", f"{args.grid} x {args.grid}", "", ""],
        ["defined cells", surface.grid.defined_cells(), "", ""],
        ["best log10 ratio", f"{best[2]:+.3f}", best[0], best[1]],
        ["worst log10 ratio", f"{worst[2]:+.3f}", worst[0], worst[1]],
        ["contour cells", len(contour_cells), "", ""],
    ]
    print(
        format_table(
            ["quantity", "value", "fga", "bga"],
            rows,
            title=(
                f"{args.unit} x{args.width} SOIAS/SOI surface at "
                f"{args.vdd} V, {args.clock:g} Hz"
            ),
        )
    )
    _record_run(
        args,
        inputs={
            "unit": args.unit,
            "width": args.width,
            "vectors": args.vectors,
            "vdd": args.vdd,
            "clock": args.clock,
            "grid": args.grid,
        },
        result={
            "defined_cells": surface.grid.defined_cells(),
            "zs": [list(row) for row in surface.grid.zs],
            "contour_cells": [list(cell) for cell in contour_cells],
        },
        wall_time_s=time.perf_counter() - started,
    )
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.grid < 2:
        raise ReproError("surface grid must be at least 2 x 2")
    if not args.vt_min < args.vt_max:
        raise ReproError("--vt-min must be below --vt-max")
    if not 0.0 < args.vdd_min < args.vdd_max:
        raise ReproError("need 0 < --vdd-min < --vdd-max")
    flow = LowVoltageDesignFlow(
        technology=_TECHNOLOGIES[args.technology](), clock_hz=args.clock
    )
    steps = args.grid - 1
    vt_values = [
        args.vt_min + (args.vt_max - args.vt_min) * i / steps
        for i in range(args.grid)
    ]
    vdd_values = [
        args.vdd_min + (args.vdd_max - args.vdd_min) * j / steps
        for j in range(args.grid)
    ]
    surface = flow.energy_surface(
        vt_values,
        vdd_values,
        stages=args.stages,
        activity=args.activity,
        refine_levels=args.refine,
        refine_band=args.refine_band,
    )
    locus = surface.optimum_locus()
    if not locus:
        raise ReproError(
            "no feasible (V_DD, V_T) cell at this clock; widen the "
            "V_DD range or slow the clock"
        )
    vdd_best, vt_best, energy_best = surface.optimum()
    rows = [
        ["grid", f"{args.grid} x {args.grid}", "", ""],
        ["feasible cells", surface.grid.defined_cells(), "", ""],
        [
            "stage-delay budget",
            f"{surface.target_stage_delay_s:.3e} s",
            "",
            "",
        ],
        ["optimum energy", f"{energy_best:.3e} J", vdd_best, vt_best],
    ]
    for vt, vdd, energy in locus:
        rows.append(["locus", f"{energy:.3e} J", f"{vdd:.3f}", f"{vt:.3f}"])
    refined = surface.refined
    if refined is not None:
        rows.extend(
            [
                [
                    "refined grid",
                    f"{len(refined.xs)} x {len(refined.ys)}",
                    "",
                    "",
                ],
                [
                    "points evaluated",
                    f"{refined.evaluated}/{refined.total_points} "
                    f"({100.0 * refined.coverage:.1f}%)",
                    "",
                    "",
                ],
                [
                    "cells refined/skipped",
                    f"{refined.cells_refined}/{refined.cells_skipped}",
                    "",
                    "",
                ],
            ]
        )
    print(
        format_table(
            ["quantity", "value", "vdd", "vt"],
            rows,
            title=(
                f"{args.technology} energy surface at {args.clock:g} Hz, "
                f"{args.stages} stages"
            ),
        )
    )
    inputs = {
        "technology": args.technology,
        "clock": args.clock,
        "stages": args.stages,
        "activity": args.activity,
        "grid": args.grid,
        "vt_range": [args.vt_min, args.vt_max],
        "vdd_range": [args.vdd_min, args.vdd_max],
    }
    _record_run(
        args,
        inputs=inputs,
        result={
            "feasible_cells": surface.grid.defined_cells(),
            "optimum": [vdd_best, vt_best, energy_best],
            "locus": [list(row) for row in locus],
            "zs": [list(row) for row in surface.grid.zs],
            "refined": None
            if refined is None
            else {
                "levels": refined.levels,
                "band": refined.band,
                "evaluated": refined.evaluated,
                "total_points": refined.total_points,
            },
        },
        wall_time_s=time.perf_counter() - started,
    )
    return 0


def _cmd_variation(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    from repro.analysis.variation import (
        MonteCarloAnalyzer,
        lognormal_leakage_amplification,
    )
    from repro.tech.cells import standard_cells

    technology = _TECHNOLOGIES[args.technology]()
    cells = standard_cells()
    if args.cell not in cells:
        raise ReproError(
            f"unknown cell {args.cell!r}; available: "
            f"{', '.join(sorted(cells))}"
        )
    cell = cells[args.cell]
    analyzer = MonteCarloAnalyzer(
        technology,
        vt_sigma=args.sigma,
        n_samples=args.samples,
        seed=args.seed,
    )
    delay = analyzer.delay_distribution(
        cell, args.vdd, args.load_ff * 1e-15
    )
    leakage = analyzer.leakage_distribution(cell, args.vdd)
    amplification = analyzer.leakage_amplification(cell, args.vdd)
    predicted = lognormal_leakage_amplification(
        args.sigma, technology.transistors.nmos.subthreshold_swing
    )
    label = f"p{args.percentile:g}"
    rows = [
        [
            "delay [s]",
            delay.mean,
            delay.std,
            delay.coefficient_of_variation,
            delay.percentile(args.percentile),
        ],
        [
            "leakage [A]",
            leakage.mean,
            leakage.std,
            leakage.coefficient_of_variation,
            leakage.percentile(args.percentile),
        ],
    ]
    print(
        format_table(
            ["quantity", "mean", "std", "CV", label],
            rows,
            title=(
                f"{args.cell} V_T variation on {technology.name} at "
                f"{args.vdd} V (sigma {args.sigma} V, {args.samples} "
                f"samples)"
            ),
        )
    )
    print(
        f"\nLeakage amplification: measured {amplification:.3f}x, "
        f"lognormal closed form {predicted:.3f}x"
    )
    inputs = {
        "cell": args.cell,
        "technology": args.technology,
        "vdd": args.vdd,
        "sigma": args.sigma,
        "samples": args.samples,
        "seed": args.seed,
        "load_ff": args.load_ff,
    }
    _record_run(
        args,
        inputs=inputs,
        result={
            "delay_samples": list(delay.samples),
            "leakage_samples": list(leakage.samples),
            "amplification": amplification,
        },
        wall_time_s=time.perf_counter() - started,
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    technology = _TECHNOLOGIES[args.technology]()
    library = CellLibrary.characterized(
        technology,
        vdd_grid=args.vdd,
        vt_shift_grid=args.vt_shift,
        load_f=args.load_ff * 1e-15,
    )
    rows = []
    for cell_name in sorted(library.cells):
        corner = library.lookup(cell_name, args.vdd[0], args.vt_shift[0])
        rows.append(
            [
                cell_name,
                corner.delay_s,
                corner.energy_per_transition_j,
                corner.leakage_current_a,
                corner.input_capacitance_f,
            ]
        )
    print(
        format_table(
            ["cell", "delay [s]", "E/tr [J]", "leak [A]", "C_in [F]"],
            rows,
            title=(
                f"{technology.name} @ {args.vdd[0]} V, shift "
                f"{args.vt_shift[0]} V, load {args.load_ff} fF"
            ),
        )
    )
    if args.output:
        library.save(args.output)
        print(f"\nLibrary written to {args.output}")
    return 0


def _cmd_margins(args: argparse.Namespace) -> int:
    from repro.circuits.dc import InverterDcAnalysis

    technology = _TECHNOLOGIES[args.technology]()
    dc = InverterDcAnalysis(technology)
    rows = []
    for vdd in args.vdd:
        margins = dc.noise_margins(vdd)
        rows.append(
            [
                vdd,
                dc.switching_threshold(vdd),
                dc.peak_gain(vdd),
                margins.low,
                margins.high,
                margins.worst / vdd,
            ]
        )
    print(
        format_table(
            ["V_DD [V]", "V_M [V]", "peak gain", "NM_L [V]", "NM_H [V]",
             "worst/V_DD"],
            rows,
            title=f"Inverter noise margins, {technology.name}",
        )
    )
    if args.floor:
        floor = dc.minimum_supply(margin_fraction=args.floor)
        print(
            f"\nMinimum supply for a {args.floor:.0%} worst-margin "
            f"budget: {floor * 1e3:.0f} mV"
        )
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from repro.core.shutdown import (
        OraclePolicy,
        PredictivePolicy,
        ShutdownCosts,
        TimeoutPolicy,
        evaluate_policy,
        synthetic_session_trace,
    )

    if not 0.0 < args.clock < math.inf:
        raise ReproError(
            f"clock must be positive and finite, got {args.clock}"
        )
    costs = ShutdownCosts(
        active_power_w=args.active_mw * 1e-3,
        idle_power_w=args.idle_mw * 1e-3,
        off_power_w=args.off_uw * 1e-6,
        wakeup_energy_j=args.wakeup_uj * 1e-6,
        wakeup_latency_cycles=args.wakeup_latency,
        cycle_time_s=1.0 / args.clock,
    )
    trace = synthetic_session_trace(
        n_periods=args.periods,
        mean_busy_cycles=args.mean_busy,
        mean_idle_cycles=args.mean_idle,
        seed=args.seed,
    )
    breakeven = costs.breakeven_cycles
    policies = [
        ("always-on", TimeoutPolicy(10**12)),
        ("timeout@break-even", TimeoutPolicy(max(int(breakeven), 1))),
        ("predictive", PredictivePolicy(breakeven)),
        ("oracle", OraclePolicy(breakeven)),
    ]
    rows = []
    for name, policy in policies:
        report = evaluate_policy(trace, policy, costs, name)
        rows.append(
            [
                name,
                report.energy_j,
                100.0 * report.saving_vs_always_on,
                report.off_fraction,
                report.wakeups,
            ]
        )
    print(
        format_table(
            ["policy", "energy [J]", "saving %", "off fraction", "wakeups"],
            rows,
            title=(
                f"Shutdown policies (break-even idle = {breakeven:.0f} "
                "cycles)"
            ),
        )
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.power.dualvt import DualVtOptimizer
    from repro.power.sizing import GateSizingOptimizer

    technology = _TECHNOLOGIES[args.technology]()
    netlist, _ = _build_circuit(args.circuit, args.width)
    rows = []
    sizer = GateSizingOptimizer(netlist, technology, vdd=args.vdd)
    sized = sizer.optimize(delay_budget=args.budget)
    rows.append(
        [
            "downsizing",
            sized.downsized_gates,
            sized.capacitance_reduction,
            sized.leakage_reduction,
            sized.delay_penalty,
        ]
    )
    dualvt = DualVtOptimizer(netlist, technology, vdd=args.vdd).optimize(
        delay_budget=args.budget
    )
    rows.append(
        [
            "dual-V_T",
            len(dualvt.high_vt_gates),
            1.0,
            dualvt.leakage_reduction,
            dualvt.delay_penalty,
        ]
    )
    print(
        format_table(
            ["pass", "gates touched", "cap reduction", "leak reduction",
             "delay penalty"],
            rows,
            title=(
                f"Power recovery, {args.circuit} x{args.width} at "
                f"{args.vdd} V (delay budget {args.budget:g})"
            ),
        )
    )
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.store import RunRegistry

    registry = RunRegistry(args.runs_root)
    if args.action == "list":
        manifests = registry.list_manifests()
        if not manifests:
            print(f"No runs recorded under {registry.root}")
            return 0
        rows = [
            [
                manifest.run_id,
                manifest.command,
                manifest.created_utc,
                f"{manifest.wall_time_s:.3f}",
                manifest.result_digest[:12],
            ]
            for manifest in manifests
        ]
        print(
            format_table(
                ["run", "command", "created (UTC)", "wall [s]", "result"],
                rows,
                title=f"Recorded runs in {registry.root}",
            )
        )
        return 0
    if args.action == "show":
        if len(args.run_ids) != 1:
            raise ReproError("runs show needs exactly one run id")
        manifest = registry.load(args.run_ids[0])
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
        return 0
    # diff
    if len(args.run_ids) != 2:
        raise ReproError("runs diff needs exactly two run ids")
    differences = registry.diff(args.run_ids[0], args.run_ids[1])
    if not differences:
        print("Runs are identical (apart from identity).")
        return 0
    rows = [
        [name, str(pair[0]), str(pair[1])]
        for name, pair in sorted(differences.items())
    ]
    print(
        format_table(
            ["field", args.run_ids[0], args.run_ids[1]],
            rows,
            title="Run differences",
        )
    )
    return 0


def _add_record_arguments(parser: argparse.ArgumentParser) -> None:
    """--record / --runs-root for the manifest-recording subcommands."""
    from repro.store.registry import DEFAULT_RUNS_ROOT

    parser.add_argument(
        "--record", action="store_true",
        help="write a run manifest (inputs digest, wall time, metrics, "
        "result digest) under the runs root",
    )
    parser.add_argument(
        "--runs-root", default=DEFAULT_RUNS_ROOT, metavar="PATH",
        help=f"run-manifest directory (default: {DEFAULT_RUNS_ROOT})",
    )


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    """--reference escape hatch for the profiling subcommands."""
    parser.add_argument(
        "--reference", action="store_true",
        help=(
            "profile through the hook-instrumented reference "
            "interpreter instead of the decoded fast engine "
            "(identical numbers, much slower)"
        ),
    )


def _add_yield_arguments(parser: argparse.ArgumentParser) -> None:
    """--yield-percentile / --sigma / --samples / --seed knobs."""
    parser.add_argument(
        "--yield-percentile", type=float, default=None, metavar="P",
        help="solve V_DD for the P-th percentile Monte-Carlo delay "
        "corner instead of the nominal corner (default: off — "
        "bit-identical nominal optimization)",
    )
    parser.add_argument(
        "--sigma", type=float, default=0.03, metavar="V",
        help="V_T standard deviation for the yield solve (default 0.03)",
    )
    parser.add_argument(
        "--samples", type=int, default=300,
        help="Monte-Carlo samples per yield solve (default 300)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="shift-vector seed for the yield solve (default 0)",
    )


def _add_metrics_arguments(parser: argparse.ArgumentParser) -> None:
    """--metrics / --metrics-json for the instrumented subcommands."""
    parser.add_argument(
        "--metrics", action="store_true",
        help="print instrumentation counters and timers after the run",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the metrics snapshot to PATH (implies --metrics)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-voltage design toolkit (DAC 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="fga/bga workload profiling")
    profile.add_argument(
        "--workload", nargs="+",
        choices=list(WORKLOAD_NAMES),
        default=["idea"],
    )
    profile.add_argument("--scale", type=int, default=48)
    profile.add_argument("--duty", type=float, default=1.0)
    _add_engine_argument(profile)
    _add_metrics_arguments(profile)
    profile.set_defaults(handler=_cmd_profile)

    activity = sub.add_parser(
        "activity", help="switch-level activity histograms"
    )
    activity.add_argument(
        "--circuit", choices=["adder", "shifter", "multiplier"],
        default="adder",
    )
    activity.add_argument("--width", type=int, default=8)
    activity.add_argument(
        "--stimulus", choices=["random", "counting"], default="random"
    )
    activity.add_argument("--vectors", type=int, default=300)
    activity.add_argument("--bins", type=int, default=10)
    activity.add_argument("--vdd", type=float, default=1.0)
    activity.add_argument("--seed", type=int, default=0)
    activity.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soi"
    )
    activity.set_defaults(handler=_cmd_activity)

    optimize = sub.add_parser(
        "optimize", help="fixed-throughput (V_DD, V_T) optimization"
    )
    optimize.add_argument("--delay-factor", type=float, default=4.0)
    optimize.add_argument("--stages", type=int, default=101)
    optimize.add_argument("--activity", type=float, default=1.0)
    optimize.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soi"
    )
    _add_yield_arguments(optimize)
    _add_record_arguments(optimize)
    _add_metrics_arguments(optimize)
    optimize.set_defaults(handler=_cmd_optimize)

    compare = sub.add_parser(
        "compare", help="burst-mode technology comparison (Fig. 10)"
    )
    compare.add_argument(
        "--workload", nargs="+",
        choices=list(WORKLOAD_NAMES),
        default=["espresso", "li", "idea"],
    )
    _add_engine_argument(compare)
    compare.add_argument("--scale", type=int, default=48)
    compare.add_argument("--duty", type=float, default=0.2)
    compare.add_argument("--width", type=int, default=8)
    compare.add_argument("--vectors", type=int, default=80)
    compare.add_argument("--vdd", type=float, default=1.0)
    compare.add_argument("--clock", type=float, default=1e6)
    _add_yield_arguments(compare)
    _add_record_arguments(compare)
    _add_metrics_arguments(compare)
    compare.set_defaults(handler=_cmd_compare)

    contour = sub.add_parser(
        "contour", help="Fig. 10 energy-ratio surface over a (fga, bga) grid"
    )
    contour.add_argument(
        "--unit", choices=["adder", "shifter", "multiplier"],
        default="adder",
    )
    contour.add_argument("--width", type=int, default=8)
    contour.add_argument("--vectors", type=int, default=80)
    contour.add_argument("--vdd", type=float, default=1.0)
    contour.add_argument("--clock", type=float, default=1e6)
    contour.add_argument("--grid", type=int, default=24)
    _add_record_arguments(contour)
    _add_metrics_arguments(contour)
    contour.set_defaults(handler=_cmd_contour)

    surface = sub.add_parser(
        "surface",
        help="Fig. 3/4 energy surface over a (V_T, V_DD) grid",
    )
    surface.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soi"
    )
    surface.add_argument("--clock", type=float, default=1e6)
    surface.add_argument("--stages", type=int, default=101)
    surface.add_argument("--activity", type=float, default=1.0)
    surface.add_argument("--grid", type=int, default=12)
    surface.add_argument("--vt-min", type=float, default=0.1)
    surface.add_argument("--vt-max", type=float, default=0.5)
    surface.add_argument("--vdd-min", type=float, default=0.2)
    surface.add_argument("--vdd-max", type=float, default=1.5)
    surface.add_argument(
        "--refine", type=int, default=0, metavar="N",
        help="adaptive subdivision levels around the optimum-energy "
        "locus (0 = uniform grid only)",
    )
    surface.add_argument(
        "--refine-band", type=float, default=0.2, metavar="B",
        help="relative distance from the per-V_T energy minimum that "
        "marks a cell for refinement (default: 0.2)",
    )
    _add_record_arguments(surface)
    _add_metrics_arguments(surface)
    surface.set_defaults(handler=_cmd_surface)

    variation = sub.add_parser(
        "variation",
        help="Monte-Carlo V_T variation analysis (batched plan engine)",
    )
    variation.add_argument("--cell", default="INV", metavar="NAME")
    variation.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soi"
    )
    variation.add_argument("--vdd", type=float, default=1.0)
    variation.add_argument("--sigma", type=float, default=0.03)
    variation.add_argument("--samples", type=int, default=300)
    variation.add_argument("--seed", type=int, default=0)
    variation.add_argument("--load-ff", type=float, default=10.0)
    variation.add_argument("--percentile", type=float, default=99.0)
    _add_record_arguments(variation)
    _add_metrics_arguments(variation)
    variation.set_defaults(handler=_cmd_variation)

    characterize = sub.add_parser(
        "characterize", help="cell-library characterization"
    )
    characterize.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soias"
    )
    characterize.add_argument(
        "--vdd", nargs="+", type=float, default=[1.0]
    )
    characterize.add_argument(
        "--vt-shift", nargs="+", type=float, default=[0.0]
    )
    characterize.add_argument("--load-ff", type=float, default=10.0)
    characterize.add_argument("--output", default=None)
    characterize.set_defaults(handler=_cmd_characterize)

    margins = sub.add_parser(
        "margins", help="inverter noise margins and the V_DD floor"
    )
    margins.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soi"
    )
    margins.add_argument(
        "--vdd", nargs="+", type=float,
        default=[1.0, 0.5, 0.3, 0.2, 0.12],
    )
    margins.add_argument(
        "--floor", type=float, default=0.3,
        help="worst-margin budget (fraction of V_DD); 0 disables",
    )
    margins.set_defaults(handler=_cmd_margins)

    shutdown = sub.add_parser(
        "shutdown", help="system shutdown-policy comparison"
    )
    shutdown.add_argument("--active-mw", type=float, default=10.0)
    shutdown.add_argument("--idle-mw", type=float, default=2.0)
    shutdown.add_argument("--off-uw", type=float, default=0.01)
    shutdown.add_argument("--wakeup-uj", type=float, default=0.1)
    shutdown.add_argument("--wakeup-latency", type=int, default=50)
    shutdown.add_argument("--clock", type=float, default=1e6)
    shutdown.add_argument("--periods", type=int, default=400)
    shutdown.add_argument("--mean-busy", type=int, default=50)
    shutdown.add_argument("--mean-idle", type=int, default=800)
    shutdown.add_argument("--seed", type=int, default=0)
    shutdown.set_defaults(handler=_cmd_shutdown)

    recover = sub.add_parser(
        "recover", help="dual-V_T + gate-sizing power recovery"
    )
    recover.add_argument(
        "--circuit", choices=["adder", "shifter", "multiplier"],
        default="adder",
    )
    recover.add_argument("--width", type=int, default=12)
    recover.add_argument("--vdd", type=float, default=1.0)
    recover.add_argument("--budget", type=float, default=1.0)
    recover.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="soi"
    )
    recover.set_defaults(handler=_cmd_recover)

    from repro.store.registry import DEFAULT_RUNS_ROOT

    runs = sub.add_parser(
        "runs", help="inspect recorded run manifests"
    )
    runs.add_argument("action", choices=["list", "show", "diff"])
    runs.add_argument(
        "run_ids", nargs="*", metavar="RUN_ID",
        help="one id for show, two for diff",
    )
    runs.add_argument(
        "--runs-root", default=DEFAULT_RUNS_ROOT, metavar="PATH",
        help=f"run-manifest directory (default: {DEFAULT_RUNS_ROOT})",
    )
    runs.set_defaults(handler=_cmd_runs)

    return parser


def _emit_metrics(args: argparse.Namespace) -> None:
    """Print (and optionally persist) the metrics collected for a run."""
    hits = obs.counter_value("characterizer.hits")
    misses = obs.counter_value("characterizer.misses")
    if hits + misses:
        obs.gauge("characterizer.hit_rate", hits / (hits + misses))
    print()
    print(obs.format_summary(title=f"Metrics: {args.command}"))
    path = getattr(args, "metrics_json", None)
    if path:
        obs.dump_json(path, extra={"command": args.command})
        print(f"Metrics JSON written to {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    wants_metrics = bool(
        getattr(args, "metrics", False)
        or getattr(args, "metrics_json", None)
    )
    # --record implies instrumentation so the manifest's metrics
    # snapshot is populated (the table still prints only on --metrics).
    wants_obs = wants_metrics or bool(getattr(args, "record", False))
    if wants_obs:
        obs.reset()
        obs.enable()
    try:
        code = args.handler(args)
        if wants_metrics:
            _emit_metrics(args)
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover
            pass
        return 0
    finally:
        if wants_obs:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
