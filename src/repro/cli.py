"""Command-line interface to the toolkit.

Five verbs mirror the paper's tool chain, seven more cover the
extensions::

    python -m repro profile --workload idea            # Tables 1-3
    python -m repro activity --circuit adder --width 8 # Figs. 8-9
    python -m repro optimize --delay-factor 4          # Figs. 3-4
    python -m repro compare --duty 0.2                 # Fig. 10
    python -m repro contour --grid 24                  # Fig. 10 surface
    python -m repro surface --grid 12                  # Fig. 3/4 plane
    python -m repro variation --cell INV --vdd 0.5     # V_T Monte-Carlo
    python -m repro characterize --vdd 0.8 1.0 1.2     # liberty-lite
    python -m repro margins --floor 0.3                # V_DD floor
    python -m repro shutdown                           # policies
    python -m repro recover --circuit adder            # dual-V_T+sizing
    python -m repro runs list                          # run manifests

Every verb prints an ASCII table; ``characterize`` can also write a
JSON library.  ``optimize``, ``compare``, ``contour``, ``surface`` and
``variation`` accept ``--record`` (write a run manifest under
``.repro/runs/`` — see ``docs/store.md``).  Every verb evaluates
serially in the calling process.

The interface is one table, :data:`VERBS`: each row holds a verb's
name, its help line, the argument-adders for its options and its
handler.  A handler imports its own layer when called, so importing
this module or building the parser loads no layer, and a verb loads
only the modules it uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError

__all__ = ["main", "build_parser", "VERBS"]

#: ``--technology`` name -> factory in :mod:`repro.device.technology`.
_TECHNOLOGIES = {
    "soi": "soi_low_vt",
    "soias": "soias_technology",
    "mtcmos": "mtcmos_technology",
    "bulk": "bulk_cmos_06um",
}
#: :data:`repro.isa.workloads.WORKLOAD_NAMES` and
#: :data:`repro.store.registry.DEFAULT_RUNS_ROOT`, named here so that
#: building the parser imports neither layer (a test pins them equal).
_WORKLOADS = ("idea", "espresso", "li", "fir", "crc", "sort", "matmul")
_RUNS_ROOT = os.path.join(".repro", "runs")

_UNITS = ("adder", "shifter", "multiplier", "logic", "memory", "control")
_CIRCUITS = ["adder", "shifter", "multiplier"]


def _technology(name: str):
    """The ``--technology`` process, built by its factory."""
    from repro.device import technology

    return getattr(technology, _TECHNOLOGIES[name])()


def _print_table(headers, rows, title: str) -> None:
    from repro.analysis.tables import format_table

    print(format_table(headers, rows, title=title))


def _engine(args: argparse.Namespace) -> str:
    return "reference" if args.reference else "fast"


def _merged_profile(args: argparse.Namespace):
    """One fga/bga profile over every ``--workload``, in order."""
    from repro.isa.profiler import profile_program
    from repro.isa.workloads import build

    programs = [build(name, args.scale) for name in args.workload]
    return functools.reduce(
        lambda a, b: a.merged_with(b),
        [profile_program(p, engine=_engine(args)) for p in programs],
    )


def _variation_spec(args: argparse.Namespace):
    """VariationSpec from the --yield-* flags, or None when unset."""
    if args.yield_percentile is None:
        return None
    from repro.power.optimizer import VariationSpec

    return VariationSpec(
        percentile=args.yield_percentile,
        vt_sigma=args.sigma,
        n_samples=args.samples,
        seed=args.seed,
    )


def _yield_inputs(spec) -> dict:
    """Manifest inputs of a yield solve (absent in nominal runs, so
    those keep their manifest digests from before the feature)."""
    return {
        "percentile": spec.percentile,
        "vt_sigma": spec.vt_sigma,
        "n_samples": spec.n_samples,
        "seed": spec.seed,
    }


def _build_circuit(name: str, width: int):
    from repro.circuits import builders

    if name == "adder":
        return builders.ripple_carry_adder(width), {"a": width, "b": width}
    if name == "multiplier":
        return builders.array_multiplier(width), {"a": width, "b": width}
    if name == "shifter":
        if width < 1:
            raise ReproError(f"circuit width must be >= 1, got {width}")
        # The barrel shifter needs a power-of-two width of at least 2;
        # width 1 would round to 1 and be rejected by the builder.
        rounded = max(2, 1 << (width - 1).bit_length())
        return builders.barrel_shifter(rounded), {
            "a": rounded,
            "s": rounded.bit_length() - 1,
        }
    raise ReproError(f"unknown circuit {name!r}")


# ----------------------------------------------------------------------
# Handlers.  Each prints its report and returns the (inputs, result)
# pair that ``--record`` persists, or None for verbs that never record.
# ----------------------------------------------------------------------
def _cmd_profile(args: argparse.Namespace) -> None:
    from repro.analysis.tables import format_profile

    profile = _merged_profile(args)
    if args.duty != 1.0:
        profile = profile.scaled_by_duty_cycle(args.duty)
    title = (
        f"Profile of {'+'.join(args.workload)} "
        f"({profile.total_instructions} instruction slots, "
        f"duty {args.duty:g})"
    )
    print(format_profile(profile, _UNITS, title=title))


def _cmd_activity(args: argparse.Namespace) -> None:
    from repro.switchsim.simulator import SwitchLevelSimulator
    from repro.switchsim.stimulus import (
        counting_bus_vectors,
        random_bus_vectors,
    )

    # The first vector only initialises the circuit: one vector
    # simulates nothing and would print an all-zero histogram.
    if args.vectors < 2:
        raise ReproError(
            f"need at least two stimulus vectors, got {args.vectors}"
        )
    netlist, buses = _build_circuit(args.circuit, args.width)
    technology = _technology(args.technology)
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
    _print_table(
        ["transition probability", "nodes"],
        rows,
        f"{args.circuit} x{args.width}, {args.stimulus} stimulus: "
        f"mean activity {report.mean_activity():.3f}, "
        f"E_sw {energy:.3e} J/cycle at {args.vdd} V",
    )


def _cmd_optimize(args: argparse.Namespace) -> Tuple[dict, dict]:
    from repro.core.flow import LowVoltageDesignFlow

    technology = _technology(args.technology)
    spec = _variation_spec(args)
    flow = LowVoltageDesignFlow(technology=technology, variation=spec)
    optimizer = flow.throughput_optimizer(
        stages=args.stages, activity=args.activity
    )
    target = args.delay_factor * optimizer.ring.stage_delay(1.0, 0.2)
    points = optimizer.sweep([0.04 + 0.02 * i for i in range(20)], target)
    best = optimizer.optimum(target, vt_bounds=(0.02, 0.45))
    _print_table(
        ["V_T [V]", "V_DD [V]", "E/cycle [J]", "leak frac"],
        [
            [p.vt, p.vdd, p.energy_per_cycle_j, p.leakage_fraction]
            for p in points
        ],
        f"Fixed-delay locus, target {target:.3e} s/stage "
        f"(activity {args.activity:g})",
    )
    print(
        f"\nOptimum: V_T = {best.vt:.3f} V, V_DD = {best.vdd:.3f} V, "
        f"E = {best.energy_per_cycle_j:.3e} J/cycle"
    )
    inputs = {
        "technology": args.technology,
        "delay_factor": args.delay_factor,
        "stages": args.stages,
        "activity": args.activity,
    }
    optimum = {
        "vt": best.vt,
        "vdd": best.vdd,
        "energy_per_cycle_j": best.energy_per_cycle_j,
    }
    if spec is not None:
        print(
            f"Yield: p{spec.percentile:g} delay = "
            f"{best.delay_percentile_s:.3e} s "
            f"(sigma {spec.vt_sigma:g} V, {spec.n_samples} samples, "
            f"seed {spec.seed}), leakage amplification "
            f"{best.leakage_amplification:.2f}x measured / "
            f"{best.lognormal_amplification:.2f}x lognormal"
        )
        inputs["yield"] = _yield_inputs(spec)
        optimum.update(
            delay_percentile_s=best.delay_percentile_s,
            leakage_amplification=best.leakage_amplification,
            lognormal_amplification=best.lognormal_amplification,
        )
    return inputs, {
        "target_stage_delay_s": target,
        "locus": [[p.vt, p.vdd, p.energy_per_cycle_j] for p in points],
        "optimum": optimum,
    }


def _cmd_compare(args: argparse.Namespace) -> Tuple[dict, dict]:
    from repro.core.flow import LowVoltageDesignFlow
    from repro.core.scenarios import standard_datapath

    spec = _variation_spec(args)
    flow = LowVoltageDesignFlow(
        vdd=args.vdd, clock_hz=args.clock, variation=spec
    )
    datapath = standard_datapath(
        width=args.width, stimulus_vectors=args.vectors
    )
    session = _merged_profile(args).scaled_by_duty_cycle(args.duty)
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
    _print_table(
        ["unit", "fga", "bga", "SOIAS %", "MTCMOS %", "VTCMOS %"],
        rows,
        f"Burst-mode savings vs fixed-low-V_T SOI "
        f"(duty {args.duty:g}, {args.clock:g} Hz, {args.vdd} V)",
    )
    inputs = {
        "workload": list(args.workload),
        "engine": _engine(args),
        "scale": args.scale,
        "duty": args.duty,
        "width": args.width,
        "vectors": args.vectors,
        "vdd": args.vdd,
        "clock": args.clock,
    }
    if spec is not None:
        inputs["yield"] = _yield_inputs(spec)
    return inputs, {
        row[0]: {
            "fga": row[1],
            "bga": row[2],
            "soias_percent": row[3],
            "mtcmos_percent": row[4],
            "vtcmos_percent": row[5],
        }
        for row in rows
    }


def _cmd_contour(args: argparse.Namespace) -> Tuple[dict, dict]:
    from repro.analysis.contour import zero_crossing_cells
    from repro.core.flow import LowVoltageDesignFlow
    from repro.core.scenarios import standard_datapath

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
    _print_table(
        ["quantity", "value", "fga", "bga"],
        [
            ["grid", f"{args.grid} x {args.grid}", "", ""],
            ["defined cells", surface.grid.defined_cells(), "", ""],
            ["best log10 ratio", f"{best[2]:+.3f}", best[0], best[1]],
            ["worst log10 ratio", f"{worst[2]:+.3f}", worst[0], worst[1]],
            ["contour cells", len(contour_cells), "", ""],
        ],
        f"{args.unit} x{args.width} SOIAS/SOI surface at "
        f"{args.vdd} V, {args.clock:g} Hz",
    )
    inputs = {
        "unit": args.unit,
        "width": args.width,
        "vectors": args.vectors,
        "vdd": args.vdd,
        "clock": args.clock,
        "grid": args.grid,
    }
    return inputs, {
        "defined_cells": surface.grid.defined_cells(),
        "zs": [list(row) for row in surface.grid.zs],
        "contour_cells": [list(cell) for cell in contour_cells],
    }


def _cmd_surface(args: argparse.Namespace) -> Tuple[dict, dict]:
    from repro.core.flow import LowVoltageDesignFlow

    if args.grid < 2:
        raise ReproError("surface grid must be at least 2 x 2")
    if not args.vt_min < args.vt_max:
        raise ReproError("--vt-min must be below --vt-max")
    if not 0.0 < args.vdd_min < args.vdd_max:
        raise ReproError("need 0 < --vdd-min < --vdd-max")
    flow = LowVoltageDesignFlow(
        technology=_technology(args.technology), clock_hz=args.clock
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
    _print_table(
        ["quantity", "value", "vdd", "vt"],
        rows,
        f"{args.technology} energy surface at {args.clock:g} Hz, "
        f"{args.stages} stages",
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
    return inputs, {
        "feasible_cells": surface.grid.defined_cells(),
        "optimum": [vdd_best, vt_best, energy_best],
        "locus": [list(row) for row in locus],
        "zs": [list(row) for row in surface.grid.zs],
    }


def _cmd_variation(args: argparse.Namespace) -> Tuple[dict, dict]:
    from repro.analysis.variation import (
        MonteCarloAnalyzer,
        lognormal_leakage_amplification,
    )
    from repro.tech.cells import standard_cells

    technology = _technology(args.technology)
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
    _print_table(
        ["quantity", "mean", "std", "CV", f"p{args.percentile:g}"],
        [
            [
                label,
                distribution.mean,
                distribution.std,
                distribution.coefficient_of_variation,
                distribution.percentile(args.percentile),
            ]
            for label, distribution in (
                ("delay [s]", delay),
                ("leakage [A]", leakage),
            )
        ],
        f"{args.cell} V_T variation on {technology.name} at "
        f"{args.vdd} V (sigma {args.sigma} V, {args.samples} samples)",
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
    return inputs, {
        "delay_samples": list(delay.samples),
        "leakage_samples": list(leakage.samples),
        "amplification": amplification,
    }


def _cmd_characterize(args: argparse.Namespace) -> None:
    from repro.tech.library import CellLibrary

    technology = _technology(args.technology)
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
    _print_table(
        ["cell", "delay [s]", "E/tr [J]", "leak [A]", "C_in [F]"],
        rows,
        f"{technology.name} @ {args.vdd[0]} V, shift "
        f"{args.vt_shift[0]} V, load {args.load_ff} fF",
    )
    if args.output:
        library.save(args.output)
        print(f"\nLibrary written to {args.output}")


def _cmd_margins(args: argparse.Namespace) -> None:
    from repro.circuits.dc import InverterDcAnalysis

    technology = _technology(args.technology)
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
    _print_table(
        ["V_DD [V]", "V_M [V]", "peak gain", "NM_L [V]", "NM_H [V]",
         "worst/V_DD"],
        rows,
        f"Inverter noise margins, {technology.name}",
    )
    if args.floor:
        floor = dc.minimum_supply(margin_fraction=args.floor)
        print(
            f"\nMinimum supply for a {args.floor:.0%} worst-margin "
            f"budget: {floor * 1e3:.0f} mV"
        )


def _cmd_shutdown(args: argparse.Namespace) -> None:
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
    _print_table(
        ["policy", "energy [J]", "saving %", "off fraction", "wakeups"],
        rows,
        f"Shutdown policies (break-even idle = {breakeven:.0f} cycles)",
    )


def _cmd_recover(args: argparse.Namespace) -> None:
    from repro.power.dualvt import DualVtOptimizer
    from repro.power.sizing import GateSizingOptimizer

    technology = _technology(args.technology)
    netlist, _ = _build_circuit(args.circuit, args.width)
    sized = GateSizingOptimizer(netlist, technology, vdd=args.vdd).optimize(
        delay_budget=args.budget
    )
    dualvt = DualVtOptimizer(netlist, technology, vdd=args.vdd).optimize(
        delay_budget=args.budget
    )
    _print_table(
        ["pass", "gates touched", "cap reduction", "leak reduction",
         "delay penalty"],
        [
            [
                "downsizing",
                sized.downsized_gates,
                sized.capacitance_reduction,
                sized.leakage_reduction,
                sized.delay_penalty,
            ],
            [
                "dual-V_T",
                len(dualvt.high_vt_gates),
                1.0,
                dualvt.leakage_reduction,
                dualvt.delay_penalty,
            ],
        ],
        f"Power recovery, {args.circuit} x{args.width} at "
        f"{args.vdd} V (delay budget {args.budget:g})",
    )


def _cmd_runs(args: argparse.Namespace) -> None:
    from repro.store import RunRegistry

    registry = RunRegistry(args.runs_root)
    if args.action == "list":
        manifests = registry.list_manifests()
        if not manifests:
            print(f"No runs recorded under {registry.root}")
            return
        _print_table(
            ["run", "command", "created (UTC)", "wall [s]", "result"],
            [
                [
                    manifest.run_id,
                    manifest.command,
                    manifest.created_utc,
                    f"{manifest.wall_time_s:.3f}",
                    manifest.result_digest[:12],
                ]
                for manifest in manifests
            ],
            f"Recorded runs in {registry.root}",
        )
    elif args.action == "show":
        if len(args.run_ids) != 1:
            raise ReproError("runs show needs exactly one run id")
        manifest = registry.load(args.run_ids[0])
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    else:
        if len(args.run_ids) != 2:
            raise ReproError("runs diff needs exactly two run ids")
        differences = registry.diff(args.run_ids[0], args.run_ids[1])
        if not differences:
            print("Runs are identical (apart from identity).")
            return
        _print_table(
            ["field", args.run_ids[0], args.run_ids[1]],
            [
                [name, str(pair[0]), str(pair[1])]
                for name, pair in sorted(differences.items())
            ],
            "Run differences",
        )


# ----------------------------------------------------------------------
# The verb table.
# ----------------------------------------------------------------------
ArgumentAdder = Callable[[argparse.ArgumentParser], object]


def _option(*flags: str, **settings) -> ArgumentAdder:
    """Argument-adder for one option (``add_argument``'s signature)."""
    return lambda parser: parser.add_argument(*flags, **settings)


def _technology_option(default: str = "soi") -> ArgumentAdder:
    return _option(
        "--technology", choices=sorted(_TECHNOLOGIES), default=default
    )


def _workload_option(default: Sequence[str]) -> ArgumentAdder:
    return _option(
        "--workload", nargs="+", choices=list(_WORKLOADS),
        default=list(default),
    )


_CIRCUIT_OPTION = _option("--circuit", choices=_CIRCUITS, default="adder")
_RUNS_ROOT_OPTION = _option(
    "--runs-root", default=_RUNS_ROOT, metavar="PATH",
    help=f"run-manifest directory (default: {_RUNS_ROOT})",
)
#: --record / --runs-root for the manifest-recording verbs.
_RECORD = (
    _option(
        "--record", action="store_true",
        help="write a run manifest (inputs digest, wall time, metrics, "
        "result digest) under the runs root",
    ),
    _RUNS_ROOT_OPTION,
)
#: --reference escape hatch for the profiling verbs.
_ENGINE = (
    _option(
        "--reference", action="store_true",
        help=(
            "profile through the hook-instrumented reference "
            "interpreter instead of the decoded fast engine "
            "(identical numbers, much slower)"
        ),
    ),
)
#: --yield-percentile / --sigma / --samples / --seed knobs.
_YIELD = (
    _option(
        "--yield-percentile", type=float, default=None, metavar="P",
        help="solve V_DD for the P-th percentile Monte-Carlo delay "
        "corner instead of the nominal corner (default: off — "
        "bit-identical nominal optimization)",
    ),
    _option(
        "--sigma", type=float, default=0.03, metavar="V",
        help="V_T standard deviation for the yield solve (default 0.03)",
    ),
    _option(
        "--samples", type=int, default=300,
        help="Monte-Carlo samples per yield solve (default 300)",
    ),
    _option(
        "--seed", type=int, default=0,
        help="shift-vector seed for the yield solve (default 0)",
    ),
)
#: --metrics / --metrics-json for the instrumented verbs.
_METRICS = (
    _option(
        "--metrics", action="store_true",
        help="print instrumentation counters and timers after the run",
    ),
    _option(
        "--metrics-json", default=None, metavar="PATH",
        help="write the metrics snapshot to PATH (implies --metrics)",
    ),
)


class Verb(NamedTuple):
    """One CLI verb: name, help line, argument-adders and handler."""

    name: str
    help: str
    arguments: Tuple[ArgumentAdder, ...]
    run: Callable[[argparse.Namespace], Optional[Tuple[dict, dict]]]


VERBS = (
    Verb("profile", "fga/bga workload profiling", (
        _workload_option(["idea"]),
        _option("--scale", type=int, default=48),
        _option("--duty", type=float, default=1.0),
        *_ENGINE,
        *_METRICS,
    ), _cmd_profile),
    Verb("activity", "switch-level activity histograms", (
        _CIRCUIT_OPTION,
        _option("--width", type=int, default=8),
        _option(
            "--stimulus", choices=["random", "counting"], default="random"
        ),
        _option("--vectors", type=int, default=300),
        _option("--bins", type=int, default=10),
        _option("--vdd", type=float, default=1.0),
        _option("--seed", type=int, default=0),
        _technology_option(),
    ), _cmd_activity),
    Verb("optimize", "fixed-throughput (V_DD, V_T) optimization", (
        _option("--delay-factor", type=float, default=4.0),
        _option("--stages", type=int, default=101),
        _option("--activity", type=float, default=1.0),
        _technology_option(),
        *_YIELD,
        *_RECORD,
        *_METRICS,
    ), _cmd_optimize),
    Verb("compare", "burst-mode technology comparison (Fig. 10)", (
        _workload_option(["espresso", "li", "idea"]),
        *_ENGINE,
        _option("--scale", type=int, default=48),
        _option("--duty", type=float, default=0.2),
        _option("--width", type=int, default=8),
        _option("--vectors", type=int, default=80),
        _option("--vdd", type=float, default=1.0),
        _option("--clock", type=float, default=1e6),
        *_YIELD,
        *_RECORD,
        *_METRICS,
    ), _cmd_compare),
    Verb(
        "contour", "Fig. 10 energy-ratio surface over a (fga, bga) grid", (
            _option("--unit", choices=_CIRCUITS, default="adder"),
            _option("--width", type=int, default=8),
            _option("--vectors", type=int, default=80),
            _option("--vdd", type=float, default=1.0),
            _option("--clock", type=float, default=1e6),
            _option("--grid", type=int, default=24),
            *_RECORD,
            *_METRICS,
        ), _cmd_contour,
    ),
    Verb("surface", "Fig. 3/4 energy surface over a (V_T, V_DD) grid", (
        _technology_option(),
        _option("--clock", type=float, default=1e6),
        _option("--stages", type=int, default=101),
        _option("--activity", type=float, default=1.0),
        _option("--grid", type=int, default=12),
        _option("--vt-min", type=float, default=0.1),
        _option("--vt-max", type=float, default=0.5),
        _option("--vdd-min", type=float, default=0.2),
        _option("--vdd-max", type=float, default=1.5),
        *_RECORD,
        *_METRICS,
    ), _cmd_surface),
    Verb(
        "variation",
        "Monte-Carlo V_T variation analysis (batched plan engine)", (
            _option("--cell", default="INV", metavar="NAME"),
            _technology_option(),
            _option("--vdd", type=float, default=1.0),
            _option("--sigma", type=float, default=0.03),
            _option("--samples", type=int, default=300),
            _option("--seed", type=int, default=0),
            _option("--load-ff", type=float, default=10.0),
            _option("--percentile", type=float, default=99.0),
            *_RECORD,
            *_METRICS,
        ), _cmd_variation,
    ),
    Verb("characterize", "cell-library characterization", (
        _technology_option("soias"),
        _option("--vdd", nargs="+", type=float, default=[1.0]),
        _option("--vt-shift", nargs="+", type=float, default=[0.0]),
        _option("--load-ff", type=float, default=10.0),
        _option("--output", default=None),
    ), _cmd_characterize),
    Verb("margins", "inverter noise margins and the V_DD floor", (
        _technology_option(),
        _option(
            "--vdd", nargs="+", type=float,
            default=[1.0, 0.5, 0.3, 0.2, 0.12],
        ),
        _option(
            "--floor", type=float, default=0.3,
            help="worst-margin budget (fraction of V_DD); 0 disables",
        ),
    ), _cmd_margins),
    Verb("shutdown", "system shutdown-policy comparison", (
        _option("--active-mw", type=float, default=10.0),
        _option("--idle-mw", type=float, default=2.0),
        _option("--off-uw", type=float, default=0.01),
        _option("--wakeup-uj", type=float, default=0.1),
        _option("--wakeup-latency", type=int, default=50),
        _option("--clock", type=float, default=1e6),
        _option("--periods", type=int, default=400),
        _option("--mean-busy", type=int, default=50),
        _option("--mean-idle", type=int, default=800),
        _option("--seed", type=int, default=0),
    ), _cmd_shutdown),
    Verb("recover", "dual-V_T + gate-sizing power recovery", (
        _CIRCUIT_OPTION,
        _option("--width", type=int, default=12),
        _option("--vdd", type=float, default=1.0),
        _option("--budget", type=float, default=1.0),
        _technology_option(),
    ), _cmd_recover),
    Verb("runs", "inspect recorded run manifests", (
        _option("action", choices=["list", "show", "diff"]),
        _option(
            "run_ids", nargs="*", metavar="RUN_ID",
            help="one id for show, two for diff",
        ),
        _RUNS_ROOT_OPTION,
    ), _cmd_runs),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-voltage design toolkit (DAC 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        verb_parser = sub.add_parser(verb.name, help=verb.help)
        for add_argument in verb.arguments:
            add_argument(verb_parser)
        verb_parser.set_defaults(handler=verb.run)
    return parser


def _record_run(
    args: argparse.Namespace, inputs: dict, result, wall_time_s: float
) -> None:
    """Persist a run manifest (``--record``)."""
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


def _emit_metrics(args: argparse.Namespace) -> None:
    """Print (and optionally persist) the metrics collected for a run."""
    print()
    print(obs.format_summary(title=f"Metrics: {args.command}"))
    path = getattr(args, "metrics_json", None)
    if path:
        obs.dump_json(path, extra={"command": args.command})
        print(f"Metrics JSON written to {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    wants_metrics = bool(
        getattr(args, "metrics", False)
        or getattr(args, "metrics_json", None)
    )
    records = getattr(args, "record", False)
    # --record implies instrumentation so the manifest's metrics
    # snapshot is populated (the table still prints only on --metrics).
    wants_obs = wants_metrics or records
    if wants_obs:
        obs.reset()
        obs.enable()
    try:
        started = time.perf_counter()
        recorded = args.handler(args)
        if records:
            _record_run(args, *recorded, time.perf_counter() - started)
        if wants_metrics:
            _emit_metrics(args)
        return 0
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
