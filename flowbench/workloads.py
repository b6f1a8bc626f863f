"""The three benchmark workloads: op generation, execution and checks.

Every op goes through the public flow API the CLI verbs use, with the
CLI defaults (serial, no result store, no scheduler), and builds fresh
flow, optimizer and analyzer objects -- one CLI invocation after
import.  The op inputs are drawn here from the workload seed; the
toolkit only ever sees the generated inputs.

Each workload provides:

* ``make_ops(rng)`` -- one cycle of ops.  Every cycle has the same mix
  of op kinds (only the drawn values change with the seed), so runs on
  different seeds measure the same amount of work.
* ``run(op, span)`` -- execute one op; ``span(name)`` is a context
  manager the caller uses to time the calls into each layer.
* ``check(op, result)`` -- invariant violations (a list of messages).
* ``summary(result)`` -- the flat dict of outputs compared against the
  committed reference (default seed) and across repeats of the cycle.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, NamedTuple

from repro.analysis.variation import MonteCarloAnalyzer
from repro.circuits.builders import (
    array_multiplier,
    barrel_shifter,
    ripple_carry_adder,
)
from repro.core.flow import LowVoltageDesignFlow
from repro.core.scenarios import standard_datapath
from repro.device.technology import soi_low_vt, soias_technology
from repro.isa.profiler import profile_program
from repro.isa.workloads import WORKLOAD_NAMES, build as build_workload
from repro.tech.cells import standard_cells

#: ``isa.workloads.build`` scale: the ``repro compare`` default.
ISA_SCALE = 48
#: Datapath width and stimulus length: the ``repro compare`` defaults.
WIDTH = 8
VECTORS = 80
#: Fig. 10 plane: the ``repro contour`` default uniform 24 x 24 grid.
PLANE_AXIS = tuple(i / 24 for i in range(1, 25))
#: Times each (ISA workload, unit) pair appears in one cycle: more
#: draws per cycle make the latency percentiles depend less on the seed.
FIG10_PAIR_REPEATS = 2
#: Unit kind -> (builder, {bus: width}); visited in this fixed rotation.
UNITS = {
    "adder": (ripple_carry_adder, {"a": WIDTH, "b": WIDTH}),
    "shifter": (barrel_shifter, {"a": WIDTH, "s": (WIDTH - 1).bit_length()}),
    "multiplier": (array_multiplier, {"a": WIDTH, "b": WIDTH}),
}

#: ``repro optimize`` defaults: 101-stage ring, 20-point V_T sweep.
STAGES = 101
SWEEP_VTS = tuple(0.04 + 0.02 * i for i in range(20))
OPTIMUM_VT_BOUNDS = (0.02, 0.45)
#: ``repro surface`` default ranges on a 24 x 24 grid.
SURFACE_VTS = tuple(0.1 + 0.4 * i / 23 for i in range(24))
SURFACE_VDDS = tuple(0.2 + 1.3 * j / 23 for j in range(24))
TECHNOLOGIES = {"soi": soi_low_vt, "soias": soias_technology}
#: Ops per technology in one fig4_optimize cycle.
FIG4_OPS_PER_TECHNOLOGY = 32

#: Stacked cells for mc_variation, each MC_CELL_REPEATS times per cycle.
MC_CELLS = ("NAND2", "NOR2", "NAND3", "NOR3", "AOI21", "OAI21", "AND2", "OR2")
MC_CELL_REPEATS = 4
MC_SAMPLES = 40
MC_LOAD_F = 10e-15
MC_PERCENTILE = 99.0

#: Relative/absolute slack for the committed-reference comparison.  A
#: kernel change may move the last bits of a solve; it may not move a
#: result by more than this.
REL_TOL = 1e-6
#: Per-output overrides: the golden-section optimum is located to
#: 1e-3 V, so its V_T and V_DD may move by that much and its (flat)
#: minimum energy by far less than the move suggests.
TOLERANCES = {
    "opt_vt": (0.0, 2e-3),
    "opt_vdd": (0.0, 2e-3),
    "opt_energy": (1e-3, 0.0),
}

#: Canonical X-server run (``repro compare --duty 0.2`` defaults) and
#: the paper's Fig. 10 savings for it (EXPERIMENTS.md).
XSERVER_WORKLOADS = ("espresso", "li", "idea")
XSERVER_DUTY = 0.2
PAPER_SAVINGS_PERCENT = {"adder": 43.0, "shifter": 81.0, "multiplier": 97.0}


class Workload(NamedTuple):
    make_ops: Callable[[random.Random], List[dict]]
    run: Callable[[dict, Callable], object]
    check: Callable[[dict, object], List[str]]
    summary: Callable[[object], Dict[str, object]]


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _random_vectors(rng: random.Random, buses: Dict[str, int]) -> tuple:
    """``VECTORS`` uniform bus values, expanded to ``{net: bit}`` dicts."""
    vectors = []
    for _ in range(VECTORS):
        vector = {}
        for bus, width in buses.items():
            value = rng.getrandbits(width)
            for bit in range(width):
                vector[f"{bus}[{bit}]"] = (value >> bit) & 1
        vectors.append(vector)
    return tuple(vectors)


# ----------------------------------------------------------------------
# fig10_compare: one `repro compare` row plus its Fig. 10 plane
# ----------------------------------------------------------------------
def _fig10_ops(rng: random.Random) -> List[dict]:
    # Every (ISA workload, unit) pair FIG10_PAIR_REPEATS times per cycle,
    # units in fixed rotation, ISA workloads in seeded orders per unit.
    orders = {
        unit: [
            name
            for _ in range(FIG10_PAIR_REPEATS)
            for name in rng.sample(WORKLOAD_NAMES, len(WORKLOAD_NAMES))
        ]
        for unit in UNITS
    }
    ops = []
    for index in range(FIG10_PAIR_REPEATS * len(WORKLOAD_NAMES)):
        for unit, (_, buses) in UNITS.items():
            ops.append(
                {
                    "isa_workload": orders[unit][index],
                    "duty": rng.choice((0.2, 1.0)),
                    "unit": unit,
                    "vectors": _random_vectors(rng, buses),
                }
            )
    return ops


def _fig10_run(op: dict, span):
    with span("isa.profile"):
        program = build_workload(op["isa_workload"], ISA_SCALE)
        profile = profile_program(program).scaled_by_duty_cycle(op["duty"])
    with span("circuits.build"):
        netlist = UNITS[op["unit"]][0](WIDTH)
    flow = LowVoltageDesignFlow()
    with span("switchsim.activity"):
        report = flow.unit_activity(netlist, op["vectors"])
    with span("power.module_params"):
        module = flow.module_parameters(netlist, report)
    fga = profile.fga(op["unit"])
    bga = profile.bga(op["unit"])
    with span("analysis.compare"):
        verdicts = flow.comparator(module).all_verdicts(fga, bga)
        plane = flow.ratio_surface(module, PLANE_AXIS, PLANE_AXIS)
    return fga, bga, verdicts, plane


def _fig10_check(op: dict, result) -> List[str]:
    fga, bga, verdicts, plane = result
    problems = []
    if not 0.0 <= bga <= fga <= 1.0:
        problems.append(f"activity factors out of order: bga {bga}, fga {fga}")
    for name, verdict in verdicts.items():
        for energy in (verdict.baseline_energy_j, verdict.candidate_energy_j):
            if not _finite_positive(energy):
                problems.append(f"{name} energy {energy!r} not finite positive")
    values = [value for row in plane.grid.zs for value in row if value is not None]
    if not values:
        problems.append("Fig. 10 plane has no defined cell")
    elif not all(math.isfinite(value) for value in values):
        problems.append("Fig. 10 plane has a non-finite log ratio")
    return problems


def _fig10_summary(result) -> Dict[str, object]:
    fga, bga, verdicts, plane = result
    values = [value for row in plane.grid.zs for value in row if value is not None]
    return {
        "fga": fga,
        "bga": bga,
        "soias_pct": verdicts["soias"].saving_percent,
        "mtcmos_pct": verdicts["mtcmos"].saving_percent,
        "vtcmos_pct": verdicts["vtcmos"].saving_percent,
        "plane_defined": len(values),
        "plane_min": min(values),
        "plane_max": max(values),
    }


# ----------------------------------------------------------------------
# fig4_optimize: one `repro optimize` plus `repro surface` design point
# ----------------------------------------------------------------------
def _fig4_ops(rng: random.Random) -> List[dict]:
    return [
        {
            "technology": technology,
            "delay_factor": rng.uniform(2.0, 8.0),
            "activity": rng.uniform(0.1, 1.0),
        }
        for _ in range(FIG4_OPS_PER_TECHNOLOGY)
        for technology in TECHNOLOGIES
    ]


def _fig4_run(op: dict, span):
    flow = LowVoltageDesignFlow(technology=TECHNOLOGIES[op["technology"]]())
    with span("power.setup"):
        optimizer = flow.throughput_optimizer(stages=STAGES, activity=op["activity"])
        target = op["delay_factor"] * optimizer.ring.stage_delay(1.0, 0.2)
    with span("power.sweep"):
        locus = optimizer.sweep(SWEEP_VTS, target)
    with span("power.optimum"):
        best = optimizer.optimum(target, vt_bounds=OPTIMUM_VT_BOUNDS)
    with span("analysis.surface"):
        surface = flow.energy_surface(
            SURFACE_VTS, SURFACE_VDDS, stages=STAGES, activity=op["activity"]
        )
        surface_optimum = surface.optimum()
    return target, locus, best, surface, surface_optimum


def _fig4_check(op: dict, result) -> List[str]:
    target, locus, best, surface, (_, _, surface_energy) = result
    problems = []
    for point in list(locus) + [best]:
        if not _finite_positive(point.energy_per_cycle_j):
            problems.append(f"V_T {point.vt}: energy {point.energy_per_cycle_j!r}")
        if not point.stage_delay_s <= target * (1.0 + 1e-9):
            problems.append(
                f"V_T {point.vt}: stage delay {point.stage_delay_s:.6e} s "
                f"misses target {target:.6e} s"
            )
    low, high = OPTIMUM_VT_BOUNDS
    if not low <= best.vt <= high:
        problems.append(f"optimum V_T {best.vt} outside {OPTIMUM_VT_BOUNDS}")
    if not _finite_positive(surface_energy):
        problems.append(f"surface optimum energy {surface_energy!r}")
    return problems


def _fig4_summary(result) -> Dict[str, object]:
    target, locus, best, surface, (vdd, vt, energy) = result
    return {
        "target_s": target,
        "locus": [
            value
            for point in locus
            for value in (point.vt, point.vdd, point.energy_per_cycle_j)
        ],
        "opt_vt": best.vt,
        "opt_vdd": best.vdd,
        "opt_energy": best.energy_per_cycle_j,
        "surface_feasible": surface.grid.defined_cells(),
        "surface_vdd": vdd,
        "surface_vt": vt,
        "surface_energy": energy,
    }


# ----------------------------------------------------------------------
# mc_variation: one `repro variation` call
# ----------------------------------------------------------------------
def _mc_ops(rng: random.Random) -> List[dict]:
    cells = rng.sample(MC_CELLS * MC_CELL_REPEATS, MC_CELL_REPEATS * len(MC_CELLS))
    return [
        {
            "cell": cell,
            "vdd": rng.uniform(0.3, 1.0),
            "sigma": rng.uniform(0.02, 0.05),
            "mc_seed": rng.randrange(2**31),
        }
        for cell in cells
    ]


def _mc_run(op: dict, span):
    cell = standard_cells()[op["cell"]]
    analyzer = MonteCarloAnalyzer(
        soi_low_vt(),
        vt_sigma=op["sigma"],
        n_samples=MC_SAMPLES,
        seed=op["mc_seed"],
    )
    with span("analysis.mc_delay"):
        delay = analyzer.delay_distribution(cell, op["vdd"], MC_LOAD_F)
    with span("analysis.mc_leakage"):
        leakage = analyzer.leakage_distribution(cell, op["vdd"])
        amplification = analyzer.leakage_amplification(cell, op["vdd"])
    return delay, leakage, amplification


def _mc_check(op: dict, result) -> List[str]:
    delay, leakage, amplification = result
    problems = []
    for name, distribution in (("delay", delay), ("leakage", leakage)):
        if len(distribution.samples) != MC_SAMPLES:
            problems.append(
                f"{name}: {len(distribution.samples)} samples, want {MC_SAMPLES}"
            )
        if not all(_finite_positive(value) for value in distribution.samples):
            problems.append(f"{name}: a sample is not finite positive")
    if not _finite_positive(amplification):
        problems.append(f"leakage amplification {amplification!r}")
    return problems


def _mc_summary(result) -> Dict[str, object]:
    delay, leakage, amplification = result
    return {
        "delay_mean": delay.mean,
        "delay_p99": delay.percentile(MC_PERCENTILE),
        "leakage_mean": leakage.mean,
        "leakage_p99": leakage.percentile(MC_PERCENTILE),
        "amplification": amplification,
    }


WORKLOADS: Dict[str, Workload] = {
    "fig10_compare": Workload(_fig10_ops, _fig10_run, _fig10_check, _fig10_summary),
    "fig4_optimize": Workload(_fig4_ops, _fig4_run, _fig4_check, _fig4_summary),
    "mc_variation": Workload(_mc_ops, _mc_run, _mc_check, _mc_summary),
}


def _close(got: float, want: float, rel: float, absolute: float) -> bool:
    return abs(got - want) <= max(rel * max(abs(got), abs(want)), absolute)


def compare_summaries(got: Dict[str, object], want: Dict[str, object]) -> List[str]:
    """Differences between an op summary and its reference, at tolerance."""
    if sorted(got) != sorted(want):
        return [f"output keys {sorted(got)} != reference {sorted(want)}"]
    problems = []
    for key, want_value in want.items():
        rel, absolute = TOLERANCES.get(key, (REL_TOL, 0.0))
        got_value = got[key]
        got_list = got_value if isinstance(got_value, list) else [got_value]
        want_list = want_value if isinstance(want_value, list) else [want_value]
        if len(got_list) != len(want_list) or not all(
            _close(g, w, rel, absolute) for g, w in zip(got_list, want_list)
        ):
            problems.append(f"{key}: {got_value!r} != reference {want_value!r}")
    return problems


def xserver_savings() -> Dict[str, float]:
    """Fig. 10 SOIAS savings of the canonical X-server compare run."""
    datapath = standard_datapath(width=WIDTH, stimulus_vectors=VECTORS)
    profile = None
    for name in XSERVER_WORKLOADS:
        one = profile_program(build_workload(name, ISA_SCALE))
        profile = one if profile is None else profile.merged_with(one)
    profile = profile.scaled_by_duty_cycle(XSERVER_DUTY)
    savings = {}
    for name, unit in datapath.items():
        flow = LowVoltageDesignFlow()
        report = flow.unit_activity(unit.netlist, unit.vectors)
        module = flow.module_parameters(unit.netlist, report)
        verdicts = flow.comparator(module).all_verdicts(
            profile.fga(name), profile.bga(name)
        )
        savings[name] = verdicts["soias"].saving_percent
    return savings
