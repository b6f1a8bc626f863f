"""repro — a low-voltage digital system design toolkit.

Reproduction of A. Chandrakasan, I. Yang, C. Vieri, D. Antoniadis,
"Design Considerations and Tools for Low-voltage Digital System
Design", DAC 1996.

The package layers, bottom to top:

* :mod:`repro.device` — MOSFET I-V (subthreshold + alpha-power),
  threshold modulation (body bias, SOIAS back gate), non-linear
  capacitance, named process corners.
* :mod:`repro.tech` — standard-cell templates, characterization
  (delay/energy/leakage), serializable cell libraries.
* :mod:`repro.circuits` — netlists, builders (adders, shifter,
  multiplier, ring oscillator), static timing.
* :mod:`repro.switchsim` — event-driven switch-level simulation and
  transition-activity statistics (alpha, the Figs. 8-9 histograms).
* :mod:`repro.isa` — a small RISC ISA, assembler, interpreter, and
  ATOM-style functional-unit profiling (fga/bga, Tables 1-3), plus the
  paper's workloads (espresso-like, li-like, IDEA).
* :mod:`repro.power` — the Section 2 power components, the Eq. 3/4
  module energy models, and fixed-throughput (V_DD, V_T) optimization
  (Figs. 3-4).
* :mod:`repro.analysis` — sweeps, the Fig. 10 energy-ratio surface and
  break-even contour, technology comparison, table rendering.
* :mod:`repro.core` — the end-to-end design flow and canned scenarios
  (continuous DSP, the 20 %-duty X server).

Quickstart::

    from repro import LowVoltageDesignFlow, standard_datapath
    from repro.isa.workloads import idea

    flow = LowVoltageDesignFlow(vdd=1.0, clock_hz=1e6)
    program = idea.build_program(idea.random_blocks(8))
    result = flow.evaluate(program, standard_datapath(), duty_cycle=0.2)
    print(result.savings_table())

Every package here is a lazy namespace: a public name is imported
from its defining module on first access, so ``import repro`` (or
``repro.cli``) loads no layer that the caller does not use.
"""

import importlib

__version__ = "1.0.0"
__all__ = ["__version__"]


def _lazy_namespace(namespace, exports, submodules=()):
    """Make a package a PEP 562 lazy namespace.

    ``exports`` maps each defining module (relative to the package when
    it starts with a dot) to the public names it provides; the names in
    ``submodules`` are the package's own submodules.  A name is imported
    on first access and then stored in the package's globals, so later
    lookups never reach ``__getattr__``.  Unknown names raise
    :class:`AttributeError`.  Every public name is appended to the
    package's ``__all__`` (which lists its own names, if any), and
    ``dir()`` shows them all before they are loaded.
    """
    package = namespace["__name__"]
    owners = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name):
        if name in owners:
            module = importlib.import_module(owners[name], package)
            value = getattr(module, name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *owners, *submodules})

    namespace.setdefault("__all__", []).extend([*owners, *submodules])
    namespace.update(__getattr__=__getattr__, __dir__=__dir__)


_lazy_namespace(globals(), {
    ".errors": ("ReproError",),
    ".device.mosfet": ("Mosfet", "MosfetParameters"),
    ".device.threshold": (
        "BodyBiasModel", "SoiasBackGateModel", "soias_from_film_stack",
    ),
    ".device.technology": (
        "Technology", "bulk_cmos_06um", "soi_low_vt", "soias_technology",
        "mtcmos_technology",
    ),
    ".tech.library": ("CellLibrary",),
    ".tech.cells": ("standard_cells", "register_styles"),
    ".circuits.netlist": ("Netlist",),
    ".circuits.plan": ("NetlistPlan",),
    ".circuits.dc": ("InverterDcAnalysis", "NoiseMargins"),
    ".circuits.builders.adder": ("ripple_carry_adder", "carry_select_adder"),
    ".circuits.builders.shifter": ("barrel_shifter",),
    ".circuits.builders.multiplier": ("array_multiplier",),
    ".circuits.builders.ring": ("ring_oscillator",),
    ".circuits.builders.comparator": ("equality_comparator",),
    ".circuits.builders.pipeline": ("pipelined_adder",),
    ".switchsim.simulator": ("SwitchLevelSimulator",),
    ".switchsim.activity": ("ActivityReport",),
    ".switchsim.stimulus": (
        "random_bus_vectors", "counting_bus_vectors", "gray_code_bus_vectors",
    ),
    ".isa.assembler": ("assemble", "Program"),
    ".isa.machine": ("Machine",),
    ".isa.profiler": ("FunctionalUnitProfile", "profile_program"),
    ".power.components": ("PowerBreakdown",),
    ".power.estimator": ("PowerEstimator",),
    ".power.energy": (
        "ModuleEnergyParameters", "e_soi", "e_soias", "e_mtcmos", "e_vtcmos",
        "energy_ratio_soias_vs_soi", "module_parameters_from_activity",
    ),
    ".power.optimizer": (
        "RingOscillatorModel", "FixedThroughputOptimizer", "OperatingPoint",
    ),
    ".analysis.contour": (
        "RatioSurface", "ApplicationPoint", "energy_ratio_surface",
        "breakeven_bga",
    ),
    ".analysis.comparator": ("TechnologyComparator", "TechnologyVerdict"),
    ".analysis.tables": ("format_table", "format_series"),
    ".core.flow": (
        "LowVoltageDesignFlow", "UnitEvaluation", "ApplicationEvaluation",
    ),
    ".core.scenarios": (
        "DatapathUnit", "Scenario", "standard_datapath", "xserver_scenario",
        "continuous_scenario",
    ),
})
