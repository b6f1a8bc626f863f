"""Power and energy models: the paper's core quantitative machinery.

* :mod:`~repro.power.components` — the three power components of
  Section 2 (switching Eq. 1, short-circuit, leakage).
* :mod:`~repro.power.energy` — the per-cycle module energy models:
  ``E_SOI`` (Eq. 3), ``E_SOIAS`` (Eq. 4), and the MTCMOS / VTCMOS
  burst-mode variants of Section 4.
* :mod:`~repro.power.estimator` — netlist + activity + technology ->
  full power breakdown.
* :mod:`~repro.power.optimizer` — fixed-throughput (V_DD, V_T)
  optimization: the machinery behind Figs. 3-4.
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".components": (
        "PowerBreakdown", "switching_power", "leakage_power",
        "short_circuit_power_veendrick",
    ),
    ".energy": (
        "ModuleEnergyParameters", "e_soi", "e_soias", "e_soias_gated",
        "e_mtcmos", "e_vtcmos", "energy_ratio_soias_vs_soi",
        "module_parameters_from_activity",
    ),
    ".estimator": ("PowerEstimator",),
    ".dualvt": ("DualVtAssignment", "DualVtOptimizer"),
    ".sizing": ("GateSizingOptimizer", "SizingSolution"),
    ".mtcmos": ("MtcmosSizing", "SleepTransistorSizer", "estimate_peak_current"),
    ".optimizer": (
        "RingOscillatorModel", "FixedThroughputOptimizer",
        "ModuleThroughputOptimizer", "OperatingPoint",
        "StatisticalOperatingPoint", "VariationSpec",
    ),
})
