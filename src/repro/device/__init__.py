"""Device-level models: MOSFET I-V, thresholds, capacitance, technologies.

This subpackage is the analytical substitute for the paper's fabricated
SOI/SOIAS devices and SPICE decks.  It provides:

* :class:`~repro.device.mosfet.Mosfet` — a blended subthreshold +
  alpha-power-law drain-current model (paper Eq. 2 below threshold).
* :mod:`~repro.device.threshold` — body effect, DIBL and the SOIAS
  back-gate coupling model (paper Figs. 5-6).
* :mod:`~repro.device.capacitance` — voltage-dependent gate capacitance
  and junction/wire capacitance (paper Fig. 1).
* :mod:`~repro.device.technology` — named process corners used across
  the library (bulk CMOS, low-V_T SOI, SOIAS, MTCMOS dual-V_T).
* :mod:`~repro.device.leakage` — gate- and stack-level leakage,
  including the series-stack effect (one Newton stack solve,
  :class:`~repro.device.leakage.StackSolver`).
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".mosfet": (
        "Mosfet", "MosfetParameters", "fit_i_spec_for_off_current",
        "fit_k_drive_for_on_current",
    ),
    ".threshold": (
        "BodyBiasModel", "SoiasBackGateModel", "soias_from_film_stack",
    ),
    ".capacitance": (
        "GateCapacitanceModel", "JunctionCapacitanceModel",
        "WireCapacitanceModel",
    ),
    ".technology": (
        "Technology", "TransistorPair", "bulk_cmos_06um", "soi_low_vt",
        "soias_technology", "mtcmos_technology",
    ),
    ".leakage": (
        "StackLeakageModel", "StackSolver", "gate_leakage_current",
        "stack_leakage_current",
    ),
})
