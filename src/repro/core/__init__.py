"""The paper's methodology, packaged as one flow.

:class:`~repro.core.flow.LowVoltageDesignFlow` chains the tools the
paper calls for: instruction-level profiling (fga/bga), switch-level
activity estimation (alpha), module energy extraction, and technology
comparison — one call per paper experiment.  Canned scenarios (the
X server, continuous DSP) live in :mod:`~repro.core.scenarios`.
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".shutdown": (
        "ActivityPeriod", "ShutdownCosts", "ShutdownReport", "TimeoutPolicy",
        "PredictivePolicy", "OraclePolicy", "evaluate_policy",
        "synthetic_session_trace",
    ),
    ".flow": (
        "LowVoltageDesignFlow", "UnitEvaluation", "ApplicationEvaluation",
    ),
    ".scenarios": (
        "DatapathUnit", "standard_datapath", "xserver_scenario",
        "continuous_scenario", "Scenario",
    ),
})
