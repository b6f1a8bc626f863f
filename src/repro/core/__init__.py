"""The paper's methodology, packaged as one flow.

:class:`~repro.core.flow.LowVoltageDesignFlow` chains the tools the
paper calls for: instruction-level profiling (fga/bga), switch-level
activity estimation (alpha), module energy extraction, and technology
comparison — one call per paper experiment.  Canned scenarios (the
X server, continuous DSP) live in :mod:`~repro.core.scenarios`.
"""

from repro.core.flow import (
    LowVoltageDesignFlow,
    UnitEvaluation,
    ApplicationEvaluation,
)
from repro.core.scenarios import (
    DatapathUnit,
    standard_datapath,
    xserver_scenario,
    continuous_scenario,
    Scenario,
)
from repro.core.shutdown import (
    ActivityPeriod,
    OraclePolicy,
    PredictivePolicy,
    ShutdownCosts,
    ShutdownReport,
    TimeoutPolicy,
    evaluate_policy,
    synthetic_session_trace,
)

__all__ = [
    "ActivityPeriod",
    "ShutdownCosts",
    "ShutdownReport",
    "TimeoutPolicy",
    "PredictivePolicy",
    "OraclePolicy",
    "evaluate_policy",
    "synthetic_session_trace",
    "LowVoltageDesignFlow",
    "UnitEvaluation",
    "ApplicationEvaluation",
    "DatapathUnit",
    "standard_datapath",
    "xserver_scenario",
    "continuous_scenario",
    "Scenario",
]
