"""Design-space exploration: sweeps, contours, comparisons, tables."""

from repro.analysis.sweep import Sweep1D, Sweep2D, sweep_1d, sweep_2d
from repro.analysis.contour import (
    RatioSurface,
    energy_ratio_surface,
    breakeven_bga,
    zero_crossing_cells,
    ApplicationPoint,
)
from repro.analysis.surface import (
    EnergySurface,
    RefinedSurface,
    energy_surface,
)
from repro.analysis.comparator import (
    TechnologyComparator,
    TechnologyVerdict,
)
from repro.analysis.tables import format_table, format_series
from repro.analysis.variation import (
    Distribution,
    MonteCarloAnalyzer,
    lognormal_leakage_amplification,
)
from repro.analysis.pareto import (
    DesignPoint,
    EnergyDelayExplorer,
    pareto_front,
)

__all__ = [
    "DesignPoint",
    "EnergyDelayExplorer",
    "pareto_front",
    "Distribution",
    "MonteCarloAnalyzer",
    "lognormal_leakage_amplification",
    "Sweep1D",
    "Sweep2D",
    "sweep_1d",
    "sweep_2d",
    "RatioSurface",
    "RefinedSurface",
    "energy_ratio_surface",
    "breakeven_bga",
    "zero_crossing_cells",
    "ApplicationPoint",
    "EnergySurface",
    "energy_surface",
    "TechnologyComparator",
    "TechnologyVerdict",
    "format_table",
    "format_series",
]
