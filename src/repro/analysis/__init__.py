"""Design-space exploration: sweeps, contours, comparisons, tables."""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".pareto": ("DesignPoint", "EnergyDelayExplorer", "pareto_front"),
    ".variation": (
        "Distribution", "MonteCarloAnalyzer",
        "lognormal_leakage_amplification",
    ),
    ".sweep": ("Sweep2D", "sweep_2d"),
    ".contour": (
        "RatioSurface", "energy_ratio_surface", "breakeven_bga",
        "zero_crossing_cells", "ApplicationPoint",
    ),
    ".surface": ("EnergySurface", "energy_surface"),
    ".comparator": ("TechnologyComparator", "TechnologyVerdict"),
    ".tables": ("format_table", "format_series"),
})
