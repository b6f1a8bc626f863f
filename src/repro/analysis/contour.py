"""The Fig. 10 energy-ratio surface and break-even contour.

Fig. 10 plots ``log10(E_SOIAS / E_SOI)`` over the (fga, bga) plane.
The zero contour is the break-even locus: applications below it save
energy with SOIAS.  Setting Eq. 3 equal to Eq. 4 gives the break-even
back-gate activity in closed form::

    bga* = (1 - fga) * (I_low - I_high) * V_DD * t_cyc / (C_bg * V_bg^2)

— the leakage rescued while idle, divided by the cost of one back-gate
toggle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.sweep import Sweep2D, sweep_2d
from repro.errors import AnalysisError
from repro.power.energy import (
    ModuleEnergyParameters,
    e_soi,
    e_soias,
)

__all__ = [
    "ApplicationPoint",
    "RatioSurface",
    "energy_ratio_surface",
    "breakeven_bga",
    "zero_crossing_cells",
]


def _defined_straddle(corners: Sequence[Optional[float]]) -> bool:
    """True when the defined corner values bracket zero."""
    defined = [value for value in corners if value is not None]
    if not defined:
        return False
    return min(defined) < 0.0 < max(defined)


def zero_crossing_cells(
    zs: Sequence[Sequence[Optional[float]]],
) -> Tuple[Tuple[int, int], ...]:
    """Grid cells (by lower-corner index) whose corners bracket zero.

    Only defined corners count: a cell cut by the infeasible
    ``bga > fga`` triangle straddles the break-even contour when its
    remaining corners lie on both sides of it.
    """
    cells = []
    for i in range(len(zs) - 1):
        row, next_row = zs[i], zs[i + 1]
        for j in range(len(row) - 1):
            corners = (row[j], row[j + 1], next_row[j], next_row[j + 1])
            if _defined_straddle(corners):
                cells.append((i, j))
    return tuple(cells)


@dataclass(frozen=True)
class ApplicationPoint:
    """One profiled application/unit pair placed on the Fig. 10 plane."""

    label: str
    fga: float
    bga: float
    log10_ratio: float

    @property
    def soias_wins(self) -> bool:
        """Below the zero contour: SOIAS dissipates less than SOI."""
        return self.log10_ratio < 0.0

    @property
    def saving_fraction(self) -> float:
        """Energy saved by SOIAS relative to SOI (negative = loss)."""
        return 1.0 - 10.0**self.log10_ratio


@dataclass(frozen=True)
class RatioSurface:
    """log10(E_SOIAS/E_SOI) over the (fga, bga) plane for one module."""

    module: ModuleEnergyParameters
    vdd: float
    t_cycle_s: float
    grid: Sweep2D

    def log10_ratio(self, fga: float, bga: float) -> float:
        """Exact surface value at one (fga, bga)."""
        soi = e_soi(self.module, fga, self.vdd, self.t_cycle_s)
        soias = e_soias(self.module, fga, bga, self.vdd, self.t_cycle_s)
        if soi <= 0.0 or soias <= 0.0:
            raise AnalysisError("energies must be positive for a ratio")
        return math.log10(soias / soi)

    def application_point(
        self, label: str, fga: float, bga: float
    ) -> ApplicationPoint:
        """Place a profiled application on the surface."""
        return ApplicationPoint(
            label=label,
            fga=fga,
            bga=bga,
            log10_ratio=self.log10_ratio(fga, bga),
        )

    def breakeven_contour(
        self, fga_values: Sequence[float]
    ) -> List[Optional[float]]:
        """bga* at each fga (None where break-even exceeds fga).

        A None entry means SOIAS wins for *every* admissible bga at
        that fga — or, when bga* is zero or negative, that it can
        never win.
        """
        contour: List[Optional[float]] = []
        for fga in fga_values:
            bga_star = breakeven_bga(
                self.module, fga, self.vdd, self.t_cycle_s
            )
            if bga_star is not None and bga_star > fga:
                bga_star = None
            contour.append(bga_star)
        return contour


def breakeven_bga(
    module: ModuleEnergyParameters,
    fga: float,
    vdd: float,
    t_cycle_s: float,
) -> Optional[float]:
    """Closed-form break-even back-gate activity, or None if undefined.

    Returns None when the module has no back-gate capacitance (the
    overhead term vanishes, so SOIAS wins at any bga when it rescues
    leakage).
    """
    if not 0.0 <= fga <= 1.0:
        raise AnalysisError(f"fga must be in [0, 1], got {fga}")
    if not (0.0 < vdd < math.inf and 0.0 < t_cycle_s < math.inf):
        raise AnalysisError(
            f"vdd and cycle time must be positive and finite, got "
            f"{vdd} and {t_cycle_s}"
        )
    overhead = module.back_gate_capacitance_f * module.back_gate_swing_v**2
    rescued = (
        (1.0 - fga)
        * (module.leakage_low_vt_a - module.leakage_high_vt_a)
        * vdd
        * t_cycle_s
    )
    if overhead <= 0.0:
        return None
    return rescued / overhead


def _ratio_cell(
    module: ModuleEnergyParameters,
    vdd: float,
    t_cycle_s: float,
    fga: float,
    bga: float,
) -> Optional[float]:
    """One surface cell: log10(E_SOIAS/E_SOI), None where undefined."""
    if bga > fga:
        return None
    soi = e_soi(module, fga, vdd, t_cycle_s)
    soias = e_soias(module, fga, bga, vdd, t_cycle_s)
    if soi <= 0.0 or soias <= 0.0:
        return None
    return math.log10(soias / soi)


def energy_ratio_surface(
    module: ModuleEnergyParameters,
    vdd: float,
    t_cycle_s: float,
    fga_values: Sequence[float],
    bga_values: Sequence[float],
) -> RatioSurface:
    """Sample the Fig. 10 surface over a grid.

    Cells with ``bga > fga`` are physically impossible (a block cannot
    power up more often than it is used) and come back as None.  The
    break-even contour runs through the cells
    :func:`zero_crossing_cells` reports.
    """
    cell = functools.partial(_ratio_cell, module, vdd, t_cycle_s)
    with obs.span("analysis.ratio_surface"):
        grid = sweep_2d(
            "fga",
            "bga",
            "log10(E_SOIAS/E_SOI)",
            fga_values,
            bga_values,
            cell,
        )
    return RatioSurface(
        module=module,
        vdd=vdd,
        t_cycle_s=t_cycle_s,
        grid=grid,
    )
