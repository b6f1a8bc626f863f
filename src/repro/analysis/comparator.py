"""Per-application technology comparison (the Section 5.4 verdicts).

Given a module's electrical parameters and its profiled (fga, bga),
the comparator evaluates every burst-mode technology model against the
fixed-low-V_T SOI baseline and reports savings — producing exactly the
kind of statement the paper closes with: "43 % for the adder, 81 % for
the shifter, 97 % for the multiplier" under the X-server duty cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AnalysisError
from repro.power.energy import (
    ModuleEnergyParameters,
    e_mtcmos,
    e_soi,
    e_soias,
    e_vtcmos,
)

__all__ = ["TechnologyVerdict", "TechnologyComparator"]


@dataclass(frozen=True)
class TechnologyVerdict:
    """Outcome of one technology-vs-baseline comparison."""

    technology: str
    module: str
    fga: float
    bga: float
    baseline_energy_j: float
    candidate_energy_j: float

    @property
    def ratio(self) -> float:
        """candidate / baseline (< 1 means the candidate wins)."""
        return self.candidate_energy_j / self.baseline_energy_j

    @property
    def saving_percent(self) -> float:
        """Energy saved versus the SOI baseline, in percent."""
        return 100.0 * (1.0 - self.ratio)

    @property
    def wins(self) -> bool:
        """Whether the candidate beats the baseline."""
        return self.candidate_energy_j < self.baseline_energy_j


class TechnologyComparator:
    """Evaluates burst-mode technologies for one module.

    Parameters
    ----------
    module:
        The module's Eq. 3/4 electrical parameters.
    vdd:
        Operating supply [V].
    t_cycle_s:
        Clock period [s].
    vtcmos_well_capacitance_f / vtcmos_body_swing_v:
        VTCMOS control-node model (the well is big and the swing is
        large — the paper's square-root caveat).
    """

    def __init__(
        self,
        module: ModuleEnergyParameters,
        vdd: float,
        t_cycle_s: float,
        vtcmos_well_capacitance_f: Optional[float] = None,
        vtcmos_body_swing_v: float = 3.0,
    ):
        if not (0.0 < vdd < math.inf and 0.0 < t_cycle_s < math.inf):
            raise AnalysisError(
                f"vdd and cycle time must be positive and finite, got "
                f"{vdd} and {t_cycle_s}"
            )
        self.module = module
        self.vdd = vdd
        self.t_cycle_s = t_cycle_s
        # Default well model: the well capacitance is several times the
        # gate back-plane (junction area under the whole module).
        self.vtcmos_well_capacitance_f = (
            3.0 * module.back_gate_capacitance_f
            if vtcmos_well_capacitance_f is None
            else vtcmos_well_capacitance_f
        )
        self.vtcmos_body_swing_v = vtcmos_body_swing_v

    def baseline_energy(self, fga: float) -> float:
        """Eq. 3 baseline at this operating point [J]."""
        return e_soi(self.module, fga, self.vdd, self.t_cycle_s)

    def verdict(
        self, technology: str, fga: float, bga: float
    ) -> TechnologyVerdict:
        """Compare one technology against the baseline."""
        baseline = self.baseline_energy(fga)
        if technology == "soias":
            candidate = e_soias(
                self.module, fga, bga, self.vdd, self.t_cycle_s
            )
        elif technology == "mtcmos":
            candidate = e_mtcmos(
                self.module, fga, bga, self.vdd, self.t_cycle_s
            )
        elif technology == "vtcmos":
            candidate = e_vtcmos(
                self.module,
                fga,
                bga,
                self.vdd,
                self.t_cycle_s,
                well_capacitance_f=self.vtcmos_well_capacitance_f,
                body_bias_swing_v=self.vtcmos_body_swing_v,
            )
        else:
            raise AnalysisError(
                f"unknown technology {technology!r}; choose from "
                "'soias', 'mtcmos', 'vtcmos'"
            )
        return TechnologyVerdict(
            technology=technology,
            module=self.module.name,
            fga=fga,
            bga=bga,
            baseline_energy_j=baseline,
            candidate_energy_j=candidate,
        )

    def all_verdicts(
        self, fga: float, bga: float
    ) -> Dict[str, TechnologyVerdict]:
        """Verdicts for every modelled burst-mode technology."""
        return {
            name: self.verdict(name, fga, bga)
            for name in ("soias", "mtcmos", "vtcmos")
        }
