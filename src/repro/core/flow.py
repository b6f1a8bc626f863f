"""End-to-end low-voltage design flow (Section 5 of the paper).

The flow evaluates, for each functional unit of a processor datapath:

1. **fga / bga** — from an instruction-level profile of the target
   workload (the ATOM substitute),
2. **alpha * C_fg** — from switch-level simulation of the unit's
   gate-level netlist under representative stimulus (the IRSIM
   substitute),
3. **leakage corners and back-gate overhead** — from the device and
   cell models, and
4. **the verdict** — Eq. 3 vs Eq. 4 (and the MTCMOS/VTCMOS variants),
   optionally under a system duty cycle (the X-server analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro import obs
from repro.device.technology import Technology, soias_technology
from repro.errors import AnalysisError

# Each stage imports its layer when called, so a flow that only
# optimizes (or only profiles) loads no simulator, ISA or contour code.
if TYPE_CHECKING:
    from repro.analysis.comparator import (
        TechnologyComparator,
        TechnologyVerdict,
    )
    from repro.analysis.contour import ApplicationPoint, RatioSurface
    from repro.analysis.surface import EnergySurface
    from repro.circuits.netlist import Netlist
    from repro.isa.assembler import Program
    from repro.isa.profiler import FunctionalUnitProfile
    from repro.power.energy import ModuleEnergyParameters
    from repro.power.optimizer import (
        FixedThroughputOptimizer,
        OperatingPoint,
        VariationSpec,
    )
    from repro.switchsim.activity import ActivityReport

__all__ = [
    "LowVoltageDesignFlow",
    "UnitEvaluation",
    "ApplicationEvaluation",
]


@dataclass(frozen=True)
class UnitEvaluation:
    """Everything the flow learned about one functional unit."""

    unit: str
    fga: float
    bga: float
    module: ModuleEnergyParameters
    verdicts: Dict[str, TechnologyVerdict]
    point: ApplicationPoint

    @property
    def soias_saving_percent(self) -> float:
        """Headline number: SOIAS energy saving vs fixed-low-V_T SOI."""
        return self.verdicts["soias"].saving_percent


@dataclass(frozen=True)
class ApplicationEvaluation:
    """Flow output for one workload on one datapath."""

    workload: str
    duty_cycle: float
    profile: FunctionalUnitProfile
    units: Dict[str, UnitEvaluation]

    def unit(self, name: str) -> UnitEvaluation:
        """Evaluation of one functional unit."""
        try:
            return self.units[name]
        except KeyError:
            raise AnalysisError(
                f"unit {name!r} not evaluated; have {sorted(self.units)}"
            ) from None

    def savings_table(self) -> Dict[str, float]:
        """Unit -> SOIAS saving percent (the Fig. 10 annotations)."""
        return {
            name: evaluation.soias_saving_percent
            for name, evaluation in self.units.items()
        }


class LowVoltageDesignFlow:
    """One configured instance of the paper's tool chain.

    Parameters
    ----------
    technology:
        A back-gated (or MTCMOS) technology; defaults to SOIAS.
    vdd:
        Operating supply [V].
    clock_hz:
        System clock; sets the cycle time leakage integrates over.
    variation:
        Optional :class:`repro.power.optimizer.VariationSpec`; when
        set, throughput optimizers built by this flow solve supplies
        for the p-th percentile Monte-Carlo delay corner instead of
        the nominal corner.  ``None`` (default) keeps every optimizer
        bit-identical to the nominal flow.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        vdd: float = 1.0,
        clock_hz: float = 1e6,
        variation: Optional[VariationSpec] = None,
    ):
        from repro.power.optimizer import VariationSpec

        if not (0.0 < vdd < math.inf and 0.0 < clock_hz < math.inf):
            raise AnalysisError(
                f"vdd and clock must be positive and finite, got "
                f"vdd {vdd}, clock {clock_hz}"
            )
        if variation is not None and not isinstance(variation, VariationSpec):
            raise AnalysisError(
                "variation must be a VariationSpec or None"
            )
        self.technology = (
            soias_technology() if technology is None else technology
        )
        self.vdd = vdd
        self.clock_hz = clock_hz
        self.variation = variation

    @property
    def t_cycle_s(self) -> float:
        """Clock period [s]."""
        return 1.0 / self.clock_hz

    # ------------------------------------------------------------------
    # Stage 1: architectural profiling
    # ------------------------------------------------------------------
    def profile(
        self, program: Program, max_instructions: int = 50_000_000
    ) -> FunctionalUnitProfile:
        """Run the workload and extract per-unit fga/bga."""
        from repro.isa.profiler import profile_program

        with obs.span("flow.profile"):
            return profile_program(program, max_instructions=max_instructions)

    # ------------------------------------------------------------------
    # Stage 2: node activity
    # ------------------------------------------------------------------
    def unit_activity(
        self,
        netlist: Netlist,
        vectors: Sequence[Mapping[str, int]],
    ) -> ActivityReport:
        """Switch-level simulation of a unit under stimulus."""
        from repro.switchsim.simulator import SwitchLevelSimulator

        active_shift = 0.0
        if self.technology.is_back_gated:
            active_shift = self.technology.back_gate.vt_shift_at(
                min(
                    self.technology.back_gate_swing,
                    self.technology.back_gate.max_back_gate_bias,
                )
            )
        simulator = SwitchLevelSimulator(
            netlist, self.technology, self.vdd, vt_shift=active_shift
        )
        with obs.span("flow.unit_activity"):
            return simulator.run_vectors(vectors)

    # ------------------------------------------------------------------
    # Stage 3: module electrical parameters
    # ------------------------------------------------------------------
    def module_parameters(
        self, netlist: Netlist, report: ActivityReport
    ) -> ModuleEnergyParameters:
        """Eq. 3/4 parameters from simulated activity."""
        from repro.power.energy import module_parameters_from_activity

        with obs.span("flow.module_parameters"):
            return module_parameters_from_activity(
                netlist, report, self.technology, self.vdd
            )

    # ------------------------------------------------------------------
    # Stage 4: comparison
    # ------------------------------------------------------------------
    def comparator(
        self, module: ModuleEnergyParameters
    ) -> TechnologyComparator:
        """Technology comparator at this flow's operating point."""
        from repro.analysis.comparator import TechnologyComparator

        return TechnologyComparator(module, self.vdd, self.t_cycle_s)

    def ratio_surface(
        self,
        module: ModuleEnergyParameters,
        fga_values: Sequence[float],
        bga_values: Sequence[float],
    ) -> RatioSurface:
        """Fig. 10 surface for one module at this flow's operating point.

        See :func:`repro.analysis.contour.energy_ratio_surface`.
        """
        from repro.analysis.contour import energy_ratio_surface

        with obs.span("flow.ratio_surface"):
            return energy_ratio_surface(
                module,
                self.vdd,
                self.t_cycle_s,
                fga_values,
                bga_values,
            )

    def energy_surface(
        self,
        vt_values: Sequence[float],
        vdd_values: Sequence[float],
        stages: int = 101,
        activity: float = 1.0,
    ) -> EnergySurface:
        """Fig. 3/4 energy plane at this flow's clock rate.

        The ring-oscillator cycle energy over a (V_T, V_DD) grid, with
        cells that miss the per-stage delay budget (``t_cycle_s / (2 *
        stages)``: one ring period per cycle, like
        :meth:`throughput_optimizer`) marked infeasible; see
        :func:`repro.analysis.surface.energy_surface`.
        """
        from repro.analysis.surface import energy_surface

        with obs.span("flow.energy_surface"):
            return energy_surface(
                self.technology,
                vt_values,
                vdd_values,
                self.t_cycle_s,
                stages=stages,
                activity=activity,
            )

    # ------------------------------------------------------------------
    # Fixed-throughput (V_DD, V_T) optimization
    # ------------------------------------------------------------------
    def throughput_optimizer(
        self,
        stages: int = 101,
        activity: float = 1.0,
    ) -> FixedThroughputOptimizer:
        """Figs. 3-4 optimizer on this flow's technology and variation.

        The returned optimizer carries the flow's ``variation`` spec:
        with one configured, ``locus_point``/``sweep``/``optimum``
        solve yield-constrained supplies; without, they reproduce the
        nominal optimizer bit-for-bit.  Leakage integrates over one
        ring period per operation.
        """
        from repro.power.optimizer import (
            FixedThroughputOptimizer,
            RingOscillatorModel,
        )

        ring = RingOscillatorModel(
            self.technology, stages=stages, activity=activity
        )
        return FixedThroughputOptimizer(ring, variation=self.variation)

    def optimize_throughput(
        self,
        target_stage_delay_s: float,
        stages: int = 101,
        activity: float = 1.0,
        vt_bounds: Sequence[float] = (0.01, 0.6),
    ) -> OperatingPoint:
        """Minimum-energy (V_DD, V_T) point at a fixed stage delay."""
        optimizer = self.throughput_optimizer(
            stages=stages, activity=activity
        )
        with obs.span("flow.optimize"):
            return optimizer.optimum(
                target_stage_delay_s, vt_bounds=vt_bounds
            )

    # ------------------------------------------------------------------
    # The one-call experiment
    # ------------------------------------------------------------------
    def evaluate(
        self,
        program: Program,
        units: Mapping[str, "DatapathUnitLike"],
        duty_cycle: float = 1.0,
    ) -> ApplicationEvaluation:
        """Full Section 5 evaluation of one workload on a datapath.

        Parameters
        ----------
        program:
            The assembled workload to profile.
        units:
            Unit name -> an object with ``netlist`` and ``vectors``
            attributes (see :class:`repro.core.scenarios.DatapathUnit`).
            Unit names must match profiler functional units.
        duty_cycle:
            System-level active fraction (1.0 = continuously active,
            0.2 = the paper's X server).
        """
        profile = self.profile(program).scaled_by_duty_cycle(duty_cycle)
        evaluations: Dict[str, UnitEvaluation] = {}
        for name, unit in units.items():
            fga = profile.fga(name)
            bga = profile.bga(name)
            report = self.unit_activity(unit.netlist, unit.vectors)
            module = self.module_parameters(unit.netlist, report)
            comparator = self.comparator(module)
            verdicts = comparator.all_verdicts(fga, bga)
            surface = self.ratio_surface(
                module, (max(fga, 1e-9),), (max(bga, 1e-12),)
            )
            point = surface.application_point(
                f"{program.name}:{name}", max(fga, 1e-9), min(max(bga, 1e-12), max(fga, 1e-9))
            )
            evaluations[name] = UnitEvaluation(
                unit=name,
                fga=fga,
                bga=bga,
                module=module,
                verdicts=verdicts,
                point=point,
            )
        return ApplicationEvaluation(
            workload=program.name,
            duty_cycle=duty_cycle,
            profile=profile,
            units=evaluations,
        )
