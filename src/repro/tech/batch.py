"""Decoded batch evaluation of V_T-variation sweeps.

Monte-Carlo variation analysis asks one question thousands of times:
*the same cell, at the same (V_DD, load) corner, under a different
``vt_shift``*.  The per-sample path re-resolves everything on every
call — attribute chains, capacitance views, thermal voltage, the
stack-leakage solver constants — even though only the shift changes.

:class:`VariationPlan` is the decode/run split of the ISA engine
applied to characterization: :meth:`CellCharacterizer.plan_variation
<repro.tech.characterize.CellCharacterizer.plan_variation>` resolves
every V_T-invariant quantity once (output capacitance, the
``0.7 * C * V`` delay numerator, per-flavour drive prefactors, and per
polarity the characterizer's own
:class:`~repro.device.leakage.StackSolver` for the cell's stack), and
:meth:`VariationPlan.delays` /
:meth:`VariationPlan.leakages` then evaluate a whole vector of shifts
in a tight loop that recomputes only the shift-dependent terms.

The batched results are **bit-identical** to the per-sample
``propagation_delay`` / ``leakage_current`` chain: every precomputed
partial product preserves the reference float-op association order
(``a*b*c*d`` folds left, so hoisting ``a*b`` is exact), the inlined
``_bounded_exp`` clamps reproduce ``max(-60, min(60, x))`` on the
reachable side, and the leakage path asks the very
:class:`~repro.device.leakage.StackSolver` the per-sample path asks
(taken from :meth:`StackLeakageModel.solver
<repro.device.leakage.StackLeakageModel.solver>`) for the whole shift
vector in one :meth:`~repro.device.leakage.StackSolver.currents` call,
so both serve in-window shifts from the same V_DD reference root.  The
differential tests in ``tests/property/test_variation_differential.py``
assert equality sample for sample.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro import obs as _obs
from repro.device.mosfet import Mosfet, MosfetParameters
from repro.errors import CharacterizationError
from repro.tech.characterize import _DELAY_CONSTANT

__all__ = ["VariationPlan"]

#: Mirrors ``repro.device.mosfet._MAX_EXP_ARG``; the inlined loops only
#: ever clamp from below (their exponent arguments are always <= 0).
_MAX_EXP_ARG = 60.0


def _drive_constants(
    parameters: MosfetParameters, width_um: float, vdd: float
) -> tuple:
    """V_T-invariant on-current constants for one flavour at one V_DD.

    Constructing the :class:`Mosfet` first keeps the validation (and
    its error) identical to the per-sample path.
    """
    device = Mosfet(parameters, width_um=width_um)
    phi_t = parameters.thermal_voltage
    exp_arg = -vdd / phi_t
    if exp_arg < -_MAX_EXP_ARG:
        exp_arg = -_MAX_EXP_ARG
    return (
        parameters.vt0,
        parameters.dibl * vdd,
        parameters.ideality * phi_t,
        1.0 - math.exp(exp_arg),
        parameters.i_spec * device.width_um,
        parameters.k_drive * device.width_um,
        parameters.alpha,
        parameters.alpha / 2.0,
        parameters.vdsat_coeff,
        parameters.channel_length_modulation,
    )


class VariationPlan:
    """A (cell, V_DD, load) corner decoded for vectorized V_T sweeps.

    Produced by :meth:`CellCharacterizer.plan_variation
    <repro.tech.characterize.CellCharacterizer.plan_variation>`; holds
    only plain floats plus, per polarity, the characterizer's solver
    for the cell's stack, so evaluating a shift vector builds no model
    objects at all.
    """

    __slots__ = (
        "cell_name",
        "vdd",
        "load_f",
        "output_high_probability",
        "_numerator",
        "_nmos_drive",
        "_pmos_drive",
        "_nmos_stack",
        "_pmos_stack",
    )

    def __init__(
        self,
        cell_name: str,
        vdd: float,
        load_f: float,
        output_high_probability: float,
        numerator: float,
        nmos_drive: tuple,
        pmos_drive: tuple,
        nmos_stack,
        pmos_stack,
    ):
        self.cell_name = cell_name
        self.vdd = vdd
        self.load_f = load_f
        self.output_high_probability = output_high_probability
        self._numerator = numerator
        self._nmos_drive = nmos_drive
        self._pmos_drive = pmos_drive
        self._nmos_stack = nmos_stack
        self._pmos_stack = pmos_stack

    @classmethod
    def build(
        cls,
        characterizer,
        cell,
        vdd: float,
        load_f: float,
        output_high_probability: float = 0.5,
    ) -> "VariationPlan":
        """Decode one corner of ``characterizer``'s technology.

        Called through :meth:`CellCharacterizer.plan_variation`, which
        validates the arguments and memoizes the plan.
        """
        technology = characterizer.technology
        total_load = load_f + characterizer._output_capacitance(cell, vdd)
        numerator = _DELAY_CONSTANT * total_load * vdd
        nmos = technology.transistors.nmos
        pmos = technology.transistors.pmos
        return cls(
            cell_name=cell.name,
            vdd=vdd,
            load_f=load_f,
            output_high_probability=output_high_probability,
            numerator=numerator,
            nmos_drive=_drive_constants(
                nmos,
                cell.series_equivalent_width(cell.nmos_path_widths_um),
                vdd,
            ),
            pmos_drive=_drive_constants(
                pmos,
                cell.series_equivalent_width(cell.pmos_path_widths_um),
                vdd,
            ),
            nmos_stack=characterizer._nmos_stacks.solver(
                cell.nmos_path_widths_um
            ),
            pmos_stack=characterizer._pmos_stacks.solver(
                cell.pmos_path_widths_um
            ),
        )

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def delays(self, vt_shifts: Sequence[float]) -> List[float]:
        """``propagation_delay`` at every shift, bit-identically."""
        exp = math.exp
        vdd = self.vdd
        numerator = self._numerator
        n_vt0, n_dibl_vdd, n_phi_n, n_df, n_iw, n_kw, n_alpha, \
            n_half_alpha, n_vdsat_c, n_clm = self._nmos_drive
        p_vt0, p_dibl_vdd, n_phi_p, p_df, p_iw, p_kw, p_alpha, \
            p_half_alpha, p_vdsat_c, p_clm = self._pmos_drive
        out: List[float] = []
        append = out.append
        for shift in vt_shifts:
            # Pull-down (NMOS) on-current.
            vt = (n_vt0 + shift) - n_dibl_vdd
            drive = vdd - vt
            gate_drive = drive
            if gate_drive > 0.0:
                gate_drive = 0.0
            exponent = gate_drive / n_phi_n
            if exponent < -_MAX_EXP_ARG:
                exponent = -_MAX_EXP_ARG
            pull_down = n_iw * exp(exponent) * n_df
            if drive > 0.0:
                i_dsat = n_kw * drive**n_alpha
                vdsat = n_vdsat_c * drive**n_half_alpha
                if vdd >= vdsat:
                    pull_down += i_dsat * (1.0 + n_clm * (vdd - vdsat))
                else:
                    ratio = vdd / vdsat
                    pull_down += i_dsat * ratio * (2.0 - ratio)
            # Pull-up (PMOS) on-current.
            vt = (p_vt0 + shift) - p_dibl_vdd
            drive = vdd - vt
            gate_drive = drive
            if gate_drive > 0.0:
                gate_drive = 0.0
            exponent = gate_drive / n_phi_p
            if exponent < -_MAX_EXP_ARG:
                exponent = -_MAX_EXP_ARG
            pull_up = p_iw * exp(exponent) * p_df
            if drive > 0.0:
                i_dsat = p_kw * drive**p_alpha
                vdsat = p_vdsat_c * drive**p_half_alpha
                if vdd >= vdsat:
                    pull_up += i_dsat * (1.0 + p_clm * (vdd - vdsat))
                else:
                    ratio = vdd / vdsat
                    pull_up += i_dsat * ratio * (2.0 - ratio)
            weakest = pull_down if pull_down <= pull_up else pull_up
            if weakest <= 0.0:
                raise CharacterizationError(
                    f"cell {self.cell_name} has no drive at "
                    f"V_DD = {vdd} V"
                )
            append(numerator / weakest)
        if _obs.ENABLED and out:
            _obs.incr("variation.samples_batched", len(out))
        return out

    def leakages(self, vt_shifts: Sequence[float]) -> List[float]:
        """``leakage_current`` at every shift, bit-identically.

        One :meth:`~repro.device.leakage.StackSolver.currents` call per
        polarity answers the whole vector.
        """
        p_high = self.output_high_probability
        p_low = 1.0 - p_high
        nmos_leaks = self._nmos_stack.currents(self.vdd, vt_shifts)
        pmos_leaks = self._pmos_stack.currents(self.vdd, vt_shifts)
        out = [
            p_high * nmos_leak + p_low * pmos_leak
            for nmos_leak, pmos_leak in zip(nmos_leaks, pmos_leaks)
        ]
        if _obs.ENABLED and out:
            _obs.incr("variation.samples_batched", len(out))
        return out

    # Single-sample conveniences (tests and spot checks).
    def delay(self, vt_shift: float = 0.0) -> float:
        """One ``propagation_delay`` sample through the plan."""
        return self.delays((vt_shift,))[0]

    def leakage(self, vt_shift: float = 0.0) -> float:
        """One ``leakage_current`` sample through the plan."""
        return self.leakages((vt_shift,))[0]
