"""Decoded batch evaluation of V_DD operating sweeps.

The Fig. 3/4 experiments ask the mirror image of the variation
question answered by :mod:`repro.tech.batch`: *the same cell, under
the same load, at many supply voltages*.  Every optimizer probe —
the delay probes of the supply solve in ``solve_vdd_for_delay``,
energy evaluations along the optimum locus, whole (V_DD, V_T) surface
grids — walks the scalar ``fanout_delay`` / ``propagation_delay`` /
``leakage_current`` chain, re-resolving attribute chains, capacitance
views, thermal voltage and Mosfet constructions although none of them
depend on V_DD.

The delay is *not* monotone in V_DD.  Where the gate drive crosses
zero the on-current's slope collapses, and the delay rises for a band
of about 1–40 mV above that kink (wider at lower V_T) before it falls
again.  :meth:`OperatingPlan.delay_breaks` reports the kink so the
supply solve can bisect across it and land on the same root as a
plain bisection.

:class:`OperatingPlan` is the decode/run split applied along the
supply axis: :meth:`CellCharacterizer.plan_operating
<repro.tech.characterize.CellCharacterizer.plan_operating>` resolves
every V_DD-invariant quantity once (gate/junction geometry products,
per-flavour drive prefactors, and per polarity the characterizer's own
:class:`~repro.device.leakage.StackSolver` for the cell's stack), and
:meth:`OperatingPlan.delays` / :meth:`OperatingPlan.leakages` /
:meth:`OperatingPlan.energies` then evaluate a whole vector of
supplies in a tight loop that recomputes only the V_DD-dependent
terms (the non-linear C(V) views and the drive exponentials).

The batched results are **bit-identical** to the per-point chain:
every precomputed partial product preserves the reference float-op
association order (``a*b*c*d`` folds left, so hoisting ``a*b`` is
exact), the non-linear ``switched_capacitance`` views are evaluated
once per point through the *same* model methods the per-point path
calls, the inlined ``_bounded_exp`` clamps reproduce
``max(-60, min(60, x))`` on the reachable side, and the leakage path
runs the very stack solver the per-point path runs (taken from
:meth:`StackLeakageModel.solver
<repro.device.leakage.StackLeakageModel.solver>`, with its per-V_DD
reference roots) and *shares* the characterizer's
:class:`~repro.device.leakage.StackLeakageModel` memo dicts — key
construction included — so the rounded-key reuse semantics of the
per-point path are replicated exactly.  The differential tests in
``tests/property/test_opplan_differential.py`` assert equality corner
for corner.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.device.mosfet import Mosfet, MosfetParameters
from repro.errors import CharacterizationError, DeviceModelError
from repro.tech.characterize import _DELAY_CONSTANT

__all__ = ["OperatingPlan"]

#: Mirrors ``repro.device.mosfet._MAX_EXP_ARG``; the inlined loops only
#: ever clamp from below (their exponent arguments are always <= 0).
_MAX_EXP_ARG = 60.0


def _drive_constants(parameters: MosfetParameters, width_um: float) -> tuple:
    """V_DD-invariant on-current constants for one flavour.

    Constructing the :class:`Mosfet` first keeps the validation (and
    its error) identical to the per-point path.
    """
    device = Mosfet(parameters, width_um=width_um)
    phi_t = parameters.thermal_voltage
    return (
        parameters.vt0,
        parameters.dibl,
        parameters.ideality * phi_t,
        phi_t,
        parameters.i_spec * device.width_um,
        parameters.k_drive * device.width_um,
        parameters.alpha,
        parameters.alpha / 2.0,
        parameters.vdsat_coeff,
        parameters.channel_length_modulation,
    )


class OperatingPlan:
    """A (cell, load) pair decoded for vectorized V_DD sweeps.

    Produced by :meth:`CellCharacterizer.plan_operating
    <repro.tech.characterize.CellCharacterizer.plan_operating>`; holds
    only plain floats, the two capacitance models (their non-linear
    ``switched_capacitance`` views are the only model calls left in the
    kernels) and, per polarity, the characterizer's stack model with
    its solver for the cell's stack.

    The load is specified either as a fixed external ``load_f`` [F]
    (mirroring :meth:`~repro.tech.characterize.CellCharacterizer.
    propagation_delay`) or as a ``fanout`` multiple of the cell's own
    V_DD-dependent input capacitance (mirroring
    :meth:`~repro.tech.characterize.CellCharacterizer.fanout_delay` —
    the ring-oscillator configuration).
    """

    __slots__ = (
        "cell_name",
        "load_f",
        "fanout",
        "output_high_probability",
        "_gate_cap",
        "_junction_cap",
        "_gate_area_n",
        "_gate_area_p",
        "_drain_area_n",
        "_drain_area_p",
        "_nmos_drive",
        "_pmos_drive",
        "_nmos_stack",
        "_pmos_stack",
    )

    def __init__(
        self,
        cell_name: str,
        load_f: float,
        fanout: Optional[int],
        output_high_probability: float,
        gate_cap,
        junction_cap,
        gate_area_n: float,
        gate_area_p: float,
        drain_area_n: float,
        drain_area_p: float,
        nmos_drive: tuple,
        pmos_drive: tuple,
        nmos_stack: tuple,
        pmos_stack: tuple,
    ):
        self.cell_name = cell_name
        self.load_f = load_f
        self.fanout = fanout
        self.output_high_probability = output_high_probability
        self._gate_cap = gate_cap
        self._junction_cap = junction_cap
        self._gate_area_n = gate_area_n
        self._gate_area_p = gate_area_p
        self._drain_area_n = drain_area_n
        self._drain_area_p = drain_area_p
        self._nmos_drive = nmos_drive
        self._pmos_drive = pmos_drive
        self._nmos_stack = nmos_stack
        self._pmos_stack = pmos_stack

    @classmethod
    def build(
        cls,
        characterizer,
        cell,
        load_f: float = 0.0,
        fanout: Optional[int] = None,
        output_high_probability: float = 0.5,
    ) -> "OperatingPlan":
        """Decode one (cell, load) pair of ``characterizer``'s technology.

        Called through :meth:`CellCharacterizer.plan_operating`, which
        validates the arguments and memoizes the plan.
        """
        technology = characterizer.technology
        length = technology.drawn_length_um
        extent = technology.drain_extent_um
        # Same dimension guard (and error) the capacitance models apply
        # on every per-point call, hoisted to decode time.
        widths = (
            cell.input_nmos_width_um,
            cell.input_pmos_width_um,
            cell.input_nmos_width_um * cell.nmos_drains_on_output,
            cell.input_pmos_width_um * cell.pmos_drains_on_output,
        )
        if length <= 0.0 or extent <= 0.0 or any(w <= 0.0 for w in widths):
            raise DeviceModelError("device dimensions must be positive")
        nmos = technology.transistors.nmos
        pmos = technology.transistors.pmos
        return cls(
            cell_name=cell.name,
            load_f=load_f,
            fanout=fanout,
            output_high_probability=output_high_probability,
            gate_cap=technology.gate_cap,
            junction_cap=technology.junction_cap,
            # gate_capacitance folds (w * l) * C_sw(V_DD); hoist (w * l).
            gate_area_n=cell.input_nmos_width_um * length,
            gate_area_p=cell.input_pmos_width_um * length,
            # drain_capacitance folds ((w * drains) * extent) * C_sw.
            drain_area_n=(
                cell.input_nmos_width_um * cell.nmos_drains_on_output
            )
            * extent,
            drain_area_p=(
                cell.input_pmos_width_um * cell.pmos_drains_on_output
            )
            * extent,
            nmos_drive=_drive_constants(
                nmos,
                cell.series_equivalent_width(cell.nmos_path_widths_um),
            ),
            pmos_drive=_drive_constants(
                pmos,
                cell.series_equivalent_width(cell.pmos_path_widths_um),
            ),
            nmos_stack=(
                characterizer._nmos_stacks,
                characterizer._nmos_stacks.solver(cell.nmos_path_widths_um),
            ),
            pmos_stack=(
                characterizer._pmos_stacks,
                characterizer._pmos_stacks.solver(cell.pmos_path_widths_um),
            ),
        )

    # ------------------------------------------------------------------
    # Per-point loads (the only V_DD-dependent model calls left)
    # ------------------------------------------------------------------
    def _load_and_cout(self, vdd: float) -> Tuple[float, float]:
        """(external load, output capacitance) at one supply [F].

        Fanout mode touches the gate C(V) view *first*, so an invalid
        supply raises the same ``DeviceModelError`` as the per-point
        ``fanout_delay`` chain; fixed-load mode raises the
        characterizer's ``CharacterizationError`` instead, exactly as
        ``propagation_delay`` would.
        """
        fanout = self.fanout
        if fanout is not None:
            gate_sw = self._gate_cap.switched_capacitance(vdd)
            cin = self._gate_area_n * gate_sw + self._gate_area_p * gate_sw
            load = fanout * cin
        else:
            if not 0.0 < vdd < math.inf:
                raise CharacterizationError(
                    f"vdd must be positive and finite, got {vdd}"
                )
            load = self.load_f
        junction_sw = self._junction_cap.switched_capacitance(vdd)
        cout = (
            self._drain_area_n * junction_sw
            + self._drain_area_p * junction_sw
        )
        return load, cout

    def loads(self, vdds: Sequence[float]) -> List[Tuple[float, float]]:
        """``(external load, output capacitance)`` at every supply [F].

        C(V) does not depend on the V_T shift, so a caller evaluating
        many shifts over one supply axis computes these once and hands
        them to :meth:`operating_points`.
        """
        return [self._load_and_cout(vdd) for vdd in vdds]

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def delays(
        self, vdds: Sequence[float], vt_shift: float = 0.0
    ) -> List[float]:
        """The per-point delay chain at every supply, bit-identically.

        Fanout mode mirrors ``fanout_delay``; fixed-load mode mirrors
        ``propagation_delay`` — see :mod:`repro.device.mosfet` for the
        reference float-op sequences the drive loop replicates.
        """
        exp = math.exp
        load_and_cout = self._load_and_cout
        n_vt0, n_dibl, n_phi_n, n_phi_t, n_iw, n_kw, n_alpha, \
            n_half_alpha, n_vdsat_c, n_clm = self._nmos_drive
        p_vt0, p_dibl, n_phi_p, p_phi_t, p_iw, p_kw, p_alpha, \
            p_half_alpha, p_vdsat_c, p_clm = self._pmos_drive
        n_vt0s = n_vt0 + vt_shift
        p_vt0s = p_vt0 + vt_shift
        out: List[float] = []
        append = out.append
        for vdd in vdds:
            load, cout = load_and_cout(vdd)
            total_load = load + cout
            numerator = _DELAY_CONSTANT * total_load * vdd
            # Pull-down (NMOS) on-current.
            vt = n_vt0s - n_dibl * vdd
            drive = vdd - vt
            gate_drive = drive
            if gate_drive > 0.0:
                gate_drive = 0.0
            exponent = gate_drive / n_phi_n
            if exponent < -_MAX_EXP_ARG:
                exponent = -_MAX_EXP_ARG
            drain_arg = -vdd / n_phi_t
            if drain_arg < -_MAX_EXP_ARG:
                drain_arg = -_MAX_EXP_ARG
            pull_down = n_iw * exp(exponent) * (1.0 - exp(drain_arg))
            if drive > 0.0:
                i_dsat = n_kw * drive**n_alpha
                vdsat = n_vdsat_c * drive**n_half_alpha
                if vdd >= vdsat:
                    pull_down += i_dsat * (1.0 + n_clm * (vdd - vdsat))
                else:
                    ratio = vdd / vdsat
                    pull_down += i_dsat * ratio * (2.0 - ratio)
            # Pull-up (PMOS) on-current.
            vt = p_vt0s - p_dibl * vdd
            drive = vdd - vt
            gate_drive = drive
            if gate_drive > 0.0:
                gate_drive = 0.0
            exponent = gate_drive / n_phi_p
            if exponent < -_MAX_EXP_ARG:
                exponent = -_MAX_EXP_ARG
            drain_arg = -vdd / p_phi_t
            if drain_arg < -_MAX_EXP_ARG:
                drain_arg = -_MAX_EXP_ARG
            pull_up = p_iw * exp(exponent) * (1.0 - exp(drain_arg))
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
            _obs.incr("opplan.points_batched", len(out))
        return out

    def leakages(
        self, vdds: Sequence[float], vt_shift: float = 0.0
    ) -> List[float]:
        """``leakage_current`` at every supply, bit-identically.

        Consults (and fills) the shared stack memos with the same
        rounded keys and in the same order as the per-point path.
        """
        p_high = self.output_high_probability
        p_low = 1.0 - p_high
        n_stacks, n_solver = self._nmos_stack
        p_stacks, p_solver = self._pmos_stack
        shift_key = round(vt_shift, 6)
        out: List[float] = []
        append = out.append
        for vdd in vdds:
            if not 0.0 < vdd < math.inf:
                raise CharacterizationError(
                    f"vdd must be positive and finite, got {vdd}"
                )
            nmos_leak = n_stacks.lookup(n_solver, vdd, vt_shift, shift_key)
            pmos_leak = p_stacks.lookup(p_solver, vdd, vt_shift, shift_key)
            append(p_high * nmos_leak + p_low * pmos_leak)
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def energies(
        self, vdds: Sequence[float], vt_shift: float = 0.0
    ) -> List[Tuple[float, float]]:
        """Raw ``(E_transition, I_leak)`` pairs at every supply.

        ``E_transition`` is ``energy_per_transition`` at this plan's
        load [J] and ``I_leak`` is ``leakage_current`` [A] — the two
        numbers the ring oscillator's ``energy_per_cycle`` chain
        combines with its stage count, activity and cycle time
        (``E = stages * activity * E_tr + (stages * I_leak) * V * T``).
        Returning the raw pair keeps every downstream association order
        in the caller, bit-identical to the per-point chain.
        """
        p_high = self.output_high_probability
        p_low = 1.0 - p_high
        n_stacks, n_solver = self._nmos_stack
        p_stacks, p_solver = self._pmos_stack
        shift_key = round(vt_shift, 6)
        load_and_cout = self._load_and_cout
        out: List[Tuple[float, float]] = []
        append = out.append
        for vdd in vdds:
            load, cout = load_and_cout(vdd)
            total = load + cout
            transition = total * vdd * vdd
            nmos_leak = n_stacks.lookup(n_solver, vdd, vt_shift, shift_key)
            pmos_leak = p_stacks.lookup(p_solver, vdd, vt_shift, shift_key)
            leak = p_high * nmos_leak + p_low * pmos_leak
            append((transition, leak))
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def operating_points(
        self,
        vdds: Sequence[float],
        vt_shift: float = 0.0,
        max_delay_s: Optional[float] = None,
        loads: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> List[Tuple[float, Optional[float], Optional[float]]]:
        """Fused ``(delay, E_transition, I_leak)`` triples per supply.

        Evaluates :meth:`delays` and :meth:`energies` in one pass,
        computing the V_DD-dependent load exactly once per point — the
        capacitance views are pure functions of V_DD, so sharing the
        ``load + cout`` floats between the delay numerator and the
        ``C * V^2`` transition energy reproduces both per-point chains
        bit-identically.  ``loads`` is :meth:`loads` of ``vdds``, passed
        by callers that sweep many shifts over one supply axis.

        When ``max_delay_s`` is given, points whose delay exceeds it
        return ``(delay, None, None)`` and skip the leakage-stack
        lookups entirely — the surface engine's infeasible cells never
        consume their energies, so eliding the work changes nothing.
        """
        exp = math.exp
        if loads is None:
            loads = self.loads(vdds)
        n_vt0, n_dibl, n_phi_n, n_phi_t, n_iw, n_kw, n_alpha, \
            n_half_alpha, n_vdsat_c, n_clm = self._nmos_drive
        p_vt0, p_dibl, n_phi_p, p_phi_t, p_iw, p_kw, p_alpha, \
            p_half_alpha, p_vdsat_c, p_clm = self._pmos_drive
        n_vt0s = n_vt0 + vt_shift
        p_vt0s = p_vt0 + vt_shift
        p_high = self.output_high_probability
        p_low = 1.0 - p_high
        n_stacks, n_solver = self._nmos_stack
        p_stacks, p_solver = self._pmos_stack
        shift_key = round(vt_shift, 6)
        out: List[Tuple[float, Optional[float], Optional[float]]] = []
        append = out.append
        for vdd, (load, cout) in zip(vdds, loads):
            total_load = load + cout
            numerator = _DELAY_CONSTANT * total_load * vdd
            # Pull-down (NMOS) on-current.
            vt = n_vt0s - n_dibl * vdd
            drive = vdd - vt
            gate_drive = drive
            if gate_drive > 0.0:
                gate_drive = 0.0
            exponent = gate_drive / n_phi_n
            if exponent < -_MAX_EXP_ARG:
                exponent = -_MAX_EXP_ARG
            drain_arg = -vdd / n_phi_t
            if drain_arg < -_MAX_EXP_ARG:
                drain_arg = -_MAX_EXP_ARG
            pull_down = n_iw * exp(exponent) * (1.0 - exp(drain_arg))
            if drive > 0.0:
                i_dsat = n_kw * drive**n_alpha
                vdsat = n_vdsat_c * drive**n_half_alpha
                if vdd >= vdsat:
                    pull_down += i_dsat * (1.0 + n_clm * (vdd - vdsat))
                else:
                    ratio = vdd / vdsat
                    pull_down += i_dsat * ratio * (2.0 - ratio)
            # Pull-up (PMOS) on-current.
            vt = p_vt0s - p_dibl * vdd
            drive = vdd - vt
            gate_drive = drive
            if gate_drive > 0.0:
                gate_drive = 0.0
            exponent = gate_drive / n_phi_p
            if exponent < -_MAX_EXP_ARG:
                exponent = -_MAX_EXP_ARG
            drain_arg = -vdd / p_phi_t
            if drain_arg < -_MAX_EXP_ARG:
                drain_arg = -_MAX_EXP_ARG
            pull_up = p_iw * exp(exponent) * (1.0 - exp(drain_arg))
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
            delay = numerator / weakest
            if max_delay_s is not None and delay > max_delay_s:
                append((delay, None, None))
                continue
            transition = total_load * vdd * vdd
            nmos_leak = n_stacks.lookup(n_solver, vdd, vt_shift, shift_key)
            pmos_leak = p_stacks.lookup(p_solver, vdd, vt_shift, shift_key)
            leak = p_high * nmos_leak + p_low * pmos_leak
            append((delay, transition, leak))
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def delay_breaks(
        self, vt_shift: float = 0.0
    ) -> Optional[Tuple[float]]:
        """The supply where :meth:`delays` stops falling, or ``None``.

        The on-current blends the subthreshold exponential with the
        alpha-power term, which starts at zero where the gate drive
        ``V_DD - (V_T0 + vt_shift - DIBL * V_DD)`` crosses zero, at
        ``V_DD = (V_T0 + vt_shift) / (1 + DIBL)``.  Above that kink
        the exponential has saturated and the alpha-power term is still
        flat, so the delay *rises* with V_DD, for about 1 mV at
        V_T = 0.5 V up to about 40 mV at V_T = 0.05 V, before it falls
        again: below the kink the delay falls monotonically, above it
        it rises to one local maximum and then falls.

        That holds when the two polarities differ by nothing but a
        common drive scale (every technology built from a matched
        N/P pair): then the weaker one sets the delay at every supply.
        The scale is compared to 1e-12 relative, the float rounding of
        the width and mobility products.  For any other pair the
        delay's shape is not known here and the result is ``None``.
        """
        nmos = self._nmos_drive
        pmos = self._pmos_drive
        # _drive_constants order: (vt0, dibl, n*phi_t, phi_t) and
        # (alpha, alpha/2, vdsat_coeff, clm) must match exactly, and the
        # drive prefactors (i_spec*W, k_drive*W) must share one ratio.
        if (
            nmos[:4] != pmos[:4]
            or nmos[6:] != pmos[6:]
            or not math.isclose(
                pmos[4] / nmos[4], pmos[5] / nmos[5], rel_tol=1e-12
            )
        ):
            return None
        return ((nmos[0] + vt_shift) / (1.0 + nmos[1]),)

    # Single-point conveniences (tests and spot checks).
    def delay(self, vdd: float, vt_shift: float = 0.0) -> float:
        """One delay sample through the plan."""
        return self.delays((vdd,), vt_shift)[0]

    def leakage(self, vdd: float, vt_shift: float = 0.0) -> float:
        """One ``leakage_current`` sample through the plan."""
        return self.leakages((vdd,), vt_shift)[0]
