"""One decoded corner plan per cell: the toolkit's cell-delay kernel.

A *corner* is a supply and a threshold shift, ``(V_DD, ΔV_T)``.  The
Fig. 3/4 experiments ask for one cell at many supplies (optimizer
probes, whole energy surfaces), Monte-Carlo variation asks for it at
many shifts of one supply, and the scalar characterizer asks for one
corner at a time.  :class:`CornerPlan` answers all three.
:meth:`CellCharacterizer.corner_plan
<repro.tech.characterize.CellCharacterizer.corner_plan>` decodes a cell
once — its gate and junction geometry products, per polarity the
on-current constants of its series-equivalent device, and the
characterizer's :class:`~repro.device.leakage.StackSolver` for each off
stack — and every kernel takes equal-length V_DD and shift sequences,
one corner per position, with the external load (a fixed ``load_f`` or
a ``fanout`` multiple of the cell's own input capacitance) and the
output-high probability as call arguments.

The delay is ``t = 0.7 C V / I`` with ``I`` the weaker network's
on-current: Eq. 2's subthreshold floor plus the alpha-power drive.  One
private loop, :meth:`CornerPlan._run`, computes it for every kernel
that returns a delay, and the characterizer's scalar queries are
one-element calls of the same kernels, so it is the only cell-delay
implementation in the package.

The delay is *not* monotone in V_DD.  Where the gate drive crosses
zero the on-current's slope collapses, and the delay rises for a band
of about 1–40 mV above that kink (wider at lower V_T) before it falls
again.  :meth:`CornerPlan.delay_breaks` reports the kink so the supply
solve can bisect across it and land on the same root as a plain
bisection.

Every kernel reproduces the device-level chain float for float:
``Mosfet.on_current`` per polarity, the cell's
``input_capacitance``/``output_capacitance`` views and the stack
solver.  Precomputed partial products keep the reference association
order (``a*b*c*d`` folds left, so hoisting ``a*b`` is exact), the
non-linear C(V) views are the same model methods, and the inlined
``_bounded_exp`` clamps reproduce ``max(-60, min(60, x))`` on the
reachable side.  The differential tests in
``tests/property/test_opplan_differential.py`` and
``tests/property/test_variation_differential.py`` compare the kernels
with that chain.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.device.mosfet import _MAX_EXP_ARG, Mosfet, MosfetParameters
from repro.errors import CharacterizationError, DeviceModelError

__all__ = ["CornerPlan"]

#: Effective-current delay constant: the switching transistor spends the
#: transition between its saturation and linear currents; 0.7 matches
#: the usual 50 %-swing convention.
_DELAY_CONSTANT = 0.7
_INF = math.inf


def _drive_constants(parameters: MosfetParameters, width_um: float) -> tuple:
    """Corner-invariant on-current constants for one flavour.

    Constructing the :class:`Mosfet` first keeps the validation (and
    its error) identical to the device-level chain.
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


def _check_shifts(shifts: Sequence[float]) -> None:
    """Reject a non-finite shift (one float sum unless one is found)."""
    if not -_INF < sum(shifts) < _INF:
        for shift in shifts:
            if not -_INF < shift < _INF:
                raise CharacterizationError(
                    f"vt_shift must be finite, got {shift}"
                )


def _check_corners(
    vdds: Sequence,
    shifts: Sequence[float],
    output_high_probability: float = 0.5,
) -> None:
    """Reject unequal lengths, a non-finite shift or a bad probability."""
    if len(shifts) != len(vdds):
        raise CharacterizationError(
            f"got {len(vdds)} supplies but {len(shifts)} shifts"
        )
    _check_shifts(shifts)
    if not 0.0 <= output_high_probability <= 1.0:
        raise CharacterizationError(
            "output_high_probability must be in [0, 1]"
        )


class CornerPlan:
    """One cell decoded for batched ``(V_DD, ΔV_T)`` corner evaluation.

    Produced, once per cell, by :meth:`CellCharacterizer.corner_plan
    <repro.tech.characterize.CellCharacterizer.corner_plan>`; holds
    plain floats, the two capacitance models (their non-linear
    ``switched_capacitance`` views are the only model calls left in
    the kernels) and, per polarity, the characterizer's solver for the
    cell's off stack.

    The load is either a fixed external ``load_f`` [F], as in
    :meth:`~repro.tech.characterize.CellCharacterizer.propagation_delay`,
    or, with ``fanout`` set, ``fanout`` copies of the cell's own
    V_DD-dependent input capacitance, as in
    :meth:`~repro.tech.characterize.CellCharacterizer.fanout_delay` (the
    ring-oscillator stage).  Every kernel raises
    :class:`~repro.errors.CharacterizationError` for a V_DD that is not
    positive and finite, a non-finite shift, a negative or non-finite
    ``load_f``, a ``fanout`` below 1, a probability outside [0, 1] and
    sequences of unequal length.
    """

    __slots__ = (
        "cell_name",
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

    def __init__(self, characterizer, cell):
        technology = characterizer.technology
        length = technology.drawn_length_um
        extent = technology.drain_extent_um
        # Same dimension guard (and error) the capacitance models apply
        # on every call, hoisted to decode time.
        widths = (
            cell.input_nmos_width_um,
            cell.input_pmos_width_um,
            cell.input_nmos_width_um * cell.nmos_drains_on_output,
            cell.input_pmos_width_um * cell.pmos_drains_on_output,
        )
        if length <= 0.0 or extent <= 0.0 or any(w <= 0.0 for w in widths):
            raise DeviceModelError("device dimensions must be positive")
        self.cell_name = cell.name
        self._gate_cap = technology.gate_cap
        self._junction_cap = technology.junction_cap
        # gate_capacitance folds (w * l) * C_sw(V_DD); hoist (w * l).
        self._gate_area_n = cell.input_nmos_width_um * length
        self._gate_area_p = cell.input_pmos_width_um * length
        # drain_capacitance folds ((w * drains) * extent) * C_sw.
        self._drain_area_n = widths[2] * extent
        self._drain_area_p = widths[3] * extent
        self._nmos_drive = _drive_constants(
            technology.transistors.nmos,
            cell.series_equivalent_width(cell.nmos_path_widths_um),
        )
        self._pmos_drive = _drive_constants(
            technology.transistors.pmos,
            cell.series_equivalent_width(cell.pmos_path_widths_um),
        )
        self._nmos_stack = characterizer._nmos_stacks.solver(
            cell.nmos_path_widths_um
        )
        self._pmos_stack = characterizer._pmos_stacks.solver(
            cell.pmos_path_widths_um
        )

    # ------------------------------------------------------------------
    # The supply axis (the only V_DD-dependent model calls)
    # ------------------------------------------------------------------
    def supply(
        self, vdd: float, load_f: float = 0.0, fanout: Optional[int] = None
    ) -> tuple:
        """One supply's shift-independent terms (see :meth:`supplies`)."""
        if not 0.0 < vdd < _INF:
            raise CharacterizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        if fanout is None:
            if not 0.0 <= load_f < _INF:
                raise CharacterizationError(
                    f"load must be >= 0 and finite, got {load_f}"
                )
        else:
            if fanout < 1:
                raise CharacterizationError("fanout must be >= 1")
            gate_sw = self._gate_cap.switched_capacitance(vdd)
            cin = self._gate_area_n * gate_sw + self._gate_area_p * gate_sw
            load_f = fanout * cin
        junction_sw = self._junction_cap.switched_capacitance(vdd)
        total_load = load_f + (
            self._drain_area_n * junction_sw
            + self._drain_area_p * junction_sw
        )
        exp = math.exp
        nmos = self._nmos_drive
        pmos = self._pmos_drive
        # Drain factor 1 - exp(-V_DS / phi_t) with V_DS = V_DD.
        n_drain = -vdd / nmos[3]
        if n_drain < -_MAX_EXP_ARG:
            n_drain = -_MAX_EXP_ARG
        p_drain = -vdd / pmos[3]
        if p_drain < -_MAX_EXP_ARG:
            p_drain = -_MAX_EXP_ARG
        return (
            vdd,
            total_load,
            _DELAY_CONSTANT * total_load * vdd,
            nmos[1] * vdd,
            1.0 - exp(n_drain),
            pmos[1] * vdd,
            1.0 - exp(p_drain),
        )

    def supplies(
        self,
        vdds: Sequence[float],
        load_f: float = 0.0,
        fanout: Optional[int] = None,
    ) -> List[tuple]:
        """The shift-independent terms of every supply.

        One record per V_DD: ``(vdd, total load [F], 0.7 * total load
        * vdd, DIBL * vdd and the drain factor per polarity)``, the
        total load being the external load plus the output
        capacitance.  None of it depends on the V_T shift, so a caller
        evaluating many shifts computes these once and passes them as
        the ``supplies`` of :meth:`delays` or :meth:`operating_points`:
        a fixed-V_DD sweep repeats one record, a (V_T, V_DD) grid
        reuses its V_DD axis for every row.
        """
        supply = self.supply
        return [supply(vdd, load_f, fanout) for vdd in vdds]

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _run(
        self,
        shifts: Sequence[float],
        supplies: Sequence[tuple],
        output_high_probability: Optional[float] = None,
        max_delay_s: Optional[float] = None,
    ) -> list:
        """The drive loop behind every delay kernel.

        Per corner: both networks' on-currents (``Mosfet.on_current``,
        float op for float op), the weaker of the two, and
        ``0.7 * (load + C_out) * V_DD / I``.  With an output-high
        probability given, each point becomes ``(delay, E_transition,
        I_leak)``, and a point whose delay exceeds ``max_delay_s``
        skips the energy and leakage work: ``(delay, None, None)``.
        Callers check the shifts.  A drive that overflows a float raises
        :class:`~repro.errors.CharacterizationError`.
        """
        exp = math.exp
        n_vt0, _, n_phi_n, _, n_iw, n_kw, n_alpha, n_half_alpha, \
            n_vdsat_c, n_clm = self._nmos_drive
        p_vt0, _, p_phi_n, _, p_iw, p_kw, p_alpha, p_half_alpha, \
            p_vdsat_c, p_clm = self._pmos_drive
        p_high = output_high_probability
        if p_high is not None:
            p_low = 1.0 - p_high
            n_current = self._nmos_stack.current
            p_current = self._pmos_stack.current
        out: list = []
        append = out.append
        try:
            for shift, (
                vdd, total_load, numerator, n_dibl_vdd, n_drain, p_dibl_vdd,
                p_drain,
            ) in zip(shifts, supplies):
                # Pull-down (NMOS) on-current.
                vt = (n_vt0 + shift) - n_dibl_vdd
                drive = vdd - vt
                gate_drive = drive
                if gate_drive > 0.0:
                    gate_drive = 0.0
                exponent = gate_drive / n_phi_n
                if exponent < -_MAX_EXP_ARG:
                    exponent = -_MAX_EXP_ARG
                pull_down = n_iw * exp(exponent) * n_drain
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
                exponent = gate_drive / p_phi_n
                if exponent < -_MAX_EXP_ARG:
                    exponent = -_MAX_EXP_ARG
                pull_up = p_iw * exp(exponent) * p_drain
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
                if p_high is None:
                    append(delay)
                elif max_delay_s is not None and delay > max_delay_s:
                    append((delay, None, None))
                else:
                    leak = p_high * n_current(vdd, shift) + p_low * p_current(
                        vdd, shift
                    )
                    append((delay, total_load * vdd * vdd, leak))
        except OverflowError:
            # The alpha-power drive overflows a float at an absurd V_DD.
            raise CharacterizationError(
                f"cell {self.cell_name} drive overflows at V_DD = {vdd} V"
            ) from None
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def delays(
        self,
        vdds: Sequence[float],
        shifts: Sequence[float],
        load_f: float = 0.0,
        fanout: Optional[int] = None,
        supplies: Optional[Sequence[tuple]] = None,
    ) -> List[float]:
        """Cell delay at every corner [s].

        ``supplies``, when given, is :meth:`supplies` of ``vdds`` (and
        then ``load_f`` and ``fanout`` are not read).
        """
        if supplies is None:
            supplies = self.supplies(vdds, load_f, fanout)
        if len(shifts) != len(supplies) or not -_INF < sum(shifts) < _INF:
            _check_corners(supplies, shifts)
        return self._run(shifts, supplies)

    def delay(
        self,
        vdd: float,
        vt_shift: float = 0.0,
        load_f: float = 0.0,
        fanout: Optional[int] = None,
    ) -> float:
        """:meth:`delays` at one corner: a scalar characterizer query."""
        supply = self.supply(vdd, load_f, fanout)
        if not -_INF < vt_shift < _INF:
            _check_shifts((vt_shift,))
        return self._run((vt_shift,), (supply,))[0]

    def operating_points(
        self,
        vdds: Sequence[float],
        shifts: Sequence[float],
        load_f: float = 0.0,
        fanout: Optional[int] = None,
        output_high_probability: float = 0.5,
        max_delay_s: Optional[float] = None,
        supplies: Optional[Sequence[tuple]] = None,
    ) -> List[Tuple[float, Optional[float], Optional[float]]]:
        """Fused ``(delay, E_transition, I_leak)`` triples per corner.

        One pass shares each supply's ``load + C_out`` float between
        the delay numerator and the ``C V^2`` transition energy [J];
        ``I_leak`` is the state-averaged leakage [A].  When
        ``max_delay_s`` is given, points whose delay exceeds it return
        ``(delay, None, None)`` and skip the stack solves: the
        surface's infeasible cells never use them.
        """
        if supplies is None:
            supplies = self.supplies(vdds, load_f, fanout)
        _check_corners(supplies, shifts, output_high_probability)
        return self._run(
            shifts, supplies, output_high_probability, max_delay_s
        )

    def leakages(
        self,
        vdds: Sequence[float],
        shifts: Sequence[float],
        output_high_probability: float = 0.5,
    ) -> List[float]:
        """State-averaged cell leakage at every corner [A].

        Each run of equal supplies is one
        :meth:`~repro.device.leakage.StackSolver.currents` call per
        polarity, so a fixed-V_DD shift sweep reads its stacks' window
        and reference root once; a run of one corner (every scalar
        leakage query) asks :meth:`~repro.device.leakage.StackSolver.
        current`, the same float with less call overhead.
        """
        _check_corners(vdds, shifts, output_high_probability)
        p_high = output_high_probability
        p_low = 1.0 - p_high
        nmos = self._nmos_stack
        pmos = self._pmos_stack
        out: List[float] = []
        count = len(vdds)
        start = 0
        while start < count:
            vdd = vdds[start]
            if not 0.0 < vdd < _INF:
                raise CharacterizationError(
                    f"vdd must be positive and finite, got {vdd}"
                )
            stop = start + 1
            while stop < count and vdds[stop] == vdd:
                stop += 1
            if stop - start == 1:
                shift = shifts[start]
                out.append(
                    p_high * nmos.current(vdd, shift)
                    + p_low * pmos.current(vdd, shift)
                )
            else:
                run = shifts[start:stop]
                out += [
                    p_high * nmos_leak + p_low * pmos_leak
                    for nmos_leak, pmos_leak in zip(
                        nmos.currents(vdd, run), pmos.currents(vdd, run)
                    )
                ]
            start = stop
        if _obs.ENABLED and out:
            _obs.incr("opplan.points_batched", len(out))
        return out

    def delay_breaks(
        self, vt_shift: float = 0.0
    ) -> Optional[Tuple[float]]:
        """The supply where the delay stops falling, or ``None``.

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
        The kink does not depend on the load.
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
