"""Gate- and stack-level subthreshold leakage.

The paper's third power component (Section 2) is leakage.  Two facts
matter for the tools it calls for:

* a single off device leaks ``I_off = I_spec * 10^(-V_T / S_th)`` — the
  exponential V_T dependence that creates the optimum of Fig. 4; and
* *series* off devices leak far less than one off device (the "stack
  effect"): the intermediate node floats up, reverse-biasing the upper
  device's V_gs and adding DIBL relief.  This is also why MTCMOS sleep
  devices work.  :class:`StackSolver` solves the series stack
  self-consistently, once per V_DD: a V_T shift that keeps the stack
  in subthreshold only rescales that solution by
  ``exp(-shift / (n phi_t))``.  :class:`StackLeakageModel` owns one
  solver per stack, shared by the characterizer's corner plans
  (:mod:`repro.tech.opplan`); every leakage is that solver's answer
  for (widths, V_DD, shift), so no value depends on which corners were
  asked before it.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro import obs as _obs
from repro.device.mosfet import _MAX_EXP_ARG, Mosfet, MosfetParameters
from repro.errors import DeviceModelError

__all__ = [
    "StackSolver",
    "stack_leakage_current",
    "gate_leakage_current",
    "StackLeakageModel",
]

#: Both Newton levels stop once |residual| (in ln-current) is this small.
_RESIDUAL_TOL = 1e-13
#: The solve brackets the stack current between the weakest device's
#: off current and this fraction of it.
_BRACKET_FLOOR = 1e-12
#: Largest ln V_ds Newton step tried before bisecting instead: e^40
#: spans more than femtovolts to volts, so a wider step comes from a
#: flat (saturated) region and would land in denormal V_ds.
_MAX_LOG_STEP = 40.0
#: A V_DD whose reference root has not been looked for yet.
_UNSOLVED = object()
_INF = math.inf


def _overflow(vdd: float) -> DeviceModelError:
    """The error for a supply so high an above-threshold off current
    (its alpha-power term) overflows a float."""
    return DeviceModelError(f"stack current overflows at V_DD = {vdd} V")


class StackSolver:
    """Decoded leakage solve for one series stack of one flavour.

    The stack hangs between V_DD and ground with every gate grounded;
    one current flows through all devices and each intermediate node
    settles where current continuity puts it.  A solver is built once
    per ``(parameters, widths)`` pair and hoists every V_DD- and
    shift-invariant constant (per-device ``i_spec * W``,
    ``ln(i_spec * W)`` and ``k_drive * W``, the flavour's ``n * phi_t``;
    the solve's seed and window constants only for deeper stacks).

    A single device is the closed-form ``Mosfet.off_current``, evaluated
    with the same float operations, so it is bit-identical to it.
    Deeper stacks solve for ``x = ln I`` in the bracket
    ``[ln(upper * 1e-12), ln(upper)]``, where ``upper`` is the weakest
    device's off current.  The outer safeguarded Newton iteration works
    on the residual ``ln I_top(S, V_DD - S) - x``: ``S`` sums the V_ds
    the lower devices need to carry ``exp(x)``, and the top device must
    carry it with what is left.  Each lower V_ds comes from an inner
    safeguarded Newton iteration on ``ln I(V_ds) - x``, seeded by the
    subthreshold closed form.  The outer slope follows the implicit
    chain of ``d ln I / d V_ds`` and ``d ln I / d V_S`` through every
    device, strong-inversion branch included.  A lower device that
    cannot carry ``exp(x)`` even with all the supply left to it means
    ``x`` is too high.  Both levels keep a bisection bracket and take its
    midpoint whenever a Newton step would leave it, or would not be at
    most half the step before last (which breaks Newton cycles around a
    regime change, where iterates can alternate sides of the root while
    the bracket barely shrinks).  Both stop at the current iterate once
    ``|residual| <= 1e-13``.  The outer level also stops at an iterate
    whose Newton step is that small, because a steep residual cannot
    always get below the tolerance at ``x``'s float resolution, but only
    once the step's end (at least the next float) confirms it by
    crossing the root or meeting the tolerance; if it does neither and
    has not halved the residual, the level bisects.  With every exponent
    clamped, a lower device's current nears a ceiling in V_ds, and the
    slope at ``x`` can be far steeper than between ``x`` and the root.
    The inner level also stops once a step rounds to no change.

    A V_T shift enters every subthreshold device exponent alike, as
    ``-shift / (n phi_t)``, so the node voltages that balance the stack
    at shift 0 balance it at any shift and ``ln I`` just moves by that
    term.  The solver therefore keeps one reference root
    ``x0 = ln I(V_DD, 0)`` per V_DD it sees and answers a shift inside
    that V_DD's window with ``exp(x0 - shift / (n phi_t))``.  The window
    is read from the inputs: ``shift >= DIBL V_DD - V_T0`` keeps every
    device below threshold (its V_ds is at most V_DD and its source at
    least 0 V), ``shift <= DIBL V_DD - V_T0 + 60 n phi_t`` keeps the
    off currents that set the bracket off the exponent clamp, and
    ``x0 - shift / (n phi_t) >= max ln(i_spec W) - 60`` keeps every
    device at the solution off it.  Any other shift, and every shift at
    a V_DD whose shift 0 is itself outside the window, runs the Newton
    solve.  The reference is always shift 0, so a corner's result does
    not depend on which corners were asked before it.
    """

    __slots__ = (
        "_devices",
        "_knee",
        "_vt0",
        "_dibl",
        "_n_phi",
        "_phi_t",
        "_alpha",
        "_half_alpha",
        "_vdsat_coeff",
        "_clm",
        "_clamp_shift",
        "_x_floor",
        "_references",
    )

    def __init__(
        self, parameters: MosfetParameters, widths_um: Sequence[float]
    ):
        if not widths_um:
            raise DeviceModelError("stack must contain at least one device")
        # Mosfet construction validates each width (and its error).
        devices = [Mosfet(parameters, width_um=w) for w in widths_um]
        self._devices = tuple(
            (
                parameters.i_spec * d.width_um,
                math.log(parameters.i_spec * d.width_um),
                parameters.k_drive * d.width_um,
            )
            for d in devices
        )
        phi_t = parameters.thermal_voltage
        self._vt0 = parameters.vt0
        self._dibl = parameters.dibl
        self._n_phi = parameters.ideality * phi_t
        self._phi_t = phi_t
        self._alpha = parameters.alpha
        self._half_alpha = parameters.alpha / 2.0
        self._vdsat_coeff = parameters.vdsat_coeff
        self._clm = parameters.channel_length_modulation
        if len(devices) > 1:
            # ln of the drain factor at phi_t / (depth - 1), about where
            # a uniform stack's bottom node settles (seeds the solve).
            self._knee = math.log(-math.expm1(-1.0 / (len(devices) - 1)))
            # Shift-identity window (see above): the span of shifts
            # above the lower edge before an off current clamps, and the
            # lowest ln I at which no device exponent clamps.
            self._clamp_shift = _MAX_EXP_ARG * self._n_phi
            self._x_floor = max(d[1] for d in self._devices) - _MAX_EXP_ARG
            #: V_DD -> ln I(V_DD, shift 0), or None where shift 0 is
            #: outside the window.
            self._references: dict = {}

    def _off_current(
        self, device: tuple, vdd: float, vt_shift: float
    ) -> float:
        """``Mosfet.off_current(vdd, vt_shift)``, float op for float op."""
        iw, _, kw = device
        vt = (self._vt0 + vt_shift) - self._dibl * vdd
        gate_drive = 0.0 - vt
        overdrive = gate_drive
        if gate_drive > 0.0:
            gate_drive = 0.0
        exponent = gate_drive / self._n_phi
        if exponent < -_MAX_EXP_ARG:
            exponent = -_MAX_EXP_ARG
        drain_arg = -vdd / self._phi_t
        if drain_arg < -_MAX_EXP_ARG:
            drain_arg = -_MAX_EXP_ARG
        current = iw * math.exp(exponent) * (1.0 - math.exp(drain_arg))
        if overdrive > 0.0:
            i_dsat = kw * overdrive**self._alpha
            vdsat = self._vdsat_coeff * overdrive**self._half_alpha
            if vdd >= vdsat:
                current += i_dsat * (1.0 + self._clm * (vdd - vdsat))
            else:
                ratio = vdd / vdsat
                current += i_dsat * ratio * (2.0 - ratio)
        return current

    def _log_current(
        self, device: tuple, vt0s: float, source: float, vds: float
    ) -> tuple:
        """``(ln I, d ln I / d V_ds, d ln I / d V_S)`` of one off device.

        The gate is grounded and the source sits at ``source``
        (V_gs = -source); ``vt0s`` is ``vt0 + vt_shift``.  Where the
        current underflows to zero, ``ln I`` is ``-inf`` with zero
        partials.
        """
        iw, ln_iw, kw = device
        phi_t = self._phi_t
        overdrive = self._dibl * vds - source - vt0s
        drain_arg = -vds / phi_t
        if drain_arg < -_MAX_EXP_ARG:
            tail = 0.0
            drain_factor = 1.0 - math.exp(-_MAX_EXP_ARG)
        else:
            # expm1 keeps ln(df) smooth at tiny V_ds, where 1 - exp()
            # cancels; elsewhere the two agree to the last bit or so.
            tail = math.exp(drain_arg)
            drain_factor = -math.expm1(drain_arg)
        if drain_factor <= 0.0:
            return -math.inf, 0.0, 0.0
        if overdrive <= 0.0:
            # Subthreshold only: ln I = ln(i_spec W) + exponent + ln(df).
            n_phi = self._n_phi
            exponent = overdrive / n_phi
            d_vds = tail / (phi_t * drain_factor)
            if exponent < -_MAX_EXP_ARG:
                return (
                    ln_iw - _MAX_EXP_ARG + math.log(drain_factor),
                    d_vds,
                    0.0,
                )
            return (
                ln_iw + exponent + math.log(drain_factor),
                d_vds + self._dibl / n_phi,
                -1.0 / n_phi,
            )
        # Above threshold the subthreshold floor is pinned at its
        # V_gs = V_T value and the alpha-power branch adds on top.
        i_dsat = kw * overdrive**self._alpha
        vdsat = self._vdsat_coeff * overdrive**self._half_alpha
        di_dsat = self._alpha * i_dsat / overdrive
        dvdsat = self._half_alpha * vdsat / overdrive
        clm = self._clm
        if vds >= vdsat:
            gain = 1.0 + clm * (vds - vdsat)
            strong = i_dsat * gain
            d_overdrive = di_dsat * gain - i_dsat * clm * dvdsat
            d_explicit = i_dsat * clm
        else:
            ratio = vds / vdsat
            shape = ratio * (2.0 - ratio)
            d_shape = 2.0 * (1.0 - ratio)
            strong = i_dsat * shape
            d_overdrive = (
                di_dsat * shape - i_dsat * d_shape * ratio * dvdsat / vdsat
            )
            d_explicit = i_dsat * d_shape / vdsat
        total = iw * drain_factor + strong
        return (
            math.log(total),
            (iw * tail / phi_t + d_overdrive * self._dibl + d_explicit)
            / total,
            -d_overdrive / total,
        )

    def _drop(
        self, device: tuple, vt0s: float, source: float, x: float, span: float
    ) -> tuple:
        """V_ds at which ``device``, source at ``source``, carries exp(x).

        Returns ``(vds, d ln I / d V_ds, d ln I / d V_S, evaluations)``.
        ``vds`` is ``None`` when the device cannot carry ``exp(x)`` even
        with all of ``span`` across it, which means ``x`` is too high.
        """
        log_current = self._log_current
        phi_t = self._phi_t
        # Seed: the subthreshold closed form ln(1 - exp(-V_ds / phi_t))
        # = -a without DIBL, then once more with the seed's DIBL gain.
        a = device[1] - max(source + vt0s, 0.0) / self._n_phi - x
        vds = 0.5 * span
        if a > 0.0:
            guess = -phi_t * math.log(-math.expm1(-a))
            guess = -phi_t * math.log(
                -math.expm1(-(a + self._dibl / self._n_phi * guess))
            )
            if 0.0 < guess < span:
                vds = guess
        # ``span`` is only known to carry exp(x) once checked, which
        # happens when a Newton step first reaches it.
        low, high, checked = 0.0, span, False
        evaluations = 0
        moved = previous = span
        while True:
            f, d_vds, d_src = log_current(device, vt0s, source, vds)
            evaluations += 1
            f -= x
            if abs(f) <= _RESIDUAL_TOL:
                return vds, d_vds, d_src, evaluations
            if f < 0.0:
                low = vds
            else:
                high, checked = vds, True
            # Newton in ln V_ds: ln I is close to linear in ln V_ds both
            # across the drain-factor knee and in the linear region.
            older, previous = previous, moved
            if 0.0 < d_vds < math.inf:
                step = -f / (vds * d_vds)
                if abs(step) < _MAX_LOG_STEP:
                    trial = vds * math.exp(step)
                    if trial == vds:
                        return vds, d_vds, d_src, evaluations
                    if trial >= high and not checked:
                        evaluations += 1
                        if log_current(device, vt0s, source, span)[0] <= x:
                            return None, 0.0, 0.0, evaluations
                        checked = True
                    moving = abs(trial - vds)
                    if low < trial < high and moving <= 0.5 * older:
                        moved = moving
                        vds = trial
                        continue
            trial = 0.5 * (low + high)
            moved = abs(trial - vds)
            if trial == low or trial == high:
                return (vds if checked else None), d_vds, d_src, evaluations
            vds = trial

    def current(self, vdd: float, vt_shift: float = 0.0) -> float:
        """Stack leakage current at one (V_DD, shift) corner [A]."""
        devices = self._devices
        single = len(devices) == 1
        if single and 0.0 < vdd < _INF and -_INF < vt_shift < _INF:
            try:
                return self._off_current(devices[0], vdd, vt_shift)
            except OverflowError:
                raise _overflow(vdd) from None
        return self.currents(vdd, (vt_shift,))[0]

    def currents(
        self, vdd: float, vt_shifts: Sequence[float]
    ) -> List[float]:
        """:meth:`current` at every shift of one V_DD [A].

        Equal float for float, and in every ``leakage.*`` counter, to
        ``[self.current(vdd, s) for s in vt_shifts]``; V_DD is checked
        and its window and reference root read once, so each in-window
        shift costs one exp (a single device, its closed form).  A
        non-finite V_DD or shift raises, before any solve: the Newton
        levels would never converge on NaN.
        """
        if not 0.0 < vdd < math.inf:
            raise DeviceModelError(
                f"vdd must be positive and finite, got {vdd}"
            )
        if not -_INF < sum(vt_shifts) < _INF:
            for shift in vt_shifts:
                if not -_INF < shift < _INF:
                    raise DeviceModelError(
                        f"vt_shift must be finite, got {shift}"
                    )
        try:
            devices = self._devices
            if len(devices) == 1:
                off_current, device = self._off_current, devices[0]
                return [off_current(device, vdd, s) for s in vt_shifts]
            exp = math.exp
            n_phi, x_floor = self._n_phi, self._x_floor
            # The window, read from the inputs: below ``lowest`` a device
            # may be above threshold, and above ``highest`` an off current
            # clamps.
            lowest = self._dibl * vdd - self._vt0
            highest = lowest + self._clamp_shift
            reference = self._references.get(vdd, _UNSOLVED)
            scaled = 0
            out: List[float] = []
            append = out.append
            for shift in vt_shifts:
                if lowest <= shift <= highest:
                    solved = reference is _UNSOLVED
                    if solved:
                        reference = self._reference(vdd, lowest)
                    if reference is not None:
                        x = reference - shift / n_phi
                        if x >= x_floor:
                            if not solved:
                                scaled += 1
                            append(exp(x))
                            continue
                append(exp(self._solve(vdd, shift)))
        except OverflowError:
            raise _overflow(vdd) from None
        if scaled and _obs.ENABLED:
            _obs.incr("leakage.shift_scaled", scaled)
        return out

    def _reference(self, vdd: float, lowest: float):
        """Solve and keep ``ln I(vdd, 0)``, or ``None`` off the window."""
        reference = None
        if lowest <= 0.0 <= lowest + self._clamp_shift:
            reference = self._solve(vdd, 0.0)
            if reference < self._x_floor:
                reference = None
        self._references[vdd] = reference
        return reference

    def _solve(self, vdd: float, vt_shift: float) -> float:
        """``ln`` of the stack current, by the safeguarded Newton solve."""
        devices = self._devices
        upper = min(self._off_current(d, vdd, vt_shift) for d in devices)
        if upper <= 0.0:
            return -math.inf
        evaluations = len(devices)
        log_current = self._log_current
        drop = self._drop
        lower, top = devices[:-1], devices[-1]
        vt0s = self._vt0 + vt_shift
        low, high = math.log(upper * _BRACKET_FLOOR), math.log(upper)
        # First iterate: the bottom device's subthreshold current at the
        # knee, capped at the weakest device's off current scaled alike.
        knee = self._knee
        x = min(
            devices[0][1] + knee - max(vt0s, 0.0) / self._n_phi, high + knee
        )
        if not low < x < high:
            x = 0.5 * (low + high)
        step = previous = high - low
        # An iterate whose Newton step fell below the tolerance, kept
        # until the step's end confirms it (see below), and its residual.
        candidate = None
        candidate_residual = 0.0
        while True:
            # Residual ln I_top(S, V_DD - S) - x (None: x is too high)
            # and its slope, with d_source = dS/dx.
            source = d_source = 0.0
            residual = None
            for device in lower:
                vds, d_vds, d_src, used = drop(
                    device, vt0s, source, x, vdd - source
                )
                evaluations += used
                if vds is None:
                    break
                # Along the solution dx = d_vds dV_ds + d_src dS.
                if d_vds > 0.0:
                    d_source += (1.0 - d_src * d_source) / d_vds
                else:
                    d_source = math.nan
                source += vds
            else:
                f, d_vds, d_src = log_current(top, vt0s, source, vdd - source)
                evaluations += 1
                if f > -math.inf:
                    residual = f - x
                    slope = (d_src - d_vds) * d_source - 1.0
            too_high = residual is None or residual < 0.0
            newton = residual is not None and -math.inf < slope
            if candidate is not None:
                # x is the candidate's Newton step.  If it crossed the
                # root, the candidate is within that step of it; if its
                # residual is within the tolerance, within two (|slope|
                # >= 1 turns a residual into a bound on x's error).
                if too_high != (candidate_residual < 0.0) or (
                    residual is not None and abs(residual) <= _RESIDUAL_TOL
                ):
                    x = candidate
                    break
                # Otherwise Newton goes on from x only if the step at
                # least halved the residual; if not, the slope at the
                # candidate overstated the one toward the root: bisect.
                newton = newton and abs(residual) <= 0.5 * abs(
                    candidate_residual
                )
                candidate = None
            if residual is not None and abs(residual) <= _RESIDUAL_TOL:
                break
            if too_high:
                high = x
            else:
                low = x
            older, previous = previous, step
            if newton:
                step = residual / slope
                trial = x - step
                if abs(step) <= _RESIDUAL_TOL:
                    # A steep residual can stay above the tolerance at
                    # x's float resolution, so a step this small ends the
                    # solve at x, but only once its end (at least the
                    # next float) confirms it: near a device's current
                    # ceiling the slope at x can be far steeper than
                    # between x and the root.
                    if trial == x:
                        trial = math.nextafter(
                            x, -math.inf if step > 0.0 else math.inf
                        )
                    if not low < trial < high:
                        break
                    candidate, candidate_residual = x, residual
                    x = trial
                    continue
                if low < trial < high and abs(step) <= 0.5 * abs(older):
                    x = trial
                    continue
            step = 0.5 * (high - low)
            trial = 0.5 * (low + high)
            if trial == low or trial == high:
                break
            x = trial
        if _obs.ENABLED:
            _obs.incr("leakage.stack_solves")
            _obs.incr("leakage.device_evals", evaluations)
        return x


def stack_leakage_current(
    parameters: MosfetParameters,
    widths_um: Sequence[float],
    vdd: float,
    vt_shift: float = 0.0,
) -> float:
    """Leakage through a series stack of all-off devices.

    Parameters
    ----------
    parameters:
        Transistor flavour of the stack devices.
    widths_um:
        Width of each device, bottom (source-grounded) first.
    vdd:
        Rail-to-rail voltage across the stack [V].
    vt_shift:
        External threshold shift (e.g. SOIAS standby bias) [V].

    Returns
    -------
    float
        Stack leakage current [A], solved by :class:`StackSolver`.  For
        a single device this equals ``Mosfet.off_current``.
    """
    return StackSolver(parameters, widths_um).current(vdd, vt_shift)


def gate_leakage_current(
    nmos_parameters: MosfetParameters,
    pmos_parameters: MosfetParameters,
    nmos_widths_um: Sequence[float],
    pmos_widths_um: Sequence[float],
    vdd: float,
    output_high_probability: float = 0.5,
    vt_shift: float = 0.0,
) -> float:
    """State-averaged leakage of a static CMOS gate.

    When the output is high the pull-down (NMOS) network leaks; when it
    is low the pull-up (PMOS) network leaks.  Series networks get the
    stack-effect suppression; parallel devices would each leak alone,
    which is conservative to ignore here because the cell layer models
    the worst single path.

    ``output_high_probability`` lets signal statistics weight the two
    states (the paper's point that activity shapes even leakage).
    """
    if not 0.0 <= output_high_probability <= 1.0:
        raise DeviceModelError("output_high_probability must be in [0, 1]")
    nmos_leak = stack_leakage_current(
        nmos_parameters, nmos_widths_um, vdd, vt_shift
    )
    pmos_leak = stack_leakage_current(
        pmos_parameters, pmos_widths_um, vdd, vt_shift
    )
    p_high = output_high_probability
    return p_high * nmos_leak + (1.0 - p_high) * pmos_leak


class StackLeakageModel:
    """Stack-effect evaluator for one transistor flavour.

    Owns one :class:`StackSolver` per widths tuple, so the V_DD
    reference roots those solvers keep serve every caller: the corner
    plans of :mod:`repro.tech.opplan` take their solvers from
    :meth:`solver`, and :meth:`current` asks one directly.  Every value
    is the solver's exact answer for (widths, V_DD, shift).
    """

    def __init__(self, parameters: MosfetParameters):
        self.parameters = parameters
        self._solvers: dict = {}

    def solver(self, widths_um: Sequence[float]) -> StackSolver:
        """This flavour's one :class:`StackSolver` for ``widths_um``."""
        key = tuple(widths_um)
        solver = self._solvers.get(key)
        if solver is None:
            solver = self._solvers[key] = StackSolver(self.parameters, key)
        return solver

    def current(
        self,
        widths_um: Sequence[float],
        vdd: float,
        vt_shift: float = 0.0,
    ) -> float:
        """Stack leakage of ``widths_um`` at one (V_DD, shift) [A]."""
        return self.solver(widths_um).current(vdd, vt_shift)

    def suppression_factor(
        self, depth: int, width_um: float, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """How much a depth-N uniform stack beats a single device.

        Returns ``I_single / I_stack`` (>= 1).  The classic result is
        roughly an order of magnitude for a 2-stack.
        """
        if depth < 1:
            raise DeviceModelError("depth must be >= 1")
        single = self.current([width_um], vdd, vt_shift)
        stacked = self.current([width_um] * depth, vdd, vt_shift)
        if stacked <= 0.0:
            return math.inf
        return single / stacked
