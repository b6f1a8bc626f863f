"""Analytical MOSFET drain-current model.

The model blends two regimes:

* **Subthreshold** (paper Eq. 2)::

      I = K * exp((V_gs - V_T) / (n * phi_t)) * (1 - exp(-V_ds / phi_t))

  where ``n`` follows from the subthreshold swing ``S_th`` via
  ``n = S_th / (phi_t * ln 10)``.  The paper quotes S_th between 60 and
  90 mV/decade at room temperature; the SOIAS devices of Fig. 6 show
  ~66 mV/decade (a 264 mV V_T shift moves the off current ~4 decades).

* **Strong inversion**: the Sakurai-Newton alpha-power law,
  ``I_dsat = k_drive * W * (V_gs - V_T)^alpha`` with a velocity-saturated
  linear region below ``V_dsat = vdsat_coeff * (V_gs - V_T)^(alpha/2)``.
  ``alpha = 1.5`` reproduces the paper's "1.8x switching-current increase
  at 1 V operation" for the Fig. 6 V_T pair (0.448 V -> 0.184 V).

The two branches are *summed*: below threshold the subthreshold term
dominates, above threshold it saturates at its V_gs = V_T value and the
alpha-power term takes over.  The sum is continuous and monotone in
``V_gs`` and ``V_ds``, which property-based tests rely on.

All voltages are magnitudes; a PMOS device is described by the same
equations with source-referenced magnitudes (the circuit layer is
responsible for the sign flip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

from repro.errors import CalibrationError, DeviceModelError
from repro.units import LN10, ROOM_TEMPERATURE_K, thermal_voltage

__all__ = [
    "MosfetParameters",
    "Mosfet",
    "fit_i_spec_for_off_current",
    "fit_k_drive_for_on_current",
]

#: Exponent arguments beyond this are clamped to avoid overflow; the
#: corresponding current ratio (e^60 ~ 1e26) is far outside any physical
#: operating range of the model.
_MAX_EXP_ARG = 60.0


def _bounded_exp(x: float) -> float:
    """``exp`` clamped to a huge-but-finite range."""
    return math.exp(max(-_MAX_EXP_ARG, min(_MAX_EXP_ARG, x)))


@dataclass(frozen=True)
class MosfetParameters:
    """Technology parameters of a single transistor flavour.

    Parameters
    ----------
    polarity:
        ``"nmos"`` or ``"pmos"`` (informational; the equations are
        magnitude-based and identical for both).
    vt0:
        Zero-bias threshold-voltage magnitude [V].
    subthreshold_swing:
        ``S_th`` [V/decade].  60 mV/dec is the room-temperature limit;
        the paper quotes 60-90 mV/dec.
    i_spec:
        Subthreshold current at ``V_gs = V_T`` per micrometre of width
        [A/um].
    k_drive:
        Alpha-power-law drive coefficient [A/um/V^alpha].
    alpha:
        Velocity-saturation index (2.0 = long channel, ~1.2-1.5 = short
        channel).
    dibl:
        Drain-induced barrier lowering [V of V_T per V of V_ds].
    vdsat_coeff:
        Saturation-voltage coefficient [V^(1-alpha/2)].
    channel_length_modulation:
        Output-conductance slope ``lambda`` [1/V] in saturation.
    temperature_k:
        Device temperature [K]; sets ``phi_t`` and hence the swing.
    """

    polarity: str = "nmos"
    vt0: float = 0.45
    subthreshold_swing: float = 0.066
    i_spec: float = 1.0e-7
    k_drive: float = 2.7e-4
    alpha: float = 1.5
    dibl: float = 0.03
    vdsat_coeff: float = 0.9
    channel_length_modulation: float = 0.04
    temperature_k: float = ROOM_TEMPERATURE_K

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise DeviceModelError(
                f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}"
            )
        if self.subthreshold_swing <= 0.0:
            raise DeviceModelError("subthreshold swing must be positive")
        phi_t = thermal_voltage(self.temperature_k)
        if self.subthreshold_swing < phi_t * LN10 * (1.0 - 1e-9):
            raise DeviceModelError(
                "subthreshold swing cannot beat the kT/q * ln(10) limit "
                f"({phi_t * LN10 * 1e3:.1f} mV/dec at {self.temperature_k} K)"
            )
        for name in ("i_spec", "k_drive", "vdsat_coeff"):
            if getattr(self, name) <= 0.0:
                raise DeviceModelError(f"{name} must be positive")
        for name in ("dibl", "channel_length_modulation"):
            if getattr(self, name) < 0.0:
                raise DeviceModelError(f"{name} must be non-negative")
        if not 1.0 <= self.alpha <= 2.0:
            raise DeviceModelError(
                f"alpha must be in [1, 2], got {self.alpha}"
            )

    @property
    def thermal_voltage(self) -> float:
        """``phi_t = kT/q`` at the device temperature [V]."""
        return thermal_voltage(self.temperature_k)

    @property
    def ideality(self) -> float:
        """Subthreshold ideality ``n = S_th / (phi_t ln 10)``."""
        return self.subthreshold_swing / (self.thermal_voltage * LN10)

    def with_vt0(self, vt0: float) -> "MosfetParameters":
        """Copy of these parameters with a different threshold."""
        return replace(self, vt0=vt0)

    def with_temperature(self, temperature_k: float) -> "MosfetParameters":
        """Copy at a different temperature.

        The swing scales with absolute temperature (``S_th = n kT/q
        ln 10`` with fixed ideality ``n``), which is the dominant
        temperature effect on leakage.
        """
        scale = temperature_k / self.temperature_k
        return replace(
            self,
            temperature_k=temperature_k,
            subthreshold_swing=self.subthreshold_swing * scale,
        )


class Mosfet:
    """A sized transistor: :class:`MosfetParameters` plus a width.

    >>> nmos = Mosfet(MosfetParameters(), width_um=2.0)
    >>> nmos.on_current(vdd=1.5) > nmos.off_current(vdd=1.5)
    True
    """

    def __init__(self, parameters: MosfetParameters, width_um: float = 1.0):
        if width_um <= 0.0:
            raise DeviceModelError(f"width must be positive, got {width_um}")
        self.parameters = parameters
        self.width_um = width_um

    def __repr__(self) -> str:
        p = self.parameters
        return (
            f"Mosfet({p.polarity}, W={self.width_um}um, "
            f"VT0={p.vt0}V, S={p.subthreshold_swing * 1e3:.0f}mV/dec)"
        )

    # ------------------------------------------------------------------
    # Threshold
    # ------------------------------------------------------------------
    def effective_vt(self, vds: float, vt_shift: float = 0.0) -> float:
        """Threshold including DIBL and an external shift.

        ``vt_shift`` is how body-bias / back-gate models (see
        :mod:`repro.device.threshold`) inject their V_T modulation.
        """
        return self.parameters.vt0 + vt_shift - self.parameters.dibl * vds

    # ------------------------------------------------------------------
    # Current branches
    # ------------------------------------------------------------------
    def subthreshold_current(
        self, vgs: float, vds: float, vt_shift: float = 0.0
    ) -> float:
        """Paper Eq. 2, clamped to its V_gs = V_T value above threshold.

        The clamp makes the branch a well-behaved "leakage floor" that
        can simply be added to the strong-inversion branch.
        """
        if vds < 0.0:
            raise DeviceModelError(f"vds must be >= 0, got {vds}")
        p = self.parameters
        phi_t = p.thermal_voltage
        vt = self.effective_vt(vds, vt_shift)
        gate_drive = min(vgs - vt, 0.0)
        exponent = gate_drive / (p.ideality * phi_t)
        drain_factor = 1.0 - _bounded_exp(-vds / phi_t)
        return p.i_spec * self.width_um * _bounded_exp(exponent) * drain_factor

    def strong_inversion_current(
        self, vgs: float, vds: float, vt_shift: float = 0.0
    ) -> float:
        """Sakurai-Newton alpha-power-law current (zero below V_T)."""
        if vds < 0.0:
            raise DeviceModelError(f"vds must be >= 0, got {vds}")
        p = self.parameters
        overdrive = vgs - self.effective_vt(vds, vt_shift)
        if overdrive <= 0.0:
            return 0.0
        try:
            i_dsat = p.k_drive * self.width_um * overdrive**p.alpha
            vdsat = p.vdsat_coeff * overdrive ** (p.alpha / 2.0)
        except OverflowError:
            raise DeviceModelError(
                f"drive current overflows at V_GS - V_T = {overdrive} V"
            ) from None
        if vds >= vdsat:
            return i_dsat * (1.0 + p.channel_length_modulation * (vds - vdsat))
        ratio = vds / vdsat
        return i_dsat * ratio * (2.0 - ratio)

    def drain_current(
        self, vgs: float, vds: float, vt_shift: float = 0.0
    ) -> float:
        """Total drain current: subthreshold floor + alpha-power drive."""
        return self.subthreshold_current(
            vgs, vds, vt_shift
        ) + self.strong_inversion_current(vgs, vds, vt_shift)

    # ------------------------------------------------------------------
    # Convenience corners
    # ------------------------------------------------------------------
    def off_current(self, vdd: float, vt_shift: float = 0.0) -> float:
        """Leakage with the gate off and the drain at the rail."""
        return self.drain_current(0.0, vdd, vt_shift)

    def on_current(self, vdd: float, vt_shift: float = 0.0) -> float:
        """Drive with gate and drain at the rail (worst-case switching)."""
        return self.drain_current(vdd, vdd, vt_shift)

    def iv_curve(
        self,
        vgs_values: Iterable[float],
        vds: float,
        vt_shift: float = 0.0,
    ) -> List[float]:
        """Drain current at each ``V_gs`` for a fixed ``V_ds``.

        This is the sweep behind the paper's Figs. 2 and 6.
        """
        return [self.drain_current(v, vds, vt_shift) for v in vgs_values]

    def subthreshold_slope_mv_per_decade(
        self, vds: float = 1.0, probe_vgs: Optional[float] = None
    ) -> float:
        """Numerically extracted swing, for model self-checks [mV/dec]."""
        p = self.parameters
        center = p.vt0 / 2.0 if probe_vgs is None else probe_vgs
        delta = 0.01
        low = self.drain_current(center - delta, vds)
        high = self.drain_current(center + delta, vds)
        if low <= 0.0 or high <= low:
            raise DeviceModelError(
                "cannot extract swing: currents not increasing at probe point"
            )
        return 2.0 * delta / math.log10(high / low) * 1e3


def fit_i_spec_for_off_current(
    parameters: MosfetParameters,
    target_off_current_per_um: float,
    vdd: float,
) -> MosfetParameters:
    """Return parameters whose off current per um matches a target.

    Used to pin the model to quoted numbers such as the paper's
    "less than 1 pA for V_T = 0.4 V".
    """
    if target_off_current_per_um <= 0.0:
        raise CalibrationError("target off current must be positive")
    probe = Mosfet(parameters, width_um=1.0)
    baseline = probe.off_current(vdd)
    if baseline <= 0.0:
        raise CalibrationError("model off current is zero; cannot scale")
    scale = target_off_current_per_um / baseline
    return replace(parameters, i_spec=parameters.i_spec * scale)


def fit_k_drive_for_on_current(
    parameters: MosfetParameters,
    target_on_current_per_um: float,
    vdd: float,
) -> MosfetParameters:
    """Return parameters whose on current per um matches a target.

    The subthreshold floor also contributes to the on current, so the
    fit solves for ``k_drive`` exactly rather than just ratio-scaling.
    """
    if target_on_current_per_um <= 0.0:
        raise CalibrationError("target on current must be positive")
    probe = Mosfet(parameters, width_um=1.0)
    floor = probe.subthreshold_current(vdd, vdd)
    if floor >= target_on_current_per_um:
        raise CalibrationError(
            "subthreshold floor alone exceeds the requested on current; "
            "lower i_spec or raise the target"
        )
    strong = probe.strong_inversion_current(vdd, vdd)
    if strong <= 0.0:
        raise CalibrationError(
            f"device does not turn on at V_DD = {vdd} V (V_T too high)"
        )
    scale = (target_on_current_per_um - floor) / strong
    return replace(parameters, k_drive=parameters.k_drive * scale)
