"""Capacitance models, including the non-linear gate C(V) of Fig. 1.

The paper's Fig. 1 shows that the *switched* capacitance of register
cells rises with the supply voltage because MOS gate capacitance is
bias-dependent: near and below threshold the series depletion
capacitance reduces the effective gate capacitance, while in strong
inversion it recovers to the full oxide capacitance ``C_ox``.  Power
estimators that use a single constant C therefore misestimate energy
across a V_DD sweep — the paper's first CAD-tool requirement.

Three models live here:

* :class:`GateCapacitanceModel` — smooth depletion-to-inversion C(V)
  plus its charge-equivalent ("switched") capacitance for a 0 -> V_DD
  swing.
* :class:`JunctionCapacitanceModel` — standard junction-grading model,
  whose switched capacitance *falls* with V_DD (reverse bias widens the
  depletion region).
* :class:`WireCapacitanceModel` — constant per-length interconnect
  capacitance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DeviceModelError
from repro.units import EPSILON_OX, nm

__all__ = [
    "GateCapacitanceModel",
    "JunctionCapacitanceModel",
    "WireCapacitanceModel",
]


@dataclass(frozen=True)
class GateCapacitanceModel:
    """Bias-dependent MOS gate capacitance per unit area.

    Instantaneous capacitance::

        c(V) = c_ox * (floor + (1 - floor) * 0.5 * (1 + tanh((V - v_mid)/v_width)))

    ``floor`` is the depleted-gate fraction (series C_ox / C_dep), and
    the tanh transition is centred a little above the threshold where
    the inversion layer forms.

    Parameters
    ----------
    c_ox_f_per_um2:
        Oxide capacitance per um^2 [F/um^2].
    depletion_floor:
        c(0)/c_ox, typically 0.3-0.6.
    v_mid:
        Transition centre [V] (≈ V_T + a little).
    v_width:
        Transition width [V].
    """

    c_ox_f_per_um2: float = 3.8e-15
    depletion_floor: float = 0.45
    v_mid: float = 0.7
    v_width: float = 0.35

    def __post_init__(self) -> None:
        if self.c_ox_f_per_um2 <= 0.0:
            raise DeviceModelError("c_ox must be positive")
        if not 0.0 < self.depletion_floor < 1.0:
            raise DeviceModelError("depletion_floor must be in (0, 1)")
        if self.v_width <= 0.0:
            raise DeviceModelError("v_width must be positive")
        # The lower limit of every switched-charge integral, kept once
        # (not a field: equality, hashing and serialization ignore it).
        object.__setattr__(self, "_charge_at_zero", self._charge(0.0))

    @classmethod
    def from_oxide_thickness(
        cls,
        t_ox_nm: float,
        depletion_floor: float = 0.45,
        v_mid: float = 0.7,
        v_width: float = 0.35,
    ) -> "GateCapacitanceModel":
        """Build from the physical oxide thickness [nm]."""
        if t_ox_nm <= 0.0:
            raise DeviceModelError("t_ox_nm must be positive")
        # EPSILON_OX is per metre; convert to per-um^2 by (1e-6 m/um)^2 / m.
        c_ox = EPSILON_OX / nm(t_ox_nm) * 1e-12
        return cls(
            c_ox_f_per_um2=c_ox,
            depletion_floor=depletion_floor,
            v_mid=v_mid,
            v_width=v_width,
        )

    def capacitance_at(self, voltage: float) -> float:
        """Instantaneous gate capacitance per um^2 at a bias [F/um^2]."""
        rise = 0.5 * (1.0 + math.tanh((voltage - self.v_mid) / self.v_width))
        fraction = self.depletion_floor + (1.0 - self.depletion_floor) * rise
        return self.c_ox_f_per_um2 * fraction

    def switched_capacitance(self, vdd: float) -> float:
        """Charge-equivalent capacitance of a full 0 -> V_DD swing.

        ``C_sw = Q(V_DD) / V_DD`` with ``Q = \\int_0^{V_DD} c(v) dv``;
        the tanh integrates in closed form via ``ln cosh``.  This is the
        quantity plotted (per cell) in the paper's Fig. 1, and it
        increases monotonically with V_DD.
        """
        if vdd <= 0.0:
            raise DeviceModelError(f"vdd must be positive, got {vdd}")
        try:
            charge_per_cox = self._charge(vdd) - self._charge_at_zero
        except OverflowError:
            # cosh overflows a float a few hundred volts out.
            raise DeviceModelError(
                f"vdd {vdd} V is out of the gate capacitance model's range"
            ) from None
        return self.c_ox_f_per_um2 * charge_per_cox / vdd

    def _charge(self, v: float) -> float:
        """Antiderivative of ``c(v) / c_ox``: the ``ln cosh`` closed form.

        Integral of ``floor + (1-floor)*0.5*(1 + tanh((v - mid)/width))``.
        """
        floor = self.depletion_floor
        width = self.v_width
        tail = 0.5 * (
            (v - self.v_mid)
            + width * math.log(math.cosh((v - self.v_mid) / width))
        )
        return floor * v + (1.0 - floor) * tail

    def gate_capacitance(
        self, width_um: float, length_um: float, vdd: float
    ) -> float:
        """Switched gate capacitance of a W x L device at V_DD [F]."""
        if width_um <= 0.0 or length_um <= 0.0:
            raise DeviceModelError("device dimensions must be positive")
        return width_um * length_um * self.switched_capacitance(vdd)


@dataclass(frozen=True)
class JunctionCapacitanceModel:
    """Reverse-biased junction capacitance with grading.

    ``c(V) = c_j0 / (1 + V / built_in)^grading``

    Parameters
    ----------
    c_j0_f_per_um2:
        Zero-bias area capacitance [F/um^2].
    built_in:
        Built-in potential [V].
    grading:
        Grading coefficient (0.5 abrupt, ~0.33 graded).
    """

    c_j0_f_per_um2: float = 1.0e-15
    built_in: float = 0.9
    grading: float = 0.5

    def __post_init__(self) -> None:
        if self.c_j0_f_per_um2 <= 0.0:
            raise DeviceModelError("c_j0 must be positive")
        if self.built_in <= 0.0:
            raise DeviceModelError("built_in must be positive")
        if not 0.0 < self.grading < 1.0:
            raise DeviceModelError("grading must be in (0, 1)")

    def capacitance_at(self, reverse_bias: float) -> float:
        """Instantaneous junction capacitance per um^2 [F/um^2]."""
        if reverse_bias < 0.0:
            raise DeviceModelError("reverse bias must be >= 0")
        return self.c_j0_f_per_um2 / (
            (1.0 + reverse_bias / self.built_in) ** self.grading
        )

    def switched_capacitance(self, vdd: float) -> float:
        """Charge-equivalent capacitance of a 0 -> V_DD drain swing."""
        if vdd <= 0.0:
            raise DeviceModelError(f"vdd must be positive, got {vdd}")
        one_minus_m = 1.0 - self.grading
        charge = (
            self.c_j0_f_per_um2
            * self.built_in
            / one_minus_m
            * ((1.0 + vdd / self.built_in) ** one_minus_m - 1.0)
        )
        return charge / vdd

    def drain_capacitance(
        self, width_um: float, drain_extent_um: float, vdd: float
    ) -> float:
        """Switched drain-junction capacitance of a device [F]."""
        if width_um <= 0.0 or drain_extent_um <= 0.0:
            raise DeviceModelError("device dimensions must be positive")
        return width_um * drain_extent_um * self.switched_capacitance(vdd)


@dataclass(frozen=True)
class WireCapacitanceModel:
    """Constant per-length interconnect capacitance."""

    c_per_um: float = 0.2e-15

    def __post_init__(self) -> None:
        if self.c_per_um <= 0.0:
            raise DeviceModelError("c_per_um must be positive")

    def wire_capacitance(self, length_um: float) -> float:
        """Capacitance of a wire of the given length [F]."""
        if length_um < 0.0:
            raise DeviceModelError("length must be >= 0")
        return self.c_per_um * length_um
