"""Static (DC) inverter analysis: transfer curves and noise margins.

"How low can V_DD go?" is the question under all of Section 3.  The
switching-energy argument wants the supply as low as possible; the
hard floor is *regeneration*: below some V_DD the inverter's voltage
transfer curve no longer has gain > 1 anywhere and logic levels decay.
With subthreshold conduction in the device model, that floor lands at
a few multiples of ``n kT/q`` — the classic result.

:class:`InverterDcAnalysis` solves the VTC by balancing the NMOS and
PMOS currents, extracts the switching threshold, unity-gain points and
noise margins, and searches for the minimum workable supply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.device.mosfet import Mosfet
from repro.device.technology import Technology
from repro.errors import AnalysisError

__all__ = ["NoiseMargins", "InverterDcAnalysis"]

_BISECTION_STEPS = 42
_DERIVATIVE_STEP = 1e-4


@dataclass(frozen=True)
class NoiseMargins:
    """Static noise margins of one inverter at one supply."""

    vdd: float
    vol: float
    voh: float
    vil: float
    vih: float

    @property
    def low(self) -> float:
        """NM_L = V_IL - V_OL."""
        return self.vil - self.vol

    @property
    def high(self) -> float:
        """NM_H = V_OH - V_IH."""
        return self.voh - self.vih

    @property
    def worst(self) -> float:
        """The binding margin."""
        return min(self.low, self.high)

    @property
    def is_regenerative(self) -> bool:
        """Whether the gate still restores logic levels at all."""
        return self.low > 0.0 and self.high > 0.0


class InverterDcAnalysis:
    """DC solver for a static CMOS inverter in a given technology."""

    def __init__(
        self,
        technology: Technology,
        nmos_width_um: float = 2.0,
        pmos_width_um: float = 4.0,
    ):
        if nmos_width_um <= 0.0 or pmos_width_um <= 0.0:
            raise AnalysisError("device widths must be positive")
        self.technology = technology
        self.nmos = Mosfet(technology.transistors.nmos, nmos_width_um)
        self.pmos = Mosfet(technology.transistors.pmos, pmos_width_um)

    # ------------------------------------------------------------------
    # Transfer curve
    # ------------------------------------------------------------------
    def output_voltage(self, vin: float, vdd: float) -> float:
        """V_out where the NMOS and PMOS currents balance.

        The NMOS current rises with V_out while the PMOS current falls
        (its |V_ds| shrinks), so the balance point is unique and
        bisection converges unconditionally.
        """
        if vdd <= 0.0:
            raise AnalysisError("vdd must be positive")
        if not 0.0 <= vin <= vdd:
            raise AnalysisError(f"vin must be in [0, {vdd}], got {vin}")

        def imbalance(vout: float) -> float:
            pull_down = self.nmos.drain_current(vin, vout)
            pull_up = self.pmos.drain_current(vdd - vin, vdd - vout)
            return pull_down - pull_up

        low, high = 0.0, vdd
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (low + high)
            if imbalance(mid) < 0.0:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

    def transfer_curve(
        self, vdd: float, points: int = 101
    ) -> List[Tuple[float, float]]:
        """(V_in, V_out) samples of the VTC."""
        if points < 3:
            raise AnalysisError("need at least 3 points")
        step = vdd / (points - 1)
        return [
            (i * step, self.output_voltage(i * step, vdd))
            for i in range(points)
        ]

    def gain(self, vin: float, vdd: float) -> float:
        """dV_out/dV_in (negative through the transition)."""
        h = min(_DERIVATIVE_STEP, vin / 2.0 + 1e-9, (vdd - vin) / 2.0 + 1e-9)
        lower = self.output_voltage(max(vin - h, 0.0), vdd)
        upper = self.output_voltage(min(vin + h, vdd), vdd)
        return (upper - lower) / (2.0 * h)

    def switching_threshold(self, vdd: float) -> float:
        """V_M: the input voltage where V_out = V_in."""
        low, high = 0.0, vdd
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (low + high)
            if self.output_voltage(mid, vdd) > mid:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

    def peak_gain(self, vdd: float, scan_points: int = 21) -> float:
        """Largest |dV_out/dV_in| along the VTC."""
        step = vdd / (scan_points + 1)
        return max(
            abs(self.gain(i * step, vdd))
            for i in range(1, scan_points + 1)
        )

    # ------------------------------------------------------------------
    # Noise margins
    # ------------------------------------------------------------------
    def noise_margins(self, vdd: float) -> NoiseMargins:
        """Unity-gain-point noise margins.

        V_IL / V_IH are where the VTC slope crosses -1 on either side
        of the switching threshold.  If the peak gain never exceeds 1
        (deep low-voltage collapse) the gate does not regenerate: V_IL
        is set to V_OL and V_IH to V_OH, so both margins are exactly 0
        and ``is_regenerative`` is False.
        """
        vol = self.output_voltage(vdd, vdd)
        voh = self.output_voltage(0.0, vdd)
        if self.peak_gain(vdd) <= 1.0:
            return NoiseMargins(vdd=vdd, vol=vol, voh=voh, vil=vol, vih=voh)
        vm = self.switching_threshold(vdd)
        vil = self._unity_gain_point(vdd, 0.0, vm, vm)
        vih = self._unity_gain_point(vdd, vm, vdd, vm)
        return NoiseMargins(vdd=vdd, vol=vol, voh=voh, vil=vil, vih=vih)

    def _unity_gain_point(
        self, vdd: float, low: float, high: float, vm: float
    ) -> float:
        """V_in in (low, high) where |gain| crosses 1.

        On [0, V_M] the gain magnitude rises from ~0 toward the peak;
        on [V_M, V_DD] it falls back — each side has one crossing.
        """
        rising_side = high <= vm + 1e-12

        def above(vin: float) -> bool:
            return abs(self.gain(vin, vdd)) >= 1.0

        a, b = low, high
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (a + b)
            crossed = above(mid)
            if rising_side:
                if crossed:
                    b = mid
                else:
                    a = mid
            else:
                if crossed:
                    a = mid
                else:
                    b = mid
        return 0.5 * (a + b)

    # ------------------------------------------------------------------
    # Minimum supply
    # ------------------------------------------------------------------
    def minimum_supply(
        self,
        margin_fraction: float = 0.1,
        vdd_bounds: Tuple[float, float] = (0.02, 1.5),
    ) -> float:
        """Smallest V_DD whose worst noise margin clears the budget.

        ``margin_fraction`` is the required worst margin as a fraction
        of V_DD (10 % is a common planning floor).  The result sits at
        a small multiple of ``n kT/q`` — the fundamental limit the
        paper's aggressive scaling runs toward.
        """
        if not 0.0 < margin_fraction < 0.5:
            raise AnalysisError("margin_fraction must be in (0, 0.5)")
        low, high = vdd_bounds
        if not 0.0 < low < high:
            raise AnalysisError(f"bad vdd bounds {vdd_bounds}")

        def acceptable(vdd: float) -> bool:
            margins = self.noise_margins(vdd)
            return margins.worst >= margin_fraction * vdd

        if not acceptable(high):
            raise AnalysisError(
                f"even V_DD = {high} V fails the margin budget"
            )
        if acceptable(low):
            return low
        for _ in range(22):
            mid = 0.5 * (low + high)
            if acceptable(mid):
                high = mid
            else:
                low = mid
        return high
