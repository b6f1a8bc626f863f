"""Per-cycle module energy models (paper Eqs. 3-4 and Section 4).

The paper compares a fixed-low-V_T SOI module against burst-mode
alternatives under three activity variables: node activity ``alpha``,
block-enable activity ``fga``, and V_T-control activity ``bga``.

Eq. 3 (fixed low V_T)::

    E_SOI = fga * alpha * C_fg * V_DD^2 + I_leak(low) * V_DD * t_cyc

Eq. 4 (SOIAS, V_T switched per block)::

    E_SOIAS = fga * alpha * C_fg * V_DD^2
            + bga * C_bg * V_bg^2
            + fga * I_leak(low) * V_DD * t_cyc
            + (1 - fga) * I_leak(high) * V_DD * t_cyc

The MTCMOS and VTCMOS variants share the same algebra with different
control-overhead and standby-leakage terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import AnalysisError
from repro.switchsim.activity import ActivityReport

__all__ = [
    "ModuleEnergyParameters",
    "e_soi",
    "e_soias",
    "e_mtcmos",
    "e_vtcmos",
    "energy_ratio_soias_vs_soi",
    "module_parameters_from_activity",
]


@dataclass(frozen=True)
class ModuleEnergyParameters:
    """Electrical summary of one functional module.

    Parameters
    ----------
    name:
        Module name ("adder", "multiplier", ...).
    switched_capacitance_f:
        ``alpha * C_fg`` — the activity-weighted front-gate switched
        capacitance per active cycle [F] (what an activity report
        measures directly).
    leakage_low_vt_a:
        Module leakage current with devices at the low (active)
        threshold [A].
    leakage_high_vt_a:
        Module leakage at the high (standby) threshold [A].
    back_gate_capacitance_f:
        Total back-gate (or sleep-control) capacitance C_bg [F].
    back_gate_swing_v:
        Voltage swing of the V_T control lines [V].
    """

    name: str
    switched_capacitance_f: float
    leakage_low_vt_a: float
    leakage_high_vt_a: float
    back_gate_capacitance_f: float
    back_gate_swing_v: float

    def __post_init__(self) -> None:
        for field_name in (
            "switched_capacitance_f",
            "leakage_low_vt_a",
            "leakage_high_vt_a",
            "back_gate_capacitance_f",
            "back_gate_swing_v",
        ):
            if not 0.0 <= getattr(self, field_name) < math.inf:
                raise AnalysisError(f"{field_name} must be >= 0 and finite")
        if self.leakage_high_vt_a > self.leakage_low_vt_a:
            raise AnalysisError(
                "high-V_T leakage cannot exceed low-V_T leakage"
            )

    def with_back_gate_swing(self, swing: float) -> "ModuleEnergyParameters":
        """Copy with a different control swing (for ablations)."""
        return replace(self, back_gate_swing_v=swing)


def _check_activities(fga: float, bga: float) -> None:
    if not 0.0 <= fga <= 1.0:
        raise AnalysisError(f"fga must be in [0, 1], got {fga}")
    if not 0.0 <= bga <= 1.0:
        raise AnalysisError(f"bga must be in [0, 1], got {bga}")
    if bga > fga + 1e-12:
        raise AnalysisError(
            f"bga ({bga}) cannot exceed fga ({fga}): a block cannot be "
            "powered up more often than it is used"
        )


def _check_operating_point(vdd: float, t_cycle_s: float) -> None:
    if not 0.0 < vdd < math.inf:
        raise AnalysisError(f"vdd must be positive and finite, got {vdd}")
    if not 0.0 < t_cycle_s < math.inf:
        raise AnalysisError(
            f"cycle time must be positive and finite, got {t_cycle_s}"
        )


def e_soi(
    module: ModuleEnergyParameters,
    fga: float,
    vdd: float,
    t_cycle_s: float,
) -> float:
    """Eq. 3: average energy per cycle in fixed-low-V_T SOI [J].

    The module's clock is gated when unused (the ``fga`` factor on the
    switching term) but its devices leak continuously.
    """
    _check_activities(fga, 0.0)
    _check_operating_point(vdd, t_cycle_s)
    switching = fga * module.switched_capacitance_f * vdd * vdd
    leakage = module.leakage_low_vt_a * vdd * t_cycle_s
    return switching + leakage


def e_soias(
    module: ModuleEnergyParameters,
    fga: float,
    bga: float,
    vdd: float,
    t_cycle_s: float,
) -> float:
    """Eq. 4: average energy per cycle in back-gated SOIAS [J].

    The back gate charges ``bga`` of the time (overhead); in exchange
    the module leaks at the low threshold only while in use.
    """
    _check_activities(fga, bga)
    _check_operating_point(vdd, t_cycle_s)
    switching = fga * module.switched_capacitance_f * vdd * vdd
    back_gate = (
        bga
        * module.back_gate_capacitance_f
        * module.back_gate_swing_v**2
    )
    active_leak = fga * module.leakage_low_vt_a * vdd * t_cycle_s
    standby_leak = (1.0 - fga) * module.leakage_high_vt_a * vdd * t_cycle_s
    return switching + back_gate + active_leak + standby_leak


def e_mtcmos(
    module: ModuleEnergyParameters,
    fga: float,
    bga: float,
    vdd: float,
    t_cycle_s: float,
    sleep_control_capacitance_f: Optional[float] = None,
) -> float:
    """MTCMOS variant: high-V_T sleep devices gate low-V_T logic [J].

    Identical algebra to Eq. 4 except the control overhead charges the
    sleep-transistor gates to V_DD (not a separate back-gate rail), and
    standby leakage is the sleep device's high-V_T leakage.
    """
    _check_activities(fga, bga)
    _check_operating_point(vdd, t_cycle_s)
    control_cap = (
        module.back_gate_capacitance_f
        if sleep_control_capacitance_f is None
        else sleep_control_capacitance_f
    )
    if not 0.0 <= control_cap < math.inf:
        raise AnalysisError(
            "sleep control capacitance must be >= 0 and finite"
        )
    switching = fga * module.switched_capacitance_f * vdd * vdd
    control = bga * control_cap * vdd * vdd
    active_leak = fga * module.leakage_low_vt_a * vdd * t_cycle_s
    standby_leak = (1.0 - fga) * module.leakage_high_vt_a * vdd * t_cycle_s
    return switching + control + active_leak + standby_leak


def e_vtcmos(
    module: ModuleEnergyParameters,
    fga: float,
    bga: float,
    vdd: float,
    t_cycle_s: float,
    well_capacitance_f: float,
    body_bias_swing_v: float,
) -> float:
    """VTCMOS (substrate-bias) variant [J].

    The well/body node is a large capacitance and — because V_T moves
    only with the *square root* of body bias — the swing needed for a
    few hundred mV of threshold shift is volts, making the control
    term expensive.  That is the paper's stated caveat for this scheme.
    """
    _check_activities(fga, bga)
    _check_operating_point(vdd, t_cycle_s)
    if not (0.0 <= well_capacitance_f < math.inf
            and 0.0 <= body_bias_swing_v < math.inf):
        raise AnalysisError(
            "well capacitance and swing must be >= 0 and finite"
        )
    switching = fga * module.switched_capacitance_f * vdd * vdd
    control = bga * well_capacitance_f * body_bias_swing_v**2
    active_leak = fga * module.leakage_low_vt_a * vdd * t_cycle_s
    standby_leak = (1.0 - fga) * module.leakage_high_vt_a * vdd * t_cycle_s
    return switching + control + active_leak + standby_leak


def e_soias_gated(
    module: ModuleEnergyParameters,
    use_fraction: float,
    powered_fraction: float,
    bga: float,
    vdd: float,
    t_cycle_s: float,
) -> float:
    """Eq. 4 generalized for a hysteresis gating policy [J].

    A keep-alive policy separates the switching exposure
    (``use_fraction``) from the low-V_T leakage exposure
    (``powered_fraction`` >= use_fraction): the module burns low-V_T
    leakage through kept-alive idle gaps but pays fewer back-gate
    toggles.  With ``powered_fraction == use_fraction`` this is exactly
    :func:`e_soias`.
    """
    _check_activities(use_fraction, bga)
    _check_operating_point(vdd, t_cycle_s)
    if not use_fraction <= powered_fraction <= 1.0:
        raise AnalysisError(
            "powered_fraction must lie in [use_fraction, 1]"
        )
    switching = use_fraction * module.switched_capacitance_f * vdd * vdd
    back_gate = (
        bga * module.back_gate_capacitance_f * module.back_gate_swing_v**2
    )
    active_leak = powered_fraction * module.leakage_low_vt_a * vdd * t_cycle_s
    standby_leak = (
        (1.0 - powered_fraction)
        * module.leakage_high_vt_a
        * vdd
        * t_cycle_s
    )
    return switching + back_gate + active_leak + standby_leak


def energy_ratio_soias_vs_soi(
    module: ModuleEnergyParameters,
    fga: float,
    bga: float,
    vdd: float,
    t_cycle_s: float,
) -> float:
    """``E_SOIAS / E_SOI`` — below 1.0 means SOIAS wins (Fig. 10)."""
    soi = e_soi(module, fga, vdd, t_cycle_s)
    if soi <= 0.0:
        raise AnalysisError("E_SOI is zero; ratio undefined")
    return e_soias(module, fga, bga, vdd, t_cycle_s) / soi


def module_parameters_from_activity(
    netlist: Netlist,
    report: ActivityReport,
    technology: Technology,
    vdd: float,
    active_vt_shift: Optional[float] = None,
    standby_vt_shift: float = 0.0,
    wire_length_per_fanout_um: float = 5.0,
) -> ModuleEnergyParameters:
    """Extract Eq. 3/4 parameters from a simulated module.

    ``alpha * C_fg`` comes straight from the activity report; the two
    leakage corners are summed over cells at the active and standby
    threshold shifts.  For a back-gated technology the default shifts
    are full-forward-drive (active) and zero (standby), and C_bg is
    the buried-oxide capacitance under every device gate.
    """
    if technology.is_back_gated and active_vt_shift is None:
        back_gate = technology.back_gate
        active_vt_shift = back_gate.vt_shift_at(
            min(technology.back_gate_swing, back_gate.max_back_gate_bias)
        )
    active_vt_shift = 0.0 if active_vt_shift is None else active_vt_shift

    plan = NetlistPlan(netlist, technology, wire_length_per_fanout_um)
    switched = report.switched_capacitance_on(plan, vdd)
    leak_low, leak_high = plan.leakage_currents(
        vdd, (active_vt_shift, standby_vt_shift)
    )
    gate_area_um2 = 0.0
    for instance in netlist.instances.values():
        cell = instance.cell
        device_width = (
            cell.nmos_count * cell.input_nmos_width_um
            + cell.pmos_count * cell.input_pmos_width_um
        )
        gate_area_um2 += device_width * technology.drawn_length_um
    back_gate_cap = gate_area_um2 * technology.back_gate_cap_f_per_um2
    return ModuleEnergyParameters(
        name=netlist.name,
        switched_capacitance_f=switched,
        leakage_low_vt_a=leak_low,
        leakage_high_vt_a=min(leak_high, leak_low),
        back_gate_capacitance_f=back_gate_cap,
        back_gate_swing_v=technology.back_gate_swing,
    )
