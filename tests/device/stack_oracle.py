"""Nested-bisection stack-leakage solve: the test-only oracle.

This is the straightforward solve the library used before
:class:`repro.device.leakage.StackSolver`: an 80-step bisection on the
log of the stack current, each trial accumulating the V_ds every device
needs (itself an 80-step bisection on ``Mosfet.drain_current``).  It
costs ~13k device evaluations per 2-stack, far too slow for the flows,
but it is obviously right, so the tests compare the Newton kernel
against it at :data:`ORACLE_RTOL`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.device.mosfet import Mosfet, MosfetParameters

#: Relative tolerance the kernel must meet against this oracle.
ORACLE_RTOL = 1e-9

_BISECTION_STEPS = 80


def _vds_for_current(
    device: Mosfet,
    source_voltage: float,
    target_current: float,
    vdd: float,
    vt_shift: float,
) -> float:
    """Smallest V_ds at which an off device carries ``target_current``.

    The gate is grounded and the source sits at ``source_voltage``.
    Returns ``vdd`` if the device cannot carry the target current even
    with the full supply across it.
    """
    vgs = -source_voltage

    def current(vds: float) -> float:
        return device.drain_current(vgs, vds, vt_shift)

    if current(vdd) <= target_current:
        return vdd
    low, high = 0.0, vdd
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if current(mid) < target_current:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def oracle_stack_current(
    parameters: MosfetParameters,
    widths_um: Sequence[float],
    vdd: float,
    vt_shift: float = 0.0,
) -> float:
    """Leakage of an all-off series stack, widths bottom first [A]."""
    devices = [Mosfet(parameters, width_um=w) for w in widths_um]
    if len(devices) == 1:
        return devices[0].off_current(vdd, vt_shift)
    upper = min(d.off_current(vdd, vt_shift) for d in devices)
    if upper <= 0.0:
        return 0.0

    def total_drop(current: float) -> float:
        source = 0.0
        for device in devices:
            source += _vds_for_current(device, source, current, vdd, vt_shift)
            if source >= vdd:
                break
        return source

    log_low, log_high = math.log(upper * 1e-12), math.log(upper)
    for _ in range(_BISECTION_STEPS):
        log_mid = 0.5 * (log_low + log_high)
        if total_drop(math.exp(log_mid)) < vdd:
            log_low = log_mid
        else:
            log_high = log_mid
    return math.exp(0.5 * (log_low + log_high))


def oracle_cell_leakage(
    technology,
    cell,
    vdd: float,
    vt_shift: float = 0.0,
    output_high_probability: float = 0.5,
) -> float:
    """``CellCharacterizer.leakage_current`` through the oracle [A]."""
    transistors = technology.transistors
    nmos_leak = oracle_stack_current(
        transistors.nmos, cell.nmos_path_widths_um, vdd, vt_shift
    )
    pmos_leak = oracle_stack_current(
        transistors.pmos, cell.pmos_path_widths_um, vdd, vt_shift
    )
    p_high = output_high_probability
    return p_high * nmos_leak + (1.0 - p_high) * pmos_leak
