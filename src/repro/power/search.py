"""The throughput optimizer's two searches (paper Figs. 3-4).

* :func:`_solve_supply` — the steps of one V_DD solve for a delay
  target, written once as a generator that yields each probe and is
  sent its delay;
* :func:`_lockstep` — runs many such solves side by side, asking for
  every live solve's delay in one call per round;
* :func:`_bracketed_golden_minimum` — the V_T search for the energy
  minimum, a coarse scan then golden-section refinement.

:class:`~repro.power.optimizer.ThroughputOptimizer` drives all three;
nothing here knows a device model.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, List, Optional, Sequence

from repro import obs
from repro.errors import OptimizationError

#: Bisection steps a supply solve takes at most: a 70-step bisection of
#: the V_DD bounds defines which root the solve returns.
_BISECTION_STEPS = 70
#: The secant phase stops once ``|ln(delay / target)|`` is this small.
_RESIDUAL_TOL = 1e-13
#: Coarse-scan resolution used to bracket the global energy basin
#: before golden-section refinement.  Clamping at the low V_DD bound
#: splits the landscape into two regimes — a clamped boundary branch
#: (energy falling with V_T at fixed minimum supply) and the interior
#: fixed-delay locus (the Fig. 4 U) — so the energy is not globally
#: unimodal and an unbracketed golden-section can converge to the
#: wrong basin.
_SCAN_POINTS = 25
_GOLDEN = 0.6180339887498949
_INF = math.inf


def _bracketed_golden_minimum(energies, low, high, tolerance):
    """V_T of the global energy minimum in [low, high].

    Scans ``_SCAN_POINTS`` evenly spaced probes to find the best
    basin, then golden-section refines inside the bracketing pair of
    neighbours.  ``energies`` maps a list of V_Ts to their energies,
    +inf for an infeasible V_T; the scan is one call, the two first
    golden points one more, and each refinement step one V_T.  The
    refinement also stops once its golden points no longer fall
    strictly inside the bracket in order, which a ``tolerance`` at or
    below the float spacing of V_T would otherwise never allow.
    """
    if not tolerance > 0.0:
        raise OptimizationError(f"tolerance must be positive, got {tolerance}")
    grid = [
        low + (high - low) * i / (_SCAN_POINTS - 1)
        for i in range(_SCAN_POINTS)
    ]
    coarse = energies(grid)
    if all(value == _INF for value in coarse):
        raise OptimizationError(
            "delay target infeasible across the whole V_T range"
        )
    best = min(range(len(coarse)), key=coarse.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = energies([c, d])
    while b - a > tolerance and a < c < d < b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            (fc,) = energies([c])
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            (fd,) = energies([d])
    candidates = [(coarse[best], grid[best]), (fc, c), (fd, d)]
    # Ties (degenerate brackets, plateaus) break to the lowest V_T —
    # explicitly, rather than leaning on tuple comparison reaching the
    # V_T element.
    return min(candidates, key=lambda pair: (pair[0], pair[1]))[1]


def _solve_supply(
    target: float,
    low: float,
    high: float,
    breaks: Optional[Sequence[float]],
) -> Generator[float, float, Optional[float]]:
    """The steps of one supply solve in ``[low, high]`` for ``target``.

    A generator: it yields each V_DD it probes and is sent that
    supply's delay back; :func:`_lockstep` drives many at once.  It
    returns ``None`` when the delay still exceeds the target at
    ``high`` (the caller raises, with its own context), and ``low``
    when the delay is already below the target there: the circuit
    simply runs faster than required at the minimum supply
    (``optimizer.low_bound_clamps``).

    The delay need not be monotone in between.  ``breaks`` are the
    supplies where it stops falling (see
    :meth:`repro.tech.opplan.CornerPlan.delay_breaks`): it rises
    for a band above each, so a target in that band has three roots.
    While a break lies strictly inside the bracket the solve takes
    exactly the steps of a 70-step bisection of ``[low, high]``, so it
    settles on the same root.  Once none does, the bracket holds one
    root, and a bracketed Illinois secant on ``ln(delay / target)``
    finishes: it takes the midpoint whenever a step would leave the
    bracket and stops once ``|ln(delay / target)| <= 1e-13`` or the
    bracket reaches float resolution.  With ``breaks=None`` (shape
    unknown) it bisects throughout and returns the 70-step result
    exactly, stopping early once the midpoint rounds to an endpoint,
    after which further steps cannot change it.
    """
    delay_high = yield high
    if delay_high > target:
        return None
    delay_low = yield low
    if delay_low < target:
        if obs.ENABLED:
            obs.incr("optimizer.low_bound_clamps")
        return low
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            return mid
        if breaks is not None:
            for point in breaks:
                if low < point < high:
                    break
            else:
                break
        delay_mid = yield mid
        if delay_mid > target:
            low, delay_low = mid, delay_mid
        else:
            high, delay_high = mid, delay_mid
    else:
        return 0.5 * (low + high)
    f_low = math.log(delay_low / target)
    f_high = math.log(delay_high / target)
    # +1 after a step that moved ``low``, -1 after one that moved
    # ``high``: an endpoint kept twice in a row has its residual
    # halved (the Illinois rule), so the next step leans toward it.
    moved = 0
    while True:
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            return mid
        vdd = mid
        if f_low > f_high:
            trial = high - f_high * (high - low) / (f_high - f_low)
            if low < trial < high:
                vdd = trial
        delay = yield vdd
        residual = math.log(delay / target)
        if abs(residual) <= _RESIDUAL_TOL:
            return vdd
        if delay > target:
            low, f_low = vdd, residual
            if moved > 0:
                f_high *= 0.5
            moved = 1
        else:
            high, f_high = vdd, residual
            if moved < 0:
                f_low *= 0.5
            moved = -1


def _lockstep(
    solves: List[Generator[float, float, Optional[float]]],
    vts: Sequence[float],
    delays: Callable[[List[float], List[float]], List[float]],
) -> List[Optional[float]]:
    """Run :func:`_solve_supply` generators side by side; their results.

    Each round gathers the V_DD probe of every solve still running and
    asks ``delays(vts, vdds)`` for all of them in one call, then sends
    each solve its delay.  A solve sees exactly the delays it would
    alone, so it takes the same steps and returns the same float.
    ``optimizer.supply_evals`` counts the probes, bracket checks
    included, in one increment per batch.
    """
    results = {}
    live = list(solves)
    lane_vts = list(vts)
    probes = [next(solve) for solve in live]
    evaluations = 0
    try:
        while live:
            evaluations += len(live)
            sent = []
            append = sent.append
            for solve, delay in zip(live, delays(lane_vts, probes)):
                try:
                    append(solve.send(delay))
                except StopIteration as done:
                    results[solve] = done.value
                    append(None)
            if None in sent:
                kept = [
                    position for position, probe in enumerate(sent)
                    if probe is not None
                ]
                live = [live[position] for position in kept]
                lane_vts = [lane_vts[position] for position in kept]
                sent = [sent[position] for position in kept]
            probes = sent
    finally:
        if obs.ENABLED:
            obs.incr("optimizer.supply_evals", evaluations)
    return [results[solve] for solve in solves]
