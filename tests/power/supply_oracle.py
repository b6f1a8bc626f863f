"""Fixed 70-step V_DD bisection: the test-only supply-solve oracle.

This is the loop every optimizer supply solve ran before
``repro.power.search._solve_supply``: raise above the high bound,
clamp at the low bound, then 70 bisection steps on ``delay > target``.
It spends ~72 delay evaluations per solve, but its root choice is the
reference: the ring solve must match it to :data:`ORACLE_RTOL`, and
solves without delay breaks (module and yield) must equal it exactly.

:func:`solve_probe_by_probe` runs the optimizer's own solve steps on a
scalar delay function, one probe at a time, for the per-corner oracles
that have no batched delay.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.power.search import _solve_supply

#: Relative tolerance the ring solve must meet against this oracle.
ORACLE_RTOL = 1e-9

_BISECTION_STEPS = 70


def oracle_supply(
    delay_at: Callable[[float], float],
    target: float,
    low: float,
    high: float,
) -> Optional[float]:
    """Bisected supply meeting ``target``: ``None`` if unreachable at ``high``."""
    if delay_at(high) > target:
        return None
    if delay_at(low) < target:
        return low
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if delay_at(mid) > target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def solve_probe_by_probe(
    delay_at: Callable[[float], float],
    target: float,
    low: float,
    high: float,
    breaks: Optional[Sequence[float]],
) -> Optional[float]:
    """:func:`~repro.power.search._solve_supply`'s answer, each probe
    answered by ``delay_at`` as it is asked."""
    solve = _solve_supply(target, low, high, breaks)
    vdd = next(solve)
    try:
        while True:
            vdd = solve.send(delay_at(vdd))
    except StopIteration as done:
        return done.value
