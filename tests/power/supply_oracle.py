"""Fixed 70-step V_DD bisection: the test-only supply-solve oracle.

This is the loop every optimizer supply solve ran before
``repro.power.optimizer._solve_supply``: raise above the high bound,
clamp at the low bound, then 70 bisection steps on ``delay > target``.
It spends ~72 delay evaluations per solve, but its root choice is the
reference: the ring solve must match it to :data:`ORACLE_RTOL`, and
solves without delay breaks (module and yield) must equal it exactly.
"""

from __future__ import annotations

from typing import Callable, Optional

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
