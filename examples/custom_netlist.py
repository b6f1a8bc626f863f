#!/usr/bin/env python
"""Bring your own design: a .rnet netlist through the whole flow.

Loads the 4-bit accumulator in ``examples/custom_netlist.rnet``
(written by hand in the structural format of docs/netlist-format.md)
and runs it through every stage a user's own design would see:

1. clocked functional check,
2. static timing (register-aware) and the supported clock rate,
3. switch-level activity and the Section 2 power breakdown,
4. dual-V_T + gate-sizing power recovery.

Run:  python examples/custom_netlist.py
"""

import pathlib
import random

from repro import (
    NetlistPlan,
    PowerEstimator,
    SwitchLevelSimulator,
    format_table,
    soi_low_vt,
)
from repro.circuits.io import load_netlist
from repro.power.dualvt import DualVtOptimizer
from repro.power.sizing import GateSizingOptimizer

RNET = pathlib.Path(__file__).parent / "custom_netlist.rnet"
VDD = 1.0


def main():
    technology = soi_low_vt()
    netlist = load_netlist(str(RNET))
    print(f"Loaded {netlist!r} from {RNET.name}")

    # 1. Functional check: accumulate 3, five times.
    vectors = [
        {f"a[{i}]": (3 >> i) & 1 for i in range(4)} for _ in range(6)
    ]
    history = netlist.evaluate_sequence(vectors)
    totals = [
        sum(cycle[f"q[{i}]"] << i for i in range(4)) for cycle in history
    ]
    print(f"Accumulating 3/cycle: q = {totals} (wraps mod 16)")
    assert totals == [0, 3, 6, 9, 12, 15]

    # 2. Timing.
    plan = NetlistPlan(netlist, technology)
    cycle = plan.min_cycle_time(VDD)
    print(
        f"Critical path {plan.analyze(VDD).delay_s:.3e} s -> "
        f"max clock {1.0 / cycle / 1e6:.0f} MHz at {VDD} V"
    )

    # 3. Activity + power at 1 MHz.
    rng = random.Random(0)
    stimulus = [
        {f"a[{i}]": rng.randint(0, 1) for i in range(4)}
        for _ in range(200)
    ]
    simulator = SwitchLevelSimulator(netlist, technology, VDD)
    report = simulator.run_clocked(stimulus)
    breakdown = PowerEstimator(netlist, technology).breakdown(
        report, VDD, 1e6
    )
    print(
        format_table(
            ["component", "power [W]", "fraction"],
            [
                [name, getattr(breakdown, f"{name}_w"),
                 breakdown.fraction(name)]
                for name in ("switching", "short_circuit", "leakage")
            ],
            title="Power breakdown at 1 MHz (random input stream)",
        )
    )

    # 4. Recovery passes.
    dualvt = DualVtOptimizer(netlist, technology, VDD).optimize(1.0)
    sized = GateSizingOptimizer(netlist, technology, VDD).optimize(1.0)
    print(
        f"\nRecovery at zero delay budget: dual-V_T moves "
        f"{len(dualvt.high_vt_gates)}/{dualvt.total_gates} gates high "
        f"(leakage /{dualvt.leakage_reduction:.1f}); sizing shrinks "
        f"{sized.downsized_gates} gates (capacitance "
        f"/{sized.capacitance_reduction:.2f})."
    )


if __name__ == "__main__":
    main()
