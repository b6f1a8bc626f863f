#!/usr/bin/env python
"""Voltage/threshold co-optimization for continuous operation.

Reproduces the Section 3 exploration (paper Figs. 3-4) interactively:

1. Sweep V_T at a fixed performance target, solving the V_DD that
   keeps a 101-stage ring oscillator at constant speed (Fig. 3).
2. Show the resulting energy-per-cycle locus and its interior optimum
   — the point where further threshold reduction loses to leakage
   (Fig. 4).
3. Quantify the activity effect: idle-ish logic wants a higher V_T.
4. Compare against the 3.3 V bulk-CMOS baseline the paper's intro
   starts from.

Run:  python examples/voltage_scaling.py
"""

from repro import (
    FixedThroughputOptimizer,
    RingOscillatorModel,
    bulk_cmos_06um,
    format_table,
    soi_low_vt,
)


def main():
    technology = soi_low_vt()
    ring = RingOscillatorModel(technology, stages=101)
    optimizer = FixedThroughputOptimizer(ring)

    target = 4.0 * ring.stage_delay(1.0, 0.2)
    print(f"Performance target: {target:.3e} s per stage "
          f"({1.0 / (202 * target) / 1e6:.2f} MHz ring)\n")

    vts = [0.05 + 0.025 * i for i in range(15)]
    points = optimizer.sweep(vts, target)
    print(
        format_table(
            ["V_T [V]", "V_DD [V]", "E/cycle [J]", "leakage fraction"],
            [
                [p.vt, p.vdd, p.energy_per_cycle_j, p.leakage_fraction]
                for p in points
            ],
            title="Fixed-delay locus (paper Figs. 3-4)",
        )
    )

    best = optimizer.optimum(target, vt_bounds=(0.02, 0.45))
    print(
        f"\nOptimum: V_T = {best.vt:.3f} V, V_DD = {best.vdd:.3f} V, "
        f"E = {best.energy_per_cycle_j:.3e} J/cycle "
        f"(leakage {100 * best.leakage_fraction:.1f}%)"
    )

    # Activity ablation: the paper's "low switching activity requires
    # a high threshold".
    rows = []
    for activity in (1.0, 0.5, 0.2, 0.05):
        quiet = FixedThroughputOptimizer(
            RingOscillatorModel(technology, stages=101, activity=activity)
        ).optimum(target, vt_bounds=(0.02, 0.45))
        rows.append([activity, quiet.vt, quiet.vdd])
    print(
        "\n"
        + format_table(
            ["node activity", "optimal V_T [V]", "optimal V_DD [V]"],
            rows,
            title="Activity drives the optimal threshold upward",
        )
    )

    # Against the 3 V bulk baseline.
    bulk = bulk_cmos_06um()
    bulk_ring = RingOscillatorModel(bulk, stages=101)
    bulk_point = bulk_ring.energy_per_cycle(
        bulk.nominal_vdd, bulk.transistors.nmos.vt0, 202 * target
    )
    saving = 1.0 - best.energy_per_cycle_j / bulk_point.energy_per_cycle_j
    print(
        f"\nVs conventional bulk at {bulk.nominal_vdd} V: "
        f"{bulk_point.energy_per_cycle_j:.3e} J/cycle -> optimized "
        f"low-voltage point saves {100 * saving:.1f}% "
        "(the paper's headline motivation)."
    )


if __name__ == "__main__":
    main()
