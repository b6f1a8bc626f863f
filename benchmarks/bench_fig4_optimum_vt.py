"""Fig. 4 — energy vs V_T at fixed throughput; the optimum (V_DD, V_T).

Paper shape: along a fixed-performance locus the energy is U-shaped in
V_T — supply (and switching energy) falls as V_T falls until leakage
takes over — with the optimum supply "significantly lower than 1 V".
Two throughput classes are swept (the paper's 1 MHz and 0.8 MHz ring
families); lower node activity pushes the optimum V_T higher.
"""

from repro.analysis.tables import format_table
from repro.device.technology import soi_low_vt
from repro.power.optimizer import FixedThroughputOptimizer, RingOscillatorModel

VT_SWEEP = [0.04 + 0.02 * i for i in range(20)]  # 0.04 .. 0.42 V


def _optimizer(activity: float) -> FixedThroughputOptimizer:
    ring = RingOscillatorModel(soi_low_vt(), stages=101, activity=activity)
    # Leakage integrates over the ring's own period (the paper's 1 MHz
    # oscillator dissipates leakage continuously at that rate).
    return FixedThroughputOptimizer(ring)


def generate_fig4():
    """Fixed-delay energy curves for two speed classes + an activity ablation."""
    optimizer = _optimizer(activity=1.0)
    reference = optimizer.ring.stage_delay(1.0, 0.2)
    curves = {}
    optima = {}
    for label, target in (
        ("1.0x rate", 4.0 * reference),
        ("0.8x rate", 5.0 * reference),
    ):
        points = optimizer.sweep(VT_SWEEP, target)
        curves[label] = points
        optima[label] = optimizer.optimum(target, vt_bounds=(0.02, 0.45))
    low_activity = _optimizer(activity=0.1)
    optima["low-activity"] = low_activity.optimum(
        4.0 * reference, vt_bounds=(0.02, 0.45)
    )
    return curves, optima


def test_fig4_optimum_vt(benchmark, record):
    curves, optima = benchmark(generate_fig4)

    # Shape 1: the energy-vs-V_T locus is U-shaped (interior minimum).
    for label, points in curves.items():
        energies = [p.energy_per_cycle_j for p in points]
        best = min(range(len(energies)), key=energies.__getitem__)
        assert 0 < best < len(energies) - 1, (label, best)

    # Shape 2: optimum supply is well below 1 V for both classes.
    for label in ("1.0x rate", "0.8x rate"):
        assert optima[label].vdd < 1.0, label

    # Shape 3: the slower class reaches a lower-energy optimum.
    assert (
        optima["0.8x rate"].energy_per_cycle_j
        < optima["1.0x rate"].energy_per_cycle_j
    )

    # Shape 4 (paper text): low switching activity pushes the optimum
    # threshold up.
    assert optima["low-activity"].vt > optima["1.0x rate"].vt

    rows = []
    for label, points in curves.items():
        for p in points:
            rows.append(
                [label, p.vt, p.vdd, p.energy_per_cycle_j,
                 p.leakage_fraction]
            )
    summary = [
        [label, o.vt, o.vdd, o.energy_per_cycle_j]
        for label, o in optima.items()
    ]
    record(
        "fig4_optimum_vt",
        format_table(
            ["class", "V_T [V]", "V_DD [V]", "E/cycle [J]", "leak frac"],
            rows,
            title="Fig. 4: energy vs V_T at fixed throughput",
        )
        + "\n\n"
        + format_table(
            ["class", "V_T* [V]", "V_DD* [V]", "E* [J]"],
            summary,
            title="Fig. 4 optima",
        ),
    )
