"""Ablation — temperature dependence of leakage and the optimum V_T.

Subthreshold swing scales with absolute temperature (S = n kT/q ln10),
so a portable device that runs warm leaks exponentially more at the
same V_T — pushing the Fig. 4 optimum threshold upward.  The paper's
room-temperature numbers are one point on this axis.
"""

from dataclasses import replace

from repro.analysis.tables import format_table
from repro.device.mosfet import Mosfet
from repro.device.technology import soi_low_vt
from repro.power.optimizer import FixedThroughputOptimizer, RingOscillatorModel

TEMPERATURES_K = (250.0, 300.0, 350.0, 400.0)


def _technology_at(temperature_k: float):
    base = soi_low_vt()
    pair = base.transistors
    return replace(
        base,
        transistors=replace(
            pair,
            nmos=pair.nmos.with_temperature(temperature_k),
            pmos=pair.pmos.with_temperature(temperature_k),
        ),
    )


def generate_ablation():
    rows = []
    optima = {}
    for temperature in TEMPERATURES_K:
        technology = _technology_at(temperature)
        device = Mosfet(technology.transistors.nmos)
        off = device.off_current(1.0)
        swing = technology.transistors.nmos.subthreshold_swing
        ring = RingOscillatorModel(technology, stages=51)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        best = optimizer.optimum(target, vt_bounds=(0.03, 0.45))
        rows.append(
            [temperature, swing * 1e3, off, best.vt, best.vdd,
             best.energy_per_cycle_j, best.leakage_fraction]
        )
        optima[temperature] = best
    return rows, optima


def test_ablation_temperature(benchmark, record):
    rows, optima = benchmark(generate_ablation)

    # Swing grows linearly with T.
    swings = [row[1] for row in rows]
    assert swings == sorted(swings)

    # Off current grows monotonically (and strongly) with T.
    offs = [row[2] for row in rows]
    assert offs == sorted(offs)
    assert offs[-1] > 5.0 * offs[0]

    # Up to ~350 K the optimum threshold moves up as leakage worsens;
    # at 400 K the design enters a leakage-dominated regime (leakage
    # fraction > 0.9) where the optimum collapses toward subthreshold
    # operation — both regimes are reported.
    moderate_vts = [row[3] for row in rows if row[0] <= 350.0]
    assert moderate_vts == sorted(moderate_vts)
    hottest = rows[-1]
    assert hottest[6] > 0.8  # leakage-dominated at 400 K

    # The achievable optimum energy only degrades with temperature.
    energies = [row[5] for row in rows]
    assert energies == sorted(energies)

    record(
        "ablation_temperature",
        format_table(
            ["T [K]", "S_th [mV/dec]", "I_off@1V [A/um]",
             "optimal V_T [V]", "optimal V_DD [V]", "E* [J]",
             "leak frac"],
            rows,
            title=(
                "Ablation: temperature vs leakage and the fixed-"
                "throughput optimum (51-stage ring)"
            ),
        ),
    )
