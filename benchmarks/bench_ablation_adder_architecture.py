"""Ablation — architecture-driven voltage scaling (ripple vs select).

The paper's introduction cites "an architectural voltage scaling
strategy which trades silicon area for lower power" [ref 1]: a faster
(bigger) architecture meets the same throughput at a lower supply,
and the quadratic V_DD win beats the linear capacitance loss.  This
bench replays that trade with the two adder architectures in the
library: at iso-throughput the carry-select adder runs at a lower
V_DD than the ripple-carry adder and (despite ~2x the gates) burns
comparable or less switching energy.
"""

from repro.analysis.tables import format_table
from repro.circuits.builders import carry_select_adder, ripple_carry_adder
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import OptimizationError
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors

WIDTH = 16
VECTORS = 120


def _solve_vdd_for_delay(plan, target_s, bounds=(0.2, 2.0)):
    """Supply at which the netlist's critical path hits the target."""
    low, high = bounds
    if plan.analyze(high).delay_s > target_s:
        raise OptimizationError("target unreachable at max V_DD")
    for _ in range(50):
        mid = 0.5 * (low + high)
        if plan.analyze(mid).delay_s > target_s:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def generate_ablation():
    technology = soi_low_vt()
    ripple = ripple_carry_adder(WIDTH)
    select = carry_select_adder(WIDTH, block_width=4)
    ripple_plan = NetlistPlan(ripple, technology)
    select_plan = NetlistPlan(select, technology)

    # Throughput target: what the ripple adder achieves at 1 V.
    target = ripple_plan.analyze(1.0).delay_s

    vdd_ripple = 1.0
    vdd_select = _solve_vdd_for_delay(select_plan, target)

    rows = {}
    for name, netlist, plan, vdd in (
        ("ripple", ripple, ripple_plan, vdd_ripple),
        ("carry-select", select, select_plan, vdd_select),
    ):
        stimulus = random_bus_vectors(
            {"a": WIDTH, "b": WIDTH}, VECTORS, seed=42
        )
        report = SwitchLevelSimulator(
            netlist, technology, vdd
        ).run_vectors(stimulus)
        energy = report.switching_energy_per_cycle(
            netlist, technology, vdd
        )
        rows[name] = {
            "gates": len(netlist.instances),
            "vdd": vdd,
            "delay": plan.analyze(vdd).delay_s,
            "energy": energy,
        }
    return target, rows


def test_ablation_adder_architecture(benchmark, record):
    target, rows = benchmark(generate_ablation)
    ripple, select = rows["ripple"], rows["carry-select"]

    # The select adder uses more area...
    assert select["gates"] > 1.3 * ripple["gates"]
    # ...but meets the same delay at a meaningfully lower supply...
    assert select["vdd"] < 0.9 * ripple["vdd"]
    assert select["delay"] <= target * 1.01
    # ...and the quadratic supply win holds the energy at or below the
    # ripple design despite the extra capacitance.
    assert select["energy"] < 1.15 * ripple["energy"]

    record(
        "ablation_adder_architecture",
        format_table(
            ["architecture", "gates", "V_DD [V]", "delay [s]",
             "E_sw/op [J]"],
            [
                [name, r["gates"], r["vdd"], r["delay"], r["energy"]]
                for name, r in rows.items()
            ],
            title=(
                f"Ablation: area-for-voltage trade, {WIDTH}-bit adders "
                f"at iso-throughput ({target:.3e} s)"
            ),
        ),
    )
