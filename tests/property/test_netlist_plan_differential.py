"""Differential tests: the decoded netlist plan vs the per-instance chain.

:class:`~repro.circuits.plan.NetlistPlan` evaluates each distinct
cell's C(V) views once per supply, makes one kernel call per
(cell, load) group and one leakage call per distinct cell.  The chain
it replaced is kept in ``tests/circuits/netlist_oracle.py``: one C(V)
view per load pin, one scalar characterizer delay per gate,
levelization on every query and one scalar leakage per instance.
On random builders, supplies, common shifts, per-instance shifts and
size factors, both must give the same gate delays, arrival times,
critical-path nets, slacks, per-net capacitances and leakage totals,
compared with ``==``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builders import (
    array_multiplier,
    barrel_shifter,
    carry_select_adder,
    pipelined_adder,
    ripple_carry_adder,
)
from repro.circuits.plan import NetlistPlan
from repro.device.technology import (
    bulk_cmos_06um,
    soi_low_vt,
    soias_technology,
)
from repro.tech.characterize import CellCharacterizer
from tests.circuits import netlist_oracle

_TECHNOLOGIES = {
    "bulk": bulk_cmos_06um(),
    "soi": soi_low_vt(),
    "soias": soias_technology(),
}

_NETLISTS = {
    netlist.name: netlist
    for netlist in (
        ripple_carry_adder(4),
        ripple_carry_adder(8),
        carry_select_adder(8, 4),
        carry_select_adder(6, 3),
        array_multiplier(3),
        array_multiplier(4),
        barrel_shifter(8),
        barrel_shifter(4),
        pipelined_adder(8, 3),
        pipelined_adder(6, 2),
    )
}

supplies = st.floats(0.1, 1.5, allow_nan=False, allow_infinity=False)
shifts = st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False)


@st.composite
def corners(draw):
    """A netlist, a technology, a supply, a common shift and per-instance
    shift and size maps over random subsets of the instances."""
    netlist = _NETLISTS[draw(st.sampled_from(sorted(_NETLISTS)))]
    names = sorted(netlist.instances)
    subset = st.lists(st.sampled_from(names), unique=True, max_size=12)
    per_shift = {
        name: draw(st.floats(-0.05, 0.3)) for name in draw(subset)
    }
    per_size = {
        name: draw(st.sampled_from([0.35, 0.5, 0.7, 1.0, 1.5, 2.0]))
        for name in draw(subset)
    }
    return (
        netlist,
        _TECHNOLOGIES[draw(st.sampled_from(sorted(_TECHNOLOGIES)))],
        draw(supplies),
        draw(shifts),
        per_shift,
        per_size,
    )


class TestPlanMatchesChain:
    @settings(deadline=None, max_examples=60)
    @given(corner=corners())
    def test_timing_bit_identical(self, corner):
        netlist, technology, vdd, shift, per_shift, per_size = corner
        plan = NetlistPlan(netlist, technology)
        chain = netlist_oracle.StaticTimingAnalyzer(technology)
        expected = chain.analyze(netlist, vdd, shift, per_shift, per_size)

        delays = plan.gate_delays(vdd, shift, per_shift, per_size)
        assert dict(zip(netlist.instances, delays)) == expected.gate_delays
        timing = plan.analyze(vdd, shift, per_shift, per_size)
        assert timing.delay_s == expected.delay_s
        assert timing.path_nets == expected.path_nets
        assert timing.arrival_times == expected.arrival_times
        required = expected.delay_s * 1.25
        assert plan.slacks(
            vdd, shift, per_shift, None, per_size
        ) == chain.slacks(netlist, vdd, shift, per_shift, None, per_size)
        assert plan.slacks(
            vdd, shift, per_shift, required, per_size
        ) == chain.slacks(netlist, vdd, shift, per_shift, required, per_size)

    @settings(deadline=None, max_examples=40)
    @given(corner=corners(), more=st.lists(st.tuples(supplies, shifts)))
    def test_lockstep_queries_bit_identical(self, corner, more):
        netlist, technology, vdd, shift, _, _ = corner
        queries = [(vdd, shift), (vdd, -shift), *more]
        plan = NetlistPlan(netlist, technology)
        chain = netlist_oracle.StaticTimingAnalyzer(technology)
        assert plan.critical_delays(
            [v for v, _ in queries], [s for _, s in queries]
        ) == [chain.analyze(netlist, v, s).delay_s for v, s in queries]

    @settings(deadline=None, max_examples=60)
    @given(corner=corners(), second=shifts)
    def test_capacitance_and_leakage_bit_identical(self, corner, second):
        netlist, technology, vdd, shift, per_shift, per_size = corner
        plan = NetlistPlan(netlist, technology)
        assert plan.net_capacitances(vdd) == {
            net: netlist_oracle.net_capacitance(netlist, net, technology, vdd)
            for net in netlist.nets()
        }
        characterizer = CellCharacterizer(technology)
        assert plan.leakage_currents(
            vdd, (shift, second), per_shift, per_size
        ) == [
            netlist_oracle.leakage_current(
                characterizer, netlist, vdd, common, per_shift, per_size
            )
            for common in (shift, second)
        ]
