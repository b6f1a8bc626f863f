"""Unit tests for static timing on the decoded netlist plan."""

import pytest

from repro.circuits.builders import (
    carry_select_adder,
    ring_oscillator,
    ripple_carry_adder,
)
from repro.circuits.plan import NetlistPlan
from repro.device.technology import soi_low_vt
from repro.errors import NetlistError


@pytest.fixture(scope="module")
def plan_of():
    """Times any netlist through a plan decoded for it."""
    technology = soi_low_vt()
    return lambda netlist: NetlistPlan(netlist, technology)


@pytest.fixture(scope="module")
def adder8():
    return ripple_carry_adder(8)


class TestCriticalPath:
    def test_delay_positive(self, plan_of, adder8):
        result = plan_of(adder8).analyze(vdd=1.0)
        assert result.delay_s > 0.0

    def test_critical_path_ends_at_an_output(self, plan_of, adder8):
        result = plan_of(adder8).analyze(vdd=1.0)
        assert result.path_nets[-1] in adder8.primary_outputs

    def test_critical_path_starts_at_an_input(self, plan_of, adder8):
        result = plan_of(adder8).analyze(vdd=1.0)
        first = result.path_nets[0]
        assert first in adder8.primary_inputs or first in adder8.constants

    def test_ripple_carry_depth_grows_with_width(self, plan_of):
        short = plan_of(ripple_carry_adder(4)).analyze(vdd=1.0)
        long = plan_of(ripple_carry_adder(16)).analyze(vdd=1.0)
        assert long.delay_s > 2.0 * short.delay_s
        assert long.depth > short.depth

    def test_carry_select_faster_than_ripple(self, plan_of):
        ripple = plan_of(ripple_carry_adder(16)).analyze(vdd=1.0)
        select = plan_of(carry_select_adder(16, 4)).analyze(vdd=1.0)
        assert select.delay_s < ripple.delay_s

    def test_delay_falls_with_vdd(self, plan_of, adder8):
        slow = plan_of(adder8).analyze(vdd=0.6).delay_s
        fast = plan_of(adder8).analyze(vdd=1.5).delay_s
        assert fast < slow

    def test_delay_falls_with_lower_vt(self, plan_of, adder8):
        high_vt = plan_of(adder8).analyze(vdd=0.8, vt_shift=0.1).delay_s
        low_vt = plan_of(adder8).analyze(vdd=0.8, vt_shift=-0.1).delay_s
        assert low_vt < high_vt

    def test_arrival_times_monotone_along_path(self, plan_of, adder8):
        result = plan_of(adder8).analyze(vdd=1.0)
        arrivals = [result.arrival_times[net] for net in result.path_nets]
        assert arrivals == sorted(arrivals)

    def test_cyclic_netlist_rejected(self, plan_of):
        with pytest.raises(NetlistError, match="cycle"):
            plan_of(ring_oscillator(3)).analyze(vdd=1.0)


class TestCycleTime:
    def test_overhead_applied(self, plan_of, adder8):
        bare = plan_of(adder8).analyze(1.0).delay_s
        cycle = plan_of(adder8).min_cycle_time(1.0, sequencing_overhead=0.2)
        assert cycle == pytest.approx(1.2 * bare)

    def test_max_frequency_inverse(self, plan_of, adder8):
        cycle = plan_of(adder8).min_cycle_time(1.0)
        assert plan_of(adder8).max_frequency(1.0) == pytest.approx(
            1.0 / cycle
        )

    def test_negative_overhead_rejected(self, plan_of, adder8):
        with pytest.raises(NetlistError):
            plan_of(adder8).min_cycle_time(1.0, sequencing_overhead=-0.1)
