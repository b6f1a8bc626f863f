"""Differential tests: the indexed event kernel equals the dict-keyed oracle.

:class:`~repro.switchsim.simulator.SwitchLevelSimulator` runs one
indexed kernel (integer nets, base-3 gate tables, a time-bucketed
inertial queue) behind every entry point.  The oracle in
``tests/switchsim/event_oracle.py`` is the simulator it replaced.  For
random netlists, the seven builders, technology corners, partial first
vectors, invalid inputs, clocked runs and free-running rings, both must
give the same :class:`ActivityReport`, final state, ``now_fs``, event
counts, errors and superseded-event count.  Both take their gate delays
from the netlist's plan; :func:`test_delay_fs_is_the_per_pin_sum`
checks those against the per-pin load chain.
"""

from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits.builders import (
    array_multiplier,
    barrel_shifter,
    carry_select_adder,
    equality_comparator,
    pipelined_adder,
    ring_oscillator,
    ripple_carry_adder,
)
from repro.device.technology import (
    bulk_cmos_06um,
    soi_low_vt,
    soias_technology,
)
from repro.errors import ReproError
from repro.switchsim.simulator import SwitchLevelSimulator
from repro.switchsim.stimulus import random_bus_vectors
from tests.circuits.netlist_oracle import StaticTimingAnalyzer
from tests.property.test_circuit_properties import random_dag_netlist
from tests.switchsim.event_oracle import ReferenceSimulator

_TECHNOLOGIES = {
    "bulk": bulk_cmos_06um(),
    "soi": soi_low_vt(),
    "soias": soias_technology(),
}

#: name -> (builder, input buses); the fig10 units at their flow width.
_BUILDERS = {
    "rca8": (lambda: ripple_carry_adder(8), {"a": 8, "b": 8}),
    "csa6": (lambda: carry_select_adder(6, 3), {"a": 6, "b": 6}),
    "shift8": (lambda: barrel_shifter(8), {"a": 8, "s": 3}),
    "mult4": (lambda: array_multiplier(4), {"a": 4, "b": 4}),
    "mult8": (lambda: array_multiplier(8), {"a": 8, "b": 8}),
    "cmp5": (lambda: equality_comparator(5), {"a": 5, "b": 5}),
    "pra6x3": (lambda: pipelined_adder(6, 3), {"a": 6, "b": 6}),
    "ring5": (lambda: ring_oscillator(5), {}),
}
_NETLISTS = {name: build() for name, (build, _) in _BUILDERS.items()}

#: The flow's active-mode soias corner (back gate at full swing).
_SOIAS = _TECHNOLOGIES["soias"]
_ACTIVE_SHIFT = _SOIAS.back_gate.vt_shift_at(
    min(_SOIAS.back_gate_swing, _SOIAS.back_gate.max_back_gate_bias)
)

corners = st.tuples(
    st.sampled_from(sorted(_TECHNOLOGIES)),
    st.floats(0.3, 1.5),
    st.floats(-0.05, 0.05),
)


def _observe(simulator, action: Callable) -> tuple:
    """What a caller can see after running ``action`` on ``simulator``."""
    try:
        result, error = action(simulator), None
    except ReproError as exc:
        result, error = None, (type(exc), str(exc))
    return (
        result,
        error,
        dict(simulator.state),
        simulator.now_fs,
        simulator.activity_report(),
    )


def _assert_kernel_matches(netlist, corner, action: Callable) -> None:
    name, vdd, shift = corner
    technology = _TECHNOLOGIES[name]
    try:
        oracle = ReferenceSimulator(netlist, technology, vdd, shift)
    except ReproError as exc:
        with pytest.raises(type(exc)) as raised:
            SwitchLevelSimulator(netlist, technology, vdd, shift)
        assert str(raised.value) == str(exc)
        return
    kernel = SwitchLevelSimulator(netlist, technology, vdd, shift)
    assert kernel._delay_fs == oracle._delay_fs
    with obs.enabled_scope(fresh=True):
        got = _observe(kernel, action)
        runs = obs.counter_value("simulator.runs")
        superseded = obs.counter_value("simulator.superseded")
    assert got == _observe(oracle, action)
    if runs:
        assert superseded == oracle.superseded


@st.composite
def vector_lists(draw, inputs: List[str]) -> list:
    """Input vectors over ``inputs``; the first may leave some unset."""
    count = draw(st.integers(1, 12))
    vectors = [
        {net: draw(st.integers(0, 1)) for net in inputs} for _ in range(count)
    ]
    if inputs and draw(st.booleans()):
        kept = draw(st.sets(st.sampled_from(inputs)))
        vectors[0] = {net: v for net, v in vectors[0].items() if net in kept}
    return vectors


@st.composite
def step_values(draw, inputs: List[str]) -> Dict[str, object]:
    """One apply() vector, sometimes with an unknown name or bad value."""
    entries = [
        (net, draw(st.integers(0, 1)))
        for net in draw(st.lists(st.sampled_from(inputs), unique=True))
    ] if inputs else []
    flaw = draw(st.sampled_from(["none", "none", "name", "value"]))
    if flaw != "none":
        position = draw(st.integers(0, len(entries)))
        if flaw == "name" or not inputs:
            bad = ("nosuch", 1)
        else:
            bad = (draw(st.sampled_from(inputs)), draw(st.sampled_from([2, -1, 7])))
            entries = [entry for entry in entries if entry[0] != bad[0]]
            position = min(position, len(entries))
        entries.insert(position, bad)
    return dict(entries)


class TestRunVectors:
    @given(
        st.integers(0, 10_000),
        st.integers(2, 6),
        st.integers(1, 30),
        corners,
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dag_netlists(self, seed, n_inputs, n_gates, corner, data):
        # random_dag_netlist often wires one net to two pins of a gate.
        netlist = random_dag_netlist(seed, n_inputs, n_gates)
        vectors = data.draw(vector_lists(netlist.primary_inputs))
        _assert_kernel_matches(
            netlist, corner, lambda sim: sim.run_vectors(vectors)
        )

    @given(
        st.sampled_from(sorted(_BUILDERS)),
        corners,
        st.integers(0, 2**16),
        st.integers(1, 30),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    @example("mult8", ("soias", 1.0, _ACTIVE_SHIFT), 0, 80, False)
    def test_builders(self, name, corner, seed, count, partial):
        netlist = _NETLISTS[name]
        buses = _BUILDERS[name][1]
        vectors = (
            random_bus_vectors(buses, count, seed=seed) if buses else [{}] * count
        )
        if partial:
            vectors[0] = {
                net: value
                for net, value in vectors[0].items()
                if net.startswith("a")
            }
        _assert_kernel_matches(
            netlist, corner, lambda sim: sim.run_vectors(vectors)
        )


class TestApplySequences:
    @given(
        st.sampled_from(["rca8", "mult4", "cmp5", "pra6x3", "dag"]),
        st.integers(0, 1000),
        corners,
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_with_invalid_inputs_and_budgets(
        self, name, seed, corner, data
    ):
        netlist = (
            random_dag_netlist(seed, 4, 12) if name == "dag" else _NETLISTS[name]
        )
        inputs = list(netlist.primary_inputs)
        first = data.draw(step_values(inputs), label="initialize")
        steps: List[Tuple[dict, int]] = data.draw(
            st.lists(
                st.tuples(
                    step_values(inputs),
                    st.sampled_from([1_000_000, 0, 1, 3, 10]),
                ),
                min_size=1,
                max_size=8,
            ),
            label="steps",
        )

        def action(sim):
            # Keep going after errors: the kernel's queue must stay in
            # step with the oracle's whatever was left pending.
            trace = []
            for call, args in [(sim.initialize, (first,))] + [
                (sim.apply, (vector, budget)) for vector, budget in steps
            ]:
                try:
                    trace.append(call(*args))
                except ReproError as exc:
                    trace.append((type(exc), str(exc)))
                trace.append((dict(sim.state), sim.now_fs))
            return trace

        _assert_kernel_matches(netlist, corner, action)


class TestClockedAndFreeRuns:
    @given(
        st.integers(2, 8),
        st.integers(1, 4),
        corners,
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_clocked_pipelined_adder(self, width, stages, corner, data):
        netlist = pipelined_adder(width, min(stages, width))
        vectors = data.draw(vector_lists(netlist.primary_inputs))
        budget = data.draw(st.sampled_from([1_000_000, 2, 8]))
        _assert_kernel_matches(
            netlist,
            corner,
            lambda sim: sim.run_clocked(vectors, max_events_per_vector=budget),
        )

    @given(
        st.sampled_from([3, 5, 7, 11]),
        st.dictionaries(st.integers(0, 10), st.integers(0, 1), min_size=1),
        st.integers(0, 400),
        st.sampled_from([1_000_000, 0, 1, 5, 40]),
        corners,
    )
    @settings(max_examples=40, deadline=None)
    def test_run_free_ring_oscillator(
        self, stages, preset, periods, budget, corner
    ):
        netlist = ring_oscillator(stages)
        preset = {f"ro[{i % stages}]": value for i, value in preset.items()}

        def action(sim):
            stage_fs = max(sim._delay_fs.values())
            return sim.run_free(
                preset, duration_fs=periods * stage_fs, max_events=budget
            )

        _assert_kernel_matches(netlist, corner, action)


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_delay_fs_is_the_per_pin_sum(name):
    """Loads decoded once per net reproduce every per-pin delay,
    register D pins included."""
    netlist = _NETLISTS[name]
    for technology in _TECHNOLOGIES.values():
        kernel = SwitchLevelSimulator(netlist, technology, 1.0, 0.02)
        chain = StaticTimingAnalyzer(technology)
        assert kernel._delay_fs == {
            gate: max(
                int(chain.gate_delay(netlist, instance, 1.0, 0.02) * 1e15), 1
            )
            for gate, instance in netlist.instances.items()
        }
