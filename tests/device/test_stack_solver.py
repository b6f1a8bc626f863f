"""The Newton stack-leakage kernel against the nested-bisection oracle.

:class:`~repro.device.leakage.StackSolver` must agree with the oracle in
``tests/device/stack_oracle.py`` to ``ORACLE_RTOL`` over the whole
corner space the toolkit uses (strong inversion included), and must do
so in a small number of device evaluations: a regression to
bisection-like cost fails :class:`TestEvaluationBudget`.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.device.leakage import StackSolver
from repro.device.mosfet import Mosfet, MosfetParameters
from repro.device.technology import bulk_cmos_06um, soi_low_vt, soias_technology
from repro.errors import DeviceModelError
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer
from tests.device.stack_oracle import ORACLE_RTOL, oracle_stack_current
from tests.property.test_device_properties import mosfet_parameters

#: soi_low_vt(vt0=0.02) keeps the strong-inversion branch live in off
#: devices at negative shifts.
TECHNOLOGIES = {
    "bulk": bulk_cmos_06um(),
    "soi": soi_low_vt(),
    "soi-vt0.02": soi_low_vt(vt0=0.02),
    "soias": soias_technology(),
}


def _parameters(technology: str, polarity: str):
    return getattr(TECHNOLOGIES[technology].transistors, polarity)


class TestOracleAgreement:
    @settings(deadline=None, max_examples=60)
    @given(
        technology=st.sampled_from(sorted(TECHNOLOGIES)),
        polarity=st.sampled_from(["nmos", "pmos"]),
        widths=st.lists(st.floats(0.5, 8.0), min_size=1, max_size=4),
        vdd=st.floats(0.05, 3.3),
        vt_shift=st.floats(-0.3, 0.3),
    )
    @example("soi-vt0.02", "nmos", [2.0, 2.0, 2.0], 3.3, -0.3)
    @example("soi-vt0.02", "pmos", [8.0, 0.5], 1.2, -0.25)
    @example("soias", "nmos", [4.0] * 4, 0.05, 0.3)
    @example("bulk", "pmos", [0.5, 8.0, 0.5], 3.3, 0.3)
    def test_kernel_matches_oracle(
        self, technology, polarity, widths, vdd, vt_shift
    ):
        parameters = _parameters(technology, polarity)
        kernel = StackSolver(parameters, widths).current(vdd, vt_shift)
        oracle = oracle_stack_current(parameters, widths, vdd, vt_shift)
        assert math.isclose(kernel, oracle, rel_tol=ORACLE_RTOL), (
            kernel,
            oracle,
        )

    @settings(deadline=None, max_examples=40)
    @given(
        parameters=mosfet_parameters,
        widths=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=4),
        vdd=st.floats(0.05, 3.3),
        vt_shift=st.floats(-0.3, 0.3),
    )
    # dibl = 0 with a negative shift leaves every device saturated with a
    # nearly flat I(V_ds): an unbounded ln V_ds step from there once ran
    # off to a denormal V_ds and stopped on a wrong root.
    @example(
        MosfetParameters(
            vt0=0.13,
            subthreshold_swing=0.09,
            i_spec=8e-8,
            k_drive=1.4e-4,
            alpha=1.3,
            dibl=0.0,
            vdsat_coeff=1.5,
            channel_length_modulation=0.0025,
        ),
        [6.5, 6.5, 2.0, 6.0],
        2.7,
        -0.26,
    )
    def test_kernel_matches_oracle_for_any_flavour(
        self, parameters, widths, vdd, vt_shift
    ):
        kernel = StackSolver(parameters, widths).current(vdd, vt_shift)
        oracle = oracle_stack_current(parameters, widths, vdd, vt_shift)
        assert math.isclose(kernel, oracle, rel_tol=ORACLE_RTOL), (
            kernel,
            oracle,
        )

    @pytest.mark.parametrize(
        "vdd, vt_shift",
        [(1.0, 1.55), (1.0, 2.0), (1.0, 3.0), (0.96875, 2.0), (1.2, 2.0)],
    )
    def test_fully_clamped_stack_matches_oracle(self, vdd, vt_shift):
        # Past the clamp every exponent sits at -60, so each device's
        # current rises to a ceiling in V_ds and the root (V_ds split
        # evenly) lies ~1e-10 to ~1e-8 below the bottom device's
        # ceiling.  Near that ceiling the residual's slope reaches
        # 1e9-1e12, so a Newton step there, tiny or even below x's float
        # resolution, once stopped the solve that far off the root.
        parameters = bulk_cmos_06um().transistors.nmos
        kernel = StackSolver(parameters, [1.0, 1.0]).current(vdd, vt_shift)
        oracle = oracle_stack_current(parameters, [1.0, 1.0], vdd, vt_shift)
        assert math.isclose(kernel, oracle, rel_tol=ORACLE_RTOL), (
            kernel,
            oracle,
        )

    @settings(deadline=None, max_examples=40)
    @given(
        technology=st.sampled_from(sorted(TECHNOLOGIES)),
        width=st.floats(0.5, 8.0),
        vdd=st.floats(0.05, 3.3),
        vt_shift=st.floats(-0.3, 0.3),
    )
    def test_single_device_is_off_current_exactly(
        self, technology, width, vdd, vt_shift
    ):
        parameters = _parameters(technology, "nmos")
        assert StackSolver(parameters, [width]).current(
            vdd, vt_shift
        ) == Mosfet(parameters, width_um=width).off_current(vdd, vt_shift)


def _identity_window(parameters, widths, vdd, nominal):
    """Shifts at which the stack leaks ``nominal * e^(-dVT / (n phi_t))``.

    Returns ``(lowest, highest, has_reference)``.  Read from the device
    model: below ``lowest`` a device can be above threshold; above
    ``highest`` an off-current or device exponent reaches the -60 clamp.
    ``has_reference`` says whether shift 0, the solver's reference, is
    itself inside.
    """
    n_phi = parameters.ideality * parameters.thermal_voltage
    lowest = parameters.dibl * vdd - parameters.vt0
    x_floor = max(math.log(parameters.i_spec * w) for w in widths) - 60.0
    x0 = math.log(nominal)
    highest = min(lowest + 60.0 * n_phi, n_phi * (x0 - x_floor))
    return lowest, highest, lowest <= 0.0 <= highest


class TestShiftIdentity:
    """Shift-0 reference root scaled by one exp inside the window."""

    #: Shifts this close to an edge may land on either side in floats.
    EDGE_SLACK = 1e-9

    @settings(deadline=None, max_examples=80)
    @given(
        technology=st.sampled_from(sorted(TECHNOLOGIES)),
        polarity=st.sampled_from(["nmos", "pmos"]),
        widths=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=4),
        vdd=st.floats(0.05, 3.3),
        edge=st.sampled_from(["lowest", "highest"]),
        offset=st.floats(-0.05, 0.05),
    )
    @example("soi-vt0.02", "nmos", [2.0, 2.0], 1.2, "lowest", 0.01)
    @example("soi", "nmos", [2.0, 2.0, 2.0], 0.6, "lowest", -0.01)
    @example("bulk", "pmos", [4.0, 4.0], 3.3, "highest", 0.001)
    @example("bulk", "nmos", [1.0, 1.0], 1.0, "highest", 0.03125)
    @example("bulk", "nmos", [1.0, 1.0], 0.96875, "highest", 0.03125)
    @example("soias", "nmos", [4.0, 1.0, 4.0], 0.3, "highest", -0.001)
    def test_scaled_inside_solved_outside(
        self, technology, polarity, widths, vdd, edge, offset
    ):
        parameters = _parameters(technology, polarity)
        n_phi = parameters.ideality * parameters.thermal_voltage
        solver = StackSolver(parameters, widths)
        nominal = solver.current(vdd, 0.0)
        lowest, highest, has_reference = _identity_window(
            parameters, widths, vdd, nominal
        )
        shift = (lowest if edge == "lowest" else highest) + offset
        with obs.enabled_scope():
            result = solver.current(vdd, shift)
            solves = obs.counter_value("leakage.stack_solves")
            scaled = obs.counter_value("leakage.shift_scaled")
        assert solves + scaled == 1
        slack = self.EDGE_SLACK
        if has_reference and lowest + slack < shift < highest - slack:
            assert scaled == 1
            assert math.isclose(
                result, nominal * math.exp(-shift / n_phi), rel_tol=1e-12
            )
            direct = math.exp(solver._solve(vdd, shift))
            assert math.isclose(result, direct, rel_tol=1e-12)
        elif not has_reference or not (
            lowest - slack <= shift <= highest + slack
        ):
            assert solves == 1
        oracle = oracle_stack_current(parameters, widths, vdd, shift)
        assert math.isclose(result, oracle, rel_tol=ORACLE_RTOL), (
            result,
            oracle,
        )

    def test_one_solve_serves_every_in_window_shift(self):
        parameters = soi_low_vt().transistors.nmos
        solver = StackSolver(
            parameters, standard_cells()["NAND3"].nmos_path_widths_um
        )
        vdd = 0.7
        rng = random.Random(3)
        shifts = [rng.gauss(0.0, 0.04) for _ in range(40)]
        lowest = parameters.dibl * vdd - parameters.vt0
        assert min(shifts) > lowest
        with obs.enabled_scope():
            for shift in shifts:
                solver.current(vdd, shift)
            assert obs.counter_value("leakage.stack_solves") == 1
            assert obs.counter_value("leakage.shift_scaled") == 39
            # Below the lower edge a device may conduct: one direct
            # solve, and the reference is not solved again.
            solver.current(vdd, lowest - 0.01)
            assert obs.counter_value("leakage.stack_solves") == 2
            assert obs.counter_value("leakage.shift_scaled") == 39

    def test_below_window_first_shift_wastes_no_reference_solve(self):
        parameters = soi_low_vt().transistors.nmos
        solver = StackSolver(parameters, [2.0, 2.0])
        vdd = 0.5
        below = parameters.dibl * vdd - parameters.vt0 - 0.05
        with obs.enabled_scope():
            solver.current(vdd, below)
            assert obs.counter_value("leakage.stack_solves") == 1
            solver.current(vdd, 0.01)
            solver.current(vdd, -0.02)
            assert obs.counter_value("leakage.stack_solves") == 2
            assert obs.counter_value("leakage.shift_scaled") == 1

    def test_shift_zero_outside_window_solves_every_shift(self):
        # soi_low_vt(vt0=0.02) at 1.2 V: DIBL V_DD - V_T0 > 0, so shift 0
        # may be above threshold and no reference is kept.
        parameters = TECHNOLOGIES["soi-vt0.02"].transistors.nmos
        solver = StackSolver(parameters, [2.0, 2.0])
        vdd = 1.2
        assert parameters.dibl * vdd - parameters.vt0 > 0.0
        with obs.enabled_scope():
            for shift in (0.0, 0.03, 0.05, 0.0):
                solver.current(vdd, shift)
            assert obs.counter_value("leakage.stack_solves") == 4
            assert obs.counter_value("leakage.shift_scaled") == 0

    def test_result_independent_of_call_order(self):
        parameters = soi_low_vt().transistors.pmos
        widths = standard_cells()["NOR3"].pmos_path_widths_um
        corners = [(0.4, 0.02), (0.4, -0.3), (0.9, 0.0), (0.9, 0.05)]
        forward = StackSolver(parameters, widths)
        backward = StackSolver(parameters, widths)
        ahead = [forward.current(v, s) for v, s in corners]
        behind = [backward.current(v, s) for v, s in reversed(corners)]
        assert ahead == behind[::-1]


def _leakage_counters():
    counters = obs.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("leakage.")}


class TestBatchedCurrents:
    """``currents(vdd, shifts)`` is ``current(vdd, s)`` per shift."""

    @settings(deadline=None, max_examples=60)
    @given(
        technology=st.sampled_from(sorted(TECHNOLOGIES)),
        polarity=st.sampled_from(["nmos", "pmos"]),
        widths=st.lists(st.floats(0.5, 8.0), min_size=1, max_size=4),
        vdd=st.floats(0.05, 3.3),
        offsets=st.lists(
            st.tuples(
                st.sampled_from(["lowest", "off_clamp", "device_clamp"]),
                st.floats(-0.05, 0.05),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @example("soi", "nmos", [4.0, 4.0, 4.0], 0.6, [("lowest", 0.0)] * 3)
    @example("soi-vt0.02", "nmos", [2.0, 2.0], 1.2, [("lowest", 0.01)])
    def test_equal_to_current_per_shift_counters_included(
        self, technology, polarity, widths, vdd, offsets
    ):
        # Shifts straddle the window's lower edge, the off-current
        # clamp edge and the device-exponent clamp at the solution.
        parameters = _parameters(technology, polarity)
        n_phi = parameters.ideality * parameters.thermal_voltage
        lowest = parameters.dibl * vdd - parameters.vt0
        nominal = StackSolver(parameters, widths).current(vdd, 0.0)
        x_floor = max(math.log(parameters.i_spec * w) for w in widths) - 60.0
        edges = {
            "lowest": lowest,
            "off_clamp": lowest + 60.0 * n_phi,
            "device_clamp": n_phi * (math.log(nominal) - x_floor),
        }
        shifts = [edges[edge] + offset for edge, offset in offsets]
        batched_solver = StackSolver(parameters, widths)
        scalar_solver = StackSolver(parameters, widths)
        # Twice each, so the second pass meets a kept reference root.
        with obs.enabled_scope():
            batched = [
                batched_solver.currents(vdd, order)
                for order in (shifts, shifts[::-1])
            ]
            batched_counts = _leakage_counters()
        with obs.enabled_scope():
            scalar = [
                [scalar_solver.current(vdd, s) for s in order]
                for order in (shifts, shifts[::-1])
            ]
            scalar_counts = _leakage_counters()
        assert batched == scalar
        assert batched_counts == scalar_counts

    def test_rejects_a_bad_supply_for_any_depth(self):
        for widths in ([2.0], [2.0, 2.0]):
            solver = StackSolver(soi_low_vt().transistors.nmos, widths)
            with pytest.raises(DeviceModelError, match="vdd"):
                solver.currents(math.nan, [0.0])
            assert solver.currents(0.5, []) == []


class TestHistoryFree:
    """A leakage never depends on which corners were asked before it."""

    @settings(deadline=None, max_examples=30)
    @given(
        technology=st.sampled_from(sorted(TECHNOLOGIES)),
        name=st.sampled_from(["INV", "NAND2", "NAND3", "NOR3", "AOI21"]),
        vdd=st.floats(0.1, 1.5),
        shifts=st.lists(
            st.floats(-0.1, 0.1), min_size=1, max_size=8, unique=True
        ),
        nudges=st.lists(st.floats(-1e-6, 1e-6), min_size=1, max_size=8),
        order=st.randoms(use_true_random=False),
    )
    def test_order_and_near_duplicates_change_nothing(
        self, technology, name, vdd, shifts, nudges, order
    ):
        cell = standard_cells()[name]
        technology = TECHNOLOGIES[technology]
        # Each shift asked of a fresh characterizer, with no history.
        alone = [
            CellCharacterizer(technology).leakage_current(cell, vdd, s)
            for s in shifts
        ]
        # The same shifts shuffled, with shifts within 1e-6 V of them
        # mixed in (index None), through the scalar and the plan path.
        queries = list(enumerate(shifts))
        queries += [(None, s + d) for d, (_, s) in zip(nudges, queries)]
        order.shuffle(queries)
        asked = [s for _, s in queries]
        scalar = CellCharacterizer(technology)
        planned = CellCharacterizer(technology).corner_plan(cell)
        for values in (
            [scalar.leakage_current(cell, vdd, s) for s in asked],
            planned.leakages([vdd] * len(asked), asked),
        ):
            kept = {i: v for (i, _), v in zip(queries, values)}
            assert [kept[i] for i in range(len(shifts))] == alone


class TestEvaluationBudget:
    #: The nested bisection took ~13k (2-stack) and ~19k (3-stack).
    MAX_MEAN_EVALUATIONS = 250

    def test_standard_cell_stacks_solve_cheaply(self):
        technology = soi_low_vt()
        cells = standard_cells()
        rng = random.Random(0)
        stacks = [
            (technology.transistors.nmos, cells["NAND2"].nmos_path_widths_um),
            (technology.transistors.nmos, cells["NAND3"].nmos_path_widths_um),
            (technology.transistors.pmos, cells["NOR2"].pmos_path_widths_um),
            (technology.transistors.pmos, cells["NOR3"].pmos_path_widths_um),
        ]
        solves = 0
        with obs.enabled_scope():
            for parameters, widths in stacks:
                solver = StackSolver(parameters, widths)
                for _ in range(50):
                    sigma = rng.uniform(0.02, 0.05)
                    solver.current(rng.uniform(0.3, 1.0), rng.gauss(0.0, sigma))
                    solves += 1
            counted = obs.counter_value("leakage.stack_solves")
            evaluations = obs.counter_value("leakage.device_evals")
        assert counted == solves
        assert evaluations / solves <= self.MAX_MEAN_EVALUATIONS


class TestSupplyValidation:
    @pytest.mark.parametrize("vdd", [math.nan, math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("widths", [[2.0], [2.0, 2.0], [1.0, 1.0, 1.0]])
    def test_non_positive_or_non_finite_supply_rejected(self, vdd, widths):
        # A NaN span never narrows, so the bisection in ``_drop`` would
        # spin forever; the entry check must stop it first.
        solver = StackSolver(soi_low_vt().transistors.nmos, widths)
        with pytest.raises(DeviceModelError, match="vdd"):
            solver.current(vdd)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("widths", [[2.0], [1.0, 1.0], [1.0, 1.0, 1.0]])
    def test_non_finite_shift_rejected(self, shift, widths):
        # The inner Newton level of a stack solve never converged on a
        # NaN or infinite shift; a single device answered NaN or ~0.
        solver = StackSolver(soi_low_vt().transistors.nmos, widths)
        with pytest.raises(DeviceModelError, match="vt_shift"):
            solver.current(0.5, shift)
        with pytest.raises(DeviceModelError, match="vt_shift"):
            solver.currents(0.5, [0.0, shift, 0.01])


class TestCounters:
    def test_one_count_per_multi_device_solve(self):
        parameters = soi_low_vt().transistors.nmos
        with obs.enabled_scope():
            StackSolver(parameters, [2.0]).current(0.8)
            assert obs.counter_value("leakage.stack_solves") == 0
            StackSolver(parameters, [2.0, 2.0]).current(0.8)
            assert obs.counter_value("leakage.stack_solves") == 1
            assert obs.counter_value("leakage.device_evals") > 2


class TestSolverSharing:
    def test_plans_and_scalar_share_one_solver(self):
        characterizer = CellCharacterizer(soi_low_vt())
        cell = standard_cells()["NAND3"]
        solver = characterizer._nmos_stacks.solver(cell.nmos_path_widths_um)
        plan = characterizer.corner_plan(cell)
        assert plan._nmos_stack is solver
        shifts = [0.0123, 0.01230004, -0.02]
        scalar = [
            characterizer.leakage_current(cell, 0.7, vt_shift=s)
            for s in shifts
        ]
        assert plan.leakages([0.7] * len(shifts), shifts) == scalar
        assert [plan.leakages((0.7,), (s,))[0] for s in shifts] == scalar
        # The three paths found one reference root for the supply.
        assert list(solver._references) == [0.7]
