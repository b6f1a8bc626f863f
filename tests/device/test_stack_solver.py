"""The Newton stack-leakage kernel against the nested-bisection oracle.

:class:`~repro.device.leakage.StackSolver` must agree with the oracle in
``tests/device/stack_oracle.py`` to ``ORACLE_RTOL`` over the whole
corner space the toolkit uses (strong inversion included), and must do
so in a small number of device evaluations: a regression to
bisection-like cost fails :class:`TestEvaluationBudget`.
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.device.leakage import StackLeakageModel, StackSolver
from repro.device.mosfet import Mosfet, MosfetParameters
from repro.device.technology import bulk_cmos_06um, soi_low_vt, soias_technology
from repro.tech.cells import standard_cells
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


class TestCounters:
    def test_one_count_per_multi_device_solve(self):
        parameters = soi_low_vt().transistors.nmos
        with obs.enabled_scope():
            StackSolver(parameters, [2.0]).current(0.8)
            assert obs.counter_value("leakage.stack_solves") == 0
            StackSolver(parameters, [2.0, 2.0]).current(0.8)
            assert obs.counter_value("leakage.stack_solves") == 1
            assert obs.counter_value("leakage.device_evals") > 2


class TestMemoSharing:
    def test_lookup_and_current_share_entries(self):
        parameters = soi_low_vt().transistors.nmos
        model = StackLeakageModel(parameters)
        solver = StackSolver(parameters, [4.0, 4.0])
        shift = 0.0123
        planned = model.lookup(solver, 0.7, shift, round(shift, 6))
        assert model.current([4.0, 4.0], 0.7, shift) == planned
        assert len(model._cache) == 1
