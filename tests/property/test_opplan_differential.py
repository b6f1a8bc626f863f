"""Differential tests: batched operating-plan engine vs the per-point path.

Random (cell, load, V_DD-vector, V_T-shift) corners are evaluated
through both the decoded :class:`OperatingPlan` and the per-point
``propagation_delay``/``fanout_delay``/``leakage_current``/
``energy_per_transition`` chain; the results must be bit-identical —
not approximately equal.  The leakage values are also checked against
the nested-bisection oracle (``tests/device/stack_oracle.py``) at its
declared relative tolerance.  Mirrors
``tests/property/test_variation_differential.py``, which covers the
V_T-variation axis of the same decode/run split.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.technology import bulk_cmos_06um, soi_low_vt
from repro.tech.characterize import CellCharacterizer
from repro.tech.cells import standard_cells
from tests.device.stack_oracle import ORACLE_RTOL, oracle_cell_leakage

_CELLS = standard_cells()

technologies = st.sampled_from([soi_low_vt, bulk_cmos_06um])
cell_names = st.sampled_from(["INV", "NAND2", "NOR2", "NAND3", "AOI21"])
vdd_vectors = st.lists(
    st.floats(0.3, 2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
)
loads = st.floats(0.0, 50e-15, allow_nan=False, allow_infinity=False)
shifts = st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False)
fanouts = st.integers(1, 4)


class TestPlanMatchesPerPointPath:
    @settings(deadline=None, max_examples=20)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        load_f=loads,
        shift=shifts,
    )
    def test_fixed_load_delays_bit_identical(
        self, make_technology, name, vdds, load_f, shift
    ):
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).plan_operating(
            cell, load_f=load_f
        )
        reference = CellCharacterizer(make_technology())
        expected = [
            reference.propagation_delay(cell, vdd, load_f, vt_shift=shift)
            for vdd in vdds
        ]
        assert plan.delays(vdds, shift) == expected

    @settings(deadline=None, max_examples=20)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        fanout=fanouts,
        shift=shifts,
    )
    def test_fanout_delays_bit_identical(
        self, make_technology, name, vdds, fanout, shift
    ):
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).plan_operating(
            cell, fanout=fanout
        )
        reference = CellCharacterizer(make_technology())
        expected = [
            reference.fanout_delay(cell, vdd, fanout=fanout, vt_shift=shift)
            for vdd in vdds
        ]
        assert plan.delays(vdds, shift) == expected

    @settings(deadline=None, max_examples=15)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        shift=shifts,
    )
    def test_leakages_bit_identical(
        self, make_technology, name, vdds, shift
    ):
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).plan_operating(cell)
        reference = CellCharacterizer(make_technology())
        expected = [
            reference.leakage_current(cell, vdd, vt_shift=shift)
            for vdd in vdds
        ]
        assert plan.leakages(vdds, shift) == expected
        # Leakage is history-free: every point is its own corner's.
        for vdd, value in zip(vdds, expected):
            oracle = oracle_cell_leakage(reference.technology, cell, vdd, shift)
            assert math.isclose(value, oracle, rel_tol=ORACLE_RTOL)

    @settings(deadline=None, max_examples=15)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        fanout=fanouts,
        shift=shifts,
    )
    def test_energies_bit_identical(
        self, make_technology, name, vdds, fanout, shift
    ):
        # The (E_transition, I_leak) pairs must match the per-point
        # chain the ring oscillator's energy_per_cycle walks: switching
        # energy at a load of `fanout` input capacitances, plus the
        # state-averaged leakage current.
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).plan_operating(
            cell, fanout=fanout
        )
        reference = CellCharacterizer(make_technology())
        expected = []
        for vdd in vdds:
            load = fanout * cell.input_capacitance(
                reference.technology, vdd
            )
            expected.append(
                (
                    reference.energy_per_transition(cell, vdd, load),
                    reference.leakage_current(cell, vdd, vt_shift=shift),
                )
            )
        assert plan.energies(vdds, shift) == expected

    @settings(deadline=None, max_examples=15)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        fanout=fanouts,
        shift=shifts,
    )
    def test_operating_points_fuse_delays_and_energies(
        self, make_technology, name, vdds, fanout, shift
    ):
        # The fused kernel shares one load evaluation per point between
        # the delay numerator and the C*V^2 transition energy; both
        # halves must still be bit-identical to the split kernels.
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).plan_operating(
            cell, fanout=fanout
        )
        expected = list(
            zip(
                plan.delays(vdds, shift),
                *zip(*plan.energies(vdds, shift)),
            )
        )
        assert plan.operating_points(vdds, shift) == expected

    @settings(deadline=None, max_examples=15)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        fanout=fanouts,
        shift=shifts,
    )
    def test_operating_points_budget_gates_energy_work(
        self, make_technology, name, vdds, fanout, shift
    ):
        # With a delay budget, points over budget report (delay, None,
        # None) and the rest are unchanged.  Use the median delay as
        # the budget so both branches are usually exercised.
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).plan_operating(
            cell, fanout=fanout
        )
        delays = plan.delays(vdds, shift)
        budget = sorted(delays)[len(delays) // 2]
        full = plan.operating_points(vdds, shift)
        gated = plan.operating_points(vdds, shift, max_delay_s=budget)
        assert len(gated) == len(full)
        for (delay, transition, leak), reference in zip(gated, full):
            assert delay == reference[0]
            if delay > budget:
                assert transition is None and leak is None
            else:
                assert (delay, transition, leak) == reference

    @settings(deadline=None, max_examples=10)
    @given(name=cell_names, vdds=vdd_vectors, shift=shifts)
    def test_shared_characterizer_interleaving(self, name, vdds, shift):
        # Plan and per-point calls share one characterizer's stack
        # memos; alternating between them must still equal a pure
        # per-point run on a fresh characterizer.
        cell = _CELLS[name]
        shared = CellCharacterizer(soi_low_vt())
        reference = CellCharacterizer(soi_low_vt())
        expected = [
            reference.leakage_current(cell, vdd, vt_shift=shift)
            for vdd in vdds
        ]
        plan = shared.plan_operating(cell)
        mixed = []
        for index, vdd in enumerate(vdds):
            if index % 2:
                mixed.append(
                    shared.leakage_current(cell, vdd, vt_shift=shift)
                )
            else:
                mixed.extend(plan.leakages([vdd], shift))
        assert mixed == expected

    @settings(deadline=None, max_examples=10)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        fanout=fanouts,
        shift=shifts,
    )
    def test_uncached_plan_matches_cached(
        self, make_technology, name, vdds, fanout, shift
    ):
        cell = _CELLS[name]
        cached = CellCharacterizer(make_technology()).plan_operating(
            cell, fanout=fanout
        )
        uncached = CellCharacterizer(
            make_technology(), cache=False
        ).plan_operating(cell, fanout=fanout)
        assert uncached.delays(vdds, shift) == cached.delays(vdds, shift)
        assert uncached.leakages(vdds, shift) == cached.leakages(
            vdds, shift
        )

    @settings(deadline=None, max_examples=10)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdds=vdd_vectors,
        fanout=fanouts,
        shift=shifts,
    )
    def test_planned_fanout_delay_matches_fanout_delay(
        self, make_technology, name, vdds, fanout, shift
    ):
        cell = _CELLS[name]
        planned = CellCharacterizer(make_technology())
        reference = CellCharacterizer(make_technology())
        for vdd in vdds:
            assert planned.planned_fanout_delay(
                cell, vdd, fanout=fanout, vt_shift=shift
            ) == reference.fanout_delay(
                cell, vdd, fanout=fanout, vt_shift=shift
            )
