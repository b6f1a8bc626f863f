"""Differential tests: the corner plan along the supply axis vs the chain.

Random (cell, load, V_DD-vector, V_T-shift) corners are evaluated
through the decoded :class:`~repro.tech.opplan.CornerPlan` — batched,
as one-element calls and through the characterizer's scalar entry
points — and through the scalar device chain kept as the test-only
oracle (``tests/tech/chain_oracle.py``); the results must be
bit-identical, not approximately equal.  The leakage values are also
checked against the nested-bisection oracle
(``tests/device/stack_oracle.py``) at its declared relative tolerance.
``tests/property/test_variation_differential.py`` covers the shift
axis of the same kernels.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.technology import bulk_cmos_06um, soi_low_vt
from repro.tech.characterize import CellCharacterizer
from repro.tech.cells import standard_cells
from tests.device.stack_oracle import ORACLE_RTOL, oracle_cell_leakage
from tests.tech.chain_oracle import ChainOracle

_CELLS = standard_cells()

technologies = st.sampled_from([soi_low_vt, bulk_cmos_06um])
cell_names = st.sampled_from(["INV", "NAND2", "NOR2", "NAND3", "AOI21"])
vdd_values = st.floats(0.3, 2.0, allow_nan=False, allow_infinity=False)
vdd_vectors = st.lists(vdd_values, min_size=1, max_size=5)
loads = st.floats(0.0, 50e-15, allow_nan=False, allow_infinity=False)
shift_values = st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False)
shifts = shift_values
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
        characterizer = CellCharacterizer(make_technology())
        plan = characterizer.corner_plan(cell)
        oracle = ChainOracle(make_technology())
        expected = [
            oracle.propagation_delay(cell, vdd, load_f, vt_shift=shift)
            for vdd in vdds
        ]
        assert plan.delays(vdds, [shift] * len(vdds), load_f) == expected
        assert [plan.delay(vdd, shift, load_f) for vdd in vdds] == expected
        assert [
            characterizer.propagation_delay(cell, vdd, load_f, shift)
            for vdd in vdds
        ] == expected

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
        plan = CellCharacterizer(make_technology()).corner_plan(cell)
        oracle = ChainOracle(make_technology())
        expected = [
            oracle.fanout_delay(cell, vdd, fanout=fanout, vt_shift=shift)
            for vdd in vdds
        ]
        assert (
            plan.delays(vdds, [shift] * len(vdds), fanout=fanout) == expected
        )
        assert [
            plan.delay(vdd, shift, fanout=fanout) for vdd in vdds
        ] == expected

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
        characterizer = CellCharacterizer(make_technology())
        plan = characterizer.corner_plan(cell)
        oracle = ChainOracle(make_technology())
        expected = [
            oracle.leakage_current(cell, vdd, vt_shift=shift) for vdd in vdds
        ]
        assert plan.leakages(vdds, [shift] * len(vdds)) == expected
        assert [
            plan.leakages((vdd,), (shift,))[0] for vdd in vdds
        ] == expected
        assert [
            characterizer.leakage_current(cell, vdd, vt_shift=shift)
            for vdd in vdds
        ] == expected
        # Leakage is history-free: every point is its own corner's.
        for vdd, value in zip(vdds, expected):
            reference = oracle_cell_leakage(
                oracle.technology, cell, vdd, shift
            )
            assert math.isclose(value, reference, rel_tol=ORACLE_RTOL)

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
        # The operating points' (E_transition, I_leak) pairs must match
        # the scalar chain: switching energy at a load of `fanout` input
        # capacitances, plus the state-averaged leakage current.
        cell = _CELLS[name]
        characterizer = CellCharacterizer(make_technology())
        plan = characterizer.corner_plan(cell)
        oracle = ChainOracle(make_technology())
        expected = []
        for vdd in vdds:
            load = fanout * cell.input_capacitance(oracle.technology, vdd)
            expected.append(
                (
                    oracle.energy_per_transition(cell, vdd, load),
                    oracle.leakage_current(cell, vdd, vt_shift=shift),
                )
            )
        assert [
            (energy, leak)
            for _, energy, leak in plan.operating_points(
                vdds, [shift] * len(vdds), fanout=fanout
            )
        ] == expected
        assert [
            characterizer.energy_per_transition(
                cell, vdd, fanout * cell.input_capacitance(
                    oracle.technology, vdd
                )
            )
            for vdd in vdds
        ] == [energy for energy, _ in expected]

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
        # the delay numerator and the C*V^2 transition energy; its delay
        # half must still be bit-identical to the delay kernel (the
        # energy half is pinned to the scalar chain above).
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).corner_plan(cell)
        corners = [shift] * len(vdds)
        assert [
            delay
            for delay, _, _ in plan.operating_points(
                vdds, corners, fanout=fanout
            )
        ] == plan.delays(vdds, corners, fanout=fanout)

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
        plan = CellCharacterizer(make_technology()).corner_plan(cell)
        corners = [shift] * len(vdds)
        delays = plan.delays(vdds, corners, fanout=fanout)
        budget = sorted(delays)[len(delays) // 2]
        full = plan.operating_points(vdds, corners, fanout=fanout)
        gated = plan.operating_points(
            vdds, corners, fanout=fanout, max_delay_s=budget
        )
        assert len(gated) == len(full)
        for (delay, transition, leak), reference in zip(gated, full):
            assert delay == reference[0]
            if delay > budget:
                assert transition is None and leak is None
            else:
                assert (delay, transition, leak) == reference

    @settings(deadline=None, max_examples=15)
    @given(
        make_technology=technologies,
        name=cell_names,
        corners=st.lists(
            st.tuples(vdd_values, shift_values), min_size=1, max_size=6
        ),
        load_f=loads,
        fanout=st.one_of(st.none(), fanouts),
    )
    def test_mixed_corners_bit_identical(
        self, make_technology, name, corners, load_f, fanout
    ):
        # Both axes at once: every position is its own (V_DD, shift).
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).corner_plan(cell)
        oracle = ChainOracle(make_technology())
        vdds = [vdd for vdd, _ in corners]
        corner_shifts = [shift for _, shift in corners]
        if fanout is None:
            expected = [
                oracle.propagation_delay(cell, vdd, load_f, shift)
                for vdd, shift in corners
            ]
        else:
            expected = [
                oracle.fanout_delay(cell, vdd, fanout, shift)
                for vdd, shift in corners
            ]
        assert plan.delays(vdds, corner_shifts, load_f, fanout) == expected
        assert plan.leakages(vdds, corner_shifts) == [
            oracle.leakage_current(cell, vdd, shift)
            for vdd, shift in corners
        ]

    @settings(deadline=None, max_examples=10)
    @given(name=cell_names, vdds=vdd_vectors, shift=shifts)
    def test_shared_characterizer_interleaving(self, name, vdds, shift):
        # Plan and per-point calls share one characterizer's stack
        # solvers; alternating between them must still equal the
        # history-free oracle.
        cell = _CELLS[name]
        shared = CellCharacterizer(soi_low_vt())
        oracle = ChainOracle(soi_low_vt())
        expected = [
            oracle.leakage_current(cell, vdd, vt_shift=shift) for vdd in vdds
        ]
        plan = shared.corner_plan(cell)
        mixed = []
        for index, vdd in enumerate(vdds):
            if index % 2:
                mixed.append(
                    shared.leakage_current(cell, vdd, vt_shift=shift)
                )
            else:
                mixed.extend(plan.leakages([vdd], [shift]))
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
        # A plan whose characterizer has answered other corners first
        # matches a fresh characterizer per query.
        cell = _CELLS[name]
        used = CellCharacterizer(make_technology())
        for vdd in vdds:
            used.leakage_current(cell, vdd + 0.05, vt_shift=-shift)
            used.fanout_delay(cell, vdd, fanout=fanout)
        plan = used.corner_plan(cell)
        corners = [shift] * len(vdds)
        assert plan.delays(vdds, corners, fanout=fanout) == [
            CellCharacterizer(make_technology())
            .corner_plan(cell)
            .delay(vdd, shift, fanout=fanout)
            for vdd in vdds
        ]
        assert plan.leakages(vdds, corners) == [
            CellCharacterizer(make_technology()).leakage_current(
                cell, vdd, vt_shift=shift
            )
            for vdd in vdds
        ]

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
        # The scalar fanout_delay (a one-element plan call) against the
        # oracle, asked twice: the repeat answers exactly as the first.
        cell = _CELLS[name]
        characterizer = CellCharacterizer(make_technology())
        oracle = ChainOracle(make_technology())
        for _ in range(2):
            for vdd in vdds:
                assert characterizer.fanout_delay(
                    cell, vdd, fanout=fanout, vt_shift=shift
                ) == oracle.fanout_delay(
                    cell, vdd, fanout=fanout, vt_shift=shift
                )
