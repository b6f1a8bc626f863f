"""Differential tests: the corner plan along the shift axis vs the chain.

Random (cell, V_DD, load, shift-vector) corners are evaluated as one
fixed-V_DD sweep of the decoded :class:`~repro.tech.opplan.CornerPlan`
(the Monte-Carlo path), as one-element calls, and through the scalar
device chain kept as the test-only oracle
(``tests/tech/chain_oracle.py``); the results must be bit-identical —
not approximately equal.  The leakage samples are also checked against
the nested-bisection oracle (``tests/device/stack_oracle.py``) at its
declared relative tolerance.
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
vdds = st.floats(0.3, 2.0, allow_nan=False, allow_infinity=False)
loads = st.floats(0.0, 50e-15, allow_nan=False, allow_infinity=False)
shift_vectors = st.lists(
    st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
)


class TestPlanMatchesPerSamplePath:
    @settings(deadline=None, max_examples=20)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdd=vdds,
        load_f=loads,
        shifts=shift_vectors,
    )
    def test_delays_bit_identical(
        self, make_technology, name, vdd, load_f, shifts
    ):
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).corner_plan(cell)
        oracle = ChainOracle(make_technology())
        expected = [
            oracle.propagation_delay(cell, vdd, load_f, vt_shift=s)
            for s in shifts
        ]
        count = len(shifts)
        assert plan.delays(
            (vdd,) * count,
            shifts,
            supplies=plan.supplies((vdd,), load_f) * count,
        ) == expected
        assert [plan.delay(vdd, s, load_f) for s in shifts] == expected

    @settings(deadline=None, max_examples=15)
    @given(
        make_technology=technologies,
        name=cell_names,
        vdd=vdds,
        shifts=shift_vectors,
    )
    def test_leakages_bit_identical(
        self, make_technology, name, vdd, shifts
    ):
        cell = _CELLS[name]
        plan = CellCharacterizer(make_technology()).corner_plan(cell)
        oracle = ChainOracle(make_technology())
        expected = [
            oracle.leakage_current(cell, vdd, vt_shift=s) for s in shifts
        ]
        assert plan.leakages((vdd,) * len(shifts), shifts) == expected
        assert [plan.leakages((vdd,), (s,))[0] for s in shifts] == expected
        # Leakage is history-free: every sample is its own corner's.
        for shift, value in zip(shifts, expected):
            reference = oracle_cell_leakage(
                oracle.technology, cell, vdd, shift
            )
            assert math.isclose(value, reference, rel_tol=ORACLE_RTOL)

    @settings(deadline=None, max_examples=10)
    @given(name=cell_names, vdd=vdds, shifts=shift_vectors)
    def test_shared_characterizer_interleaving(self, name, vdd, shifts):
        # Plan and per-sample calls share one characterizer's stack
        # solvers; alternating between them must still equal the
        # history-free oracle.
        cell = _CELLS[name]
        shared = CellCharacterizer(soi_low_vt())
        oracle = ChainOracle(soi_low_vt())
        expected = [
            oracle.leakage_current(cell, vdd, vt_shift=s) for s in shifts
        ]
        plan = shared.corner_plan(cell)
        mixed = []
        for index, shift in enumerate(shifts):
            if index % 2:
                mixed.append(
                    shared.leakage_current(cell, vdd, vt_shift=shift)
                )
            else:
                mixed.extend(plan.leakages([vdd], [shift]))
        assert mixed == expected
