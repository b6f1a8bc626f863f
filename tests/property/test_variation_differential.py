"""Differential tests: batched variation engine vs the per-sample path.

Random (cell, V_DD, load, shift-vector) corners are evaluated through
both the decoded :class:`VariationPlan` and the per-sample
``propagation_delay``/``leakage_current`` chain; the results must be
bit-identical — not approximately equal.  Both paths share one stack
solve, so the leakage samples are also checked against the
nested-bisection oracle (``tests/device/stack_oracle.py``) at its
declared relative tolerance.
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
        plan = CellCharacterizer(make_technology()).plan_variation(
            cell, vdd, load_f
        )
        reference = CellCharacterizer(make_technology())
        expected = [
            reference.propagation_delay(cell, vdd, load_f, vt_shift=s)
            for s in shifts
        ]
        assert plan.delays(shifts) == expected

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
        plan = CellCharacterizer(make_technology()).plan_variation(
            cell, vdd
        )
        reference = CellCharacterizer(make_technology())
        expected = [
            reference.leakage_current(cell, vdd, vt_shift=s)
            for s in shifts
        ]
        assert plan.leakages(shifts) == expected
        # Leakage is history-free: every sample is its own corner's.
        for shift, value in zip(shifts, expected):
            oracle = oracle_cell_leakage(reference.technology, cell, vdd, shift)
            assert math.isclose(value, oracle, rel_tol=ORACLE_RTOL)

    @settings(deadline=None, max_examples=10)
    @given(name=cell_names, vdd=vdds, shifts=shift_vectors)
    def test_shared_characterizer_interleaving(self, name, vdd, shifts):
        # Plan and per-sample calls share one characterizer's memos;
        # alternating between them must still equal a pure per-sample
        # run on a fresh characterizer.
        cell = _CELLS[name]
        shared = CellCharacterizer(soi_low_vt())
        reference = CellCharacterizer(soi_low_vt())
        expected = [
            reference.leakage_current(cell, vdd, vt_shift=s)
            for s in shifts
        ]
        plan = shared.plan_variation(cell, vdd)
        mixed = []
        for index, shift in enumerate(shifts):
            if index % 2:
                mixed.append(
                    shared.leakage_current(cell, vdd, vt_shift=shift)
                )
            else:
                mixed.extend(plan.leakages([shift]))
        assert mixed == expected

