"""Canonical-hashing tests: the JSON rendering run manifests digest."""

import pytest

from repro.device.serialize import technology_to_dict
from repro.device.technology import soi_low_vt, soias_technology
from repro.errors import StoreError
from repro.power.energy import ModuleEnergyParameters
from repro.store.hashing import canonical_json, digest
from repro.tech.cells import standard_cells

#: The canonical digest of the default SOIAS technology's serialized
#: form.  A manifest's inputs digest is only comparable across runs
#: while equal values keep hashing equal, so drift of the hashing rule
#: or the serialization schema must fail here, loudly, not silently
#: split ``repro runs diff`` into "changed" results.
PINNED_SOIAS_DIGEST = (
    "2c2119f5970fe4103b52808fc98b3512dec462c27c2586c34a35c677db1c23b6"
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_tuples_and_lists_are_identical(self):
        assert canonical_json((1, 2, (3, 4))) == canonical_json(
            [1, 2, [3, 4]]
        )

    def test_no_whitespace_and_sorted(self):
        assert canonical_json({"b": [1.5], "a": None}) == (
            '{"a":null,"b":[1.5]}'
        )

    def test_float_shortest_repr_round_trips(self):
        # 0.1 + 0.2 != 0.3; the canonical text must preserve the
        # distinction bit-for-bit.
        assert canonical_json(0.1 + 0.2) != canonical_json(0.3)
        assert canonical_json(0.30000000000000004) == canonical_json(
            0.1 + 0.2
        )

    def test_non_string_keys_rejected(self):
        with pytest.raises(StoreError, match="keys must be strings"):
            canonical_json({1: "x"})

    def test_unsupported_types_rejected(self):
        with pytest.raises(StoreError, match="not canonically hashable"):
            canonical_json({"x": {1, 2}})

    def test_dataclasses_hash_by_value(self):
        cell = standard_cells()["INV"]
        assert canonical_json(cell) == canonical_json(
            standard_cells()["INV"]
        )


class TestDigests:
    def test_digest_is_sha256_hex(self):
        value = digest({"a": 1})
        assert len(value) == 64
        assert int(value, 16) >= 0

    def test_soias_technology_digest_is_pinned(self):
        assert (
            digest(technology_to_dict(soias_technology()))
            == PINNED_SOIAS_DIGEST
        )

    def test_distinct_technologies_have_distinct_digests(self):
        assert digest(technology_to_dict(soi_low_vt())) != digest(
            technology_to_dict(soias_technology())
        )

    def test_cell_digests_distinguish_cells(self):
        cells = standard_cells()
        assert digest(cells["INV"]) != digest(cells["NAND2"])
        assert digest(cells["INV"]) == digest(cells["INV"])

    def test_module_digest_covers_fields(self):
        module = ModuleEnergyParameters(
            name="adder",
            switched_capacitance_f=1e-12,
            leakage_low_vt_a=1e-9,
            leakage_high_vt_a=1e-12,
            back_gate_capacitance_f=1e-13,
            back_gate_swing_v=3.0,
        )
        changed = ModuleEnergyParameters(
            name="adder",
            switched_capacitance_f=2e-12,
            leakage_low_vt_a=1e-9,
            leakage_high_vt_a=1e-12,
            back_gate_capacitance_f=1e-13,
            back_gate_swing_v=3.0,
        )
        assert digest(module) != digest(changed)
        assert digest(module) == digest(module)
