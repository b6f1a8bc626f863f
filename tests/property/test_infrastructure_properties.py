"""Property-based tests for the event queue, stimulus and library I/O."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.switchsim.event_oracle import EventQueue
from repro.switchsim.stimulus import (
    gray_code_bus_vectors,
    random_bus_vectors,
    vectors_from_values,
)
from repro.tech.library import CellLibrary
from repro.device.technology import soi_low_vt


class TestEventQueueProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.sampled_from("abcde"),
                      st.integers(0, 1)),
            min_size=1,
            max_size=40,
        )
    )
    def test_pops_in_nondecreasing_time(self, schedule):
        queue = EventQueue()
        for time_fs, net, value in schedule:
            queue.schedule(time_fs, net, value)
        previous = -1
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            assert event.time_fs >= previous
            previous = event.time_fs
            popped.append(event.net)
        # Superseding: at most one live event per net.
        assert len(popped) == len(set(popped))
        # And the survivor per net is the latest scheduled one.
        latest = {net: value for _, net, value in schedule}
        assert set(popped) == set(latest)

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 1)),
            min_size=1,
            max_size=20,
        )
    )
    def test_pending_value_is_last_write(self, writes):
        queue = EventQueue()
        for time_fs, value in writes:
            queue.schedule(time_fs, "x", value)
        assert queue.pending_value("x") == writes[-1][1]


class TestStimulusProperties:
    @given(st.integers(1, 16), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_random_vectors_drive_every_bit(self, width, count, seed):
        vectors = random_bus_vectors({"a": width}, count, seed=seed)
        assert len(vectors) == count
        for vector in vectors:
            assert set(vector) == {f"a[{i}]" for i in range(width)}
            assert set(vector.values()) <= {0, 1}

    @given(st.integers(2, 10), st.integers(2, 100))
    def test_gray_code_single_bit_flip_always(self, width, count):
        vectors = gray_code_bus_vectors("a", width, count)
        for previous, current in zip(vectors, vectors[1:]):
            flips = sum(previous[k] != current[k] for k in previous)
            assert flips == 1

    @given(
        st.integers(1, 12),
        st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=20),
    )
    def test_vectors_from_values_round_trip(self, width, values):
        values = [v % (2**width) for v in values]
        vectors = vectors_from_values(
            {"a": width}, [{"a": v} for v in values]
        )
        unpacked = [
            sum(vector[f"a[{i}]"] << i for i in range(width))
            for vector in vectors
        ]
        assert unpacked == values


class TestLibraryRoundTrip:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1000))
    def test_json_round_trip_preserves_every_corner(self, seed):
        rng = random.Random(seed)
        vdds = sorted(rng.uniform(0.4, 2.0) for _ in range(3))
        shifts = sorted(rng.uniform(-0.1, 0.25) for _ in range(2))
        library = CellLibrary.characterized(
            soi_low_vt(), vdd_grid=vdds, vt_shift_grid=shifts
        )
        loaded = CellLibrary.from_json(library.to_json())
        for cell_name in ("INV", "NAND2", "XOR2"):
            for vdd in vdds:
                for shift in shifts:
                    original = library.lookup(cell_name, vdd, shift)
                    recovered = loaded.lookup(cell_name, vdd, shift)
                    assert recovered.delay_s == original.delay_s
                    assert (
                        recovered.leakage_current_a
                        == original.leakage_current_a
                    )
