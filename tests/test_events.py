import dataclasses

import numpy as np
import pytest

from evtbr import events
from evtbr.encoder import EncodedFrame
from evtbr.events import (
    MAX_PIXELS,
    BinarySliceStack,
    Event,
    EventStream,
    SensorGeometry,
    SlicingConfig,
    _check_event_budget,
    merge_sorted_by_time,
    slice_stream,
    sorted_unique,
    validate_stream,
)
from helpers import random_stream

G44 = SensorGeometry(4, 4)
DT = SlicingConfig(slice_duration=2500, bits_per_frame=8)


class TestSortedUnique:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
    def test_matches_np_unique(self, n):
        a = np.random.default_rng(n).integers(0, 20, n)
        got = sorted_unique(a)
        assert got.dtype == a.dtype
        assert np.array_equal(got, np.unique(a))


class TestEventBudget:
    @pytest.mark.parametrize("spare", [0, -1])
    def test_limit_counts_17_bytes_an_event(self, monkeypatch, spare):
        monkeypatch.setattr(events, "MAX_FRAME_BYTES", 17 * 10 + spare)
        if spare == 0:
            _check_event_budget(10, "ten")
        else:
            message = "ten 10 events, over the limit of 169 bytes at 17 bytes an event"
            with pytest.raises(ValueError, match=f"^{message}$"):
                _check_event_budget(10, "ten")


class TestGeometry:
    def test_shape_is_numpy_order(self):
        g = SensorGeometry(128, 96)
        assert g.shape == (96, 128)
        assert g.pixel_count == 128 * 96

    @pytest.mark.parametrize("w,h", [(0, 4), (4, 0), (-1, 4), (0, 0)])
    def test_rejects_degenerate(self, w, h):
        with pytest.raises(ValueError):
            SensorGeometry(w, h)

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 5), (5, 1)])
    def test_one_pixel_wide_or_high_accepted(self, w, h):
        assert SensorGeometry(w, h).shape == (h, w)

    def test_largest_accepted_sensor(self):
        assert MAX_PIXELS == 1 << 24
        assert SensorGeometry(4096, 4096).pixel_count == MAX_PIXELS
        assert SensorGeometry(MAX_PIXELS, 1).pixel_count == MAX_PIXELS

    @pytest.mark.parametrize("w,h", [(4097, 4096), (4096, 4097), (MAX_PIXELS + 1, 1), (65535, 65535)])
    def test_rejects_more_than_max_pixels(self, w, h):
        with pytest.raises(ValueError, match=f"geometry {w}x{h} exceeds {MAX_PIXELS} pixels"):
            SensorGeometry(w, h)


class TestEventStream:
    def test_from_events_preserves_order(self):
        s = EventStream.from_events(G44, [Event(100, 1, 2, 1), Event(50, 3, 0, -1)])
        assert len(s) == 2
        assert list(s.t) == [100, 50]
        assert list(s.x) == [1, 3]
        assert list(s.y) == [2, 0]
        assert list(s.p) == [1, -1]

    def test_first_last(self):
        s = EventStream.from_events(G44, [(10, 0, 0, 1), (90, 1, 1, -1)])
        assert s.last_t == 90
        assert EventStream.empty(G44).last_t is None

    def test_iter_yields_events(self):
        s = EventStream.from_events(G44, [(7, 1, 2, -1)])
        assert list(s) == [Event(x=1, y=2, t=7, p=-1)]

    def test_unequal_to_other_types(self):
        s = EventStream.from_events(G44, [(7, 1, 2, -1)])
        assert s != list(s)
        assert s != None  # noqa: E711

    def test_equality(self):
        a = EventStream.from_events(G44, [(1, 0, 0, 1)])
        b = EventStream.from_events(G44, [(1, 0, 0, 1)])
        c = EventStream.from_events(G44, [(2, 0, 0, 1)])
        assert a == b and a != c
        assert a != EventStream.from_events(SensorGeometry(5, 5), [(1, 0, 0, 1)])

    def test_event_field_order_is_t_x_y_p(self):
        assert Event._fields == ("t", "x", "y", "p")
        s = EventStream.from_events(G44, [(7, 1, 2, -1)])
        assert list(s) == [(7, 1, 2, -1)]

    @pytest.mark.parametrize("column", range(4))
    def test_rejects_unequal_column_lengths(self, column):
        columns = [np.zeros(3, dtype=np.int64) for _ in range(4)]
        columns[column] = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="length"):
            EventStream(G44, *columns)

    def test_columns_are_cast_and_contiguous(self):
        wide = np.array([[5, 0], [1, 0], [2, 0]], dtype=np.int64)[:, 0]
        s = EventStream(G44, wide, [1, 2, 3], np.array([0, 1, 2], dtype=np.uint16), [1.0, -1.0, 1.0])
        assert (s.t.dtype, s.x.dtype, s.y.dtype, s.p.dtype) == (np.int64, np.int32, np.int32, np.int8)
        assert all(c.flags.c_contiguous for c in (s.t, s.x, s.y, s.p))
        assert s.t.tolist() == [5, 1, 2] and s.p.tolist() == [1, -1, 1]

    def test_empty_has_column_dtypes(self):
        s = EventStream.empty(G44)
        assert len(s) == 0
        assert (s.t.dtype, s.x.dtype, s.y.dtype, s.p.dtype) == (np.int64, np.int32, np.int32, np.int8)

    def test_slice_shares_memory(self):
        s = random_stream(G44, 50, 10_000, seed=1)
        part = s[10:20]
        assert len(part) == 10 and part.geometry == G44
        for name in "txyp":
            assert np.shares_memory(getattr(part, name), getattr(s, name))
        assert part == EventStream.from_events(G44, list(s)[10:20])

    def test_mask_selects_in_order(self):
        s = EventStream.from_events(G44, [(1, 0, 0, 1), (2, 1, 0, -1), (3, 2, 0, 1)])
        assert list(s[s.p > 0]) == [(1, 0, 0, 1), (3, 2, 0, 1)]


class TestValidateStream:
    def test_clean(self):
        s = EventStream.from_events(G44, [(0, 0, 0, 1), (5, 3, 3, -1), (5, 1, 2, 1)])
        report = validate_stream(s)
        assert report.violation_count == 0
        assert report.is_clean

    def test_out_of_bounds_x_equal_width(self):
        s = EventStream.from_events(G44, [(5, 4, 0, 1)])
        assert validate_stream(s).out_of_bounds == 1

    def test_out_of_order(self):
        s = EventStream.from_events(G44, [(10, 0, 0, 1), (5, 0, 0, 1)])
        assert validate_stream(s).out_of_order == 1

    def test_bad_polarity(self):
        s = EventStream.from_events(G44, [(1, 0, 0, 2)])
        assert validate_stream(s).bad_polarity == 1

    def test_empty_is_clean(self):
        assert validate_stream(EventStream.empty(G44)).is_clean

    def test_out_of_bounds_y_equal_height(self):
        s = EventStream.from_events(G44, [(5, 0, 4, 1), (6, 0, 3, 1)])
        assert validate_stream(s).out_of_bounds == 1

    def test_timestamps_from_0_to_int64_max_are_in_range(self):
        top = int(np.iinfo(np.int64).max)
        t = np.array([-1, 0, top, top + 1], dtype=object)
        zeros = np.zeros(4, dtype=np.int64)
        faults = events.event_faults(G44, t, zeros, zeros, np.ones(4, dtype=np.int64))
        assert faults["negative_t"].tolist() == [True, False, False, False]
        assert faults["large_t"].tolist() == [False, False, False, True]


class TestSlicingConfig:
    def test_window_duration(self):
        assert SlicingConfig(2500, 8).window_duration == 20_000
        assert SlicingConfig(6250, 8).window_duration == 50_000
        assert SlicingConfig(1, 1).window_duration == 1
        assert SlicingConfig(1, 32).window_duration == 32
        top = int(np.iinfo(np.int64).max)  # 7 * 1317624576693539401
        assert SlicingConfig(top // 7, 7).window_duration == top

    @pytest.mark.parametrize("dt,n", [(0, 8), (-1, 8), (2500, 0), (2500, 33)])
    def test_rejects_bad_params(self, dt, n):
        with pytest.raises(ValueError):
            SlicingConfig(dt, n)

    def test_rejects_window_overflow(self):
        with pytest.raises(ValueError):
            SlicingConfig(2**62, 4)


class TestSliceStream:
    def test_empty_stream_all_zero(self):
        stack = slice_stream(EventStream.empty(G44), DT, 0)
        assert stack.n_slices == 8
        assert not stack.slices.any()

    def test_multiple_events_collapse_to_one_bit(self):
        s = EventStream.from_events(G44, [(0, 2, 3, 1), (100, 2, 3, -1), (2400, 2, 3, 1)])
        stack = slice_stream(s, DT, 0)
        assert stack.slices[0, 3, 2]
        assert stack.slices.sum() == 1

    def test_half_open_boundaries(self):
        s = EventStream.from_events(G44, [(0, 2, 3, 1), (2500, 2, 3, 1)])
        stack = slice_stream(s, DT, 0)
        assert stack.slices[0, 3, 2] and stack.slices[1, 3, 2]
        assert stack.slices.sum() == 2

    def test_events_outside_window_skipped(self):
        s = EventStream.from_events(G44, [(0, 0, 0, 1), (20_000, 1, 1, 1), (30_000, 2, 2, 1)])
        stack = slice_stream(s, DT, 0)
        assert stack.slices[0, 0, 0]
        assert stack.slices.sum() == 1

    def test_window_start_offsets_slices(self):
        s = EventStream.from_events(G44, [(20_000, 1, 1, 1), (22_500, 2, 2, 1)])
        stack = slice_stream(s, DT, 20_000)
        assert stack.window_start == 20_000
        assert stack.slices[0, 1, 1] and stack.slices[1, 2, 2]

    def test_rejects_negative_window_start(self):
        with pytest.raises(ValueError):
            slice_stream(EventStream.empty(G44), DT, -1)

    def test_window_ending_at_int64_max(self):
        start = np.iinfo(np.int64).max - DT.window_duration
        stack = slice_stream(EventStream.empty(G44), DT, start)
        assert stack.window_start == start and not stack.slices.any()

    def test_rejects_window_past_int64(self):
        start = np.iinfo(np.int64).max - 100
        with pytest.raises(ValueError):
            slice_stream(EventStream.empty(G44), DT, start)

    def test_polarity_invariance(self):
        s = random_stream(G44, 200, DT.window_duration, seed=3)
        flipped = EventStream(G44, s.t, s.x, s.y, -s.p)
        assert slice_stream(s, DT, 0) == slice_stream(flipped, DT, 0)

    def test_duplication_idempotent(self):
        s = random_stream(G44, 100, DT.window_duration, seed=4)
        doubled = merge_sorted_by_time(G44, s, s)
        assert slice_stream(s, DT, 0) == slice_stream(doubled, DT, 0)

    def test_partition_property(self):
        s = random_stream(G44, 300, DT.window_duration, seed=5)
        stack = slice_stream(s, DT, 0)
        for ev in s:
            i = ev.t // DT.slice_duration
            assert stack.slices[i, ev.y, ev.x]


class TestMergeSortedByTime:
    def test_ties_keep_argument_order(self):
        a = EventStream.from_events(G44, [(5, 0, 0, 1)])
        b = EventStream.from_events(G44, [(5, 1, 1, -1)])
        merged = merge_sorted_by_time(G44, a, b)
        assert list(merged.x) == [0, 1]

    def test_sorts_by_time(self):
        a = EventStream.from_events(G44, [(10, 0, 0, 1)])
        b = EventStream.from_events(G44, [(5, 1, 1, -1)])
        merged = merge_sorted_by_time(G44, a, b)
        assert list(merged.t) == [5, 10]

    def test_empty_input(self):
        assert len(merge_sorted_by_time(G44)) == 0

    def test_parts_need_not_be_sorted(self):
        a = EventStream.from_events(G44, [(9, 0, 0, 1), (3, 1, 0, 1)])
        b = EventStream.from_events(G44, [(3, 2, 0, 1), (1, 3, 0, 1)])
        merged = merge_sorted_by_time(G44, a, b)
        assert list(merged) == [(1, 3, 0, 1), (3, 1, 0, 1), (3, 2, 0, 1), (9, 0, 0, 1)]


# Per type: field values built anew on each call, and per field a change of
# that field alone (a new geometry also takes arrays of its shape).
WIDE = SensorGeometry(5, 4)
EQUALITY_CASES = {
    "stream": (
        EventStream,
        lambda: dict(geometry=G44, t=np.array([1, 2]), x=np.array([0, 1]), y=np.array([2, 3]), p=np.array([1, -1])),
        dict(
            geometry=dict(geometry=WIDE),
            t=dict(t=np.array([1, 3])),
            x=dict(x=np.array([0, 2])),
            y=dict(y=np.array([2, 2])),
            p=dict(p=np.array([1, 1])),
        ),
    ),
    "stack": (
        BinarySliceStack,
        lambda: dict(geometry=G44, slices=np.ones((8, 4, 4), dtype=bool), window_start=0),
        dict(
            geometry=dict(geometry=WIDE, slices=np.ones((8, 4, 5), dtype=bool)),
            slices=dict(slices=np.zeros((8, 4, 4), dtype=bool)),
            window_start=dict(window_start=20_000),
        ),
    ),
    "frame": (
        EncodedFrame,
        lambda: dict(geometry=G44, n_bits=8, codes=np.full((4, 4), 7, dtype=np.uint8), window_start=0),
        dict(
            geometry=dict(geometry=WIDE, codes=np.full((4, 5), 7, dtype=np.uint8)),
            n_bits=dict(n_bits=9),
            codes=dict(codes=np.full((4, 4), 6, dtype=np.uint8)),
            window_start=dict(window_start=20_000),
        ),
    ),
}


@pytest.mark.parametrize("kind", EQUALITY_CASES)
def test_equality_covers_every_field(kind):
    cls, values, changes = EQUALITY_CASES[kind]
    assert set(changes) == {field.name for field in dataclasses.fields(cls)}
    a = cls(**values())
    assert a == cls(**values()) and not a != cls(**values())
    for name, change in changes.items():
        b = cls(**{**values(), **change})
        assert a != b and b != a, name
    with pytest.raises(TypeError):
        hash(a)


class TestBinarySliceStack:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BinarySliceStack(G44, np.zeros((8, 5, 5), dtype=bool))

    def test_unequal_to_other_types(self):
        stack = BinarySliceStack(G44, np.zeros((8, 4, 4), dtype=bool))
        assert stack != stack.slices.tolist()
        assert stack != None  # noqa: E711

    def test_nonbool_coerced(self):
        stack = BinarySliceStack(G44, np.zeros((8, 4, 4), dtype=np.uint8))
        assert stack.slices.dtype == np.bool_
