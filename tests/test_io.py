import errno
import itertools
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtbr.encoder import EncodedFrame, EncoderConfig, code_dtype, encode_stream, encode_tbr
from evtbr.events import EventStream, SensorGeometry, SlicingConfig
from evtbr.io import (
    BINARY_HEADER_LEN,
    BINARY_MAGIC,
    BINARY_RECORD_LEN,
    CSV_HEADER,
    EventFileError,
    EventFileFormat,
    FrameFormatError,
    read_events,
    read_frame,
    stream_info,
    write_events,
    write_frame,
)
from evtbr import io
from evtbr.io import _parse_clean_csv, _read_csv_lines

from helpers import random_stack, random_stream

G = SensorGeometry(4, 4)


def binary_record(t, x, y, p):
    return struct.pack("<QHHb", t, x, y, p)


def binary_header(w=4, h=4):
    return BINARY_MAGIC + struct.pack("<II", w, h)


class TestCsvRead:
    def test_small_file(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,1,2,1\n2500,3,0,-1\n")
        stream = read_events(f, EventFileFormat.TEXT_CSV, geometry=G)
        assert len(stream) == 2
        assert stream.t.tolist() == [0, 2500]
        assert stream.x.tolist() == [1, 3]
        assert stream.y.tolist() == [2, 0]
        assert stream.p.tolist() == [1, -1]

    def test_geometry_required(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n")
        with pytest.raises(ValueError, match="geometry"):
            read_events(f, EventFileFormat.TEXT_CSV)

    def test_header_only_is_empty_stream(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n")
        assert len(read_events(f, EventFileFormat.TEXT_CSV, geometry=G)) == 0

    def test_bad_header(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("time,x,y,p\n0,0,0,1\n")
        with pytest.raises(EventFileError, match="line 1"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_bad_polarity_names_line(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,0,0,2\n")
        with pytest.raises(EventFileError, match="line 2.*polarity"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_field_count_error(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,0,0,1\n1,2,3\n")
        with pytest.raises(EventFileError, match="line 3.*fields"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_non_integer_field(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,a,0,1\n")
        with pytest.raises(EventFileError, match="line 2.*non-integer"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_out_of_bounds_coordinate(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,4,0,1\n")
        with pytest.raises(EventFileError, match="line 2.*outside"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("0,0,0,1\n5,-1,0,1\n9,0,0,1\n", "line 3: event \\(-1, 0\\) outside"),
            ("0,0,0,1\n5,0,-1,1\n9,0,0,1\n", "line 3: event \\(0, -1\\) outside"),
            ("0,0,0,1\n5,0,4,1\n9,0,0,1\n", "line 3: event \\(0, 4\\) outside"),
            ("0,0,0,1\n5,0,0,-2\n9,0,0,1\n", "line 3: polarity must be -1 or 1, got -2"),
            ("-5,0,0,1\n0,0,0,1\n9,0,0,1\n", "line 2: negative timestamp -5"),
        ],
    )
    def test_one_fault_among_valid_lines_is_reported(self, tmp_path, body, reason):
        f = tmp_path / "ev.csv"
        f.write_text(f"t_us,x,y,p\n{body}")
        with pytest.raises(EventFileError, match=reason):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_negative_timestamp(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n-5,0,0,1\n")
        with pytest.raises(EventFileError, match="line 2.*negative"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_timestamp_above_int64_rejected(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text(f"t_us,x,y,p\n{2**63},0,0,1\n")
        with pytest.raises(EventFileError, match="line 2.*2\\^63"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_out_of_order_names_line(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n30000,1,1,1\n30000,1,1,1\n\n0,0,0,1\n")
        with pytest.raises(EventFileError, match="line 5.*earlier"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_earliest_faulty_line_is_reported(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,0,0,1\n10,4,0,1\n5,0,0,2\n")
        with pytest.raises(EventFileError, match="line 3: event \\(4, 0\\) outside"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_value_fault_before_unparsable_line_is_reported(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,0,0,1\n5,0,0,0\nbad\n")
        with pytest.raises(EventFileError, match="line 3: polarity"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_check_order_decides_within_one_line(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n-1,9,0,3\n")
        with pytest.raises(EventFileError, match="line 2: polarity must be -1 or 1, got 3"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    @pytest.mark.parametrize(
        "line,reason",
        [
            (f"0,{2**70},0,1", f"event \\({2**70}, 0\\) outside"),
            (f"0,0,0,{-2**70}", "polarity"),
            (f"{-2**70},0,0,1", "negative timestamp"),
            (f"{2**70},0,0,1", "timestamp exceeds 2\\^63"),
        ],
    )
    def test_values_beyond_int64_are_reported(self, tmp_path, line, reason):
        f = tmp_path / "ev.csv"
        f.write_text(f"t_us,x,y,p\n0,0,0,1\n{line}\n")
        with pytest.raises(EventFileError, match=f"line 3: {reason}"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)

    def test_earlier_fault_wins_over_value_beyond_int64(self, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text(f"t_us,x,y,p\n0,0,0,0\n{2**70},0,0,1\n")
        with pytest.raises(EventFileError, match="line 2: polarity"):
            read_events(f, EventFileFormat.TEXT_CSV, geometry=G)


# Fields and lines just outside what the clean-body parser takes.
_NEAR_MISS_FIELDS = [" 1", "1 ", "+1", "1_0", "1--2", "-", "", "1\r", "007", "-0"]
_HUGE_FIELDS = [str(v) for v in (2**63 - 1, 2**63, 2**64 + 3, -(2**63), -(2**63) - 1, 2**70)]


@st.composite
def csv_bodies(draw):
    """CSV bodies: ordered rows of small values, with near misses mixed in."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(-1, 3),
                st.integers(0, 4),
                st.integers(0, 3),
                st.sampled_from([1, -1, 1, 0]),
            ),
            max_size=8,
        )
    )
    times = itertools.accumulate(dt for dt, *_ in rows)
    width = draw(st.sampled_from([4, 4, 3, 5]))
    lines = [",".join(map(str, [t, x, y, p, 0][:width])) for t, (_, x, y, p) in zip(times, rows)]
    field = st.one_of(
        st.integers(-2, 5).map(str),
        st.sampled_from(_NEAR_MISS_FIELDS),
        st.sampled_from(_HUGE_FIELDS),
    )
    odd_line = st.one_of(
        st.just(""),
        st.lists(field, min_size=3, max_size=5).map(",".join),
        st.sampled_from([" ", "\r", "0,0,0,1\r"]),
    )
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_line))
    end = draw(st.sampled_from(["\n", "\n", "", "\r\n", "\n\n"]))
    return ("\n".join(lines) + end).encode("ascii")


def _parse_outcome(parse):
    try:
        stream = parse()
    except EventFileError as exc:
        return str(exc)
    return [(c.tolist(), c.dtype) for c in (stream.t, stream.x, stream.y, stream.p)]


class TestCsvFastPath:
    @settings(max_examples=300)
    @given(csv_bodies())
    @example(b"\n0,0,0,2\n")
    @example(b"0,0,0,1\n\n0,9,0,1\n")
    @example(b"0,0,0\n")
    @example(b"1,-,3,4\n")  # numpy reads a lone - as 0
    @example(b"0,0,0,-\n")
    @example(b"0,0,0\n1,1,1,1,1\n")  # eight values on two lines
    @example(f"{-(2**63)},0,0,1\n".encode())  # read exactly
    @example(f"{2**63 - 1},0,0,1\n".encode())  # what numpy saturates to
    @example(f"{2**63},0,0,1\n".encode())
    @example(f"{-(2**63) - 1},0,0,1\n".encode())  # saturates to +(2**63 - 1)
    def test_matches_the_line_loop(self, body):
        with tempfile.TemporaryDirectory() as d:
            f = Path(d) / "ev.csv"
            f.write_bytes(CSV_HEADER.encode("ascii") + b"\n" + body)
            fast = _parse_outcome(lambda: read_events(f, EventFileFormat.TEXT_CSV, geometry=G))
            loop = _parse_outcome(lambda: _read_csv_lines(f, G, body))
        assert fast == loop

    def test_written_files_take_the_fast_path(self, tmp_path):
        stream = random_stream(SensorGeometry(64, 48), n_events=500, duration=50_000, seed=2)
        f = tmp_path / "ev.csv"
        write_events(stream, f, EventFileFormat.TEXT_CSV)
        body = f.read_bytes().partition(b"\n")[2]
        table = _parse_clean_csv(body)
        assert table is not None and table.dtype == np.int64
        columns = (stream.t, stream.x, stream.y, stream.p)
        assert [c.tolist() for c in table.T] == [c.tolist() for c in columns]

    @pytest.mark.parametrize(
        "body",
        [
            b"0,0,0,1",  # no final LF
            b"\n0,0,0,1\n",  # blank first line
            b"0,0,0,1\n\n1,0,0,1\n",
            b"0,0,0,1\r\n",
            b"0, 0,0,1\n",
            b"+0,0,0,1\n",
            b"1_0,0,0,1\n",
            b"0,0,0\n1,1,1\n",  # a uniform 3-column table
            b"0,0,0,1,0\n",
            b"1--2,0,0,1\n",
            f"{2**63},0,0,1\n".encode(),
            f"{-(2**63) - 1},0,0,1\n".encode(),
            b"1,-,3,4\n",
            b"0,0,0,-\n",
            b"0,0,0\n1,1,1,1,1\n",
            f"{2**63 - 1},0,0,1\n".encode(),
        ],
    )
    def test_near_misses_take_the_line_loop(self, body):
        assert _parse_clean_csv(body) is None



class TestCsvWrite:
    def test_exact_bytes(self, tmp_path):
        stream = EventStream.from_events(G, [(0, 1, 2, 1), (2500, 3, 0, -1)])
        f = tmp_path / "ev.csv"
        write_events(stream, f, EventFileFormat.TEXT_CSV)
        assert f.read_bytes() == b"t_us,x,y,p\n0,1,2,1\n2500,3,0,-1\n"

    def test_empty_stream(self, tmp_path):
        f = tmp_path / "ev.csv"
        write_events(EventStream.empty(G), f, EventFileFormat.TEXT_CSV)
        assert f.read_bytes() == b"t_us,x,y,p\n"

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip(self, tmp_path, seed):
        stream = random_stream(G, n_events=200, duration=50_000, seed=seed)
        f = tmp_path / "ev.csv"
        write_events(stream, f, EventFileFormat.TEXT_CSV)
        assert read_events(f, EventFileFormat.TEXT_CSV, geometry=G) == stream

    @pytest.mark.parametrize("n_events", [0, 1, 9, 10])
    def test_lines_written_a_block_at_a_time(self, monkeypatch, tmp_path, n_events):
        # Three lines a block: a whole number of blocks, a short last one.
        monkeypatch.setattr(io, "_IO_BLOCK", 3)
        stream = random_stream(SensorGeometry(300, 200), n_events=n_events, duration=5_000, seed=2)
        f = tmp_path / "ev.csv"
        write_events(stream, f, EventFileFormat.TEXT_CSV)
        lines = "".join(f"{e.t},{e.x},{e.y},{e.p}\n" for e in stream)
        assert f.read_bytes() == f"{CSV_HEADER}\n{lines}".encode("ascii")

    def test_peak_memory_is_bounded_by_blocks_not_by_the_file(self, monkeypatch, tmp_path):
        # One block's lines cost about ten times their text in Python
        # objects; a whole-file write holds every line's string at once.
        monkeypatch.setattr(io, "_IO_BLOCK", 500)
        stream = random_stream(SensorGeometry(640, 480), n_events=32 * 500, duration=10**9, seed=1)
        text = "".join(f"{e.t},{e.x},{e.y},{e.p}\n" for e in stream)
        f = tmp_path / "ev.csv"
        tracemalloc.start()
        try:
            write_events(stream, f, EventFileFormat.TEXT_CSV)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.read_bytes() == f"{CSV_HEADER}\n{text}".encode("ascii")
        assert peak < len(text) / 2  # the text of 16 of the 32 blocks


class TestEventFormats:
    """Formats are given as members or their values; anything else is rejected."""

    def test_value_selects_its_format(self, tmp_path):
        f = tmp_path / "ev.bin"
        write_events(EventStream.from_events(G, [(0, 1, 2, 1)]), f, "csv")
        assert f.read_bytes() == b"t_us,x,y,p\n0,1,2,1\n"
        assert len(read_events(f, "csv", geometry=G)) == 1

    def test_unknown_format_written_nowhere(self, tmp_path):
        f = tmp_path / "ev.csv"
        with pytest.raises(ValueError, match="EventFileFormat"):
            write_events(EventStream.from_events(G, [(0, 1, 2, 1)]), f, None)
        assert not f.exists()

    def test_unknown_format_not_read(self, tmp_path):
        f = tmp_path / "ev.bin"
        write_events(EventStream.from_events(G, [(0, 1, 2, 1)]), f, EventFileFormat.BINARY_V1)
        with pytest.raises(ValueError, match="EventFileFormat"):
            read_events(f, None)


class TestBinaryRead:
    def test_empty_file_is_header_only(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header())
        stream = read_events(f, EventFileFormat.BINARY_V1)
        assert len(stream) == 0
        assert stream.geometry == G
        assert f.stat().st_size == BINARY_HEADER_LEN == 12

    def test_single_record_layout(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header() + binary_record(2500, 1, 2, -1))
        assert f.stat().st_size == BINARY_HEADER_LEN + BINARY_RECORD_LEN == 25
        stream = read_events(f, EventFileFormat.BINARY_V1)
        assert stream.t.tolist() == [2500]
        assert stream.x.tolist() == [1]
        assert stream.y.tolist() == [2]
        assert stream.p.tolist() == [-1]

    def test_geometry_comes_from_header(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header(640, 480))
        stream = read_events(f, EventFileFormat.BINARY_V1)
        assert stream.geometry == SensorGeometry(640, 480)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(b"XXXX" + struct.pack("<II", 4, 4))
        with pytest.raises(EventFileError, match="byte 0.*magic"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_truncated_header(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(b"EVS1\x04")
        with pytest.raises(EventFileError, match="byte 0.*truncated header"):
            read_events(f, EventFileFormat.BINARY_V1)

    @pytest.mark.parametrize(
        "w,h,reason",
        [(0, 4, "at least 1x1"), (4, 0, "at least 1x1"),
         (65535, 65535, "65535x65535 exceeds"), (2**32 - 1, 2**32 - 1, "exceeds")],
    )
    def test_bad_geometry_names_header_offset(self, tmp_path, w, h, reason):
        # A header with no records: the reader must refuse the geometry
        # before anything is sized by it.
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header(w, h))
        with pytest.raises(EventFileError, match=f"byte 4: geometry .*{reason}"):
            read_events(f, EventFileFormat.BINARY_V1)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_truncated_record_names_offset(self, tmp_path, k):
        f = tmp_path / "ev.bin"
        body = b"".join(binary_record(i, 0, 0, 1) for i in range(k))
        f.write_bytes(binary_header() + body + b"\x00\x01\x02")
        expected = BINARY_HEADER_LEN + k * BINARY_RECORD_LEN
        with pytest.raises(EventFileError, match=f"byte {expected}.*truncated record"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_bad_polarity_names_record_offset(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(
            binary_header()
            + binary_record(0, 0, 0, 1)
            + binary_record(10, 1, 1, 0)
        )
        with pytest.raises(EventFileError, match=f"byte {12 + 13}.*polarity"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_out_of_bounds_coordinate(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header() + binary_record(0, 4, 0, 1))
        with pytest.raises(EventFileError, match="byte 12.*outside"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_zero_width_rejected(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(BINARY_MAGIC + struct.pack("<II", 0, 4))
        with pytest.raises(EventFileError, match="byte 4.*geometry"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_timestamp_above_int64_rejected(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header() + binary_record(2**63, 0, 0, 1))
        with pytest.raises(EventFileError, match="byte 12.*2\\^63"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_last_timestamp_above_int64_rejected(self, tmp_path):
        records = [binary_record(t, 0, 0, 1) for t in (0, 5, 2**63)]
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header() + b"".join(records))
        with pytest.raises(EventFileError, match=f"byte {12 + 2 * 13}: timestamp exceeds 2\\^63"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_the_check_adds_nothing_to_the_peak(self, tmp_path):
        # The file's bytes beside the cast columns are the read's peak; the
        # fault check runs after the bytes are freed.
        n = 100_000
        stream = random_stream(SensorGeometry(64, 48), n_events=n, duration=10**6, seed=4)
        f = tmp_path / "ev.bin"
        write_events(stream, f, EventFileFormat.BINARY_V1)
        tracemalloc.start()
        try:
            assert read_events(f, EventFileFormat.BINARY_V1) == stream
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (BINARY_RECORD_LEN + 17) * n + n // 2

    def test_out_of_order_names_record_offset(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(
            binary_header()
            + binary_record(30_000, 1, 1, 1)
            + binary_record(30_000, 1, 1, 1)
            + binary_record(0, 0, 0, 1)
        )
        with pytest.raises(EventFileError, match=f"byte {12 + 2 * 13}.*earlier"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_earliest_faulty_record_is_reported(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(
            binary_header()
            + binary_record(0, 4, 0, 1)
            + binary_record(10, 1, 1, 0)
        )
        with pytest.raises(EventFileError, match="byte 12: event \\(4, 0\\) outside"):
            read_events(f, EventFileFormat.BINARY_V1)

    def test_check_order_decides_within_one_record(self, tmp_path):
        f = tmp_path / "ev.bin"
        f.write_bytes(binary_header() + binary_record(2**63, 9, 0, 5))
        with pytest.raises(EventFileError, match="byte 12: polarity must be -1 or 1, got 5"):
            read_events(f, EventFileFormat.BINARY_V1)


class TestBinaryWrite:
    def test_round_trip_large(self, tmp_path):
        geometry = SensorGeometry(128, 96)
        stream = random_stream(geometry, n_events=10_000, duration=1_000_000, seed=5)
        f = tmp_path / "ev.bin"
        write_events(stream, f, EventFileFormat.BINARY_V1)
        assert f.stat().st_size == BINARY_HEADER_LEN + 10_000 * BINARY_RECORD_LEN
        back = read_events(f, EventFileFormat.BINARY_V1)
        assert back == stream
        assert back.geometry == geometry

    @pytest.mark.parametrize("w,h", [(65536, 256), (256, 65536)], ids=["x", "y"])
    def test_coordinates_at_u16_max_round_trip(self, tmp_path, w, h):
        geometry = SensorGeometry(w, h)
        stream = EventStream.from_events(geometry, [(0, w - 1, h - 1, 1)])
        f = tmp_path / "ev.bin"
        write_events(stream, f, EventFileFormat.BINARY_V1)
        assert read_events(f, EventFileFormat.BINARY_V1) == stream

    @pytest.mark.parametrize("n_events", [0, 1, 9, 10])
    def test_records_written_a_block_at_a_time(self, monkeypatch, tmp_path, n_events):
        # Three records a block: a whole number of blocks, a short last one.
        monkeypatch.setattr(io, "_IO_BLOCK", 3)
        stream = random_stream(SensorGeometry(300, 200), n_events=n_events, duration=5_000, seed=2)
        f = tmp_path / "ev.bin"
        write_events(stream, f, EventFileFormat.BINARY_V1)
        records = b"".join(binary_record(*event) for event in stream)
        assert f.read_bytes() == binary_header(300, 200) + records

    def test_negative_timestamp_rejected(self, tmp_path):
        stream = EventStream.from_events(G, [(-1, 0, 0, 1), (5, 1, 1, -1)])
        with pytest.raises(EventFileError, match="negative timestamps"):
            write_events(stream, tmp_path / "ev.bin", EventFileFormat.BINARY_V1)

    def test_coordinates_above_u16_rejected(self, tmp_path):
        geometry = SensorGeometry(70_000, 4)
        stream = EventStream.from_events(geometry, [(0, 66_000, 0, 1)])
        with pytest.raises(EventFileError, match="u16"):
            write_events(stream, tmp_path / "ev.bin", EventFileFormat.BINARY_V1)

    @given(st.integers(min_value=0, max_value=2**31))
    def test_round_trip_property(self, seed):
        import tempfile

        stream = random_stream(G, n_events=50, duration=10_000, seed=seed)
        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/ev.bin"
            write_events(stream, p, EventFileFormat.BINARY_V1)
            assert read_events(p, EventFileFormat.BINARY_V1) == stream


class TestFrameWrite:
    def test_exact_pgm_bytes(self, tmp_path):
        geometry = SensorGeometry(2, 2)
        codes = np.array([[0, 255], [128, 5]], dtype=np.uint32)
        frame = EncodedFrame(geometry, 8, codes)
        f = tmp_path / "frame.pgm"
        write_frame(frame, f)
        assert f.read_bytes() == b"P5\n2 2\n255\n\x00\xff\x80\x05"

    def test_sixteen_bit_payload_big_endian(self, tmp_path):
        geometry = SensorGeometry(1, 1)
        frame = EncodedFrame(geometry, 16, np.array([[256]], dtype=np.uint32))
        f = tmp_path / "frame.pgm"
        write_frame(frame, f)
        assert f.read_bytes() == b"P5\n1 1\n65535\n\x01\x00"

    def test_rejects_frames_above_sixteen_bits(self, tmp_path):
        frame = EncodedFrame(G, 17, np.zeros(G.shape, dtype=np.uint32))
        with pytest.raises(FrameFormatError, match="16"):
            write_frame(frame, tmp_path / "frame.pgm")

    def test_rejects_codes_above_maxval(self, tmp_path):
        frame = EncodedFrame(G, 4, np.full(G.shape, 99, dtype=np.uint32))
        with pytest.raises(FrameFormatError, match="maxval"):
            write_frame(frame, tmp_path / "frame.pgm")


    @pytest.mark.parametrize("n_bits", [8, 12, 16])
    def test_narrow_codes_write_the_bytes_of_wide_codes(self, tmp_path, n_bits):
        stream = random_stream(G, n_events=300, duration=400 * n_bits, seed=n_bits)
        (frame,) = encode_stream(stream, EncoderConfig(SlicingConfig(100, n_bits)), n_windows=1)
        assert frame.codes.dtype == code_dtype(n_bits) and frame.codes.any()
        wide = EncodedFrame(G, n_bits, frame.codes.astype(np.uint32))
        write_frame(frame, tmp_path / "narrow.pgm")
        write_frame(wide, tmp_path / "wide.pgm")
        assert (tmp_path / "narrow.pgm").read_bytes() == (tmp_path / "wide.pgm").read_bytes()
        back = read_frame(tmp_path / "narrow.pgm")
        assert back.codes.dtype == code_dtype(n_bits)
        assert np.array_equal(back.codes, frame.codes)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_rejects_wide_codes_above_an_eight_bit_maxval(self, tmp_path, dtype):
        frame = EncodedFrame(G, 8, np.full(G.shape, 256, dtype=dtype))
        with pytest.raises(FrameFormatError, match="maxval 255"):
            write_frame(frame, tmp_path / "frame.pgm")

    @pytest.mark.parametrize("n_bits, payload", [(8, np.uint8), (12, ">u2")])
    def test_short_writes_are_resumed(self, monkeypatch, tmp_path, n_bits, payload):
        geometry = SensorGeometry(5, 3)
        codes = (np.arange(15) * (2**n_bits - 1) // 14).astype(code_dtype(n_bits)).reshape(3, 5)
        expected = f"P5\n5 3\n{2**n_bits - 1}\n".encode() + codes.astype(payload).tobytes()
        write = os.write

        def short_writev(fd, buffers):
            data = b"".join(buffers)
            assert data, "writev called with nothing left to write"
            return write(fd, data[:7])

        monkeypatch.setattr(os, "writev", short_writev)
        write_frame(EncodedFrame(geometry, n_bits, codes), tmp_path / "frame.pgm")
        assert (tmp_path / "frame.pgm").read_bytes() == expected

    def test_descriptor_closed_when_a_write_fails(self, monkeypatch, tmp_path):
        opened, closed = [], []
        open_, close = os.open, os.close

        def recording_open(*args):
            opened.append(open_(*args))
            return opened[-1]

        def recording_close(fd):
            closed.append(fd)
            close(fd)

        def full_disk_writev(fd, buffers):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "close", recording_close)
        monkeypatch.setattr(os, "writev", full_disk_writev)
        with pytest.raises(OSError, match="No space"):
            write_frame(EncodedFrame(G, 8, np.zeros(G.shape, dtype=np.uint8)), tmp_path / "frame.pgm")
        assert len(opened) == 1 and closed == opened

class TestFrameRead:
    @pytest.mark.parametrize("n_bits", [1, 2, 4, 8, 9, 12, 16])
    def test_round_trip(self, tmp_path, n_bits):
        frame = encode_tbr(random_stack(G, n_bits, seed=n_bits))
        f = tmp_path / "frame.pgm"
        write_frame(frame, f)
        back = read_frame(f)
        assert back.n_bits == n_bits
        assert np.array_equal(back.codes, frame.codes)
        assert back.geometry == frame.geometry

    def test_reads_a_str_path(self, tmp_path):
        frame = encode_tbr(random_stack(G, 8, seed=0))
        f = str(tmp_path / "frame.pgm")
        write_frame(frame, f)
        assert read_frame(f) == frame

    def test_window_start_not_persisted(self, tmp_path):
        frame = EncodedFrame(G, 8, np.zeros(G.shape, dtype=np.uint32), window_start=40_000)
        f = tmp_path / "frame.pgm"
        write_frame(frame, f)
        assert read_frame(f).window_start == 0

    def test_n_bits_recovered_from_maxval(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P5\n1 1\n255\n\x07")
        frame = read_frame(f)
        assert frame.n_bits == 8
        assert frame.codes[0, 0] == 7

    def test_maxval_not_all_ones_rejected(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P5\n1 1\n100\n\x00")
        with pytest.raises(FrameFormatError, match="2\\^N - 1"):
            read_frame(f)

    def test_comments_tolerated(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P5\n# made by hand\n2 1\n# another\n1\n\x01\x00")
        frame = read_frame(f)
        assert frame.n_bits == 1
        assert frame.codes.tolist() == [[1, 0]]

    def test_truncated_raster(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FrameFormatError, match="raster"):
            read_frame(f)

    def test_oversized_raster(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P5\n1 1\n255\n\x00\x01")
        with pytest.raises(FrameFormatError, match="raster"):
            read_frame(f)

    def test_wrong_magic(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(FrameFormatError, match="P5"):
            read_frame(f)

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"", "byte 0: unexpected end of header"),
            (b"P5\n3 3\n", "byte 7: unexpected end of header"),
            (b"P5 # no size yet", "byte 16: unexpected end of header"),
            (b"P5\nx 3\n255\n", "byte 4: non-integer header field"),
            (b"P5\n3 3 25x\n", "byte 10: non-integer header field"),
            (b"P5\n0 1\n1\n", "geometry must be at least 1x1, got 0x1"),
            (b"P5\n5000 5000\n255\n", "geometry 5000x5000 exceeds 16777216 pixels"),
        ],
    )
    def test_header_errors_name_offset(self, tmp_path, data, message):
        f = tmp_path / "frame.pgm"
        f.write_bytes(data)
        with pytest.raises(FrameFormatError, match=message):
            read_frame(f)

    def test_maxval_above_sixteen_bits_rejected(self, tmp_path):
        f = tmp_path / "frame.pgm"
        f.write_bytes(b"P5\n1 1\n131071\n\x00\x00\x00")
        with pytest.raises(FrameFormatError, match="16-bit"):
            read_frame(f)


class TestStreamInfo:
    def test_rate_example(self):
        # 1000 events over exactly half a second is 2000 events/s.
        rows = [(i * 500, i % 4, (i // 4) % 4, 1) for i in range(999)]
        rows.append((500_000, 3, 3, 1))
        info = stream_info(EventStream.from_events(G, rows))
        assert info.event_count == 1000
        assert info.duration_us == 500_000
        assert info.events_per_second == pytest.approx(2000.0)

    def test_polarity_split(self):
        rows = [(i, 0, 0, 1) for i in range(600)] + [(600 + i, 1, 1, -1) for i in range(400)]
        info = stream_info(EventStream.from_events(G, rows))
        assert info.positive_count == 600
        assert info.negative_count == 400

    def test_zero_duration_zero_rate(self):
        info = stream_info(EventStream.from_events(G, [(100, 0, 0, 1), (100, 1, 1, 1)]))
        assert info.duration_us == 0
        assert info.events_per_second == 0.0

    def test_active_pixels_deduplicated(self):
        rows = [(0, 0, 0, 1), (1, 0, 0, 1), (2, 1, 0, 1), (3, 0, 1, -1)]
        assert stream_info(EventStream.from_events(G, rows)).active_pixel_count == 3

    def test_active_pixels_counted_across_blocks(self, monkeypatch):
        monkeypatch.setattr(io, "_IO_BLOCK", 2)
        rows = [(0, 3, 3, 1), (1, 0, 0, 1), (2, 3, 3, -1), (3, 2, 0, 1), (4, 0, 0, 1)]
        assert stream_info(EventStream.from_events(G, rows)).active_pixel_count == 3

    def test_empty_stream(self):
        info = stream_info(EventStream.empty(G))
        assert info.event_count == 0
        assert info.summary().startswith("events=0 ")

    def test_summary_fields_present(self):
        s = stream_info(EventStream.from_events(G, [(0, 0, 0, 1)])).summary()
        for key in ("events=", "duration_us=", "rate_eps=", "pos=", "neg=", "active_pixels="):
            assert key in s
