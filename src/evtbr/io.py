"""Bit-exact file I/O for event streams and encoded frames.

Event formats
  text-csv   header line ``t_us,x,y,p``, one event per line as decimal
             integers, LF endings, timestamps never decreasing. Carries
             no geometry: the reader takes it from the caller.
  binary-v1  magic ``EVS1``, little-endian u32 width and u32 height
             (12-byte header), then 13-byte records of little-endian
             u64 t_us, u16 x, u16 y, signed 8-bit p. Record k starts at
             byte 12 + 13*k; timestamps never decrease.

Frame format
  PGM (P5) with maxval 2**N - 1. One byte per pixel for maxval <= 255,
  otherwise two bytes big-endian. Pixels hold the exact integer codes, so
  a write/read round trip is the identity; frames read back hold their
  codes in the encoder's dtype for N (uint8 up to N = 8, else uint16).

All parse errors carry the offending byte or line offset in the message.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .encoder import EncodedFrame, code_dtype
from .events import INT64_MAX, EventStream, SensorGeometry, event_faults

BINARY_MAGIC = b"EVS1"
BINARY_HEADER_LEN = 12
BINARY_RECORD_LEN = 13
CSV_HEADER = "t_us,x,y,p"
# PGM's maxval is below 2**16, so a frame holds codes of at most 16 slices.
PGM_MAX_BITS = 16

# On-disk record layout for binary-v1 (packed, 13 bytes).
_FILE_RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")]
)
# Events that write_events and stream_info cast or index at a time.
_IO_BLOCK = 1 << 16

# What counts as a blank CSV line: ASCII whitespace only, as bytes.strip().
_ASCII_WHITESPACE = " \t\r\x0b\x0c"
_U16_MAX = np.iinfo(np.uint16).max
# The bytes of a CSV field that numpy's C parser reads (see _parse_clean_csv).
_CSV_FIELD_BYTES = b"0123456789-"

# One PGM header token: skip whitespace and ``#`` comments, then take the
# non-whitespace run (empty at the end of the data).
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


class EventFileFormat(str, Enum):
    TEXT_CSV = "csv"
    BINARY_V1 = "binary"


class EventFileError(ValueError):
    """Malformed or inconsistent event file."""


class FrameFormatError(ValueError):
    """Malformed PGM frame file or unsupported frame shape."""


def read_events(
    path: str | Path,
    fmt: EventFileFormat,
    geometry: SensorGeometry | None = None,
) -> EventStream:
    """Read an event stream, validating polarity, geometry bounds and time order.

    Timestamps must never decrease from one event to the next; the first
    event that goes back in time is reported by its byte or line offset.

    ``geometry`` is required for text-csv (the format has no header for
    it) and ignored for binary-v1, which carries its own. ``fmt`` is a
    format or its value; anything else raises ValueError.
    """
    fmt = EventFileFormat(fmt)
    path = Path(path)
    if fmt is EventFileFormat.TEXT_CSV:
        if geometry is None:
            raise ValueError("text-csv input requires an explicit geometry")
        return _read_csv(path, geometry)
    return _read_binary(path)


def write_events(stream: EventStream, path: str | Path, fmt: EventFileFormat) -> None:
    """Write a stream so that reading it back reproduces it exactly.

    ``fmt`` is a format or its value; anything else raises ValueError
    before ``path`` is opened.
    """
    csv = EventFileFormat(fmt) is EventFileFormat.TEXT_CSV
    if not csv and len(stream) and (int(stream.x.max()) > _U16_MAX or int(stream.y.max()) > _U16_MAX):
        raise EventFileError("event coordinates exceed binary-v1 u16 range")
    if not csv and len(stream) and int(stream.t.min()) < 0:
        raise EventFileError("negative timestamps are not representable in binary-v1")

    # Events are formatted and written a block at a time, as CSV lines or
    # as records cast into their own buffer, so no whole-file copy is held.
    with Path(path).open("wb") as f:
        g = stream.geometry
        f.write(f"{CSV_HEADER}\n".encode("ascii") if csv else BINARY_MAGIC + struct.pack("<II", g.width, g.height))
        for lo in range(0, len(stream), _IO_BLOCK):
            block = stream[lo : lo + _IO_BLOCK]
            if csv:
                columns = (block.t.tolist(), block.x.tolist(), block.y.tolist(), block.p.tolist())
                f.write("".join(f"{t},{x},{y},{p}\n" for t, x, y, p in zip(*columns)).encode("ascii"))
                continue
            records = np.empty(len(block), dtype=_FILE_RECORD_DTYPE)
            for name in "txyp":
                records[name] = getattr(block, name)
            f.write(records)


def _check_events(path: Path, geometry: SensorGeometry, t, x, y, p, locate, unit: str) -> None:
    """Raise :class:`EventFileError` for the earliest invalid event, if any.

    ``locate(k)`` names where event k sits in the file ("byte 25", "line
    3") and ``unit`` what one is called there. An event with several
    faults is reported by the first of :func:`event_faults`' checks, whose
    per-event masks are built only once :func:`_any_fault` finds one.
    """
    if not _any_fault(geometry, t, x, y, p):
        return
    faults = event_faults(geometry, t, x, y, p)
    k = int(np.argmax(np.logical_or.reduce(list(faults.values()))))
    kind = next(name for name, mask in faults.items() if mask[k])
    if kind == "polarity":
        reason = f"polarity must be -1 or 1, got {int(p[k])}"
    elif kind == "bounds":
        reason = f"event ({int(x[k])}, {int(y[k])}) outside {geometry.width}x{geometry.height}"
    elif kind == "negative_t":
        reason = f"negative timestamp {int(t[k])}"
    elif kind == "large_t":
        reason = "timestamp exceeds 2^63 - 1 microseconds"
    else:
        reason = f"timestamp {int(t[k])} is earlier than the previous {unit}'s {int(t[k - 1])}"
    raise EventFileError(f"{path}: {locate(k)}: {reason}")


def _any_fault(geometry: SensorGeometry, t, x, y, p) -> bool:
    """Whether :func:`event_faults` flags some event, with one reduction per column.

    Viewed as unsigned, a negative coordinate reads above every bound; in
    time order the first timestamp is the smallest and the last the
    largest. Object columns hold a value beyond int64, always a fault.
    """
    if t.dtype == object:
        return True
    if not len(t):
        return False
    return bool(
        (np.abs(p) != 1).any()
        or x.view(f"u{x.itemsize}").max() >= geometry.width
        or y.view(f"u{y.itemsize}").max() >= geometry.height
        or t[0] < 0
        or t[-1] > INT64_MAX
        or (t[1:] < t[:-1]).any()
    )


def _read_csv(path: Path, geometry: SensorGeometry) -> EventStream:
    header, _, body = path.read_bytes().partition(b"\n")
    if header.decode("ascii", errors="replace").strip() != CSV_HEADER:
        raise EventFileError(f"{path}: line 1: expected header '{CSV_HEADER}'")
    table = _parse_clean_csv(body)
    if table is None:
        return _read_csv_lines(path, geometry, body)
    t, x, y, p = table.T
    _check_events(path, geometry, t, x, y, p, lambda k: f"line {k + 2}", "event")
    return EventStream(geometry, t, x, y, p)


def _parse_clean_csv(body: bytes) -> np.ndarray | None:
    """The (events, 4) int64 table of a clean CSV body, or None.

    A body is clean when every line is four fields of only the bytes of
    :data:`_CSV_FIELD_BYTES` and ends in LF (so no line is blank, and event
    k sits on line k + 2). numpy's C parser then reads a field exactly as
    ``int()`` does, or raises ValueError, except that it reads a lone
    ``-`` (and ``-0``) as 0 and saturates values beyond int64 to
    INT64_MAX; a body where some ``-`` gives no negative value, or holding
    INT64_MAX, is not taken. Everything else (None) goes to
    :func:`_read_csv_lines`, which gives every message and line number.
    """
    separators = body.translate(None, _CSV_FIELD_BYTES)
    lines = len(separators) // 4
    if separators != b",,,\n" * lines:
        return None
    # Counted before the parse: a mask made after it raised hd-sparse peak RSS.
    minus = np.count_nonzero(np.frombuffer(body, dtype=np.uint8) == ord("-"))
    try:
        values = np.fromstring(body.replace(b"\n", b","), dtype=np.int64, sep=",")
    except ValueError:
        return None
    if values.size != 4 * lines or values.max(initial=0) == INT64_MAX:
        return None
    return values.reshape(lines, 4) if np.count_nonzero(values < 0) == minus else None


def _read_csv_lines(path: Path, geometry: SensorGeometry, body: bytes) -> EventStream:
    """Parse a CSV body (the bytes after the header line) one line at a time.

    The loop only splits and parses; the first line it cannot parse is
    reported after any value fault on an earlier line.
    """
    values, linenos, unparsed = [], [], None
    lines = body.decode("ascii", errors="replace").split("\n")
    for lineno, raw in enumerate(lines, start=2):
        fields = raw.split(",")
        if len(fields) != 4:
            if not raw.strip(_ASCII_WHITESPACE):
                continue
            unparsed = f"line {lineno}: expected 4 fields, got {len(fields)}"
            break
        try:
            values.extend(map(int, fields))
        except ValueError:
            unparsed = f"line {lineno}: non-integer field"
            break
        linenos.append(lineno)
    del values[4 * len(linenos) :]  # the fields of a line that failed midway

    try:
        table = np.array(values, dtype=np.int64)
    except OverflowError:
        # A value outside int64 is always invalid; Python integers keep it
        # exact until the check reports it.
        table = np.array(values, dtype=object)
    t, x, y, p = table.reshape(-1, 4).T
    _check_events(path, geometry, t, x, y, p, lambda k: f"line {linenos[k]}", "event")
    if unparsed:
        raise EventFileError(f"{path}: {unparsed}")
    return EventStream(geometry, t, x, y, p)


def _read_binary(path: Path) -> EventStream:
    data = path.read_bytes()
    if len(data) < BINARY_HEADER_LEN:
        raise EventFileError(f"{path}: byte 0: truncated header ({len(data)} of {BINARY_HEADER_LEN} bytes)")
    if data[:4] != BINARY_MAGIC:
        raise EventFileError(f"{path}: byte 0: bad magic {data[:4]!r}, expected {BINARY_MAGIC!r}")
    try:
        geometry = SensorGeometry(*struct.unpack("<II", data[4:BINARY_HEADER_LEN]))
    except ValueError as exc:
        raise EventFileError(f"{path}: byte 4: {exc}") from None

    n_full, leftover = divmod(len(data) - BINARY_HEADER_LEN, BINARY_RECORD_LEN)
    if leftover:
        raise EventFileError(
            f"{path}: byte {BINARY_HEADER_LEN + n_full * BINARY_RECORD_LEN}: truncated record "
            f"({leftover} of {BINARY_RECORD_LEN} bytes)"
        )
    records = np.frombuffer(data, dtype=_FILE_RECORD_DTYPE, offset=BINARY_HEADER_LEN)
    stream = EventStream(geometry, *(records[name] for name in "txyp"))
    del data, records  # so that the check's temporaries stay below the cast's peak
    # The int64 cast wraps a timestamp past 2^63 - 1; the uint64 view reads it back.
    t, x, y, p = stream.t.view(np.uint64), stream.x, stream.y, stream.p
    _check_events(
        path, geometry, t, x, y, p, lambda k: f"byte {BINARY_HEADER_LEN + k * BINARY_RECORD_LEN}", "record"
    )
    return stream


def check_pgm_bits(n_bits: int) -> None:
    """Raise :class:`FrameFormatError` unless PGM holds codes of ``n_bits`` slices."""
    if n_bits > PGM_MAX_BITS:
        raise FrameFormatError(
            f"PGM caps pixels at {PGM_MAX_BITS} bits; cannot persist a {n_bits}-bit frame"
        )


def write_frame(frame: EncodedFrame, path: str | Path) -> None:
    """Write an encoded frame as binary PGM with maxval 2**N - 1."""
    check_pgm_bits(frame.n_bits)
    maxval = frame.max_code
    codes = frame.codes
    # Codes whose dtype cannot exceed maxval (uint8 at N = 8) need no scan.
    if np.iinfo(codes.dtype).max > maxval and int(codes.max(initial=0)) > maxval:
        raise FrameFormatError(f"frame contains codes above maxval {maxval}")
    g = frame.geometry
    header = f"P5\n{g.width} {g.height}\n{maxval}\n".encode("ascii")
    payload = np.ascontiguousarray(codes, dtype=np.uint8 if maxval <= 255 else ">u2")
    raster = memoryview(payload.reshape(-1).view(np.uint8))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        # One writev of both buffers, so the raster is not copied to join
        # them; a short write resumes where it stopped.
        done = 0
        while done < len(header) + len(raster):
            done += os.writev(fd, [header[done:], raster[max(done - len(header), 0) :]])
    finally:
        os.close(fd)


def read_frame(path: str | Path) -> EncodedFrame:
    """Read a PGM frame written by :func:`write_frame`.

    The maxval must be of the form 2**N - 1; N is recovered from it. The
    window-start offset is not stored in PGM and comes back as 0.
    """
    path = Path(path)
    data = path.read_bytes()
    values, pos = [], 0
    for field in ("magic", "width", "height", "maxval"):
        m = _PGM_TOKEN.match(data, pos)
        token, pos = m[1], m.end()
        if not token:
            raise FrameFormatError(f"{path}: byte {m.start(1)}: unexpected end of header")
        if field == "magic" and token != b"P5":
            raise FrameFormatError(f"{path}: byte 0: expected P5, got {token!r}")
        try:
            values.append(token if field == "magic" else int(token))
        except ValueError:
            raise FrameFormatError(f"{path}: byte {pos}: non-integer header field") from None
    _, width, height, maxval = values
    try:
        geometry = SensorGeometry(width, height)
    except ValueError as exc:
        raise FrameFormatError(f"{path}: {exc}") from None
    if maxval < 1 or (maxval & (maxval + 1)) != 0:
        raise FrameFormatError(f"{path}: maxval {maxval} is not of the form 2^N - 1")
    n_bits = maxval.bit_length()
    if n_bits > PGM_MAX_BITS:
        raise FrameFormatError(f"{path}: maxval {maxval} exceeds the PGM {PGM_MAX_BITS}-bit limit")

    pos += 1  # exactly one whitespace byte separates the header from the raster
    bytes_per_pixel = 1 if maxval <= 255 else 2
    expected = width * height * bytes_per_pixel
    raster = data[pos:]
    if len(raster) != expected:
        raise FrameFormatError(
            f"{path}: byte {pos}: raster holds {len(raster)} bytes, expected {expected}"
        )
    dtype = np.uint8 if bytes_per_pixel == 1 else np.dtype(">u2")
    codes = np.frombuffer(raster, dtype=dtype).astype(code_dtype(n_bits))
    return EncodedFrame(geometry, n_bits, codes.reshape(height, width))


@dataclass(frozen=True)
class StreamStats:
    """Summary statistics of one event stream."""

    event_count: int
    duration_us: int
    events_per_second: float
    positive_count: int
    negative_count: int
    active_pixel_count: int

    def summary(self) -> str:
        return (
            f"events={self.event_count} duration_us={self.duration_us} "
            f"rate_eps={self.events_per_second:.6g} pos={self.positive_count} "
            f"neg={self.negative_count} active_pixels={self.active_pixel_count}"
        )


def stream_info(stream: EventStream) -> StreamStats:
    """Count events, span, mean rate, polarity split and touched pixels.

    Duration is last minus first timestamp; the rate is 0 for streams
    shorter than a microsecond.
    """
    n = len(stream)
    if n == 0:
        return StreamStats(0, 0, 0.0, 0, 0, 0)
    duration = int(stream.t[-1]) - int(stream.t[0])
    rate = n / (duration / 1e6) if duration > 0 else 0.0
    pos = int(np.count_nonzero(stream.p > 0))
    # One flag per pixel, set a block of events at a time: the flat index
    # fits int32 (MAX_PIXELS), and no whole-stream index is built.
    active = np.zeros(stream.geometry.pixel_count, dtype=bool)
    for lo in range(0, n, _IO_BLOCK):
        block = stream[lo : lo + _IO_BLOCK]
        active[block.y * stream.geometry.width + block.x] = True
    return StreamStats(
        event_count=n,
        duration_us=duration,
        events_per_second=rate,
        positive_count=pos,
        negative_count=n - pos,
        active_pixel_count=int(np.count_nonzero(active)),
    )


__all__ = [
    "EventFileFormat",
    "EventFileError",
    "FrameFormatError",
    "StreamStats",
    "read_events",
    "write_events",
    "write_frame",
    "read_frame",
    "check_pgm_bits",
    "stream_info",
    "BINARY_MAGIC",
    "BINARY_HEADER_LEN",
    "BINARY_RECORD_LEN",
    "CSV_HEADER",
    "PGM_MAX_BITS",
]
