"""Core event-stream types and temporal slicing.

An event camera reports a stream of (t, x, y, p) tuples: a microsecond
timestamp, pixel coordinates and a polarity sign. This module defines the
stream container plus the time partition everything else is built on:
``slice_stream`` cuts one accumulation window of length ``N * dt`` into N
binary frames, one bit per pixel per slice (polarity is ignored).

A stream holds its events as four contiguous columns, ``t`` int64, ``x``
and ``y`` int32 and ``p`` int8, in the same (t, x, y, p) order as
:class:`Event`, the CSV format and binary-v1. A run of events is a slice of
each column, so a window of a stream shares its memory.

Timestamps are integer microseconds throughout. Slice and window intervals
are half-open ``[start, start + dt)`` so every event lands in exactly one
bin; an event exactly on a boundary belongs to the next bin.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

# Largest sensor accepted: 2^24 pixels (4096x4096). Encoding holds ~20 B per
# pixel, so an oversized header or size fails here, before any allocation.
MAX_PIXELS = 1 << 24

# Upper bound on the frame codes one encode holds and on the events one scene,
# overlay or noise draw makes (4 GiB). Counts past it come from timestamps far
# from the window origin, such as epoch clocks, or from rates, not recordings.
MAX_FRAME_BYTES = 1 << 32

# Column names and dtypes of an EventStream, in field order.
_COLUMNS = (("t", np.int64), ("x", np.int32), ("y", np.int32), ("p", np.int8))
_EVENT_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)  # 17


def _fields_equal(self, other: object) -> bool:
    """``__eq__`` of a dataclass that holds arrays: every field equal by ``np.array_equal``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _check_event_budget(events: float, what: str) -> None:
    """The event budget: ValueError when ``events`` events hold over MAX_FRAME_BYTES."""
    if _EVENT_BYTES * events > MAX_FRAME_BYTES:
        raise ValueError(
            f"{what} {events:.6g} events, over the limit of {MAX_FRAME_BYTES} bytes "
            f"at {_EVENT_BYTES} bytes an event"
        )


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a`` in ascending order, as ``np.unique`` gives them.

    A sort and an adjacent-difference mask: the first ``np.unique`` call
    in a process imports ``numpy.ma`` (about 16 ms).
    """
    a = np.sort(a)
    if len(a) > 1:
        a = a[np.concatenate(([True], a[1:] != a[:-1]))]
    return a


class Event(NamedTuple):
    """A single sensor event."""

    t: int
    x: int
    y: int
    p: int


@dataclass(frozen=True)
class SensorGeometry:
    """Sensor pixel grid, ``width`` columns by ``height`` rows, at most MAX_PIXELS."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")
        if self.width * self.height > MAX_PIXELS:
            raise ValueError(f"geometry {self.width}x{self.height} exceeds {MAX_PIXELS} pixels")

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width), the numpy array shape for one frame."""
        return (self.height, self.width)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass(eq=False)
class EventStream:
    """A time-ordered sequence of events plus the sensor geometry.

    The constructor casts each column to its dtype (``t`` int64, ``x`` and
    ``y`` int32, ``p`` int8) and makes it contiguous, copying only when
    it has to, and rejects columns of unequal length. The columns are
    treated as immutable after construction. Construction does not
    validate; use :func:`validate_stream` to check bounds/ordering of data
    from untrusted sources.
    """

    geometry: SensorGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=dtype))
        lengths = {len(self.t), len(self.x), len(self.y), len(self.p)}
        if len(lengths) != 1:
            raise ValueError(f"event columns differ in length: {sorted(lengths)}")

    @classmethod
    def from_events(cls, geometry: SensorGeometry, events: Iterable[Event | tuple]) -> "EventStream":
        """Build a stream from (t, x, y, p) tuples, preserving order."""
        rows = np.array(list(events), dtype=np.int64).reshape(-1, len(_COLUMNS))
        return cls(geometry, *rows.T)

    @classmethod
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        return cls(geometry, *(np.empty(0, dtype) for _, dtype in _COLUMNS))

    @property
    def last_t(self) -> int | None:
        return int(self.t[-1]) if len(self.t) else None

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index) -> "EventStream":
        """The events at ``index`` (a slice, a mask or indices), in that order.

        A slice gives views that share this stream's memory.
        """
        return EventStream(self.geometry, self.t[index], self.x[index], self.y[index], self.p[index])

    def __iter__(self) -> Iterator[Event]:
        columns = (self.t.tolist(), self.x.tolist(), self.y.tolist(), self.p.tolist())
        return (Event(*row) for row in zip(*columns))

    __eq__ = _fields_equal


@dataclass(frozen=True)
class SlicingConfig:
    """Temporal slicing parameters: ``bits_per_frame`` slices of ``slice_duration`` µs.

    ``window_duration`` (the accumulation window condensed into one encoded
    frame) is always exactly ``bits_per_frame * slice_duration``.
    """

    slice_duration: int
    bits_per_frame: int = 8

    def __post_init__(self) -> None:
        if self.slice_duration <= 0:
            raise ValueError(f"slice_duration must be positive, got {self.slice_duration}")
        if not 1 <= self.bits_per_frame <= 32:
            raise ValueError(f"bits_per_frame must be in 1..32, got {self.bits_per_frame}")
        if self.bits_per_frame * self.slice_duration > INT64_MAX:
            raise ValueError("window duration overflows 64-bit microseconds")

    @property
    def window_duration(self) -> int:
        return self.bits_per_frame * self.slice_duration


@dataclass
class BinarySliceStack:
    """N binary frames for one accumulation window, slice 0 oldest.

    ``slices`` has shape (N, H, W); entry (i, y, x) is True iff at least one
    event hit pixel (x, y) during slice i.
    """

    geometry: SensorGeometry
    slices: np.ndarray
    window_start: int = 0

    def __post_init__(self) -> None:
        if self.slices.ndim != 3 or self.slices.shape[1:] != self.geometry.shape:
            raise ValueError(
                f"slice stack shape {self.slices.shape} does not match geometry {self.geometry.shape}"
            )
        self.slices = self.slices.astype(np.bool_, copy=False)

    @property
    def n_slices(self) -> int:
        return self.slices.shape[0]

    __eq__ = _fields_equal


@dataclass(frozen=True)
class ValidationReport:
    """Counts of stream-invariant violations. All zero for a clean stream."""

    out_of_bounds: int = 0
    out_of_order: int = 0
    bad_polarity: int = 0

    @property
    def violation_count(self) -> int:
        return self.out_of_bounds + self.out_of_order + self.bad_polarity

    @property
    def is_clean(self) -> bool:
        return self.violation_count == 0


def event_faults(geometry: SensorGeometry, t, x, y, p) -> dict[str, np.ndarray]:
    """Per-event masks of each kind of invalid event, in check order.

    ``polarity``: p is neither -1 nor 1; ``bounds``: (x, y) lies outside
    the geometry; ``negative_t`` and ``large_t``: t lies outside
    [0, 2^63 - 1]; ``order``: t is below the previous event's. Columns of
    any integer dtype work, including object arrays of Python integers.
    """
    order = np.zeros(len(t), dtype=bool)
    order[1:] = t[1:] < t[:-1]
    return {
        "polarity": (p != 1) & (p != -1),
        "bounds": (x < 0) | (x >= geometry.width) | (y < 0) | (y >= geometry.height),
        "negative_t": t < 0,
        "large_t": t > INT64_MAX,
        "order": order,
    }


def validate_stream(stream: EventStream) -> ValidationReport:
    """Check geometry bounds, timestamp ordering and polarity values.

    Reporting only: never raises. Out-of-order counts the number of
    positions where the timestamp decreases relative to its predecessor.
    """
    faults = event_faults(stream.geometry, stream.t, stream.x, stream.y, stream.p)
    return ValidationReport(
        out_of_bounds=int(np.count_nonzero(faults["bounds"])),
        out_of_order=int(np.count_nonzero(faults["order"])),
        bad_polarity=int(np.count_nonzero(faults["polarity"])),
    )


def slice_stream(stream: EventStream, cfg: SlicingConfig, window_start: int) -> BinarySliceStack:
    """Cut one accumulation window into N binary slices.

    Slice i covers ``[window_start + i*dt, window_start + (i+1)*dt)``. A
    pixel's bit is set iff at least one event fell in that slice at that
    pixel; polarity and event multiplicity are discarded. Events outside
    the window are skipped. Requires a time-sorted stream.
    """
    if window_start < 0:
        raise ValueError(f"window_start must be non-negative, got {window_start}")
    window_end = window_start + cfg.window_duration
    if window_end > INT64_MAX:
        raise ValueError("window extends past 64-bit microsecond range")

    n = cfg.bits_per_frame
    stack = np.zeros((n, *stream.geometry.shape), dtype=np.bool_)
    t = stream.t
    lo = int(np.searchsorted(t, window_start, side="left"))
    hi = int(np.searchsorted(t, window_end, side="left"))
    idx = (t[lo:hi] - window_start) // cfg.slice_duration
    stack[idx, stream.y[lo:hi], stream.x[lo:hi]] = True
    return BinarySliceStack(stream.geometry, stack, window_start)


def merge_sorted_by_time(geometry: SensorGeometry, *parts: EventStream) -> EventStream:
    """Concatenate streams and stable-sort the events by t.

    The parts need not be sorted themselves: one stable argsort of the
    concatenated ``t`` orders everything. The result is built one column
    at a time, each concatenated and gathered once and then freed. Ties
    keep concatenation order, so callers control tie-breaking by argument
    order.
    """
    if not parts:
        return EventStream.empty(geometry)
    order = np.argsort(np.concatenate([part.t for part in parts]), kind="stable")
    columns = [np.concatenate([getattr(part, name) for part in parts])[order] for name, _ in _COLUMNS]
    return EventStream(geometry, *columns)


__all__ = [
    "MAX_PIXELS",
    "Event",
    "SensorGeometry",
    "EventStream",
    "SlicingConfig",
    "BinarySliceStack",
    "ValidationReport",
    "event_faults",
    "validate_stream",
    "slice_stream",
    "merge_sorted_by_time",
]
