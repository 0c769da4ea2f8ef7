"""Core event-stream types and temporal slicing.

An event camera reports a stream of (x, y, t, p) tuples: pixel coordinates,
a microsecond timestamp and a polarity sign. This module defines the stream
container plus the time partition everything else is built on:
``slice_stream`` cuts one accumulation window of length ``N * dt`` into N
binary frames, one bit per pixel per slice (polarity is ignored).

Timestamps are integer microseconds throughout. Slice and window intervals
are half-open ``[start, start + dt)`` so every event lands in exactly one
bin; an event exactly on a boundary belongs to the next bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

# In-memory event record layout. Field order matches iteration order of Event.
EVENT_DTYPE = np.dtype(
    [("t", np.int64), ("x", np.int32), ("y", np.int32), ("p", np.int8)]
)


class Event(NamedTuple):
    """A single sensor event."""

    x: int
    y: int
    t: int
    p: int


@dataclass(frozen=True)
class SensorGeometry:
    """Sensor pixel grid, ``width`` columns by ``height`` rows."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")

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

    The event array is stored as a structured numpy array (EVENT_DTYPE) and
    is treated as immutable after construction. Construction does not
    validate; use :func:`validate_stream` to check bounds/ordering of data
    from untrusted sources.
    """

    geometry: SensorGeometry
    events: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=EVENT_DTYPE))

    def __post_init__(self) -> None:
        if self.events.dtype != EVENT_DTYPE:
            raise ValueError(f"event array must have dtype {EVENT_DTYPE}, got {self.events.dtype}")

    @classmethod
    def from_events(cls, geometry: SensorGeometry, events: Iterable[Event | tuple]) -> "EventStream":
        """Build a stream from (x, y, t, p) tuples, preserving order."""
        rows = [(t, x, y, p) for (x, y, t, p) in events]
        arr = np.array(rows, dtype=EVENT_DTYPE) if rows else np.empty(0, dtype=EVENT_DTYPE)
        return cls(geometry, arr)

    @classmethod
    def from_arrays(cls, geometry: SensorGeometry, t, x, y, p) -> "EventStream":
        """Build a stream from four equal-length columns, preserving order.

        The one place that fills EVENT_DTYPE records from columns.
        """
        arr = np.empty(len(t), dtype=EVENT_DTYPE)
        arr["t"] = t
        arr["x"] = x
        arr["y"] = y
        arr["p"] = p
        return cls(geometry, arr)

    @classmethod
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        return cls(geometry)

    @property
    def t(self) -> np.ndarray:
        return self.events["t"]

    @property
    def x(self) -> np.ndarray:
        return self.events["x"]

    @property
    def y(self) -> np.ndarray:
        return self.events["y"]

    @property
    def p(self) -> np.ndarray:
        return self.events["p"]

    @property
    def first_t(self) -> int | None:
        return int(self.events["t"][0]) if len(self.events) else None

    @property
    def last_t(self) -> int | None:
        return int(self.events["t"][-1]) if len(self.events) else None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        for rec in self.events:
            yield Event(int(rec["x"]), int(rec["y"]), int(rec["t"]), int(rec["p"]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.events, other.events)


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
        if self.slices.dtype != np.bool_:
            self.slices = self.slices.astype(np.bool_)

    @property
    def n_slices(self) -> int:
        return self.slices.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinarySliceStack):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.window_start == other.window_start
            and np.array_equal(self.slices, other.slices)
        )


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


def validate_stream(stream: EventStream) -> ValidationReport:
    """Check geometry bounds, timestamp ordering and polarity values.

    Reporting only: never raises. Out-of-order counts the number of
    positions where the timestamp decreases relative to its predecessor.
    """
    if len(stream) == 0:
        return ValidationReport()
    g = stream.geometry
    x, y, t, p = stream.x, stream.y, stream.t, stream.p
    oob = int(np.count_nonzero((x < 0) | (x >= g.width) | (y < 0) | (y >= g.height)))
    ooo = int(np.count_nonzero(np.diff(t) < 0))
    badp = int(np.count_nonzero((p != 1) & (p != -1)))
    return ValidationReport(out_of_bounds=oob, out_of_order=ooo, bad_polarity=badp)


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
    if hi > lo:
        idx = (t[lo:hi] - window_start) // cfg.slice_duration
        stack[idx, stream.y[lo:hi], stream.x[lo:hi]] = True
    return BinarySliceStack(stream.geometry, stack, window_start)


def merge_sorted_by_time(
    geometry: SensorGeometry, *parts: "EventStream | np.ndarray"
) -> EventStream:
    """Concatenate streams or event record arrays and stable-sort by t.

    Ties keep concatenation order, so callers control tie-breaking by
    argument order.
    """
    arrays = [p.events if isinstance(p, EventStream) else p for p in parts]
    merged = np.concatenate(arrays) if arrays else np.empty(0, dtype=EVENT_DTYPE)
    order = np.argsort(merged["t"], kind="stable")
    return EventStream(geometry, merged[order])


__all__ = [
    "EVENT_DTYPE",
    "Event",
    "SensorGeometry",
    "EventStream",
    "SlicingConfig",
    "BinarySliceStack",
    "ValidationReport",
    "validate_stream",
    "slice_stream",
    "merge_sorted_by_time",
]
