"""Temporal binary encoders: event streams in, integer-coded frames out.

Plain mode (``tbr``): each accumulation window is cut into N binary slices
and every pixel's slice history is read as an N-digit binary number, slice
N-1 (the most recent) being the most significant digit. Codes live in
``[0, 2**N - 1]``; the normalized value ``code / (2**N - 1)`` is derived on
demand and never stored. The conversion is lossless: :func:`decode_tbr`
recovers the slice stack exactly.

Spike mode (``spike-tbr``): the same bit-stacking, but each slice's binary
digit comes from a per-pixel spiking-neuron grid instead of the raw event
indicator. Events are integrated on the membrane; the digit is 1 iff the
neuron fired at least once during the slice. Isolated events (noise) are
absorbed by the leak and never reach the threshold, at the cost of the
strict losslessness of the plain mode.

Membrane state persists across the slices of a window and, by default,
across the consecutive windows of one recording; it is cleared only by an
explicit :meth:`NeuronGrid.reset`. Each slice may be subdivided into K
micro steps (K = 1 by default) for finer integration granularity.

Both modes share one window loop, :func:`encode_stream`. It locates the
window bounds once per stream, with one search over all window edges, and
hands each window only its own events as a zero-copy slice.

No slice stack is built on the encode path: each window ORs its bits into
one preallocated uint32 code array in place, per event in plain mode and
per slice of spike frames in spike mode. :func:`encode_tbr` and
:func:`decode_tbr` remain the lossless conversion between a
:class:`BinarySliceStack` and its codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# slice_stream is not called here; it stays reachable as
# evtbr.encoder.slice_stream, the name perfbench/spans.py wraps.
from .events import (
    INT64_MAX,
    BinarySliceStack,
    EventStream,
    SensorGeometry,
    SlicingConfig,
    slice_stream,
)
from .neurons import NeuronConfig, NeuronGrid, StepInput


class EncoderMode(str, Enum):
    TBR = "tbr"
    SPIKE_TBR = "spike-tbr"


@dataclass(eq=False)
class EncodedFrame:
    """One encoded frame: an (H, W) grid of integer codes in [0, 2**N - 1]."""

    geometry: SensorGeometry
    n_bits: int
    codes: np.ndarray
    window_start: int = 0

    def __post_init__(self) -> None:
        if self.codes.shape != self.geometry.shape:
            raise ValueError(
                f"code array shape {self.codes.shape} does not match geometry {self.geometry.shape}"
            )
        if self.codes.dtype != np.uint32:
            self.codes = self.codes.astype(np.uint32)

    @property
    def max_code(self) -> int:
        return (1 << self.n_bits) - 1

    def normalized(self) -> np.ndarray:
        """Codes mapped to [0, 1] by dividing by 2**N - 1."""
        return self.codes.astype(np.float64) / self.max_code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedFrame):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.n_bits == other.n_bits
            and self.window_start == other.window_start
            and np.array_equal(self.codes, other.codes)
        )


@dataclass(frozen=True)
class EncoderConfig:
    """Complete encoder parameterization.

    ``micro_steps_per_slice`` (K) controls how many neuron updates happen
    per slice; the slice duration must divide evenly into K micro steps.
    The neuron config is required in spike mode and ignored otherwise.
    """

    slicing: SlicingConfig
    mode: EncoderMode = EncoderMode.TBR
    neuron: NeuronConfig | None = None
    micro_steps_per_slice: int = 1

    def __post_init__(self) -> None:
        k = self.micro_steps_per_slice
        if k < 1:
            raise ValueError(f"micro_steps_per_slice must be >= 1, got {k}")
        if self.slicing.slice_duration % k != 0:
            raise ValueError(
                f"slice duration {self.slicing.slice_duration}us is not divisible "
                f"into {k} micro steps"
            )
        if self.mode is EncoderMode.SPIKE_TBR and self.neuron is None:
            raise ValueError("spike mode requires a neuron config")

    def label(self) -> str:
        """Short name for reports, e.g. 'tbr' or 'spike-tbr-lif'."""
        if self.mode is EncoderMode.TBR:
            return "tbr"
        return f"spike-tbr-{self.neuron.variant.value}"


def encode_tbr(stack: BinarySliceStack) -> EncodedFrame:
    """Convert an N-slice binary stack to per-pixel integer codes.

    code(x, y) = sum_i slices[i](x, y) * 2**i; slice N-1 contributes the
    most significant bit.
    """
    n = stack.n_slices
    codes = np.zeros(stack.geometry.shape, dtype=np.uint32)
    for i in range(n):
        codes |= stack.slices[i].astype(np.uint32) << np.uint32(i)
    return EncodedFrame(stack.geometry, n, codes, stack.window_start)


def decode_tbr(frame: EncodedFrame) -> BinarySliceStack:
    """Exact inverse of :func:`encode_tbr`."""
    if frame.codes.max(initial=0) > frame.max_code:
        raise ValueError(f"frame contains codes above {frame.max_code}")
    bit_index = np.arange(frame.n_bits, dtype=np.uint32)[:, None, None]
    slices = (frame.codes[None, :, :] >> bit_index) & 1
    return BinarySliceStack(frame.geometry, slices.astype(np.bool_), frame.window_start)


def encode_window_tbr(stream: EventStream, cfg: EncoderConfig, window_start: int) -> EncodedFrame:
    """Plain-mode encoding of one window.

    Each event in the window ORs its slice's bit into its pixel's code, so
    the codes equal :func:`encode_tbr` of :func:`slice_stream`'s stack.
    Events outside the window are skipped.
    """
    if window_start < 0:
        raise ValueError(f"window_start must be non-negative, got {window_start}")
    slicing = cfg.slicing
    window_end = window_start + slicing.window_duration
    if window_end > INT64_MAX:
        raise ValueError("window extends past 64-bit microsecond range")

    geometry, t = stream.geometry, stream.t
    codes = np.zeros(geometry.pixel_count, dtype=np.uint32)
    lo, hi = np.searchsorted(t, [window_start, window_end], side="left").tolist()
    if hi > lo:
        bits = np.uint32(1) << ((t[lo:hi] - window_start) // slicing.slice_duration).astype(np.uint32)
        flat = stream.y[lo:hi].astype(np.int64) * geometry.width + stream.x[lo:hi]
        np.bitwise_or.at(codes, flat, bits)
    return EncodedFrame(geometry, slicing.bits_per_frame, codes.reshape(geometry.shape), window_start)


def encode_window_spike_tbr(
    stream: EventStream,
    cfg: EncoderConfig,
    grid: NeuronGrid,
    window_start: int,
) -> EncodedFrame:
    """Spike-mode encoding of one window using (and mutating) ``grid``.

    Per slice: events are binned into K micro steps, each micro step drives
    one neuron update, and the slice's digit is the OR of the emitted spike
    frames, written into the codes in place. Membrane state carries over
    into the next slice and window.
    """
    if grid.geometry != stream.geometry:
        raise ValueError(
            f"grid geometry {grid.geometry} does not match stream geometry {stream.geometry}"
        )
    slicing = cfg.slicing
    n = slicing.bits_per_frame
    k = cfg.micro_steps_per_slice
    micro_dt = slicing.slice_duration // k
    if window_start < 0 or window_start + slicing.window_duration > INT64_MAX:
        raise ValueError("window outside representable microsecond range")

    # Bounds of all N*K micro steps, located with one search, relative to
    # the window's first event.
    edges = window_start + micro_dt * np.arange(n * k + 1, dtype=np.int64)
    bounds = np.searchsorted(stream.t, edges, side="left")
    lo, hi = int(bounds[0]), int(bounds[-1])
    bounds = (bounds - lo).tolist()
    geometry, x, y, p = stream.geometry, stream.x, stream.y, stream.p
    events = StepInput.from_events(geometry, x[lo:hi], y[lo:hi], p[lo:hi], grid.config)
    weights, pixels = events.values, events.pixels

    codes = np.zeros(geometry.shape, dtype=np.uint32)
    spikes_before = grid.spike_count
    for i in range(n):
        steps = zip(bounds[i * k : (i + 1) * k], bounds[i * k + 1 : (i + 1) * k + 1])
        fired = grid.spike_window(
            StepInput(weights[a:b], b - a, pixels[a:b]) for a, b in steps
        )
        # The spike tally tells, without a scan, whether any pixel fired and
        # at most how many: a masked OR suits a few, a full pass suits many.
        spikes, spikes_before = grid.spike_count - spikes_before, grid.spike_count
        if 64 * spikes >= geometry.pixel_count:
            codes |= fired.astype(np.uint32) << np.uint32(i)
        elif spikes:
            np.bitwise_or(codes, np.uint32(1 << i), out=codes, where=fired)
    return EncodedFrame(geometry, n, codes, window_start)


def encode_stream(
    stream: EventStream,
    cfg: EncoderConfig,
    grid: NeuronGrid | None = None,
    n_windows: int | None = None,
) -> list[EncodedFrame]:
    """Encode a whole stream as consecutive windows starting at t=0.

    ``n_windows`` overrides the window count (default: enough windows to
    cover the last event; an empty stream yields no frames). In spike mode
    a fresh grid is created unless one is passed in, and its membrane state
    carries across windows.
    """
    duration = cfg.slicing.window_duration
    if n_windows is None:
        if len(stream) == 0:
            return []
        n_windows = stream.last_t // duration + 1
    n_windows = int(n_windows)
    if n_windows * duration > INT64_MAX:
        raise ValueError("window outside representable microsecond range")

    if cfg.mode is EncoderMode.SPIKE_TBR and grid is None:
        grid = NeuronGrid(stream.geometry, cfg.neuron)

    edges = np.arange(n_windows + 1, dtype=np.int64) * duration
    bounds = np.searchsorted(stream.t, edges, side="left").tolist()
    frames = []
    for w in range(n_windows):
        window = EventStream(stream.geometry, stream.events[bounds[w] : bounds[w + 1]])
        start = w * duration
        if cfg.mode is EncoderMode.TBR:
            frames.append(encode_window_tbr(window, cfg, start))
        else:
            frames.append(encode_window_spike_tbr(window, cfg, grid, start))
    return frames


__all__ = [
    "EncoderMode",
    "EncodedFrame",
    "EncoderConfig",
    "encode_tbr",
    "decode_tbr",
    "encode_window_tbr",
    "encode_window_spike_tbr",
    "encode_stream",
]
