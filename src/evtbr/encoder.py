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

Both modes share one core, which encodes a run of consecutive windows:
:func:`encode_stream` hands it every window of the stream, and the two
window encoders one window each. The core locates the N*K step bounds of
all its windows with one search over the stream (K = 1 in plain mode), so
no window searches the stream itself, and builds each window's flat
pixels and weights from that window's events alone. One step loop then
ORs each step's slice bit in place into its window's row of codes, at the
step's event pixels in plain mode and at the neurons that fired
(:attr:`NeuronGrid.fired`, by flat index) in spike mode. Codes are held in
the narrowest unsigned dtype that holds ``2**N - 1`` (:func:`code_dtype`:
uint8 up to N = 8), in one zeroed ``(windows, pixels)`` block capped at
:data:`MAX_FRAME_BYTES`. No slice stack is built on the encode path:
:func:`encode_tbr` and :func:`decode_tbr` remain the lossless conversion
between a :class:`BinarySliceStack` and its uint32 codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# slice_stream is not called here; it stays reachable as
# evtbr.encoder.slice_stream, the name perfbench/spans.py wraps.
from .events import (
    INT64_MAX,
    MAX_FRAME_BYTES,
    BinarySliceStack,
    EventStream,
    SensorGeometry,
    SlicingConfig,
    _fields_equal,
    slice_stream,
)
from .neurons import NeuronConfig, NeuronGrid, StepInput


class EncoderMode(str, Enum):
    TBR = "tbr"
    SPIKE_TBR = "spike-tbr"


@dataclass(eq=False)
class EncodedFrame:
    """One encoded frame: an (H, W) grid of integer codes in [0, 2**N - 1].

    Unsigned codes are kept in their dtype; any other dtype is cast to
    uint32, and a code the cast would change raises ValueError.
    """

    geometry: SensorGeometry
    n_bits: int
    codes: np.ndarray
    window_start: int = 0

    def __post_init__(self) -> None:
        if self.codes.shape != self.geometry.shape:
            raise ValueError(
                f"code array shape {self.codes.shape} does not match geometry {self.geometry.shape}"
            )
        if self.codes.dtype.kind != "u":
            codes, self.codes = self.codes, self.codes.astype(np.uint32)
            if not np.array_equal(self.codes, codes):
                raise ValueError("codes must be non-negative integers below 2**32")

    @property
    def max_code(self) -> int:
        return (1 << self.n_bits) - 1

    def normalized(self) -> np.ndarray:
        """Codes mapped to [0, 1] by dividing by 2**N - 1."""
        return self.codes.astype(np.float64) / self.max_code

    __eq__ = _fields_equal


@dataclass(frozen=True)
class EncoderConfig:
    """Complete encoder parameterization.

    ``micro_steps_per_slice`` (K >= 1) controls how many neuron updates
    happen per slice; in spike mode the slice duration must divide evenly
    into K micro steps. The neuron config is required in spike mode. Plain
    mode ignores both.
    """

    slicing: SlicingConfig
    mode: EncoderMode = EncoderMode.TBR
    neuron: NeuronConfig | None = None
    micro_steps_per_slice: int = 1

    def __post_init__(self) -> None:
        k = self.micro_steps_per_slice
        if k < 1:
            raise ValueError(f"micro_steps_per_slice must be >= 1, got {k}")
        spiking = self.mode is EncoderMode.SPIKE_TBR
        if spiking and self.slicing.slice_duration % k != 0:
            raise ValueError(
                f"slice duration {self.slicing.slice_duration}us is not divisible "
                f"into {k} micro steps"
            )
        if spiking and self.neuron is None:
            raise ValueError("spike mode requires a neuron config")

    def label(self) -> str:
        """Short name for reports, e.g. 'tbr' or 'spike-tbr-lif'."""
        if self.mode is EncoderMode.TBR:
            return "tbr"
        return f"spike-tbr-{self.neuron.variant.value}"


def code_dtype(n_bits: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the codes of ``n_bits`` slices."""
    return np.min_scalar_type((1 << n_bits) - 1)


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

    Each slice's bit is set on every pixel with an event in that slice, so
    the codes equal :func:`encode_tbr` of :func:`slice_stream`'s stack.
    Events outside the window are skipped.
    """
    return _encode_windows(stream, cfg, None, window_start, 1)[0]


def encode_window_spike_tbr(
    stream: EventStream, cfg: EncoderConfig, grid: NeuronGrid, window_start: int
) -> EncodedFrame:
    """Spike-mode encoding of one window using (and mutating) ``grid``.

    Per slice: events are binned into K micro steps, each micro step drives
    one neuron update, and the slice's digit is set on every neuron that
    fired in any of them. Membrane state carries over into the next slice
    and window.
    """
    return _encode_windows(stream, cfg, grid, window_start, 1)[0]


def _encode_windows(
    stream: EventStream,
    cfg: EncoderConfig,
    grid: NeuronGrid | None,
    start: int,
    n_windows: int,
) -> list[EncodedFrame]:
    """The core of both modes: ``n_windows`` consecutive windows from ``start``.

    ``grid`` is None in plain mode. Each window runs N*K steps, and step i
    of window w sets bit ``i // K`` in row w of one zeroed code block, on
    its active pixels: the step's event pixels in plain mode (K = 1), the
    neurons that fired after ``grid.step`` in spike mode. The fancy-index
    OR is exact with repeated pixels, because every write in one step ORs
    the same bit.
    """
    slicing = cfg.slicing
    n, duration = slicing.bits_per_frame, slicing.window_duration
    k = 1 if grid is None else cfg.micro_steps_per_slice
    steps = n * k
    geometry = stream.geometry
    if start < 0 or start + n_windows * duration > INT64_MAX:
        raise ValueError("window outside representable microsecond range")
    dtype = code_dtype(n)
    nbytes = n_windows * (geometry.pixel_count * dtype.itemsize + 16 * steps)  # int64 edge, bound
    if nbytes > MAX_FRAME_BYTES:
        last = "no events" if stream.last_t is None else f"last event at t={stream.last_t} us"
        raise ValueError(
            f"{n_windows} windows of {duration} us ({last}) would hold {nbytes} bytes "
            f"of frame codes and step bounds, over the limit of {MAX_FRAME_BYTES}"
        )
    if grid is not None and grid.geometry != geometry:
        raise ValueError(f"grid geometry {grid.geometry} does not match stream geometry {geometry}")
    if grid is not None and grid.config != cfg.neuron:
        raise ValueError(f"grid neuron config {grid.config} does not match encoder's {cfg.neuron}")

    # Bounds of every step of every window, located with one search.
    edges = start + slicing.slice_duration // k * np.arange(n_windows * steps + 1, dtype=np.int64)
    bounds = np.searchsorted(stream.t, edges, side="left")
    block = np.zeros((n_windows, geometry.pixel_count), dtype)
    bit = dtype.type
    for w, codes in enumerate(block):
        # The flat pixels (and weights) of the window's events alone, and
        # its step bounds relative to its first event.
        lo, hi = int(bounds[w * steps]), int(bounds[(w + 1) * steps])
        window = (bounds[w * steps : (w + 1) * steps + 1] - lo).tolist()
        x, y = stream.x[lo:hi], stream.y[lo:hi]
        if grid is None:
            pixels = y.astype(np.int64) * geometry.width + x
        else:
            events = StepInput.from_events(geometry, x, y, stream.p[lo:hi], grid.config)
            weights, pixels = events.values, events.pixels
        for i in range(steps):
            a, b = window[i], window[i + 1]
            if grid is None:
                active = pixels[a:b]
            else:
                grid.step(StepInput(weights[a:b], b - a, pixels[a:b]))
                active = grid.fired
            codes[active] |= bit(1 << (i // k))
    return [
        EncodedFrame(geometry, n, row.reshape(geometry.shape), start + w * duration)
        for w, row in enumerate(block)
    ]


def encode_stream(
    stream: EventStream,
    cfg: EncoderConfig,
    grid: NeuronGrid | None = None,
    n_windows: int | None = None,
) -> list[EncodedFrame]:
    """Encode a whole stream as consecutive windows starting at t=0.

    ``n_windows`` overrides the window count (default: enough windows to
    cover the last event; an empty stream yields no frames). In spike mode
    a fresh grid is created unless one with the stream's geometry and
    ``cfg.neuron`` is passed in, and its membrane state carries across windows.

    The frames' codes are the rows of one zeroed ``(n_windows, pixels)``
    block in :func:`code_dtype`. A block that, with 16 bytes of step
    bounds per step, holds more than :data:`MAX_FRAME_BYTES` raises
    ValueError before the block is allocated or anything is encoded.
    """
    if n_windows is None:
        if len(stream) == 0:
            return []
        n_windows = stream.last_t // cfg.slicing.window_duration + 1
    n_windows = int(n_windows)
    if n_windows < 0:
        raise ValueError(f"n_windows must be non-negative, got {n_windows}")
    if cfg.mode is EncoderMode.TBR:
        grid = None
    elif grid is None:
        grid = NeuronGrid(stream.geometry, cfg.neuron)
    return _encode_windows(stream, cfg, grid, 0, n_windows)


__all__ = [
    "EncoderMode",
    "EncodedFrame",
    "EncoderConfig",
    "MAX_FRAME_BYTES",
    "code_dtype",
    "encode_tbr",
    "decode_tbr",
    "encode_window_tbr",
    "encode_window_spike_tbr",
    "encode_stream",
]
