"""Synthetic noise injection and real background-noise merging.

The synthetic model adds, per pixel and per slice of length ``slice_duration``,
at most one spurious event with probability ``probability``; its timestamp is
uniform within the slice. Injection is deterministic for a fixed seed: each
slice draws from its own generator keyed by (seed, domain tag, slice index),
and within a slice the draw order is fixed (one uniform per pixel in row-major
order, then timestamps for the firing pixels, then polarities).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .events import EventStream, SensorGeometry, merge_sorted_by_time

# Keeps noise draws decorrelated from any other seeded subsystem that might
# share the user-facing seed value.
NOISE_DOMAIN_TAG = 0x4E5A


class PolarityRule(str, Enum):
    """How injected events pick a polarity.

    The encoders discard polarity, so this choice cannot affect frames; it
    exists so written noise files are fully specified and reproducible.
    """

    RANDOM_UNIFORM = "random-uniform"
    FIXED_POSITIVE = "fixed-positive"


@dataclass(frozen=True)
class NoiseConfig:
    """Per-pixel per-slice Bernoulli noise parameters."""

    probability: float
    slice_duration: int
    rng_seed: int = 0
    polarity_rule: PolarityRule = PolarityRule.RANDOM_UNIFORM

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.slice_duration <= 0:
            raise ValueError(f"slice_duration must be positive, got {self.slice_duration}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


def _slice_rng(cfg: NoiseConfig, slice_index: int) -> np.random.Generator:
    return np.random.default_rng([cfg.rng_seed, NOISE_DOMAIN_TAG, slice_index])


def _draw_slice(
    cfg: NoiseConfig,
    geometry: SensorGeometry,
    slice_index: int,
    start: int,
    end: int,
) -> EventStream:
    """Noise events for one slice covering [start, end), in pixel order."""
    rng = _slice_rng(cfg, slice_index)
    u = rng.random(geometry.pixel_count)
    fired = np.nonzero(u < cfg.probability)[0]
    n = fired.size
    ts = rng.integers(start, end, size=n, dtype=np.int64)
    if cfg.polarity_rule is PolarityRule.RANDOM_UNIFORM:
        pol = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    else:
        pol = np.ones(n, dtype=np.int8)
    return EventStream(geometry, ts, fired % geometry.width, fired // geometry.width, pol)


def default_span(stream: EventStream, slice_duration: int) -> tuple[int, int]:
    """Span [0, t1) covering the stream with whole noise slices.

    t1 is the last event time plus one, rounded up to a slice multiple, so
    the final event's slice is fully eligible for noise.
    """
    if len(stream) == 0:
        raise ValueError("cannot infer a noise span from an empty stream")
    last = int(stream.t[-1])
    n_slices = (last + 1 + slice_duration - 1) // slice_duration
    return 0, n_slices * slice_duration


def noise_only_stream(
    cfg: NoiseConfig, geometry: SensorGeometry, span: tuple[int, int]
) -> EventStream:
    """Pure noise over the span: injection into an empty stream."""
    return inject_noise(EventStream.empty(geometry), cfg, span)


def inject_noise(
    stream: EventStream,
    cfg: NoiseConfig,
    span: tuple[int, int] | None = None,
) -> EventStream:
    """Superimpose Bernoulli noise events onto a stream.

    Every input event is preserved; at each (pixel, slice) within the span
    at most one noise event is added. A slice that the span cuts short only
    receives timestamps inside the span. When ``span`` is omitted it is
    inferred from the stream via :func:`default_span`. Events that tie in t
    keep signal before noise.
    """
    if span is None:
        span = default_span(stream, cfg.slice_duration)
    t0, t1 = int(span[0]), int(span[1])
    if t0 < 0:
        raise ValueError(f"span start must be non-negative, got {t0}")
    if t0 >= t1:
        raise ValueError(f"span must be non-empty, got [{t0}, {t1})")
    if cfg.probability == 0.0:
        return stream

    dt = cfg.slice_duration
    n_slices = (t1 - t0 + dt - 1) // dt
    parts = []
    for s in range(n_slices):
        start = t0 + s * dt
        chunk = _draw_slice(cfg, stream.geometry, s, start, min(start + dt, t1))
        if len(chunk):
            parts.append(chunk)

    if not parts:
        return stream
    # Slices are disjoint in time and each is in pixel order, so one stable
    # sort orders the noise by (t, pixel) and puts signal first on ties.
    return merge_sorted_by_time(stream.geometry, stream, *parts)


def merge_noise_recording(
    signal: EventStream,
    noise: EventStream,
    target_geometry: SensorGeometry,
) -> EventStream:
    """Overlay a recorded background-noise stream onto a signal stream.

    Noise coordinates are rescaled to the target geometry by nearest-pixel
    mapping (x' = x * W_target // W_noise), its start is aligned to the
    signal's first event, and the recording is tiled end to end, one copy
    every (last - first noise timestamp) µs, until it covers the signal,
    then truncated at the signal's last event. A recording whose events all
    share one timestamp has no period to tile with: it is laid over the
    signal once, at the signal's first event.
    """
    if signal.geometry != target_geometry:
        raise ValueError(
            f"signal geometry {signal.geometry} does not match target {target_geometry}"
        )
    if len(noise) == 0:
        raise ValueError("noise recording is empty")
    if len(signal) == 0:
        return signal

    nx = noise.x.astype(np.int64) * target_geometry.width // noise.geometry.width
    ny = noise.y.astype(np.int64) * target_geometry.height // noise.geometry.height

    sig_start = int(signal.t[0])
    sig_end = int(signal.t[-1])
    noise_t = noise.t.astype(np.int64) - int(noise.t[0])
    period = int(noise_t[-1])
    n_copies = (sig_end - sig_start) // period + 1 if period > 0 else 1

    # Copy-major: every event of copy c, in recording order, before copy c+1.
    offsets = sig_start + period * np.arange(n_copies, dtype=np.int64)
    shifted = (offsets[:, None] + noise_t).ravel()
    keep = shifted <= sig_end
    overlay = EventStream(
        target_geometry,
        shifted[keep],
        np.tile(nx, n_copies)[keep],
        np.tile(ny, n_copies)[keep],
        np.tile(noise.p, n_copies)[keep],
    )
    return merge_sorted_by_time(target_geometry, signal, overlay)


__all__ = [
    "PolarityRule",
    "NoiseConfig",
    "NOISE_DOMAIN_TAG",
    "default_span",
    "inject_noise",
    "noise_only_stream",
    "merge_noise_recording",
]
