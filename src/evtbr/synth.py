"""Deterministic synthetic event streams for desk-scale experiments.

Three test scenes emit events from object edges, the way a real sensor
responds to moving contrast: a full-height vertical bar sweeping in x, a
square dot sweeping in x, and a checkerboard whose cells blink in
alternation. Leading edges emit positive events, trailing edges negative;
static objects emit positive events from their whole outline.

Time is discretized into emission slices of ``emission_period`` µs. At each
slice every edge pixel receives a Poisson-distributed number of events at
the configured rate, with timestamps uniform inside the slice. Generation
is deterministic: slice s draws from a generator keyed by
(seed, domain tag, s), built the way :mod:`evtbr.noise` builds its slice
generators, with a fixed draw order, so streams are reproducible across
runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .events import EventStream, SensorGeometry, _check_event_budget, merge_sorted_by_time
from .noise import _keyed_generators

SYNTH_DOMAIN_TAG = 0x5359

_DEFAULT_SIZES = {"moving-bar": 8, "moving-dot": 4, "blinking-grid": 8}


class SceneKind(str, Enum):
    MOVING_BAR = "moving-bar"
    MOVING_DOT = "moving-dot"
    BLINKING_GRID = "blinking-grid"


@dataclass(frozen=True)
class SynthScene:
    """Description of one synthetic scene.

    velocity is in pixels per second along +x (wrapping at the sensor
    border) and is ignored by the blinking grid. object_size is the bar
    width, dot side, or grid cell side; None picks a per-kind default.
    """

    kind: SceneKind
    geometry: SensorGeometry
    velocity: float = 64.0
    events_per_edge_pixel_per_slice: float = 3.0
    duration: int = 1_000_000
    seed: int = 0
    emission_period: int = 2_500
    object_size: int | None = None

    def __post_init__(self) -> None:
        for name in ("velocity", "events_per_edge_pixel_per_slice"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if self.emission_period <= 0:
            raise ValueError(f"emission_period must be positive, got {self.emission_period}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.object_size is not None and self.object_size < 1:
            raise ValueError(f"object_size must be at least 1, got {self.object_size}")
        w, h = self.geometry.width, self.geometry.height
        if self.kind is SceneKind.MOVING_BAR and self.size > w:
            raise ValueError(f"bar width {self.size} exceeds sensor width {w}")
        if self.kind is SceneKind.MOVING_DOT and (self.size > w or self.size > h):
            raise ValueError(f"dot side {self.size} does not fit {w}x{h}")

    @property
    def size(self) -> int:
        if self.object_size is not None:
            return self.object_size
        return _DEFAULT_SIZES[self.kind.value]

    def offset_at(self, t: int) -> int:
        """Pixels traveled along +x by time t µs, floored."""
        return int(self.velocity * t / 1e6)


def _edge_pixels(scene: SynthScene, slice_index: int, t: int):
    """Edge pixel coordinates and polarities at slice start time t.

    Positive edges fill plane 0 of a (2, H, W) mask, negative ones plane 1; its
    ``np.nonzero`` then lists positives first, row-major: the RNG draw order.
    """
    h, w = scene.geometry.shape
    size = scene.size
    y0, x0 = (h - size) // 2, (w - size) // 2  # the dot's corner at rest
    edges = np.zeros((2, h, w), dtype=bool)
    if scene.kind is SceneKind.BLINKING_GRID:
        xs = np.arange(w)
        ys = np.arange(h)
        # Perimeter of each cell, with border cells clipped to the sensor.
        x_lo = (xs // size) * size
        x_hi = np.minimum(x_lo + size, w) - 1
        y_lo = (ys // size) * size
        y_hi = np.minimum(y_lo + size, h) - 1
        on_x_edge = (xs == x_lo) | (xs == x_hi)
        on_y_edge = (ys == y_lo) | (ys == y_hi)
        perimeter = on_y_edge[:, None] | on_x_edge[None, :]
        parity = ((ys // size)[:, None] + (xs // size)[None, :] + slice_index) % 2 == 0
        edges[0] = perimeter & parity
    elif scene.kind is SceneKind.MOVING_DOT and scene.velocity == 0:
        # Static dot: its whole outline blinks with positive events.
        outline = edges[0, y0 : y0 + size, x0 : x0 + size]
        outline[[0, -1], :] = True
        outline[:, [0, -1]] = True
    else:
        # A sweep over columns [x0, x0 + size) mod W: leading edge positive, trailing negative.
        if scene.kind is SceneKind.MOVING_BAR:
            rows, x0 = slice(None), scene.offset_at(t)
        else:
            rows, x0 = slice(y0, y0 + size), x0 + scene.offset_at(t)
        edges[0, rows, (x0 + size - 1) % w] = True
        edges[1, rows, x0 % w] = True
    plane, ys, xs = np.nonzero(edges)
    return xs, ys, (1 - 2 * plane).astype(np.int8)


def generate(scene: SynthScene) -> EventStream:
    """Generate the scene's event stream, sorted by timestamp.

    A scene past the event budget (``MAX_FRAME_BYTES``, 17 bytes an event)
    raises ValueError at the slice that crosses it, before that slice's
    timestamps are drawn.
    """
    period = scene.emission_period
    rate = scene.events_per_edge_pixel_per_slice
    n_slices = math.ceil(scene.duration / period)
    parts = []
    events = 0.0
    for s, rng in _keyed_generators(scene.seed, SYNTH_DOMAIN_TAG, range(n_slices)):
        start = s * period
        end = min(start + period, scene.duration)
        xs, ys, ps = _edge_pixels(scene, s, start)
        counts = rng.poisson(rate, size=xs.size)
        # Summed as float64: the int64 sum of huge counts wraps negative.
        events += counts.sum(dtype=np.float64)
        _check_event_budget(events, f"slice {s} brings the scene to")
        total = int(counts.sum())
        ts = rng.integers(start, end, size=total, dtype=np.int64)
        parts.append(
            EventStream(
                scene.geometry,
                ts,
                np.repeat(xs, counts),
                np.repeat(ys, counts),
                np.repeat(ps, counts),
            )
        )
    return merge_sorted_by_time(scene.geometry, *parts)


__all__ = [
    "SceneKind",
    "SynthScene",
    "SYNTH_DOMAIN_TAG",
    "generate",
]
