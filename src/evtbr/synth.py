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

from .events import EventStream, SensorGeometry, merge_sorted_by_time
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


def _bar_masks(scene: SynthScene, t: int) -> tuple[np.ndarray, np.ndarray]:
    h, w = scene.geometry.shape
    width = scene.size
    offset = scene.offset_at(t)
    lead = (offset + width - 1) % w
    trail = offset % w
    pos = np.zeros((h, w), dtype=bool)
    neg = np.zeros((h, w), dtype=bool)
    pos[:, lead] = True
    neg[:, trail] = True
    return pos, neg


def _dot_masks(scene: SynthScene, t: int) -> tuple[np.ndarray, np.ndarray]:
    h, w = scene.geometry.shape
    side = scene.size
    y0 = (h - side) // 2
    x0 = ((w - side) // 2 + scene.offset_at(t)) % w
    pos = np.zeros((h, w), dtype=bool)
    neg = np.zeros((h, w), dtype=bool)
    if scene.velocity == 0:
        # Static dot: its whole outline blinks with positive events.
        cols = (x0 + np.arange(side)) % w
        pos[y0, cols] = True
        pos[y0 + side - 1, cols] = True
        pos[y0 : y0 + side, cols[0]] = True
        pos[y0 : y0 + side, cols[-1]] = True
    else:
        pos[y0 : y0 + side, (x0 + side - 1) % w] = True
        neg[y0 : y0 + side, x0] = True
    return pos, neg


def _grid_masks(scene: SynthScene, slice_index: int) -> tuple[np.ndarray, np.ndarray]:
    h, w = scene.geometry.shape
    cell = scene.size
    xs = np.arange(w)
    ys = np.arange(h)
    # Perimeter of each cell, with border cells clipped to the sensor.
    x_lo = (xs // cell) * cell
    x_hi = np.minimum(x_lo + cell, w) - 1
    y_lo = (ys // cell) * cell
    y_hi = np.minimum(y_lo + cell, h) - 1
    on_x_edge = (xs == x_lo) | (xs == x_hi)
    on_y_edge = (ys == y_lo) | (ys == y_hi)
    perimeter = on_y_edge[:, None] | on_x_edge[None, :]
    parity = ((ys // cell)[:, None] + (xs // cell)[None, :] + slice_index) % 2 == 0
    pos = perimeter & parity
    return pos, np.zeros((h, w), dtype=bool)


def _edge_pixels(scene: SynthScene, slice_index: int, t: int):
    """Edge pixel coordinates and polarities at slice start time t.

    Positive-edge pixels come first, each group in row-major order, fixing
    the RNG draw order.
    """
    if scene.kind is SceneKind.MOVING_BAR:
        pos, neg = _bar_masks(scene, t)
    elif scene.kind is SceneKind.MOVING_DOT:
        pos, neg = _dot_masks(scene, t)
    else:
        pos, neg = _grid_masks(scene, slice_index)
    py, px = np.nonzero(pos)
    ny, nx = np.nonzero(neg)
    xs = np.concatenate([px, nx])
    ys = np.concatenate([py, ny])
    ps = np.concatenate(
        [np.ones(px.size, dtype=np.int8), np.full(nx.size, -1, dtype=np.int8)]
    )
    return xs, ys, ps


def generate(scene: SynthScene) -> EventStream:
    """Generate the scene's event stream, sorted by timestamp."""
    period = scene.emission_period
    rate = scene.events_per_edge_pixel_per_slice
    n_slices = math.ceil(scene.duration / period)
    parts = []
    for s, rng in _keyed_generators(scene.seed, SYNTH_DOMAIN_TAG, range(n_slices)):
        start = s * period
        end = min(start + period, scene.duration)
        xs, ys, ps = _edge_pixels(scene, s, start)
        counts = rng.poisson(rate, size=xs.size)
        total = int(counts.sum())
        if total == 0:
            continue
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
