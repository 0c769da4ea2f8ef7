"""Encoder throughput measurement for the acceptance throughput floor.

The default workload is the spiking encoder on a dense random 128x128
stream, the configuration the floor is defined against. End-to-end
benchmarks of the CLI are in ``perfbench/run.py``. Only the tests use
this module; it is not part of the package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from evtbr.encoder import EncoderConfig, EncoderMode, encode_stream
from evtbr.events import EventStream, SensorGeometry, SlicingConfig
from evtbr.neurons import NeuronConfig, NeuronVariant


@dataclass(frozen=True)
class BenchResult:
    n_events: int
    n_frames: int
    seconds: float

    @property
    def events_per_second(self) -> float:
        return self.n_events / self.seconds


def random_stream(
    geometry: SensorGeometry, n_events: int, duration: int, seed: int = 0
) -> EventStream:
    """Uniform random events over [0, duration), sorted by time."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, duration, size=n_events, dtype=np.int64))
    x = rng.integers(0, geometry.width, size=n_events, dtype=np.int32)
    y = rng.integers(0, geometry.height, size=n_events, dtype=np.int32)
    p = rng.integers(0, 2, size=n_events, dtype=np.int8) * 2 - 1
    return EventStream(geometry, t, x, y, p)


def default_bench_config() -> EncoderConfig:
    return EncoderConfig(
        slicing=SlicingConfig(slice_duration=2_500, bits_per_frame=8),
        mode=EncoderMode.SPIKE_TBR,
        neuron=NeuronConfig(variant=NeuronVariant.LIF, beta=0.5),
    )


def measure_encode_throughput(
    n_events: int = 1_000_000,
    geometry: SensorGeometry = SensorGeometry(128, 128),
    duration: int = 1_000_000,
    cfg: EncoderConfig | None = None,
    repeats: int = 3,
    seed: int = 0,
) -> BenchResult:
    """Best-of-N wall-clock timing of encode_stream on a random stream."""
    if cfg is None:
        cfg = default_bench_config()
    stream = random_stream(geometry, n_events, duration, seed)
    best = float("inf")
    n_frames = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        frames = encode_stream(stream, cfg)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        n_frames = len(frames)
    return BenchResult(n_events=n_events, n_frames=n_frames, seconds=best)

