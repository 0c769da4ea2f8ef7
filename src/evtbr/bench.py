"""Encoder throughput measurement.

Run as ``python -m evtbr.bench``. The default workload is the spiking
encoder on a dense random 128x128 stream, the configuration the throughput
regression floor is defined against.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, EncoderMode, encode_stream
from .events import EventStream, SensorGeometry, SlicingConfig
from .neurons import NeuronConfig, NeuronVariant


@dataclass(frozen=True)
class BenchResult:
    n_events: int
    n_frames: int
    seconds: float

    @property
    def events_per_second(self) -> float:
        return self.n_events / self.seconds

    def summary(self) -> str:
        return (
            f"encoded {self.n_events} events into {self.n_frames} frames "
            f"in {self.seconds:.3f} s ({self.events_per_second:,.0f} events/s)"
        )


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="evtbr.bench", description="Measure spiking-encoder throughput."
    )
    parser.add_argument("--events", type=int, default=1_000_000)
    parser.add_argument("--duration-us", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = measure_encode_throughput(
        n_events=args.events,
        duration=args.duration_us,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(result.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
