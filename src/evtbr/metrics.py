"""Frame-level comparison metrics and noise-robustness measurement.

Encoded frames with very similar event content can land on very different
integer codes, so distances are measured three ways: mean normalized |Δcode|
per pixel, differing bits across the decoded slice stacks, and the count of
pixels whose codes differ at all. Noise filtering is measured as the ratio
of events fed into a spiking encoder to the spikes it emits, and robustness
as frame distance between noisy and clean encodings swept over noise levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import EncodedFrame, EncoderConfig, EncoderMode, encode_stream
from .events import EventStream
from .neurons import NeuronGrid
# inject_noise is not called here; perfbench/spans.py wraps it by this name.
from .noise import NoiseConfig, inject_noise, inject_noise_levels
from .synth import SynthScene, generate

CURVE_CSV_HEADER = "p,encoder,l1_mean,l1_std,hamming_mean,changed_pixels_mean"


@dataclass(frozen=True)
class FrameDistance:
    """Pixelwise distance between two encoded frames of equal shape and N.

    l1_mean is the per-pixel mean of |code_a - code_b| / (2^N - 1);
    hamming_bits counts differing bits between the two slice stacks;
    changed_pixels counts pixels with any code difference. All three are
    zero exactly when the frames are identical.
    """

    l1_mean: float
    hamming_bits: int
    changed_pixels: int


def frame_distance(a: EncodedFrame, b: EncodedFrame) -> FrameDistance:
    if a.geometry != b.geometry:
        raise ValueError(f"geometry mismatch: {a.geometry} vs {b.geometry}")
    if a.n_bits != b.n_bits:
        raise ValueError(f"bit-depth mismatch: {a.n_bits} vs {b.n_bits}")
    diff = np.abs(a.codes.astype(np.int64) - b.codes.astype(np.int64))
    l1_mean = float(diff.sum()) / (a.max_code * a.geometry.pixel_count)
    xor = np.ascontiguousarray(a.codes ^ b.codes)
    hamming = int(np.unpackbits(xor.view(np.uint8)).sum())
    changed = int(np.count_nonzero(diff))
    return FrameDistance(l1_mean, hamming, changed)


@dataclass(frozen=True)
class FilterStats:
    """Event-to-spike accounting for one spiking-encoder run."""

    input_events: int
    output_spikes: int

    @property
    def suppression_factor(self) -> float:
        if self.output_spikes > 0:
            return self.input_events / self.output_spikes
        return math.inf if self.input_events > 0 else 1.0


def suppression_rate(stream: EventStream, cfg: EncoderConfig) -> FilterStats:
    """Encode the full stream and count input events versus emitted spikes."""
    if cfg.mode is not EncoderMode.SPIKE_TBR:
        raise ValueError("suppression is defined for spiking encoders only")
    grid = NeuronGrid(stream.geometry, cfg.neuron)
    encode_stream(stream, cfg, grid=grid)
    return FilterStats(input_events=len(stream), output_spikes=grid.spike_count)


@dataclass(frozen=True)
class RobustnessPoint:
    """Mean frame distance from the clean reference at one noise level.

    Per seed, the trial statistic is the mean over windows of each distance
    field; across seeds the mean and the sample standard deviation of the
    l1 statistic are reported.
    """

    p: float
    encoder: str
    l1_mean: float
    l1_std: float
    hamming_mean: float
    changed_pixels_mean: float


def robustness_curve(
    scene: SynthScene,
    cfg: EncoderConfig,
    noise_levels: list[float],
    n_seeds: int = 20,
    base_seed: int = 0,
) -> list[RobustnessPoint]:
    """Sweep noise probabilities, comparing noisy encodings to the clean one.

    The same seed set is reused at every noise level (common random numbers:
    level-to-level differences are not masked by seed-to-seed variance).
    The loop is seed-major: each seed draws its noise slices once for all
    levels (:func:`inject_noise_levels`), and its noisy streams are encoded
    one level at a time. Noisy and clean streams are encoded over the same
    window count, derived from the scene duration, so frames pair up
    one-to-one.
    """
    for p in noise_levels:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"noise level must be in [0, 1], got {p}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")

    n_windows = math.ceil(scene.duration / cfg.slicing.window_duration)
    if n_windows == 0:
        raise ValueError("scene duration yields no encoding windows")
    clean = generate(scene)
    reference = encode_stream(clean, cfg, n_windows=n_windows)
    span = (0, scene.duration)
    dt = cfg.slicing.slice_duration

    trial_l1, trial_ham, trial_chg = np.empty((3, len(noise_levels), n_seeds))
    for i in range(n_seeds):
        cfgs = [NoiseConfig(probability=p, slice_duration=dt, rng_seed=base_seed + i) for p in noise_levels]
        for j, noisy in enumerate(inject_noise_levels(clean, cfgs, span=span)):
            frames = encode_stream(noisy, cfg, n_windows=n_windows)
            dists = [frame_distance(f, r) for f, r in zip(frames, reference)]
            trial_l1[j, i] = np.mean([d.l1_mean for d in dists])
            trial_ham[j, i] = np.mean([d.hamming_bits for d in dists])
            trial_chg[j, i] = np.mean([d.changed_pixels for d in dists])
    points = []
    for p, l1, ham, chg in zip(noise_levels, trial_l1, trial_ham, trial_chg):
        l1_std = float(np.std(l1, ddof=1)) if n_seeds > 1 else 0.0
        points.append(
            RobustnessPoint(p, cfg.label(), float(l1.mean()), l1_std, float(ham.mean()), float(chg.mean()))
        )
    return points


def format_curve_csv(points: list[RobustnessPoint]) -> str:
    """CSV text for curve rows: 9-significant-digit floats, LF endings."""
    lines = [CURVE_CSV_HEADER]
    for pt in points:
        lines.append(
            f"{pt.p:.9g},{pt.encoder},{pt.l1_mean:.9g},{pt.l1_std:.9g},"
            f"{pt.hamming_mean:.9g},{pt.changed_pixels_mean:.9g}"
        )
    return "\n".join(lines) + "\n"


def write_curve_csv(points: list[RobustnessPoint], path: str | Path) -> None:
    Path(path).write_bytes(format_curve_csv(points).encode("ascii"))


__all__ = [
    "FrameDistance",
    "FilterStats",
    "RobustnessPoint",
    "CURVE_CSV_HEADER",
    "frame_distance",
    "suppression_rate",
    "robustness_curve",
    "format_curve_csv",
    "write_curve_csv",
]
