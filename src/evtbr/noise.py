"""Synthetic noise injection and real background-noise merging.

The synthetic model adds, per pixel and per slice of length ``slice_duration``,
at most one spurious event with probability ``probability``; its timestamp is
uniform within the slice. Injection is deterministic for a fixed seed: each
slice draws from its own generator keyed by (seed, domain tag, slice index),
and within a slice the draw order is fixed:

1. one uniform per pixel in row-major order (``random``); a pixel fires
   when its uniform is below ``probability``;
2. one timestamp per firing pixel, by numpy's 32-bit Lemire method: a
   uint32 draw u gives m = u * width, and start + (m >> 32) unless
   m mod 2^32 < (2^32 - width) % width, which rejects u and draws again;
   a slice of width 1 draws no timestamps;
3. one polarity per firing pixel, from bit 7 of a byte; the bytes start
   after the timestamps' last uint32.

uint32 draws take the low, then the high half of each 64-bit word, and
bytes come low first from each uint32. These are exactly the words the
``integers(start, stop, dtype=int64)`` and ``integers(0, 2, dtype=int8)``
calls of ``default_rng`` would draw, and the golden hashes pin them. A
slice where no pixel fires draws nothing after its uniforms. Each firing
slice takes the words for k accepted timestamps and k polarities with one
``random_raw`` call, and after the draw loop one pass per level decodes its
firing slices at the full slice width. A slice where Lemire rejects one of
those k timestamp draws (each is rejected with a chance below width / 2^32,
5.3e-7 at the default 2500 us width), a slice whose width is over 2^32
(where numpy draws 64-bit words), and a last slice that the span cuts short
are drawn again through those ``integers`` calls.

Several probabilities of one seed share one draw per (seed, slice), made at
the highest of them. A lower level fires the pixels whose uniforms are below
it, and its k' <= k timestamps and polarities read a prefix of those words:
exactly the words its own draw would take.

Slice s's generator is the one ``np.random.default_rng([seed, tag, s])``
builds, but its state is derived without building it: ``SeedSequence``
hashes the three key words with fixed uint32 constants, and NEP 19 keeps
that hash and PCG64's seeding stable across numpy versions. The hash runs
as wrapping uint32 array arithmetic over a block of slices at once, and
PCG64's two-step seeding turns each slice's four output words into the
(state, inc) pair that one reused ``PCG64`` is set to. A seed or slice
index of 2^32 or more is not one uint32 word, so such keys are built with
``default_rng`` itself.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .events import EventStream, SensorGeometry, merge_sorted_by_time

# Keeps noise draws decorrelated from any other seeded subsystem that might
# share the user-facing seed value.
NOISE_DOMAIN_TAG = 0x4E5A


class PolarityRule(str, Enum):
    """How injected events pick a polarity.

    The plain encoder ignores polarity, and so does spike-tbr when
    weight_pos equals weight_neg; with unequal weights spike-tbr frames
    depend on this choice. It also makes written noise files fully
    specified and reproducible.
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx, fixed by
# NEP 19) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# Slices whose seed words are hashed together; bounds the scratch memory.
_KEY_BLOCK = 4096
# numpy draws slice timestamps from uint32 words up to this width.
_U32_SPAN = 1 << 32


def _seed_words(seed: int, tag: int, slices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, tag, s]).generate_state(4, np.uint64)`` per slice s.

    ``slices`` is uint32 and seed and tag are below 2^32, so the entropy is
    three uint32 words and the pool of four takes a zero as its last word.
    Returns (n, 4) words.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    entropy = (np.full_like(slices, seed), np.full_like(slices, tag), slices, np.zeros_like(slices))
    pool = [hashmix(word) for word in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    const = _INIT_B
    words = np.empty((slices.size, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words[:, i] = value ^ (value >> np.uint32(16))
    # Pairs of uint32 words are little-endian uint64 words.
    return words.astype("<u4", copy=False).view("<u8")


def _keyed_generators(
    seed: int, tag: int, slices: range
) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield (s, generator) per slice s of an ascending range.

    The generator's stream equals ``np.random.default_rng([seed, tag, s])``.
    One generator is reused and reset to each slice's state, so draw from
    it before taking the next item. A block of slices holding a key of
    2^32 or more falls back to ``default_rng``.
    """
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    for lo in range(0, len(slices), _KEY_BLOCK):
        block = slices[lo : lo + _KEY_BLOCK]
        if max(seed, tag, block[-1]) > _MASK32:
            for s in block:
                yield s, np.random.default_rng([seed, tag, s])
            continue
        keys = np.arange(block.start, block.stop, block.step, dtype=np.uint32)
        for s, (w0, w1, w2, w3) in zip(block, _seed_words(seed, tag, keys).tolist()):
            # PCG64 seeding: inc = 2 * initseq + 1, then two LCG steps with
            # initstate added to the state between them.
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield s, generator


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
    return next(inject_noise_levels(stream, [cfg], span))


def inject_noise_levels(
    stream: EventStream, cfgs: Sequence[NoiseConfig], span: tuple[int, int] | None = None
) -> Iterator[EventStream]:
    """Yield :func:`inject_noise` of the stream for each config, in order.

    The configs may differ only in probability: each slice is drawn once for
    all of them, and each noisy stream is merged when it is asked for.
    """
    if not cfgs:
        return
    cfg = cfgs[0]
    for field in ("slice_duration", "rng_seed", "polarity_rule"):
        if any(getattr(other, field) != getattr(cfg, field) for other in cfgs):
            raise ValueError(f"noise configs of one draw must share {field}")
    if span is None:
        span = default_span(stream, cfg.slice_duration)
    t0, t1 = int(span[0]), int(span[1])
    if t0 < 0:
        raise ValueError(f"span start must be non-negative, got {t0}")
    if t0 >= t1:
        raise ValueError(f"span must be non-empty, got [{t0}, {t1})")
    for noise in _draw_noise(stream.geometry, cfg, [c.probability for c in cfgs], t0, t1):
        # Slices are disjoint in time and each is in pixel order, so one stable
        # sort orders the noise by (t, pixel) and puts signal first on ties.
        yield stream if noise is None else merge_sorted_by_time(stream.geometry, stream, noise)


def _draw_noise(
    geometry: SensorGeometry, cfg: NoiseConfig, levels: list[float], t0: int, t1: int
) -> Iterator[EventStream | None]:
    """Per level, the noise events of span [t0, t1) in slice order, or None if no pixel fires.

    The loop keeps each firing slice's pixels, uniforms and raw words at the
    highest level (see the module docstring); one pass per level decodes them.
    """
    dt = cfg.slice_duration
    p_max = max(levels)
    n_slices = (t1 - t0 + dt - 1) // dt if p_max > 0.0 else 0
    random_polarity = cfg.polarity_rule is PolarityRule.RANDOM_UNIFORM
    pixels, uniforms, slices, words = [], [], [], []
    for s, rng in _keyed_generators(cfg.rng_seed, NOISE_DOMAIN_TAG, range(n_slices)):
        u = rng.random(geometry.pixel_count)
        fired = (u < p_max).nonzero()[0]
        if fired.size:
            k = fired.size
            uint32s = k * (dt > 1) + (-(-k // 4) if random_polarity else 0)
            pixels.append(fired)
            uniforms.append(u[fired])
            slices.append(s)
            words.append(rng.bit_generator.random_raw(-(-uint32s // 2)))
    if not pixels:
        yield from [None] * len(levels)
        return

    offsets = np.cumsum([0] + [f.size for f in pixels[:-1]])  # each slice's first pixel
    pixel = np.concatenate(pixels, dtype=np.int32)
    u = np.concatenate(uniforms)
    sizes = 2 * np.array([w.size for w in words], dtype=np.int64)
    first = np.cumsum(sizes) - sizes  # each slice's first uint32
    u32 = np.concatenate(words).astype("<u8", copy=False).view("<u4")
    del pixels, uniforms, words  # frees the per-slice arrays before the decode
    slices = np.array(slices, dtype=np.int64)
    for level, p in enumerate(levels):
        keep = u < p  # every kept uniform is below p_max, so this is the set u < p
        counts = np.add.reduceat(keep, offsets, dtype=np.int64)
        fired = pixel[keep]
        firing = counts.nonzero()[0]
        if not firing.size:
            yield None
            continue
        counts, keys = counts[firing], slices[firing].tolist()
        starts = t0 + slices[firing] * dt
        ends = np.cumsum(counts)
        t = np.empty(ends[-1], dtype=np.int64)
        bits = np.empty(ends[-1], dtype=np.uint8) if random_polarity else None
        for i in _decode(u32, first[firing], counts, starts, dt, t1, t, bits).tolist():
            events = slice(ends[i] - counts[i], ends[i])
            rng = np.random.default_rng([cfg.rng_seed, NOISE_DOMAIN_TAG, keys[i]])
            rng.random(geometry.pixel_count)
            t[events] = rng.integers(starts[i], min(starts[i] + dt, t1), size=counts[i], dtype=np.int64)
            if bits is not None:
                bits[events] = rng.integers(0, 2, size=counts[i], dtype=np.int8)
        pol = np.ones(t.size, dtype=np.int8) if bits is None else bits.view(np.int8)
        if bits is not None:
            pol *= 2
            pol -= 1
        noise = EventStream(geometry, t, fired % geometry.width, fired // geometry.width, pol)
        if level == len(levels) - 1:
            del pixel, u, u32, keep, fired  # the caller's last merge needs none of them
        yield noise


def _decode(u32, first, counts, starts, width, end, t, bits) -> np.ndarray:
    """Write the firing slices' timestamps and polarity bits (0 or 1).

    ``first`` (its first uint32 in ``u32``), ``counts`` and ``starts`` are
    per slice, and every slice is ``width`` wide; ``t`` and ``bits`` (None
    for fixed polarities) hold the slices' events. Returns the indices of
    the slices to draw again: one that the span's ``end`` cuts short, those
    where Lemire rejected a timestamp draw, or all of them past 2^32 wide.
    """
    if width > _U32_SPAN:
        return np.arange(len(counts))
    redo = starts + width > end
    ends = np.cumsum(counts)
    rank = np.arange(ends[-1]) - np.repeat(ends - counts, counts)  # index in its slice
    t[:] = np.repeat(starts, counts)
    if width > 1:
        m = u32[np.repeat(first, counts) + rank].astype(np.uint64)
        m *= np.uint64(width)
        rejected = np.flatnonzero(m.astype(np.uint32) < (_U32_SPAN - width) % width)
        redo[ends.searchsorted(rejected, side="right")] = True
        m >>= np.uint64(32)
        t += m.view(np.int64)
        first = first + counts
    if bits is not None:
        # Bit 7 of a byte is integers(0, 2, dtype=int8)'s draw from it.
        np.right_shift(u32.view(np.uint8)[np.repeat(4 * first, counts) + rank], 7, out=bits)
    return np.flatnonzero(redo)


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
    then truncated at the signal's last event. Each copy is the whole
    recording, so copy c's last event and copy c+1's first event share a
    timestamp and both are kept: a recording with events at t = 10 and 40
    over a signal spanning [0, 100] adds events at 0, 30, 30, 60, 60, 90
    and 90. A recording whose events all
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
    "inject_noise_levels",
    "noise_only_stream",
    "merge_noise_recording",
]
