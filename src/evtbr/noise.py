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
3. one polarity bit per firing pixel, from bit 7 of a byte; the bytes
   start after the timestamps' last uint32. Both polarity rules draw them;
   fixed-positive sets p = +1 and ignores them. Each slice has its own
   generator, so words it does not use reach no output.

uint32 draws take the low, then the high half of each 64-bit word, and
bytes come low first from each uint32. These are exactly the words the
``integers(start, stop, dtype=int64)`` and ``integers(0, 2, dtype=int8)``
calls of ``default_rng`` would draw, and the golden hashes pin them. A
slice where no pixel fires draws nothing after its uniforms. Each firing
slice takes the words for k accepted timestamps and k polarities with one
``random_raw`` call. The draw loop joins consecutive firing slices into
blocks of whole slices, each closed once it holds ``_BLOCK_PIXELS`` firing
pixels, so no per-slice array outlives its block. A slice where Lemire
rejects one of those k timestamp draws (each is rejected with a chance
below width / 2^32, 5.3e-7 at the default 2500 us width), a slice whose
width is over 2^32 (where numpy draws 64-bit words), and a last slice that
the span cuts short are drawn again through those ``integers`` calls.

Several probabilities of one seed share one draw per (seed, slice), made at
the highest of them. A lower level fires the pixels whose uniforms are below
it, and its k' <= k timestamps and polarities read a prefix of those words:
exactly the words its own draw would take. A block keeps each firing
pixel's rank in place of its uniform: the number of levels at or below it,
one byte for up to 255 levels.

Each level is decoded and merged one block at a time, at the full slice
width, into output columns sized from the level's event count. A block's
noise joins the signal events from the previous block's end up to the end
of its own last drawn slice, and the signal after the last block is
copied as it is. Blocks are disjoint in time and each merge is stable with
the signal first, so the output is the one whole-stream merge of the signal
and all the noise; a signal that is not time-sorted is sorted stably once,
first.

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
from typing import NamedTuple

import numpy as np

from .events import INT64_MAX, EventStream, SensorGeometry, _check_event_budget, merge_sorted_by_time

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
# Firing pixels (at the highest level) that close a block of slices; bounds
# the per-slice draw arrays held and each level's decode and merge scratch.
_BLOCK_PIXELS = 1 << 12


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

    The configs may differ only in probability. Each slice is drawn once, at
    the highest level, into blocks of whole slices (see the module
    docstring), and each level is decoded and merged block by block when it
    is asked for. A level where no pixel fires yields ``stream`` itself. A
    draw that brings the stream past the event budget raises ValueError.
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

    dt = cfg.slice_duration
    levels = [c.probability for c in cfgs]
    p_max = max(levels)
    ranked = sorted(set(levels))
    n_slices = (t1 - t0 + dt - 1) // dt if p_max > 0.0 else 0
    blocks = list(_draw_blocks(cfg.rng_seed, stream.geometry.pixel_count, dt, p_max, ranked, n_slices, len(stream)))
    signal = stream
    if blocks and (stream.t[1:] < stream.t[:-1]).any():
        signal = merge_sorted_by_time(stream.geometry, stream)  # one stable sort
    for p in levels:
        # A drawn pixel's uniform is below p exactly when at most
        # ranked.index(p) levels lie at or below it.
        keeps = [block.rank <= ranked.index(p) for block in blocks]
        fires = any(map(np.any, keeps))
        yield _merge_level(signal, cfg, (t0, t1), blocks, keeps) if fires else stream


class _Block(NamedTuple):
    """Consecutive firing slices of the highest level's draw, joined."""

    slices: np.ndarray  # ascending slice indices
    offsets: np.ndarray  # each slice's first firing pixel
    pixel: np.ndarray  # firing pixels, in slice then pixel order
    rank: np.ndarray  # how many levels lie at or below each one's uniform
    first: np.ndarray  # each slice's first uint32 in u32
    u32: np.ndarray  # the slices' raw words


def _draw_blocks(
    seed: int, n_pix: int, dt: int, p: float, levels: list[float], n_slices: int, events: int
) -> Iterator[_Block]:
    """Draw slices 0..n_slices-1 at probability p, one block of firing slices at a time.

    ``levels`` is ascending; each firing pixel keeps its rank among them in
    place of its uniform. ``events`` counts the signal; the slice that brings
    it past the event budget raises ValueError before its words are drawn.
    """
    pending, drawn = [], 0
    for s, rng in _keyed_generators(seed, NOISE_DOMAIN_TAG, range(n_slices)):
        u = rng.random(n_pix)
        fired = (u < p).nonzero()[0]
        if fired.size:
            k = fired.size
            events += k
            _check_event_budget(events, f"noise slice {s} brings the stream to")
            uint32s = k * (dt > 1) + -(-k // 4)
            pending.append((s, fired, u[fired], rng.bit_generator.random_raw(-(-uint32s // 2))))
            drawn += k
            if drawn >= _BLOCK_PIXELS:
                yield _join(pending, levels)
                pending, drawn = [], 0
    if pending:
        yield _join(pending, levels)


def _join(pending: list, levels: list[float]) -> _Block:
    """One block from consecutive slices' (slice, pixels, uniforms, words)."""
    slices, pixels, uniforms, words = zip(*pending)
    sizes = 2 * np.array([w.size for w in words], dtype=np.int64)
    rank = np.searchsorted(levels, np.concatenate(uniforms), side="right")
    return _Block(
        np.array(slices, dtype=np.int64),
        np.cumsum([0] + [f.size for f in pixels[:-1]]),
        np.concatenate(pixels, dtype=np.int32),
        rank.astype(np.min_scalar_type(len(levels))),
        np.cumsum(sizes) - sizes,
        np.concatenate(words).astype("<u8", copy=False).view("<u4"),
    )


def _merge_level(signal, cfg, span, blocks, keeps) -> EventStream:
    """One level's noisy stream: each block decoded, merged and written in place.

    ``signal`` is time-sorted, and ``keeps`` masks each block's drawn pixels
    that fire at this level.
    """
    geometry, dt, (t0, t1) = signal.geometry, cfg.slice_duration, span
    n_events = len(signal) + sum(map(np.count_nonzero, keeps))
    columns = [np.empty(n_events, getattr(signal, name).dtype) for name in "txyp"]
    at = lo = 0  # output and signal events written so far
    for block, keep in zip(blocks, keeps):
        count = np.add.reduceat(keep, block.offsets, dtype=np.int64)  # per slice
        fired, keys = block.pixel[keep], block.slices
        starts = t0 + keys * dt
        t, bits, redo = _decode(block.u32, block.first, count, starts, dt, t1)
        ends = np.cumsum(count)
        for i in redo.tolist():
            events = slice(ends[i] - count[i], ends[i])
            rng = np.random.default_rng([cfg.rng_seed, NOISE_DOMAIN_TAG, int(keys[i])])
            rng.random(geometry.pixel_count)
            t[events] = rng.integers(starts[i], min(starts[i] + dt, t1), size=count[i], dtype=np.int64)
            bits[events] = rng.integers(0, 2, size=count[i], dtype=np.int8)
        pol = bits.view(np.int8)
        if cfg.polarity_rule is PolarityRule.FIXED_POSITIVE:
            pol.fill(1)
        else:
            pol *= 2
            pol -= 1
        noise = EventStream(geometry, t, fired % geometry.width, fired // geometry.width, pol)
        # The signal up to this block's last drawn slice end joins it. Slices
        # are in pixel order, so one stable sort orders the block by (t, pixel)
        # and puts signal first on ties.
        end = min(t0 + (int(keys[-1]) + 1) * dt, INT64_MAX)
        hi = int(signal.t.searchsorted(end, side="left"))
        merged = merge_sorted_by_time(geometry, signal[lo:hi], noise)
        for column, name in zip(columns, "txyp"):
            column[at : at + len(merged)] = getattr(merged, name)
        at, lo = at + len(merged), hi
    for column, name in zip(columns, "txyp"):
        column[at:] = getattr(signal, name)[lo:]
    return EventStream(geometry, *columns)


def _decode(u32, first, counts, starts, width, end) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slices' timestamps, polarity bits (0 or 1) and slices to draw again.

    ``first`` (its first uint32 in ``u32``), ``counts`` (which may be 0)
    and ``starts`` are per slice, and every slice is ``width`` wide. The
    slices to draw again are given by index: one that the span's ``end``
    cuts short and those where Lemire rejected a timestamp draw, which past
    2^32 wide is all of them: ``(2^32 - width) % width`` is then 2^32.
    """
    ends = np.cumsum(counts)
    t = np.repeat(starts, counts)
    redo = starts + width > end
    rank = np.arange(ends[-1]) - np.repeat(ends - counts, counts)  # index in its slice
    if width > 1:
        m = u32[np.repeat(first, counts) + rank].astype(np.uint64)
        m *= np.uint64(width)
        rejected = np.flatnonzero(m.astype(np.uint32) < (_U32_SPAN - width) % width)
        redo[ends.searchsorted(rejected, side="right")] = True
        m >>= np.uint64(32)
        t += m.view(np.int64)
        first = first + counts
    # Bit 7 of a byte is integers(0, 2, dtype=int8)'s draw from it.
    bits = u32.view(np.uint8)[np.repeat(4 * first, counts) + rank] >> 7
    return t, bits, np.flatnonzero(redo)


def merge_noise_recording(signal: EventStream, noise: EventStream) -> EventStream:
    """Overlay a recorded background-noise stream onto a signal stream.

    Noise coordinates are rescaled to the signal's geometry by nearest-pixel
    mapping (x' = x * W_signal // W_noise), its start is aligned to the
    signal's first event, and the recording is tiled end to end, one copy
    every (last - first noise timestamp) µs, until it covers the signal,
    then truncated at the signal's last event. Each copy is the whole
    recording, so copy c's last event and copy c+1's first event share a
    timestamp and both are kept: a recording with events at t = 10 and 40
    over a signal spanning [0, 100] adds events at 0, 30, 30, 60, 60, 90
    and 90. A recording whose events all
    share one timestamp has no period to tile with: it is laid over the
    signal once, at the signal's first event. A tiling whose copies pass
    the event budget (``MAX_FRAME_BYTES``, 17 bytes an event) raises ValueError.
    """
    if len(noise) == 0:
        raise ValueError("noise recording is empty")
    if len(signal) == 0:
        return signal

    geometry = signal.geometry
    nx = noise.x.astype(np.int64) * geometry.width // noise.geometry.width
    ny = noise.y.astype(np.int64) * geometry.height // noise.geometry.height

    sig_start = int(signal.t[0])
    sig_end = int(signal.t[-1])
    noise_t = noise.t.astype(np.int64) - int(noise.t[0])
    period = int(noise_t[-1])
    n_copies = (sig_end - sig_start) // period + 1 if period > 0 else 1
    copies = f"{n_copies} copies of the recording over the signal's {sig_end - sig_start} us span"
    _check_event_budget(n_copies * len(noise), f"{copies} hold")

    # Copy-major: every event of copy c, in recording order, before copy c+1.
    # The mask compares before adding, so a copy's tail cannot wrap past int64.
    offsets = sig_start + period * np.arange(n_copies, dtype=np.int64)
    copy, event = np.nonzero(noise_t <= sig_end - offsets[:, None])
    overlay = EventStream(
        geometry, offsets[copy] + noise_t[event], nx[event], ny[event], noise.p[event]
    )
    return merge_sorted_by_time(geometry, signal, overlay)


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
