"""Pure-Python references, the oracles for the fast paths.

``reference_encode`` encodes one event at a time; ``reference_inject_noise``
draws each noise slice from its own ``default_rng`` with numpy's own
``random`` and ``integers`` calls; ``reference_edge_pixels`` decides one
pixel at a time whether a synthetic scene's edge covers it.
"""

import numpy as np

from evtbr.encoder import EncoderMode
from evtbr.events import EventStream
from evtbr.neurons import NeuronVariant
from evtbr.noise import NOISE_DOMAIN_TAG, PolarityRule
from evtbr.synth import SceneKind


def reference_encode(rows, geometry, cfg, n_windows):
    """codes[window][y][x] for time-sorted (t, x, y, p) rows, one event at a time.

    Spike mode repeats the float operations of NeuronGrid.step in its order:
    leak, add the step's weight sum (summed in event order), add the
    reclif feedback, compare with the threshold, reset. Only pixels with
    events are simulated: any other stays at rest below the threshold.
    """
    n, k, nc = cfg.slicing.bits_per_frame, cfg.micro_steps_per_slice, cfg.neuron
    micro_dt = cfg.slicing.slice_duration // k
    n_steps = n_windows * n * k
    inputs = [{} for _ in range(n_steps)]  # per micro step: (x, y) -> weight sum
    for t, x, y, p in rows:
        if 0 <= t // micro_dt < n_steps:
            w = 1.0 if nc is None else nc.weight_pos if p > 0 else nc.weight_neg
            inputs[t // micro_dt][x, y] = inputs[t // micro_dt].get((x, y), 0.0) + w
    codes = [[[0] * geometry.width for _ in range(geometry.height)] for _ in range(n_windows)]
    for x, y in sorted(set().union(*inputs)):
        v, feedback = (0.0, 0.0) if nc is None else (nc.v_rest, 0.0)
        for m in range(n_steps):
            window, bit = divmod(m // k, n)
            if cfg.mode is EncoderMode.TBR:
                fired = (x, y) in inputs[m]
            else:
                if nc.v_rest == 0.0:
                    v *= nc.beta
                else:
                    v = (v - nc.v_rest) * nc.beta + nc.v_rest
                v += inputs[m].get((x, y), 0.0)
                if nc.variant is NeuronVariant.REC_LIF:
                    v += feedback
                fired = v >= nc.v_th
                if fired:
                    v = v - nc.v_th if nc.variant is NeuronVariant.LR_LIF else nc.v_rest
                feedback = 1.0 if fired else 0.0
            if fired:
                codes[window][y][x] |= 1 << bit
    return codes


def reference_inject_noise(stream, cfg, span):
    """inject_noise over span (t0, t1), one slice generator and one event at a time.

    Slice s draws from ``default_rng([seed, NOISE_DOMAIN_TAG, s])``: one
    uniform per pixel, then ``integers`` timestamps for the firing pixels,
    then ``integers`` polarities. Events are ordered by t, signal before
    noise on ties and noise by pixel within its slice.
    """
    t0, t1 = span
    dt = cfg.slice_duration
    width = stream.geometry.width
    rows = [(t, 0, i, (t, x, y, p)) for i, (t, x, y, p) in enumerate(stream)]
    for s in range((t1 - t0 + dt - 1) // dt):
        rng = np.random.default_rng([cfg.rng_seed, NOISE_DOMAIN_TAG, s])
        fired = np.flatnonzero(rng.random(stream.geometry.pixel_count) < cfg.probability)
        if fired.size == 0:
            continue
        start = t0 + s * dt
        times = rng.integers(start, min(start + dt, t1), size=fired.size, dtype=np.int64)
        if cfg.polarity_rule is PolarityRule.RANDOM_UNIFORM:
            signs = rng.integers(0, 2, size=fired.size, dtype=np.int8) * 2 - 1
        else:
            signs = np.ones(fired.size, dtype=np.int8)
        for pixel, t, p in zip(fired.tolist(), times.tolist(), signs.tolist()):
            rows.append((t, 1, pixel, (t, pixel % width, pixel // width, p)))
    return EventStream.from_events(stream.geometry, [row[-1] for row in sorted(rows)])


def reference_edge_pixels(scene, slice_index, t):
    """(xs, ys, ps) lists of a scene's edge pixels at slice start time t.

    Every pixel is visited in row-major order and tested against its kind's
    definition: the bar's leading column (positive) and trailing column
    (negative) over every row; the moving dot's leading and trailing columns
    over its rows; the static dot's outline (positive); the clipped
    perimeter of each grid cell of the slice's parity (positive). Positive
    pixels come before negative ones.
    """
    h, w = scene.geometry.shape
    size = scene.size
    offset = scene.offset_at(t)
    y0 = (h - size) // 2
    x0 = (w - size) // 2

    def bar(x, y):
        return x == (offset + size - 1) % w, x == offset % w

    def dot(x, y):
        rows = y0 <= y < y0 + size
        if scene.velocity == 0:
            cols = x0 <= x < x0 + size
            outline = y in (y0, y0 + size - 1) or x in (x0, x0 + size - 1)
            return rows and cols and outline, False
        left = (x0 + offset) % w
        return rows and x == (left + size - 1) % w, rows and x == left

    def grid(x, y):
        cx, cy = x // size, y // size
        x_lo, x_hi = cx * size, min(cx * size + size, w) - 1
        y_lo, y_hi = cy * size, min(cy * size + size, h) - 1
        perimeter = x in (x_lo, x_hi) or y in (y_lo, y_hi)
        return perimeter and (cx + cy + slice_index) % 2 == 0, False

    rule = {SceneKind.MOVING_BAR: bar, SceneKind.MOVING_DOT: dot, SceneKind.BLINKING_GRID: grid}
    edges = {1: [], -1: []}
    for y in range(h):
        for x in range(w):
            pos, neg = rule[scene.kind](x, y)
            if pos:
                edges[1].append((x, y))
            if neg:
                edges[-1].append((x, y))
    pixels = edges[1] + edges[-1]
    return [x for x, _ in pixels], [y for _, y in pixels], [1] * len(edges[1]) + [-1] * len(edges[-1])
