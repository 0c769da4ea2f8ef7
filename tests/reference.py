"""Pure-Python references, the oracles for the fast paths.

``reference_encode`` encodes one event at a time; ``reference_inject_noise``
draws each noise slice from its own ``default_rng`` with numpy's own
``random`` and ``integers`` calls.
"""

import numpy as np

from evtbr.encoder import EncoderMode
from evtbr.events import EventStream
from evtbr.neurons import NeuronVariant
from evtbr.noise import NOISE_DOMAIN_TAG, PolarityRule


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
