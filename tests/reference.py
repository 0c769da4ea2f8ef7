"""Pure-Python per-event reference encoder, the oracle for the fast path."""

from evtbr.encoder import EncoderMode
from evtbr.neurons import NeuronVariant


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
