"""Acceptance gate: twelve numbered checks over the whole toolkit.

Each test reports one [PASS]/[FAIL] line with its measured values through
the ``gate`` fixture; the lines are echoed in a terminal section at the end
of the run, one per criterion.
"""

import functools
import subprocess
import sys
import time

import numpy as np

from evtbr.encoder import (
    EncoderConfig,
    EncoderMode,
    decode_tbr,
    encode_tbr,
    encode_window_spike_tbr,
    encode_window_tbr,
)
from evtbr.events import BinarySliceStack, EventStream, SensorGeometry, SlicingConfig
from evtbr.metrics import robustness_curve, suppression_rate
from evtbr.neurons import NeuronConfig, NeuronGrid, NeuronVariant, StepInput
from evtbr.noise import NoiseConfig, noise_only_stream
from evtbr.synth import SceneKind, SynthScene

from bench import measure_encode_throughput, random_stream
from helpers import random_stack

SLICING = SlicingConfig(slice_duration=2_500, bits_per_frame=8)


def spike_config(beta: float, v_th: float = 1.1) -> EncoderConfig:
    return EncoderConfig(
        slicing=SLICING,
        mode=EncoderMode.SPIKE_TBR,
        neuron=NeuronConfig(variant=NeuronVariant.LIF, beta=beta, v_th=v_th),
    )


def test_01_encode_decode_round_trip_is_lossless(gate):
    geometry = SensorGeometry(32, 32)
    start = time.perf_counter()
    failures = 0
    for seed in range(1_000):
        stack = random_stack(geometry, 8, seed=seed)
        if decode_tbr(encode_tbr(stack)) != stack:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1.0
    gate(1, ok, f"{1_000 - failures}/1000 random 8-slice stacks round-tripped exactly "
                f"in {elapsed:.2f}s (limit 1s)")
    assert failures == 0
    assert elapsed < 1.0


def test_02_most_recent_slice_is_most_significant_bit(gate):
    # A silent pixel gaining one event in the final slice must jump by the
    # top bit, checked through the real event path.
    geometry = SensorGeometry(16, 16)
    cfg = EncoderConfig(slicing=SLICING)
    silent = encode_window_tbr(EventStream.empty(geometry), cfg, 0)
    bumped = encode_window_tbr(EventStream.from_events(geometry, [(17_500, 0, 0, 1)]), cfg, 0)
    delta_zero = int(bumped.codes[0, 0]) - int(silent.codes[0, 0])
    norm_delta = bumped.normalized()[0, 0] - silent.normalized()[0, 0]

    # Exhaustive over all 256 base codes: setting the final slice ORs in
    # 128, a +128 delta exactly where bit 7 was clear.
    base_bits = np.zeros((8, *geometry.shape), dtype=bool)
    for code in range(256):
        y, x = divmod(code, 16)
        for b in range(8):
            base_bits[b, y, x] = bool((code >> b) & 1)
    base = encode_tbr(BinarySliceStack(geometry, base_bits))
    topped_bits = base_bits.copy()
    topped_bits[7, :, :] = True
    topped = encode_tbr(BinarySliceStack(geometry, topped_bits))
    deltas = topped.codes.astype(np.int64) - base.codes.astype(np.int64)
    had_msb = (base.codes & 128) != 0
    exhaustive_ok = (
        np.array_equal(topped.codes, base.codes | 128)
        and (deltas[~had_msb] == 128).all()
        and (deltas[had_msb] == 0).all()
    )

    ok = delta_zero == 128 and norm_delta >= 0.5 and exhaustive_ok
    gate(2, ok, f"final-slice event moves code 0 by +{delta_zero} "
                f"(normalized {norm_delta:.4f} >= 0.5); all 256 base codes verified")
    assert delta_zero == 128
    assert norm_delta >= 0.5
    assert exhaustive_ok


def test_03_spiking_encoder_reduces_to_plain_at_unit_threshold(gate):
    geometry = SensorGeometry(32, 32)
    betas = [0.3, 0.5, 0.7, 0.9]
    cfg_plain = EncoderConfig(slicing=SLICING)
    mismatches = 0
    for seed in range(200):
        stream = random_stream(geometry, n_events=400, duration=20_000, seed=seed)
        plain = encode_window_tbr(stream, cfg_plain, 0)
        for beta in betas:
            cfg = spike_config(beta, v_th=1.0)
            grid = NeuronGrid(geometry, cfg.neuron)
            spike = encode_window_spike_tbr(stream, cfg, grid, 0)
            if not np.array_equal(spike.codes, plain.codes):
                mismatches += 1
    ok = mismatches == 0
    gate(3, ok, f"threshold=weight spiking frames equal plain frames on 200 streams "
                f"x {len(betas)} betas ({mismatches} mismatches)")
    assert mismatches == 0


def test_04_membrane_decay_follows_power_law(gate):
    v0 = 1.0
    worst = 0.0
    for beta in (0.3, 0.5, 0.7, 0.9):
        grid = NeuronGrid(SensorGeometry(4, 4), NeuronConfig(beta=beta))
        grid.v[:] = v0
        for k in range(1, 61):
            grid.decay_only(1)
            worst = max(worst, abs(float(grid.v[0, 0]) - beta**k * v0))
    ok = worst <= 1e-12 * v0
    gate(4, ok, f"zero-input decay tracks beta^k for k<=60, four betas "
                f"(worst |error| {worst:.2e} <= 1e-12)")
    assert worst <= 1e-12 * v0


def test_05_two_event_firing_window_is_three_slices(gate):
    # 0.5**k + 1 crosses 1.1 only for k <= 3.
    geometry = SensorGeometry(4, 4)
    results = {}
    for gap in range(1, 9):
        grid = NeuronGrid(geometry, NeuronConfig(beta=0.5, v_th=1.1))
        hit = StepInput(np.zeros(geometry.shape), 0)
        hit.values[1, 1] = 1.0
        grid.step(hit)
        for _ in range(gap - 1):
            grid.step(StepInput.zeros(geometry))
        results[gap] = bool(grid.step(hit)[1, 1])
    expected = {gap: gap <= 3 for gap in range(1, 9)}
    ok = results == expected
    fired_set = sorted(g for g, f in results.items() if f)
    gate(5, ok, f"paired events fire iff gap <= 3 slices (fired at gaps {fired_set}, "
                f"silent at 4..8)")
    assert results == expected


def test_06_soft_reset_keeps_residual_hard_reset_clears_it(gate):
    geometry = SensorGeometry(1_000, 1)
    v_th, v_rest = 1.1, 0.0
    rng = np.random.default_rng(123)
    draws = rng.uniform(v_th, 3 * v_th, size=1_000)

    soft = NeuronGrid(geometry, NeuronConfig(variant=NeuronVariant.LR_LIF, beta=0.5, v_th=v_th))
    hard = NeuronGrid(geometry, NeuronConfig(variant=NeuronVariant.LIF, beta=0.5, v_th=v_th))
    soft_spikes = soft.step(StepInput(draws.reshape(geometry.shape).copy(), 0))
    hard_spikes = hard.step(StepInput(draws.reshape(geometry.shape).copy(), 0))

    soft_err = float(np.abs(soft.v.ravel() - (draws - v_th)).max())
    hard_exact = bool((hard.v == v_rest).all())
    all_fired = bool(soft_spikes.all() and hard_spikes.all())
    ok = all_fired and soft_err <= 1e-12 and hard_exact
    gate(6, ok, f"1000 potentials in [v_th, 3v_th]: soft-reset residual = V - v_th "
                f"(max error {soft_err:.2e}), hard reset lands on v_rest exactly")
    assert all_fired
    assert soft_err <= 1e-12
    assert hard_exact


@functools.lru_cache(maxsize=None)
def _mean_suppression(beta: float, n_seeds: int = 20) -> float:
    geometry = SensorGeometry(128, 128)
    span = (0, 200 * 2_500)
    cfg = spike_config(beta)
    factors = []
    for seed in range(n_seeds):
        noise = noise_only_stream(
            NoiseConfig(probability=0.01, slice_duration=2_500, rng_seed=seed),
            geometry,
            span,
        )
        factors.append(suppression_rate(noise, cfg).suppression_factor)
    return float(np.mean(factors))


def test_07_isolated_noise_events_are_suppressed_tenfold(gate):
    start = time.perf_counter()
    factor = _mean_suppression(0.5)
    elapsed = time.perf_counter() - start
    ok = factor >= 10.0 and elapsed < 10.0
    gate(7, ok, f"128x128 noise-only stream, p=0.01, 200 slices: events/spikes = "
                f"{factor:.2f} >= 10 over 20 seeds ({elapsed:.1f}s, limit 10s)")
    assert factor >= 10.0
    assert elapsed < 10.0


def test_08_spiking_frames_resist_noise_better_than_plain(gate):
    start = time.perf_counter()
    scene = SynthScene(
        kind=SceneKind.MOVING_BAR,
        geometry=SensorGeometry(64, 64),
        velocity=64.0,
        events_per_edge_pixel_per_slice=3.0,
        duration=1_000_000,
        seed=0,
    )
    levels = [0.005, 0.01, 0.03]
    plain_pts = robustness_curve(scene, EncoderConfig(slicing=SLICING), levels, n_seeds=20)
    spike_pts = robustness_curve(scene, spike_config(0.5), levels, n_seeds=20)
    elapsed = time.perf_counter() - start

    ratios = {p: s.l1_mean / t.l1_mean for p, s, t in zip(levels, spike_pts, plain_pts)}
    all_below = all(s.l1_mean < t.l1_mean for s, t in zip(spike_pts, plain_pts))
    ratio_at_p01 = ratios[0.01]
    ok = all_below and ratio_at_p01 <= 0.5 and elapsed < 60.0
    pretty = ", ".join(f"p={p:g}: {r:.3f}" for p, r in ratios.items())
    gate(8, ok, f"moving-bar l1 distance ratios spike/plain ({pretty}); "
                f"<=0.5 required at p=0.01 ({elapsed:.1f}s, limit 60s)")
    assert all_below
    assert ratio_at_p01 <= 0.5
    assert elapsed < 60.0


def test_09_suppression_decreases_as_beta_grows(gate):
    betas = [0.3, 0.5, 0.7, 0.9]
    factors = [_mean_suppression(b) for b in betas]
    monotone = all(a >= b for a, b in zip(factors, factors[1:]))
    pretty = ", ".join(f"beta={b:g}: {f:.2f}" for b, f in zip(betas, factors))
    gate(9, monotone, f"noise suppression non-increasing in beta ({pretty})")
    assert monotone


def test_10_accumulate_count_equals_events_plus_feedbacks(gate):
    geometry = SensorGeometry(8, 8)
    cfg = NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.1)
    grid = NeuronGrid(geometry, cfg)
    rng = np.random.default_rng(77)

    # Independent pure-Python replay of the same input schedule, tracking
    # the event count and each feedback application.
    v = [[0.0] * 8 for _ in range(8)]
    fb = [[0.0] * 8 for _ in range(8)]
    expected_events = 0
    expected_feedbacks = 0
    for _ in range(40):
        n = int(rng.integers(0, 30))
        xs = rng.integers(0, 8, size=n)
        ys = rng.integers(0, 8, size=n)
        ps = rng.integers(0, 2, size=n) * 2 - 1
        grid.step(StepInput.from_events(geometry, xs, ys, ps, cfg))

        expected_events += n
        expected_feedbacks += sum(1 for row in fb for f in row if f != 0.0)
        add = [[0.0] * 8 for _ in range(8)]
        for x, y in zip(xs.tolist(), ys.tolist()):
            add[y][x] += 1.0
        new_fb = [[0.0] * 8 for _ in range(8)]
        for yy in range(8):
            for xx in range(8):
                val = 0.5 * v[yy][xx] + add[yy][xx] + fb[yy][xx]
                if val >= 1.1:
                    new_fb[yy][xx] = 1.0
                    val = 0.0
                v[yy][xx] = val
        fb = new_fb

    expected = expected_events + expected_feedbacks
    ok = grid.ac_count == expected and expected_feedbacks > 0
    gate(10, ok, f"recurrent grid reports {grid.ac_count} ACs == {expected_events} events "
                 f"+ {expected_feedbacks} feedback additions")
    assert expected_feedbacks > 0
    assert grid.ac_count == expected

    # Hand-checked miniature: one pixel, five per-step events at v_th=1.0
    # spike every step, so four feedback additions ride on five events.
    tiny_geom = SensorGeometry(1, 1)
    tiny_cfg = NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.0)
    tiny = NeuronGrid(tiny_geom, tiny_cfg)
    for _ in range(5):
        tiny.step(StepInput(np.ones((1, 1)), 1))
    assert tiny.ac_count == 9


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "evtbr.cli"] + args, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _run_pipeline(workdir) -> dict[str, bytes]:
    scene = workdir / "scene.bin"
    noisy = workdir / "noisy.bin"
    clean_dir = workdir / "frames_clean"
    noisy_dir = workdir / "frames_noisy"
    encoder_flags = ["--mode", "spike-tbr", "--neuron", "lif", "--beta", "0.5"]
    _run_cli(["synth", "--kind", "moving-bar", "--size", "64x64",
              "--duration-ms", "200", "--seed", "0", "--out", str(scene)])
    _run_cli(["noise", "--in", str(scene), "--p", "0.01", "--seed", "1",
              "--out", str(noisy)])
    _run_cli(["encode", "--in", str(scene), *encoder_flags, "--out-dir", str(clean_dir)])
    _run_cli(["encode", "--in", str(noisy), *encoder_flags, "--out-dir", str(noisy_dir)])
    compare = _run_cli(["compare", "--a", str(clean_dir), "--b", str(noisy_dir)])

    artifacts: dict[str, bytes] = {"compare.csv": compare.stdout.encode()}
    for d in (clean_dir, noisy_dir):
        for f in sorted(d.iterdir()):
            artifacts[f"{d.name}/{f.name}"] = f.read_bytes()
    return artifacts


def test_11_cli_pipeline_is_byte_reproducible(gate, tmp_path):
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    a = _run_pipeline(run_a)
    b = _run_pipeline(run_b)
    same_names = sorted(a) == sorted(b)
    diffs = [name for name in a if same_names and a[name] != b[name]]
    n_frames = sum(1 for name in a if name.endswith(".pgm"))
    ok = same_names and not diffs
    gate(11, ok, f"synth>noise>encode>compare rerun byte-identical: {n_frames} PGM frames, "
                 f"manifests and compare CSV match ({len(diffs)} diffs)")
    assert same_names
    assert not diffs
    # The pipeline exercised real distances: the compare CSV must be
    # well-formed and show the noise impact row by row.
    lines = a["compare.csv"].decode().splitlines()
    assert lines[0] == "index,l1_mean,hamming_bits,changed_pixels"
    assert lines[-1].startswith("mean,")


def test_12_encoder_sustains_million_events_per_second(gate):
    result = measure_encode_throughput(repeats=3)
    rate = result.events_per_second
    ok = rate >= 1_000_000
    gate(12, ok, f"spiking encoder best-of-3 throughput {rate:,.0f} events/s "
                 f">= 1,000,000 (128x128, 8 slices, 1M events)")
    assert rate >= 1_000_000
