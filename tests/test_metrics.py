import math

import numpy as np
import pytest

from evtbr import metrics, noise
from evtbr.encoder import EncodedFrame, EncoderConfig, EncoderMode, encode_stream
from evtbr.events import EventStream, SensorGeometry, SlicingConfig
from evtbr.metrics import (
    CURVE_CSV_HEADER,
    FilterStats,
    FrameDistance,
    format_curve_csv,
    frame_distance,
    robustness_curve,
    suppression_rate,
    write_curve_csv,
)
from evtbr.neurons import NeuronConfig
from evtbr.noise import NoiseConfig, inject_noise
from evtbr.synth import SceneKind, SynthScene, generate

from helpers import random_stream

G = SensorGeometry(4, 4)
SLICING = SlicingConfig(2_500, 8)


def frame(codes, n_bits=8, geometry=G):
    return EncodedFrame(geometry, n_bits, np.asarray(codes, dtype=np.uint32))


def small_scene(**kw):
    defaults = dict(
        kind=SceneKind.MOVING_BAR,
        geometry=SensorGeometry(32, 32),
        velocity=64.0,
        events_per_edge_pixel_per_slice=3.0,
        duration=40_000,
        seed=0,
    )
    defaults.update(kw)
    return SynthScene(**defaults)


def spike_cfg(beta=0.5, v_th=1.1):
    return EncoderConfig(
        slicing=SLICING,
        mode=EncoderMode.SPIKE_TBR,
        neuron=NeuronConfig(beta=beta, v_th=v_th),
    )


class TestFrameDistance:
    def test_identical_frames_zero(self):
        a = frame(np.arange(16).reshape(4, 4))
        d = frame_distance(a, frame(np.arange(16).reshape(4, 4)))
        assert (d.l1_mean, d.hamming_bits, d.changed_pixels) == (0.0, 0, 0)

    def test_single_pixel_example(self):
        a = frame(np.zeros((4, 4)))
        b = frame(np.zeros((4, 4)))
        b.codes[1, 2] = 255
        d = frame_distance(a, b)
        assert d.l1_mean == pytest.approx(255 / (255 * 16))
        assert d.hamming_bits == 8
        assert d.changed_pixels == 1

    def test_hamming_matches_popcount_oracle(self):
        rng = np.random.default_rng(0)
        a = frame(rng.integers(0, 256, size=(4, 4)))
        b = frame(rng.integers(0, 256, size=(4, 4)))
        expected = sum(
            bin(int(x) ^ int(y)).count("1")
            for x, y in zip(a.codes.ravel(), b.codes.ravel())
        )
        assert frame_distance(a, b).hamming_bits == expected

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = frame(rng.integers(0, 256, size=(4, 4)))
        b = frame(rng.integers(0, 256, size=(4, 4)))
        assert frame_distance(a, b) == frame_distance(b, a)

    def test_l1_triangle_inequality(self):
        rng = np.random.default_rng(2)
        a = frame(rng.integers(0, 256, size=(4, 4)))
        b = frame(rng.integers(0, 256, size=(4, 4)))
        c = frame(rng.integers(0, 256, size=(4, 4)))
        dab = frame_distance(a, b).l1_mean
        dbc = frame_distance(b, c).l1_mean
        dac = frame_distance(a, c).l1_mean
        assert dac <= dab + dbc + 1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        a = frame(rng.integers(0, 256, size=(4, 4)))
        b = frame(a.codes.copy())
        d = frame_distance(a, b)
        assert (d.l1_mean, d.hamming_bits, d.changed_pixels) == (0.0, 0, 0)
        b.codes[0, 0] ^= 1
        d = frame_distance(a, b)
        assert d.l1_mean > 0 and d.hamming_bits == 1 and d.changed_pixels == 1

    @pytest.mark.parametrize(
        "dtypes", [(np.uint8, np.uint8), (np.uint8, np.uint32), (np.uint32, np.uint8)]
    )
    def test_narrow_codes_give_the_wide_distance(self, dtypes):
        rng = np.random.default_rng(4)
        a_codes, b_codes = rng.integers(0, 256, size=(2, 4, 4))
        wide = frame_distance(frame(a_codes), frame(b_codes))
        a = EncodedFrame(G, 8, a_codes.astype(dtypes[0]))
        b = EncodedFrame(G, 8, b_codes.astype(dtypes[1]))
        assert (a.codes.dtype, b.codes.dtype) == dtypes
        assert frame_distance(a, b) == wide

    def test_geometry_mismatch_rejected(self):
        a = frame(np.zeros((4, 4)))
        b = EncodedFrame(SensorGeometry(5, 5), 8, np.zeros((5, 5), dtype=np.uint32))
        with pytest.raises(ValueError, match="geometry"):
            frame_distance(a, b)

    def test_bit_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bit-depth"):
            frame_distance(frame(np.zeros((4, 4)), 8), frame(np.zeros((4, 4)), 4))


class TestFilterStats:
    def test_plain_ratio(self):
        assert FilterStats(1000, 100).suppression_factor == 10.0

    def test_zero_spikes_with_input_is_infinite(self):
        assert FilterStats(50, 0).suppression_factor == math.inf

    def test_empty_run_is_neutral(self):
        assert FilterStats(0, 0).suppression_factor == 1.0


class TestSuppressionRate:
    def test_plain_mode_rejected(self):
        stream = random_stream(G, n_events=10, duration=20_000, seed=0)
        with pytest.raises(ValueError):
            suppression_rate(stream, EncoderConfig(slicing=SLICING))

    def test_lever_config_emits_spike_per_active_pixel_slice(self):
        # At threshold == weight every event-bearing (pixel, slice) fires
        # exactly once, so spikes equal the set bits of the plain encoding.
        stream = random_stream(G, n_events=300, duration=20_000, seed=1)
        cfg = spike_cfg(v_th=1.0)
        stats = suppression_rate(stream, cfg)
        frames = encode_stream(stream, EncoderConfig(slicing=SLICING))
        total_bits = sum(
            int(np.unpackbits(f.codes.astype(np.uint8)[..., None], axis=-1).sum())
            for f in frames
        )
        assert stats.input_events == 300
        assert stats.output_spikes == total_bits

    def test_empty_stream_neutral(self):
        stats = suppression_rate(EventStream.empty(G), spike_cfg())
        assert stats.input_events == 0
        assert stats.output_spikes == 0
        assert stats.suppression_factor == 1.0

    def test_sparse_noise_heavily_suppressed(self):
        # Isolated random events rarely accumulate to threshold 1.1.
        stream = random_stream(SensorGeometry(64, 64), n_events=2_000,
                               duration=1_000_000, seed=2)
        stats = suppression_rate(stream, spike_cfg())
        assert stats.suppression_factor > 2.0


class TestRobustnessCurve:
    def test_zero_noise_gives_zero_distance(self):
        pts = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                               noise_levels=[0.0], n_seeds=2)
        assert len(pts) == 1
        assert pts[0].l1_mean == 0.0
        assert pts[0].hamming_mean == 0.0
        assert pts[0].changed_pixels_mean == 0.0
        assert pts[0].l1_std == 0.0

    def test_distance_grows_with_noise(self):
        pts = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                               noise_levels=[0.0, 0.01, 0.05], n_seeds=3)
        l1 = [pt.l1_mean for pt in pts]
        assert l1 == sorted(l1)
        assert l1[-1] > l1[0]

    def test_spiking_encoder_distorts_less_than_plain(self):
        plain = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                                 noise_levels=[0.02], n_seeds=3)
        spiking = robustness_curve(small_scene(), spike_cfg(),
                                   noise_levels=[0.02], n_seeds=3)
        assert spiking[0].l1_mean < plain[0].l1_mean

    def test_level_one_fires_every_pixel(self):
        pts = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                               noise_levels=[1.0], n_seeds=1)
        assert pts[0].l1_mean > 0.0

    def test_single_seed_has_zero_std(self):
        pts = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                               noise_levels=[0.02], n_seeds=1)
        assert pts[0].l1_std == 0.0

    def test_common_seeds_make_levels_comparable(self):
        # A single-level call must reproduce that level's point from a
        # multi-level call exactly, because seeds do not depend on p.
        cfg = EncoderConfig(slicing=SLICING)
        multi = robustness_curve(small_scene(), cfg, noise_levels=[0.01, 0.03],
                                 n_seeds=2)
        solo = robustness_curve(small_scene(), cfg, noise_levels=[0.03], n_seeds=2)
        assert multi[1] == solo[0]

    def test_each_trial_encodes_its_own_injection(self, monkeypatch):
        # Noise is drawn once per seed for every level, and each level's
        # stream must still be that level's own inject_noise, seed-major.
        encoded = []
        encode = metrics.encode_stream

        def capturing_encode(stream, cfg, **kwargs):
            encoded.append(stream)
            return encode(stream, cfg, **kwargs)

        monkeypatch.setattr(metrics, "encode_stream", capturing_encode)
        scene, levels = small_scene(duration=41_000), [0.0, 0.05, 0.01, 0.05]
        robustness_curve(scene, EncoderConfig(slicing=SLICING), noise_levels=levels,
                         n_seeds=3, base_seed=4)
        clean, span = generate(scene), (0, scene.duration)
        expected = [clean] + [
            inject_noise(clean, NoiseConfig(p, SLICING.slice_duration, seed), span)
            for seed in (4, 5, 6)
            for p in levels
        ]
        assert encoded == expected

    def test_keys_noise_slices_once_per_seed(self, monkeypatch):
        seeds = []
        keyed_generators = noise._keyed_generators

        def counting(seed, tag, slices):
            seeds.append(seed)
            return keyed_generators(seed, tag, slices)

        monkeypatch.setattr(noise, "_keyed_generators", counting)
        robustness_curve(small_scene(), EncoderConfig(slicing=SLICING), noise_levels=[0.0, 0.01, 0.05],
                         n_seeds=3, base_seed=4)
        assert seeds == [4, 5, 6]

    def test_no_levels_give_no_points(self):
        assert robustness_curve(small_scene(), EncoderConfig(slicing=SLICING), noise_levels=[]) == []

    def test_encoder_label_attached(self):
        pts = robustness_curve(small_scene(), spike_cfg(), noise_levels=[0.0],
                               n_seeds=1)
        assert pts[0].encoder == "spike-tbr-lif"

    def test_std_is_the_sample_std_over_seeds(self):
        cfg = EncoderConfig(slicing=SLICING)
        pts = robustness_curve(small_scene(), cfg, noise_levels=[0.02], n_seeds=3, base_seed=1)
        per_seed = [
            robustness_curve(small_scene(), cfg, noise_levels=[0.02], n_seeds=1, base_seed=seed)[0].l1_mean
            for seed in (1, 2, 3)
        ]
        assert pts[0].l1_std > 0.0
        assert pts[0].l1_std == pytest.approx(np.std(per_seed, ddof=1), rel=1e-12)

    @pytest.mark.parametrize(
        "scene_kw,levels,n_seeds,match",
        [
            pytest.param({}, [0.0, 1.5], 1, "noise level must be in", id="level-above-one"),
            pytest.param({}, [-0.1], 1, "noise level must be in", id="negative-level"),
            pytest.param({}, [0.0], 0, "n_seeds must be at least 1", id="no-seeds"),
            pytest.param({"duration": 0}, [0.0], 1, "no encoding windows", id="zero-length-scene"),
        ],
    )
    def test_bad_arguments_rejected_before_the_scene_is_generated(
        self, monkeypatch, scene_kw, levels, n_seeds, match
    ):
        def generate_nothing(scene):
            raise AssertionError("the scene was generated")

        monkeypatch.setattr(metrics, "generate", generate_nothing)
        with pytest.raises(ValueError, match=match):
            robustness_curve(small_scene(**scene_kw), EncoderConfig(slicing=SLICING),
                             noise_levels=levels, n_seeds=n_seeds)

    def test_invalid_noise_level_rejected(self):
        with pytest.raises(ValueError):
            robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                             noise_levels=[1.5])

    def test_zero_windows_rejected(self):
        with pytest.raises(ValueError):
            robustness_curve(small_scene(duration=0), EncoderConfig(slicing=SLICING),
                             noise_levels=[0.0])


class TestCurveCsv:
    def test_header_and_row_shape(self):
        pts = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                               noise_levels=[0.0, 0.01], n_seeds=2)
        text = format_curve_csv(pts)
        lines = text.split("\n")
        assert lines[0] == CURVE_CSV_HEADER
        assert len(lines) == 4 and lines[-1] == ""
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "tbr"
        assert all(float(v) == 0.0 for v in first[2:])

    def test_write_matches_format(self, tmp_path):
        pts = robustness_curve(small_scene(), EncoderConfig(slicing=SLICING),
                               noise_levels=[0.01], n_seeds=2)
        out = tmp_path / "curve.csv"
        write_curve_csv(pts, out)
        assert out.read_bytes().decode("ascii") == format_curve_csv(pts)

    def test_deterministic_repeat(self):
        args = dict(noise_levels=[0.01, 0.02], n_seeds=2)
        a = format_curve_csv(robustness_curve(small_scene(), spike_cfg(), **args))
        b = format_curve_csv(robustness_curve(small_scene(), spike_cfg(), **args))
        assert a == b
