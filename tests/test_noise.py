from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtbr import noise
from evtbr.encoder import EncoderConfig, EncoderMode, encode_stream
from evtbr.events import EventStream, SensorGeometry, SlicingConfig
from evtbr.neurons import NeuronConfig
from evtbr.noise import (
    _KEY_BLOCK,
    NOISE_DOMAIN_TAG,
    NoiseConfig,
    PolarityRule,
    _keyed_generators,
    default_span,
    inject_noise,
    inject_noise_levels,
    merge_noise_recording,
    noise_only_stream,
)
from evtbr.synth import SYNTH_DOMAIN_TAG, SceneKind, SynthScene, generate

from helpers import random_stream
from reference import reference_inject_noise

G = SensorGeometry(4, 4)


def cfg(p, dt=2_500, seed=0, rule=PolarityRule.RANDOM_UNIFORM):
    return NoiseConfig(probability=p, slice_duration=dt, rng_seed=seed, polarity_rule=rule)


def pixel_slice_pairs(stream, dt, t0=0):
    flat = stream.y.astype(np.int64) * stream.geometry.width + stream.x.astype(np.int64)
    s = (stream.t - t0) // dt
    return list(zip(flat.tolist(), s.tolist()))


class TestNoiseConfig:
    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_probability_range(self, p):
        with pytest.raises(ValueError):
            NoiseConfig(probability=p, slice_duration=2_500)

    def test_slice_duration_positive(self):
        with pytest.raises(ValueError):
            NoiseConfig(probability=0.1, slice_duration=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError):
            NoiseConfig(probability=0.1, slice_duration=2_500, rng_seed=-1)


class TestInjectNoise:
    def test_zero_probability_is_identity(self):
        stream = random_stream(G, n_events=50, duration=20_000, seed=0)
        assert inject_noise(stream, cfg(0.0)) is stream

    def test_probability_one_fills_every_pixel_slice(self):
        geometry = SensorGeometry(128, 128)
        out = noise_only_stream(cfg(1.0), geometry, span=(0, 2_500))
        assert len(out) == 128 * 128
        pairs = pixel_slice_pairs(out, 2_500)
        assert len(set(pairs)) == len(pairs)

    def test_deterministic_for_fixed_seed(self):
        stream = random_stream(G, n_events=30, duration=20_000, seed=1)
        a = inject_noise(stream, cfg(0.3, seed=7))
        b = inject_noise(stream, cfg(0.3, seed=7))
        assert a == b

    def test_seed_changes_output(self):
        span = (0, 50_000)
        a = noise_only_stream(cfg(0.3, seed=1), G, span)
        b = noise_only_stream(cfg(0.3, seed=2), G, span)
        assert a != b

    def test_signal_is_preserved(self):
        stream = random_stream(G, n_events=100, duration=20_000, seed=2)
        noisy = inject_noise(stream, cfg(0.2, seed=3))
        # Each signal event must appear in the output at least as often.
        merged = Counter(noisy)
        for event, c in Counter(stream).items():
            assert merged[event] >= c

    def test_at_most_one_noise_event_per_pixel_slice(self):
        out = noise_only_stream(cfg(0.8, seed=4), G, span=(0, 25_000))
        pairs = pixel_slice_pairs(out, 2_500)
        assert len(set(pairs)) == len(pairs)

    def test_timestamps_stay_inside_their_slice(self):
        out = noise_only_stream(cfg(0.9, seed=5), G, span=(0, 25_000))
        s = out.t // 2_500
        assert (out.t >= 0).all()
        assert (out.t < 25_000).all()
        assert len(np.unique(s)) > 1

    def test_output_time_sorted(self):
        stream = random_stream(G, n_events=200, duration=50_000, seed=6)
        noisy = inject_noise(stream, cfg(0.5, seed=6))
        assert (np.diff(noisy.t) >= 0).all()

    def test_partial_slice_truncated_at_span_end(self):
        # Span [0, 3750) cuts the second 2500us slice in half.
        out = noise_only_stream(cfg(1.0, seed=8), G, span=(0, 3_750))
        assert len(out) == 2 * G.pixel_count
        second = out.t[out.t >= 2_500]
        assert (second < 3_750).all()

    def test_fixed_positive_polarity(self):
        out = noise_only_stream(
            cfg(1.0, rule=PolarityRule.FIXED_POSITIVE), G, span=(0, 2_500)
        )
        assert (out.p == 1).all()

    def test_random_polarity_has_both_signs(self):
        out = noise_only_stream(cfg(1.0, seed=9), SensorGeometry(64, 64), span=(0, 2_500))
        assert (out.p == 1).any() and (out.p == -1).any()

    def test_span_validation(self):
        with pytest.raises(ValueError):
            noise_only_stream(cfg(0.5), G, span=(-1, 2_500))
        with pytest.raises(ValueError):
            noise_only_stream(cfg(0.5), G, span=(2_500, 2_500))

    def test_empty_stream_without_span_rejected(self):
        with pytest.raises(ValueError):
            inject_noise(EventStream.empty(G), cfg(0.5))

    def test_count_matches_binomial_expectation(self):
        # 16 pixels * 20 slices * p=0.25 per trial; mean 80, sd ~7.75.
        # Averaged over 100 seeds the sample mean lands within 3 sigma
        # of the expectation with overwhelming probability.
        n_trials = 16 * 20
        p = 0.25
        span = (0, 50_000)
        counts = [
            len(noise_only_stream(cfg(p, seed=s), G, span)) for s in range(100)
        ]
        mean = np.mean(counts)
        sd_of_mean = np.sqrt(n_trials * p * (1 - p)) / np.sqrt(100)
        assert abs(mean - n_trials * p) < 3 * sd_of_mean

    def test_per_slice_occupancy_is_binomial(self):
        # One pixel, ten slices: occupancy of slice 0 across seeds is
        # Bernoulli(p). Chi-square against the two-bin expectation stays
        # far under the rejection bound when draws are faithful.
        geometry = SensorGeometry(1, 1)
        p = 0.5
        hits = 0
        n = 2_000
        for s in range(n):
            out = noise_only_stream(cfg(p, seed=s), geometry, span=(0, 2_500))
            hits += len(out)
        expected = n * p
        chi2 = (hits - expected) ** 2 / expected + ((n - hits) - expected) ** 2 / expected
        assert chi2 < 15.0

    def test_signal_before_noise_on_timestamp_tie(self):
        # Force a tie: noise at probability 1 in a 1-tick slice must land
        # at t=0, same as the signal event.
        geometry = SensorGeometry(1, 1)
        signal = EventStream.from_events(geometry, [(0, 0, 0, -1)])
        noisy = inject_noise(signal, cfg(1.0, dt=1), span=(0, 1))
        assert len(noisy) == 2
        assert noisy.t.tolist() == [0, 0]
        assert noisy.p[0] == -1


@st.composite
def injection_cases(draw):
    """A small signal stream, a noise config and a span of whole or cut slices.

    Widths 2^31 + 1 reject about half of all 32-bit timestamp draws, 2^32
    is the widest that numpy draws from 32 bits, and 2^32 + 5 draws from
    64 bits. A cut span may end 1 us into its last slice.
    """
    geometry = SensorGeometry(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    dt = draw(st.sampled_from([1, 2, 3, 2_500, 2**31 + 1, 2**32, 2**32 + 5]))
    n_slices = draw(st.integers(1, 6))
    t0 = dt * draw(st.integers(0, 2)) + draw(st.sampled_from([0, 1]))
    cut = draw(st.sampled_from([0, dt - 1, draw(st.integers(0, dt - 1))]))
    t1 = t0 + n_slices * dt - cut
    event = st.tuples(
        st.integers(t0, t1 - 1),
        st.integers(0, geometry.width - 1),
        st.integers(0, geometry.height - 1),
        st.sampled_from([1, -1]),
    )
    rows = sorted(draw(st.lists(event, max_size=8)), key=lambda row: row[0])
    noise_cfg = cfg(
        draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0])),
        dt=dt,
        seed=draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64))),
        rule=draw(st.sampled_from(list(PolarityRule))),
    )
    return EventStream.from_events(geometry, rows), noise_cfg, (t0, t1)


@st.composite
def level_cases(draw):
    """An injection case at 1-4 levels, in any order and with repeats.

    A level may equal the first uniform that slice 0 draws, so a pixel's
    uniform can tie with a level: it fires only below it.
    """
    stream, noise_cfg, span = draw(injection_cases())
    tie = float(np.random.default_rng([noise_cfg.rng_seed, NOISE_DOMAIN_TAG, 0]).random(1)[0])
    levels = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0, tie]), min_size=1, max_size=4))
    return stream, [replace(noise_cfg, probability=p) for p in levels], span


def assert_same_columns(got, expected):
    for name in "txyp":
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


def assert_matches_oracle(stream, noise_cfg, span):
    assert_same_columns(inject_noise(stream, noise_cfg, span), reference_inject_noise(stream, noise_cfg, span))


class TestInjectionOracle:
    """inject_noise equals each slice's own generator drawn with ``integers``."""

    @settings(max_examples=300)
    @given(injection_cases())
    def test_matches_per_slice_integers_draws(self, case):
        assert_matches_oracle(*case)

    @pytest.mark.parametrize("rule", list(PolarityRule))
    def test_slices_with_a_rejected_draw_are_drawn_again(self, monkeypatch, rule):
        # At dt 2^31 + 1 about half of all timestamp draws are rejected, so
        # most firing slices take the exact fallback through their own key.
        redone = []
        decode = noise._decode

        def recording_decode(*args):
            slices = decode(*args)
            redone.extend(slices.tolist())
            return slices

        monkeypatch.setattr(noise, "_decode", recording_decode)
        dt = 2**31 + 1
        stream = random_stream(SensorGeometry(8, 8), n_events=20, duration=6 * dt, seed=1)
        assert_matches_oracle(stream, cfg(0.5, dt=dt, seed=11, rule=rule), (0, 6 * dt - 1))
        assert redone

    @pytest.mark.parametrize("rule", list(PolarityRule))
    @pytest.mark.parametrize("dt", [3, 2_500])
    def test_last_slice_cut_to_one_us(self, dt, rule):
        # Every pixel fires; the last slice is decoded at the full width,
        # then drawn again inside its 1 us.
        stream = random_stream(SensorGeometry(5, 4), n_events=10, duration=3 * dt, seed=3)
        assert_matches_oracle(stream, cfg(1.0, dt=dt, seed=5, rule=rule), (0, 3 * dt + 1))

    @settings(max_examples=200)
    @given(level_cases())
    def test_every_level_of_one_draw_matches(self, case):
        stream, cfgs, span = case
        got = list(inject_noise_levels(stream, cfgs, span))
        assert len(got) == len(cfgs)
        for noisy, noise_cfg in zip(got, cfgs):
            assert_same_columns(noisy, reference_inject_noise(stream, noise_cfg, span))

    def test_many_slices_decoded_in_one_pass(self):
        # At 64x64 and p = 0.5 each slice draws about 1 300 words, so one
        # pass decodes twelve slices from about 15 000 joined words.
        noise_cfg = cfg(0.5, seed=2)
        span = (0, 12 * 2_500)
        stream = EventStream.empty(SensorGeometry(64, 64))
        assert_matches_oracle(stream, noise_cfg, span)


class TestInjectNoiseLevels:
    @pytest.mark.parametrize(
        "field, value",
        [("slice_duration", 1_000), ("rng_seed", 1), ("polarity_rule", PolarityRule.FIXED_POSITIVE)],
    )
    def test_configs_must_share_all_but_probability(self, field, value):
        stream = random_stream(G, n_events=10, duration=10_000, seed=0)
        with pytest.raises(ValueError, match=field):
            list(inject_noise_levels(stream, [cfg(0.1), replace(cfg(0.2), **{field: value})]))

    def test_no_configs_yield_nothing(self):
        assert list(inject_noise_levels(EventStream.empty(G), [])) == []

    def test_zero_levels_set_no_slice_state(self, monkeypatch):
        keyed = []
        keyed_generators = noise._keyed_generators

        def counting(seed, tag, slices):
            for item in keyed_generators(seed, tag, slices):
                keyed.append(item[0])
                yield item

        monkeypatch.setattr(noise, "_keyed_generators", counting)
        stream = random_stream(G, n_events=10, duration=10_000, seed=0)
        noisy = list(inject_noise_levels(stream, [cfg(0.0), cfg(0.0)], span=(0, 10_000)))
        assert keyed == []
        assert [out is stream for out in noisy] == [True, True]
        assert len(list(inject_noise_levels(stream, [cfg(0.0), cfg(0.5)], span=(0, 10_000)))) == 2
        assert keyed == list(range(4))

    def test_streams_are_merged_one_at_a_time(self, monkeypatch):
        merges = []
        merge = noise.merge_sorted_by_time

        def counting_merge(*args):
            merges.append(len(args[-1]))
            return merge(*args)

        monkeypatch.setattr(noise, "merge_sorted_by_time", counting_merge)
        levels = inject_noise_levels(EventStream.empty(G), [cfg(0.5), cfg(1.0)], span=(0, 2_500))
        assert len(next(levels)) > 0
        assert len(merges) == 1
        assert len(next(levels)) == G.pixel_count
        assert merges[1] == G.pixel_count


class TestPolarityRuleAndFrames:
    SLICING = SlicingConfig(slice_duration=2_500, bits_per_frame=8)

    @staticmethod
    def frames_per_rule(encoder_cfg):
        bar = generate(SynthScene(SceneKind.MOVING_BAR, SensorGeometry(32, 32), duration=100_000))
        return [encode_stream(inject_noise(bar, cfg(0.05, rule=rule)), encoder_cfg) for rule in PolarityRule]

    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_equal_weights_frames_ignore_the_rule(self, mode):
        neuron = NeuronConfig(beta=0.5) if mode is EncoderMode.SPIKE_TBR else None
        uniform, positive = self.frames_per_rule(EncoderConfig(self.SLICING, mode, neuron))
        assert uniform == positive

    def test_unequal_weights_make_spike_frames_depend_on_the_rule(self):
        neuron = NeuronConfig(beta=0.5, weight_neg=0.2)
        uniform, positive = self.frames_per_rule(EncoderConfig(self.SLICING, EncoderMode.SPIKE_TBR, neuron))
        assert len(uniform) == len(positive) == 5
        assert uniform != positive


def _assert_same_as_default_rng(seed, tag, slices):
    for s, rng in _keyed_generators(seed, tag, slices):
        ref = np.random.default_rng([seed, tag, s])
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, s)
        assert rng.random(3).tolist() == ref.random(3).tolist()
        assert rng.integers(0, 1_000, size=5).tolist() == ref.integers(0, 1_000, size=5).tolist()


class TestKeyedGenerators:
    """Generators built from vectorised SeedSequence states equal numpy's."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_small_keys(self, seed):
        _assert_same_as_default_rng(seed, NOISE_DOMAIN_TAG, range(40))

    def test_random_keys(self):
        draw = np.random.default_rng(2024)
        for seed in draw.integers(0, 2**32, size=6).tolist():
            first = int(draw.integers(0, 2**32 - 50))
            _assert_same_as_default_rng(seed, SYNTH_DOMAIN_TAG, range(first, first + 50))

    def test_largest_slice_index_that_fits(self):
        _assert_same_as_default_rng(7, NOISE_DOMAIN_TAG, range(2**32 - 3, 2**32))

    @pytest.mark.parametrize("seed", [2**32, 2**32 + 5, 2**64 + 1])
    def test_seed_fallback(self, seed):
        _assert_same_as_default_rng(seed, NOISE_DOMAIN_TAG, range(5))

    def test_slice_index_fallback(self):
        _assert_same_as_default_rng(3, NOISE_DOMAIN_TAG, range(2**32 - 2, 2**32 + 2))

    def test_blocks_cover_every_slice_in_order(self):
        n = 2 * _KEY_BLOCK + 3
        slices = [s for s, _ in _keyed_generators(0, NOISE_DOMAIN_TAG, range(n))]
        assert slices == list(range(n))
        _assert_same_as_default_rng(0, NOISE_DOMAIN_TAG, range(_KEY_BLOCK - 2, _KEY_BLOCK + 2))

    def test_empty_range(self):
        assert list(_keyed_generators(0, NOISE_DOMAIN_TAG, range(0))) == []


class TestDefaultSpan:
    def test_rounds_up_to_slice_multiple(self):
        stream = EventStream.from_events(G, [(0, 0, 0, 1), (5_200, 1, 1, 1)])
        assert default_span(stream, 2_500) == (0, 7_500)

    def test_exact_multiple_still_covers_last_event(self):
        stream = EventStream.from_events(G, [(2_499, 0, 0, 1)])
        assert default_span(stream, 2_500) == (0, 2_500)
        stream = EventStream.from_events(G, [(2_500, 0, 0, 1)])
        assert default_span(stream, 2_500) == (0, 5_000)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            default_span(EventStream.empty(G), 2_500)


class TestMergeNoiseRecording:
    def test_identity_geometry_overlay(self):
        signal = EventStream.from_events(G, [(1_000, 0, 0, 1), (9_000, 3, 3, 1)])
        noise = EventStream.from_events(G, [(0, 1, 1, -1), (2_000, 2, 2, 1)])
        merged = merge_noise_recording(signal, noise, G)
        assert len(merged) >= len(signal)
        assert (np.diff(merged.t) >= 0).all()
        # Signal events survive the merge.
        assert set(signal) <= set(merged)

    def test_noise_aligned_to_signal_start(self):
        signal = EventStream.from_events(G, [(10_000, 0, 0, 1), (12_000, 0, 0, 1)])
        noise = EventStream.from_events(G, [(500, 1, 1, 1), (700, 2, 2, 1)])
        merged = merge_noise_recording(signal, noise, G)
        assert int(merged.t[merged.x != 0].min()) == 10_000

    def test_coordinates_rescaled_to_target(self):
        big = SensorGeometry(128, 128)
        signal = EventStream.from_events(big, [(0, 0, 0, 1), (10_000, 127, 127, 1)])
        noise_small = EventStream.from_events(SensorGeometry(64, 64), [(0, 32, 16, 1)])
        merged = merge_noise_recording(signal, noise_small, big)
        added = merged[(merged.x == 64) & (merged.y == 32)]
        assert len(added) >= 1

    def test_rescaling_keeps_coordinates_in_bounds(self):
        big = SensorGeometry(100, 60)
        signal = EventStream.from_events(big, [(0, 0, 0, 1), (50_000, 99, 59, 1)])
        noise = random_stream(SensorGeometry(64, 64), n_events=500, duration=10_000, seed=3)
        merged = merge_noise_recording(signal, noise, big)
        assert (merged.x < 100).all() and (merged.y < 60).all()
        assert (merged.x >= 0).all() and (merged.y >= 0).all()

    def test_short_recording_tiles_to_cover_signal(self):
        signal = EventStream.from_events(G, [(0, 0, 0, 1), (50_000, 3, 3, 1)])
        noise = EventStream.from_events(G, [(0, 1, 1, 1), (5_000, 2, 2, 1)])
        merged = merge_noise_recording(signal, noise, G)
        added_t = merged.t[merged.x == 1]
        # The tile period is 5000us, so copies land at 0, 5000, 10000, ...
        assert len(added_t) >= 10
        assert (added_t % 5_000 == 0).all()

    def test_tile_boundaries_keep_both_events(self):
        # Copy c's last event and copy c+1's first event share a timestamp;
        # both stay, so every copy is the whole recording.
        signal = EventStream.from_events(G, [(0, 0, 0, 1), (100, 3, 3, 1)])
        noise = EventStream.from_events(G, [(10, 1, 1, 1), (40, 2, 2, 1)])
        merged = merge_noise_recording(signal, noise, G)
        assert merged.t.tolist() == [0, 0, 30, 30, 60, 60, 90, 90, 100]
        assert merged.x.tolist() == [0, 1, 2, 1, 2, 1, 2, 1, 3]

    def test_single_timestamp_recording_laid_over_once(self):
        signal = EventStream.from_events(G, [(1_000, 0, 0, 1), (21_000, 0, 3, 1)])
        noise = EventStream.from_events(G, [(500, 1, 1, 1), (500, 2, 2, -1)])
        merged = merge_noise_recording(signal, noise, G)
        assert len(merged) == len(signal) + 2
        assert merged.t[merged.x != 0].tolist() == [1_000, 1_000]

    def test_truncated_at_signal_end(self):
        signal = EventStream.from_events(G, [(0, 0, 0, 1), (7_000, 3, 3, 1)])
        noise = EventStream.from_events(G, [(0, 1, 1, 1), (5_000, 2, 2, 1)])
        merged = merge_noise_recording(signal, noise, G)
        assert int(merged.t.max()) <= 7_000

    def test_empty_noise_rejected(self):
        signal = EventStream.from_events(G, [(0, 0, 0, 1)])
        with pytest.raises(ValueError):
            merge_noise_recording(signal, EventStream.empty(G), G)

    def test_empty_signal_passes_through(self):
        noise = EventStream.from_events(G, [(0, 1, 1, 1)])
        out = merge_noise_recording(EventStream.empty(G), noise, G)
        assert len(out) == 0

    def test_geometry_mismatch_rejected(self):
        signal = EventStream.from_events(G, [(0, 0, 0, 1)])
        noise = EventStream.from_events(G, [(0, 1, 1, 1)])
        with pytest.raises(ValueError):
            merge_noise_recording(signal, noise, SensorGeometry(8, 8))
