import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtbr.encoder import (
    EncodedFrame,
    EncoderConfig,
    EncoderMode,
    decode_tbr,
    encode_stream,
    encode_tbr,
    encode_window_spike_tbr,
    encode_window_tbr,
)
from evtbr.events import BinarySliceStack, EventStream, SensorGeometry, SlicingConfig
from evtbr.neurons import NeuronConfig, NeuronGrid, NeuronVariant

from helpers import make_stream, random_stack, random_stream
from reference import reference_encode

G = SensorGeometry(4, 4)
SLICING = SlicingConfig(slice_duration=2_500, bits_per_frame=8)
CFG_TBR = EncoderConfig(slicing=SLICING)


def stack_with_bits(geometry, n_bits, pixel, on_slices):
    bits = np.zeros((n_bits, *geometry.shape), dtype=bool)
    for s in on_slices:
        bits[s][pixel] = True
    return BinarySliceStack(geometry, bits)


def spike_encode(stream, cfg, grid=None, window_start=0):
    if grid is None:
        grid = NeuronGrid(stream.geometry, cfg.neuron)
    return encode_window_spike_tbr(stream, cfg, grid, window_start)


class TestEncodeTbr:
    def test_only_last_slice_gives_msb(self):
        stack = stack_with_bits(G, 8, (1, 1), [7])
        frame = encode_tbr(stack)
        assert frame.codes[1, 1] == 128
        assert frame.codes.sum() == 128

    def test_all_slices_give_max_code(self):
        stack = stack_with_bits(G, 8, (2, 3), range(8))
        frame = encode_tbr(stack)
        assert frame.codes[2, 3] == 255

    def test_slices_zero_and_two_give_five(self):
        stack = stack_with_bits(G, 8, (0, 0), [0, 2])
        assert encode_tbr(stack).codes[0, 0] == 5

    def test_empty_stack_gives_zero_frame(self):
        stack = BinarySliceStack(G, np.zeros((8, *G.shape), dtype=bool))
        frame = encode_tbr(stack)
        assert not frame.codes.any()
        assert frame.n_bits == 8

    def test_codes_dtype_and_bound(self):
        stack = random_stack(G, 8, seed=3)
        frame = encode_tbr(stack)
        assert frame.codes.dtype == np.uint32
        assert frame.codes.max() <= frame.max_code


class TestDecodeTbr:
    def test_five_decodes_to_slices_zero_and_two(self):
        stack = stack_with_bits(G, 8, (0, 0), [0, 2])
        back = decode_tbr(encode_tbr(stack))
        assert back.slices[0][0, 0] and back.slices[2][0, 0]
        assert back.slices.sum() == 2

    def test_zero_frame_decodes_empty(self):
        frame = EncodedFrame(G, 8, np.zeros(G.shape, dtype=np.uint32))
        assert not decode_tbr(frame).slices.any()

    def test_rejects_code_above_max(self):
        frame = EncodedFrame(G, 4, np.full(G.shape, 16, dtype=np.uint32))
        with pytest.raises(ValueError):
            decode_tbr(frame)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_random(self, seed):
        stack = random_stack(G, 8, seed=seed)
        assert decode_tbr(encode_tbr(stack)) == stack

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_property(self, n_bits, seed):
        stack = random_stack(G, n_bits, seed=seed)
        back = decode_tbr(encode_tbr(stack))
        assert np.array_equal(back.slices, stack.slices)


class TestNormalized:
    def test_unit_range(self):
        stack = stack_with_bits(G, 8, (0, 0), range(8))
        norm = encode_tbr(stack).normalized()
        assert norm[0, 0] == 1.0
        assert norm.min() == 0.0

    def test_single_bit_value(self):
        stack = stack_with_bits(G, 4, (1, 2), [0])
        assert encode_tbr(stack).normalized()[1, 2] == pytest.approx(1 / 15)


class TestEncodeWindowTbr:
    def test_empty_window_zero_frame(self):
        frame = encode_window_tbr(EventStream.empty(G), CFG_TBR, 0)
        assert not frame.codes.any()

    def test_event_in_last_slice_sets_msb(self):
        stream = make_stream(G, [(17_500, 1, 1, 1)])
        frame = encode_window_tbr(stream, CFG_TBR, 0)
        assert frame.codes[1, 1] == 128

    def test_polarity_does_not_change_code(self):
        pos = make_stream(G, [(0, 2, 2, 1)])
        neg = make_stream(G, [(0, 2, 2, -1)])
        a = encode_window_tbr(pos, CFG_TBR, 0)
        b = encode_window_tbr(neg, CFG_TBR, 0)
        assert np.array_equal(a.codes, b.codes)

    def test_window_start_carried(self):
        stream = make_stream(G, [(20_000, 0, 0, 1)])
        frame = encode_window_tbr(stream, CFG_TBR, 20_000)
        assert frame.window_start == 20_000
        assert frame.codes[0, 0] == 1


class TestMsbRecency:
    def test_last_slice_dominates_all_others_exhaustively(self):
        # For every 7-bit history, adding activity in the final slice
        # must strictly increase the code by exactly the top bit.
        geom = SensorGeometry(16, 16)
        old = np.zeros((8, *geom.shape), dtype=bool)
        for code in range(256):
            y, x = divmod(code, 16)
            for b in range(7):
                old[b, y, x] = bool((code >> b) & 1)
        base = encode_tbr(BinarySliceStack(geom, old))
        new = old.copy()
        new[7, :, :] = True
        bumped = encode_tbr(BinarySliceStack(geom, new))
        assert np.array_equal(bumped.codes, base.codes | 128)
        assert (bumped.codes >= 128).all()
        assert (bumped.codes - base.codes == 128).all()


def lever_config(micro_steps=1, beta=0.5):
    # Threshold at or below the unit weight with hard reset makes every
    # active slice spike, reproducing the plain binary encoding exactly.
    return EncoderConfig(
        slicing=SLICING,
        mode=EncoderMode.SPIKE_TBR,
        neuron=NeuronConfig(variant=NeuronVariant.LIF, beta=beta, v_th=1.0),
        micro_steps_per_slice=micro_steps,
    )


class TestSpikeWindowEncoding:
    def test_single_event_below_threshold_filtered(self):
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.1),
        )
        stream = make_stream(G, [(0, 1, 1, 1)])
        frame = spike_encode(stream, cfg)
        assert not frame.codes.any()

    def test_adjacent_slices_accumulate(self):
        # Events in slices 2 and 3: 0.5*1 + 1 = 1.5 >= 1.1, spike in slice 3.
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.1),
        )
        stream = make_stream(G, [(5_000, 1, 1, 1), (7_500, 1, 1, 1)])
        frame = spike_encode(stream, cfg)
        assert frame.codes[1, 1] == 8

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_at_weight_matches_plain_encoding(self, seed):
        stream = random_stream(G, n_events=300, duration=20_000, seed=seed)
        plain = encode_window_tbr(stream, CFG_TBR, 0)
        spike = spike_encode(stream, lever_config())
        assert np.array_equal(plain.codes, spike.codes)

    @pytest.mark.parametrize("seed", range(5))
    def test_micro_steps_preserve_lever_equivalence(self, seed):
        stream = random_stream(G, n_events=300, duration=20_000, seed=seed)
        plain = encode_window_tbr(stream, CFG_TBR, 0)
        spike = spike_encode(stream, lever_config(micro_steps=5))
        assert np.array_equal(plain.codes, spike.codes)

    @pytest.mark.parametrize("seed", range(5))
    def test_spike_bits_subset_of_plain_bits(self, seed):
        # Above-weight threshold can only remove active slices, never add.
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.3),
        )
        stream = random_stream(G, n_events=200, duration=20_000, seed=seed)
        plain = encode_window_tbr(stream, CFG_TBR, 0)
        spike = spike_encode(stream, cfg)
        assert not (spike.codes & ~plain.codes).any()

    def test_membrane_persists_across_windows(self):
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.1),
        )
        grid = NeuronGrid(G, cfg.neuron)
        # Window 0 ends with a subthreshold charge; window 1 opens with an
        # event that pushes the carried membrane over threshold in slice 0.
        w0 = make_stream(G, [(17_500, 1, 1, 1)])
        w1 = make_stream(G, [(20_000, 1, 1, 1)])
        f0 = encode_window_spike_tbr(w0, cfg, grid, 0)
        f1 = encode_window_spike_tbr(w1, cfg, grid, 20_000)
        assert not f0.codes.any()
        assert f1.codes[1, 1] == 1

    def test_fresh_grids_are_independent(self):
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.1),
        )
        stream = make_stream(G, [(0, 1, 1, 1)])
        a = spike_encode(stream, cfg)
        b = spike_encode(stream, cfg)
        assert np.array_equal(a.codes, b.codes)

    def test_geometry_mismatch_rejected(self):
        cfg = lever_config()
        grid = NeuronGrid(SensorGeometry(5, 5), cfg.neuron)
        with pytest.raises(ValueError):
            encode_window_spike_tbr(EventStream.empty(G), cfg, grid, 0)

    def test_events_outside_window_ignored(self):
        cfg = lever_config()
        stream = make_stream(G, [(25_000, 1, 1, 1)])
        frame = spike_encode(stream, cfg)
        assert not frame.codes.any()


class TestEncodeStream:
    def test_frame_count_follows_duration(self):
        stream = random_stream(G, n_events=500, duration=500_000, seed=0)
        cfg = EncoderConfig(slicing=SlicingConfig(2_500, 8))
        frames = encode_stream(stream, cfg)
        assert len(frames) == stream.last_t // 20_000 + 1

    def test_known_counts_for_two_slice_durations(self):
        rows = [(0, 0, 0, 1), (499_999, 3, 3, -1)]
        stream = make_stream(G, rows)
        fast = encode_stream(stream, EncoderConfig(slicing=SlicingConfig(2_500, 8)))
        slow = encode_stream(stream, EncoderConfig(slicing=SlicingConfig(6_250, 8)))
        assert len(fast) == 25
        assert len(slow) == 10

    def test_empty_stream_no_frames(self):
        assert encode_stream(EventStream.empty(G), CFG_TBR) == []

    def test_n_windows_override_pads_with_zero_frames(self):
        stream = make_stream(G, [(0, 1, 1, 1)])
        frames = encode_stream(stream, CFG_TBR, n_windows=4)
        assert len(frames) == 4
        assert frames[0].codes[1, 1] == 1
        assert not any(f.codes.any() for f in frames[1:])

    def test_window_starts_are_multiples_of_window_duration(self):
        stream = random_stream(G, n_events=100, duration=100_000, seed=1)
        frames = encode_stream(stream, CFG_TBR)
        for k, frame in enumerate(frames):
            assert frame.window_start == k * SLICING.window_duration

    def test_spike_mode_shares_one_grid_across_windows(self):
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.1),
        )
        # Same charge/trigger pair as the two-window persistence test, as
        # one stream spanning the window boundary.
        stream = make_stream(G, [(17_500, 1, 1, 1), (20_000, 1, 1, 1)])
        frames = encode_stream(stream, cfg)
        assert len(frames) == 2
        assert not frames[0].codes.any()
        assert frames[1].codes[1, 1] == 1

    def test_whole_stream_equals_per_window_concatenation(self):
        stream = random_stream(G, n_events=400, duration=80_000, seed=7)
        frames = encode_stream(stream, CFG_TBR)
        for k, frame in enumerate(frames):
            start = k * SLICING.window_duration
            mask = (stream.events["t"] >= start) & (
                stream.events["t"] < start + SLICING.window_duration
            )
            window = EventStream(G, stream.events[mask])
            solo = encode_window_tbr(window, CFG_TBR, start)
            assert frame == solo

    def test_last_window_past_int64_is_rejected(self):
        stream = make_stream(G, [(0, 1, 1, 1)])
        n_windows = np.iinfo(np.int64).max // SLICING.window_duration + 1
        with pytest.raises(ValueError, match="representable"):
            encode_stream(stream, CFG_TBR, n_windows=n_windows)


@st.composite
def reference_cases(draw):
    """A small sorted stream and encoder config, with events on micro-step edges."""
    k = draw(st.sampled_from([1, 2, 4]))
    slicing = SlicingConfig(4 * draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    micro_dt = slicing.slice_duration // k
    n_steps = 3 * slicing.bits_per_frame * k
    geometry = SensorGeometry(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    t = st.one_of(
        st.integers(0, n_steps * micro_dt),
        st.integers(0, n_steps).map(lambda m: m * micro_dt),
    )
    event = st.tuples(
        t,
        st.integers(0, geometry.width - 1),
        st.integers(0, geometry.height - 1),
        st.sampled_from([1, -1]),
    )
    rows = sorted(draw(st.lists(event, max_size=40)), key=lambda row: row[0])

    variant = draw(st.sampled_from([None, *NeuronVariant]))
    if variant is None:
        cfg = EncoderConfig(slicing=slicing, micro_steps_per_slice=k)
    else:
        if variant is NeuronVariant.PLIF:
            rate = {"tau_m": draw(st.sampled_from([1.5, 2.0, 5.0]))}
        else:
            rate = {"beta": draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]))}
        neuron = NeuronConfig(
            variant=variant,
            v_th=draw(st.sampled_from([0.9, 1.1, 1.6])),
            v_rest=draw(st.sampled_from([0.0, 0.3, -0.2])),
            weight_pos=draw(st.sampled_from([1.0, 0.7])),
            weight_neg=draw(st.sampled_from([1.0, 0.45, 1.3])),
            **rate,
        )
        cfg = EncoderConfig(
            slicing=slicing,
            mode=EncoderMode.SPIKE_TBR,
            neuron=neuron,
            micro_steps_per_slice=k,
        )
    # The default window count for these streams is 0 to 4.
    n_windows = draw(st.sampled_from([None, 0, 1, 2, 5]))
    return make_stream(geometry, rows), cfg, n_windows


class TestReferenceEncoder:
    @settings(max_examples=300)
    @given(reference_cases())
    def test_encode_stream_matches_per_event_reference(self, case):
        stream, cfg, n_windows = case
        frames = encode_stream(stream, cfg, n_windows=n_windows)
        if n_windows is None:
            n_windows = 0 if len(stream) == 0 else stream.last_t // cfg.slicing.window_duration + 1
        assert len(frames) == n_windows
        assert [f.codes.tolist() for f in frames] == reference_encode(
            stream.events.tolist(), stream.geometry, cfg, n_windows
        )


class TestWideGrid:
    """Events in one corner of an HD grid encode as on a grid of that corner's size."""

    CORNER = SensorGeometry(3, 2)
    WIDE = SensorGeometry(1280, 720)

    @pytest.mark.parametrize(
        "neuron,k",
        [(None, 1)]
        + [(NeuronConfig(variant=v, beta=0.5, v_th=1.0), 2) for v in NeuronVariant]
        + [(NeuronConfig(beta=0.8, v_rest=-0.2, weight_neg=-0.6), 1)],
    )
    def test_corner_codes_match_small_grid(self, neuron, k):
        small = random_stream(self.CORNER, n_events=200, duration=60_000, seed=11)
        wide = EventStream(self.WIDE, small.events)
        if neuron is None:
            cfg = CFG_TBR
        else:
            cfg = EncoderConfig(SLICING, EncoderMode.SPIKE_TBR, neuron, micro_steps_per_slice=k)
        small_frames = encode_stream(small, cfg)
        wide_frames = encode_stream(wide, cfg)
        assert len(wide_frames) == len(small_frames) == 3
        assert any(f.codes.any() for f in small_frames)
        for s_frame, w_frame in zip(small_frames, wide_frames):
            h, w = self.CORNER.shape
            assert np.array_equal(w_frame.codes[:h, :w], s_frame.codes)
            outside = w_frame.codes.copy()
            outside[:h, :w] = 0
            assert not outside.any()


class TestEncoderConfig:
    def test_spike_mode_requires_neuron(self):
        with pytest.raises(ValueError):
            EncoderConfig(slicing=SLICING, mode=EncoderMode.SPIKE_TBR)

    def test_micro_steps_must_divide_slice(self):
        with pytest.raises(ValueError):
            EncoderConfig(
                slicing=SLICING,
                mode=EncoderMode.SPIKE_TBR,
                neuron=NeuronConfig(beta=0.5),
                micro_steps_per_slice=3,
            )

    def test_micro_steps_positive(self):
        with pytest.raises(ValueError):
            EncoderConfig(
                slicing=SLICING,
                mode=EncoderMode.SPIKE_TBR,
                neuron=NeuronConfig(beta=0.5),
                micro_steps_per_slice=0,
            )

    def test_labels(self):
        assert CFG_TBR.label() == "tbr"
        for variant, text in [
            (NeuronVariant.LIF, "spike-tbr-lif"),
            (NeuronVariant.REC_LIF, "spike-tbr-reclif"),
            (NeuronVariant.LR_LIF, "spike-tbr-lrlif"),
            (NeuronVariant.PLIF, "spike-tbr-plif"),
        ]:
            cfg = EncoderConfig(
                slicing=SLICING,
                mode=EncoderMode.SPIKE_TBR,
                neuron=NeuronConfig(variant=variant, beta=0.5),
            )
            assert cfg.label() == text


class TestEncodedFrame:
    def test_equality_includes_window_start(self):
        codes = np.zeros(G.shape, dtype=np.uint32)
        a = EncodedFrame(G, 8, codes, window_start=0)
        b = EncodedFrame(G, 8, codes, window_start=20_000)
        assert a != b
        assert a == EncodedFrame(G, 8, codes.copy(), window_start=0)

    def test_max_code(self):
        codes = np.zeros(G.shape, dtype=np.uint32)
        assert EncodedFrame(G, 8, codes).max_code == 255
        assert EncodedFrame(G, 1, codes).max_code == 1
        assert EncodedFrame(G, 16, codes).max_code == 65535

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EncodedFrame(G, 8, np.zeros((3, 3), dtype=np.uint32))
