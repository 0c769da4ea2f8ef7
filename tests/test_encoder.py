import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtbr import encoder
from evtbr.encoder import (
    MAX_FRAME_BYTES,
    EncodedFrame,
    EncoderConfig,
    EncoderMode,
    decode_tbr,
    encode_stream,
    encode_tbr,
    encode_window_spike_tbr,
    encode_window_tbr,
)
from evtbr.events import BinarySliceStack, EventStream, SensorGeometry, SlicingConfig, slice_stream
from evtbr.neurons import NeuronConfig, NeuronGrid, NeuronVariant

from helpers import random_stack, random_stream
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
        stream = EventStream.from_events(G, [(17_500, 1, 1, 1)])
        frame = encode_window_tbr(stream, CFG_TBR, 0)
        assert frame.codes[1, 1] == 128

    def test_polarity_does_not_change_code(self):
        pos = EventStream.from_events(G, [(0, 2, 2, 1)])
        neg = EventStream.from_events(G, [(0, 2, 2, -1)])
        a = encode_window_tbr(pos, CFG_TBR, 0)
        b = encode_window_tbr(neg, CFG_TBR, 0)
        assert np.array_equal(a.codes, b.codes)

    def test_window_start_carried(self):
        stream = EventStream.from_events(G, [(20_000, 0, 0, 1)])
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
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
        frame = spike_encode(stream, cfg)
        assert not frame.codes.any()

    def test_adjacent_slices_accumulate(self):
        # Events in slices 2 and 3: 0.5*1 + 1 = 1.5 >= 1.1, spike in slice 3.
        cfg = EncoderConfig(
            slicing=SLICING,
            mode=EncoderMode.SPIKE_TBR,
            neuron=NeuronConfig(beta=0.5, v_th=1.1),
        )
        stream = EventStream.from_events(G, [(5_000, 1, 1, 1), (7_500, 1, 1, 1)])
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
        w0 = EventStream.from_events(G, [(17_500, 1, 1, 1)])
        w1 = EventStream.from_events(G, [(20_000, 1, 1, 1)])
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
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
        a = spike_encode(stream, cfg)
        b = spike_encode(stream, cfg)
        assert np.array_equal(a.codes, b.codes)

    def test_geometry_mismatch_rejected(self):
        # A grid with more pixels than the stream takes its events without
        # an index error, so only the geometry check stops wrong frames.
        cfg = lever_config()
        grid = NeuronGrid(SensorGeometry(5, 5), cfg.neuron)
        with pytest.raises(ValueError):
            encode_window_spike_tbr(EventStream.empty(G), cfg, grid, 0)
        stream = EventStream.from_events(G, [(0, 1, 1, 1), (30_000, 3, 3, 1)])
        with pytest.raises(ValueError, match="grid geometry"):
            encode_stream(stream, cfg, grid)
        # A grid of another neuron config would encode one event at v_th 0.5
        # as a spike, while cfg.label() names cfg.neuron (v_th 1.1).
        cfg = EncoderConfig(SLICING, EncoderMode.SPIKE_TBR, NeuronConfig(beta=0.5))
        grid = NeuronGrid(G, NeuronConfig(beta=0.5, v_th=0.5))
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
        with pytest.raises(ValueError, match="grid neuron config"):
            encode_window_spike_tbr(stream, cfg, grid, 0)
        with pytest.raises(ValueError, match="grid neuron config"):
            encode_stream(stream, cfg, grid)

    @pytest.mark.parametrize(
        "geometry", [SensorGeometry(64, 48), SensorGeometry(320, 240)], ids=["sparse", "lazy"]
    )
    def test_carried_membrane_over_threshold_fires(self, geometry):
        # A membrane written through grid.v above v_th fires on the first
        # step, although the window's only event is elsewhere.
        cfg = EncoderConfig(SLICING, EncoderMode.SPIKE_TBR, NeuronConfig(beta=0.5))
        grid = NeuronGrid(geometry, cfg.neuron)
        grid.v[5, 5] = 3.0
        frame = encode_window_spike_tbr(EventStream.from_events(geometry, [(0, 0, 0, 1)]), cfg, grid, 0)
        assert frame.codes[5, 5] == 1 and frame.codes.sum() == 1

    def test_events_outside_window_ignored(self):
        cfg = lever_config()
        stream = EventStream.from_events(G, [(25_000, 1, 1, 1)])
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
        stream = EventStream.from_events(G, rows)
        fast = encode_stream(stream, EncoderConfig(slicing=SlicingConfig(2_500, 8)))
        slow = encode_stream(stream, EncoderConfig(slicing=SlicingConfig(6_250, 8)))
        assert len(fast) == 25
        assert len(slow) == 10

    def test_empty_stream_no_frames(self):
        assert encode_stream(EventStream.empty(G), CFG_TBR) == []

    def test_n_windows_override_pads_with_zero_frames(self):
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
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
        stream = EventStream.from_events(G, [(17_500, 1, 1, 1), (20_000, 1, 1, 1)])
        frames = encode_stream(stream, cfg)
        assert len(frames) == 2
        assert not frames[0].codes.any()
        assert frames[1].codes[1, 1] == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_spike_mode_advances_the_grid_through_step(self, monkeypatch, k):
        # The benchmark's neuron counters wrap NeuronGrid.step by name, so
        # every micro step must go through it: windows x N x K calls.
        calls, spikes = [], []
        step = NeuronGrid.step

        def counting_step(grid, inp):
            calls.append(inp.event_count)
            frame = step(grid, inp)
            spikes.append(int(frame.sum()))
            return frame

        monkeypatch.setattr(NeuronGrid, "step", counting_step)
        stream = random_stream(SensorGeometry(32, 24), n_events=3000, duration=80_000, seed=3)
        grid = NeuronGrid(stream.geometry, NeuronConfig(beta=0.9, v_th=1.1))
        cfg = EncoderConfig(SLICING, EncoderMode.SPIKE_TBR, grid.config, micro_steps_per_slice=k)
        frames = encode_stream(stream, cfg, grid, n_windows=6)  # the last two are empty
        assert len(frames) == 6
        assert len(calls) == 6 * SLICING.bits_per_frame * k
        assert sum(calls) == grid.ac_count == len(stream)
        assert sum(spikes) == grid.spike_count > 0

    @pytest.mark.parametrize(
        "variant,k",
        [pytest.param(None, 1, id="tbr")]
        + [pytest.param(v, k, id=f"{v.value}-k{k}") for v in NeuronVariant for k in (1, 2)],
    )
    def test_whole_stream_equals_per_window_concatenation(self, variant, k):
        # In spike mode the stream's grid and a second grid stepped window
        # by window must end in the same state.
        stream = random_stream(G, n_events=800, duration=80_000, seed=7)
        if variant is None:
            cfg, grid, solo_grid = CFG_TBR, None, None
        else:
            neuron = NeuronConfig(variant=variant, beta=0.5, v_th=1.1)
            cfg = EncoderConfig(SLICING, EncoderMode.SPIKE_TBR, neuron, micro_steps_per_slice=k)
            grid, solo_grid = NeuronGrid(G, neuron), NeuronGrid(G, neuron)
        frames = encode_stream(stream, cfg, grid)
        assert len(frames) == 4
        for w, frame in enumerate(frames):
            start = w * SLICING.window_duration
            window = stream[(stream.t >= start) & (stream.t < start + SLICING.window_duration)]
            if variant is None:
                solo = encode_window_tbr(window, cfg, start)
            else:
                solo = encode_window_spike_tbr(window, cfg, solo_grid, start)
            assert frame == solo
        if variant is not None:
            assert grid.ac_count == solo_grid.ac_count >= len(stream)
            assert grid.spike_count == solo_grid.spike_count > 0

    def test_negative_window_count_is_rejected(self):
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
        with pytest.raises(ValueError, match="non-negative"):
            encode_stream(stream, CFG_TBR, n_windows=-2)

    def test_last_window_past_int64_is_rejected(self):
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
        n_windows = np.iinfo(np.int64).max // SLICING.window_duration + 1
        with pytest.raises(ValueError, match="representable"):
            encode_stream(stream, CFG_TBR, n_windows=n_windows)

    def test_window_ending_at_int64_max_is_encoded(self):
        start = np.iinfo(np.int64).max - SLICING.window_duration
        frame = encode_window_tbr(EventStream.empty(G), CFG_TBR, start)
        assert frame.window_start == start and not frame.codes.any()

    def test_numpy_window_count_is_checked_as_a_python_int(self):
        # np.int64 products would wrap, and numpy would then refuse the array.
        stream = EventStream.from_events(G, [(0, 1, 1, 1)])
        with pytest.raises(ValueError, match="representable"):
            encode_stream(stream, CFG_TBR, n_windows=np.int64(2**61))

    def test_window_count_past_the_code_limit_is_rejected_before_encoding(self, monkeypatch):
        # One event at 10^12 us asks for 5 * 10^7 windows: the block would
        # exceed MAX_FRAME_BYTES, so no step is located and no block allocated.
        stream = EventStream.from_events(SensorGeometry(32, 32), [(10**12, 1, 1, 1)])
        monkeypatch.setattr(encoder.np, "searchsorted", None)
        monkeypatch.setattr(encoder.np, "zeros", None)
        with pytest.raises(ValueError, match="50000001 windows .*t=1000000000000 us"):
            encode_stream(stream, CFG_TBR)

    @pytest.mark.parametrize("n_bits,itemsize", [(8, 1), (9, 2)])
    def test_code_limit_counts_code_bytes(self, monkeypatch, n_bits, itemsize):
        # Each window holds its codes plus an int64 edge and bound per step.
        monkeypatch.setattr(encoder, "MAX_FRAME_BYTES", 4096)
        cfg = EncoderConfig(SlicingConfig(100, n_bits))
        stream = EventStream.empty(G)
        n_windows = 4096 // (G.pixel_count * itemsize + 16 * n_bits)
        assert len(encode_stream(stream, cfg, n_windows=n_windows)) == n_windows
        with pytest.raises(ValueError, match=f"{n_windows + 1} windows .*no events"):
            encode_stream(stream, cfg, n_windows=n_windows + 1)

    def test_block_of_exactly_the_byte_limit_is_encoded(self, monkeypatch):
        # Three windows of 16 uint8 codes and 8 steps of 16 bytes each.
        monkeypatch.setattr(encoder, "MAX_FRAME_BYTES", 3 * (16 + 16 * 8))
        assert len(encode_stream(EventStream.empty(G), CFG_TBR, n_windows=3)) == 3

    def test_late_events_still_give_every_window(self):
        rows = [(10**9 + 100 * i, i % 4, 0, 1) for i in range(10)]
        frames = encode_stream(EventStream.from_events(SensorGeometry(32, 32), rows), CFG_TBR)
        assert len(frames) == 50_001
        assert frames[-1].codes.any() and not frames[0].codes.any()


class TestNarrowCodes:
    @pytest.mark.parametrize(
        "n_bits,dtype",
        [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
         (32, np.uint32)],
    )
    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_codes_use_the_narrowest_dtype(self, n_bits, dtype, mode):
        cfg = EncoderConfig(SlicingConfig(100, n_bits), mode, NeuronConfig(beta=0.5, v_th=1.0))
        stream = random_stream(G, n_events=200, duration=3 * 100 * n_bits, seed=n_bits)
        frames = encode_stream(stream, cfg)
        assert {f.codes.dtype for f in frames} == {np.dtype(dtype)}
        assert frames[0].codes.max() > 0
        if mode is EncoderMode.TBR:
            solo = encode_window_tbr(stream, cfg, 0)
        else:
            solo = spike_encode(stream, cfg)
        assert solo.codes.dtype == dtype and solo == frames[0]

    def test_frames_are_independent_rows(self):
        stream = random_stream(G, n_events=400, duration=80_000, seed=4)
        frames = encode_stream(stream, CFG_TBR)
        before = [f.codes.copy() for f in frames]
        frames[1].codes[:] = 255
        assert all(np.array_equal(f.codes, b) for f, b in zip(frames[2:], before[2:]))
        assert np.array_equal(frames[0].codes, before[0])

    @pytest.mark.parametrize("n_windows", [1, 7, 40])
    @pytest.mark.parametrize("mode", list(EncoderMode))
    def test_one_search_locates_every_window(self, monkeypatch, mode, n_windows):
        # No window searches the stream itself: the step bounds of all
        # windows come from one np.searchsorted call.
        calls = []
        inner = np.searchsorted

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        cfg = EncoderConfig(SLICING, mode, NeuronConfig(beta=0.5, v_th=1.1))
        stream = random_stream(G, n_events=300, duration=90_000, seed=5)
        monkeypatch.setattr(encoder.np, "searchsorted", counting)
        frames = encode_stream(stream, cfg, n_windows=n_windows)
        assert len(frames) == n_windows
        assert len(calls) == 1


@st.composite
def reference_cases(draw):
    """A small sorted stream and encoder config, with events on micro-step edges.

    Events land in a corner of at most 3x2 pixels. In wide cases that corner
    lies on a 320x240 grid with v_rest = 0, where spike steps leak lazily
    when beta = 2**-m. A quarter of the cases are pairs of unit events 2-4
    micro steps apart on one pixel at beta 0.5 and v_th 1.1: the second
    event fires at a gap of 3 only if the leak over the gap is exact.
    """
    wide = draw(st.booleans())
    pairs = draw(st.integers(0, 3)) == 0
    k = draw(st.sampled_from([1, 2, 4]))
    slicing = SlicingConfig(4 * draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    micro_dt = slicing.slice_duration // k
    n_steps = 3 * slicing.bits_per_frame * k
    corner = (draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    geometry = SensorGeometry(*((320, 240) if wide else corner))
    t = st.one_of(
        st.integers(0, n_steps * micro_dt),
        st.integers(0, n_steps).map(lambda m: m * micro_dt),
    )
    x, y = st.integers(0, corner[0] - 1), st.integers(0, corner[1] - 1)
    polarity = st.sampled_from([1, -1])
    if pairs:
        rows = []
        for _ in range(draw(st.integers(1, 3))):
            m = draw(st.integers(0, n_steps - 2))
            gap = draw(st.integers(2, min(4, n_steps - m)))
            pixel = (draw(x), draw(y), draw(polarity))
            rows += [(m * micro_dt, *pixel), ((m + gap) * micro_dt, *pixel)]
    else:
        rows = draw(st.lists(st.tuples(t, x, y, polarity), max_size=40))
    rows.sort(key=lambda row: row[0])

    leaky = [NeuronVariant.LIF, NeuronVariant.LR_LIF, NeuronVariant.REC_LIF]
    variant = draw(st.sampled_from(leaky if pairs else [None, *NeuronVariant]))
    if pairs:
        neuron = NeuronConfig(variant=variant, beta=0.5, v_th=1.1)
        cfg = EncoderConfig(slicing, EncoderMode.SPIKE_TBR, neuron, micro_steps_per_slice=k)
    elif variant is None:
        cfg = EncoderConfig(slicing=slicing, micro_steps_per_slice=k)
    else:
        if variant is NeuronVariant.PLIF:
            rate = {"tau_m": draw(st.sampled_from([1.5, 2.0, 5.0]))}
        else:
            rate = {"beta": draw(st.sampled_from([0.25, 0.3, 0.5, 1.0] + ([] if wide else [0.8])))}
        neuron = NeuronConfig(
            variant=variant,
            v_th=draw(st.sampled_from([0.9, 1.1, 1.6])),
            v_rest=0.0 if wide else draw(st.sampled_from([0.0, 0.3, -0.2])),
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
    return EventStream.from_events(geometry, rows), cfg, n_windows


class TestReferenceEncoder:
    # A quarter of the cases are pairs; 800 keeps about 600 general ones.
    @settings(max_examples=800)
    @given(reference_cases())
    def test_encode_stream_matches_per_event_reference(self, case):
        stream, cfg, n_windows = case
        frames = encode_stream(stream, cfg, n_windows=n_windows)
        if n_windows is None:
            n_windows = 0 if len(stream) == 0 else stream.last_t // cfg.slicing.window_duration + 1
        assert len(frames) == n_windows
        assert [f.codes.tolist() for f in frames] == reference_encode(
            list(stream), stream.geometry, cfg, n_windows
        )


@st.composite
def offset_window_cases(draw):
    """A small sorted stream, a slicing, K and a window start off the slice grid.

    Windows fall before, after and across the events; some events sit
    exactly on the window's micro-step edges.
    """
    k = draw(st.sampled_from([1, 2, 4]))
    slicing = SlicingConfig(4 * draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    micro_dt = slicing.slice_duration // k
    span = 3 * slicing.window_duration
    window_start = draw(st.integers(0, span))
    geometry = SensorGeometry(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    edge = st.integers(-slicing.bits_per_frame * k, 2 * slicing.bits_per_frame * k)
    t = st.one_of(
        st.integers(0, span),
        edge.map(lambda m: max(0, window_start + m * micro_dt)),
    )
    event = st.tuples(
        t,
        st.integers(0, geometry.width - 1),
        st.integers(0, geometry.height - 1),
        st.sampled_from([1, -1]),
    )
    rows = sorted(draw(st.lists(event, max_size=30)), key=lambda row: row[0])
    return EventStream.from_events(geometry, rows), slicing, k, window_start


class TestWindowStart:
    @settings(max_examples=200)
    @given(offset_window_cases(), st.sampled_from([0.3, 0.5, 1.0]))
    def test_window_encoders_match_slice_stack(self, case, beta):
        # LIF at v_th = 1.0 with unit weights fires exactly on the micro
        # steps that hold an event, so both modes give the plain codes.
        stream, slicing, k, window_start = case
        expected = encode_tbr(slice_stream(stream, slicing, window_start))
        assert encode_window_tbr(stream, EncoderConfig(slicing), window_start) == expected
        neuron = NeuronConfig(variant=NeuronVariant.LIF, beta=beta, v_th=1.0)
        cfg = EncoderConfig(slicing, EncoderMode.SPIKE_TBR, neuron, micro_steps_per_slice=k)
        spike = spike_encode(stream, cfg, window_start=window_start)
        assert spike == expected


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
        wide = EventStream(self.WIDE, small.t, small.x, small.y, small.p)
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

    def test_plain_mode_ignores_micro_step_divisibility(self):
        cfg = EncoderConfig(slicing=SLICING, micro_steps_per_slice=3)
        assert cfg.micro_steps_per_slice == 3

    def test_plain_mode_encodes_as_one_step_per_slice(self):
        stream = random_stream(G, n_events=300, duration=100_000, seed=6)
        # 2500 us slices do not split into 3 micro steps.
        cfg = EncoderConfig(slicing=SLICING, micro_steps_per_slice=3)
        assert encode_stream(stream, cfg) == encode_stream(stream, CFG_TBR)

    def test_plain_mode_ignores_a_passed_grid(self):
        stream = random_stream(G, n_events=300, duration=100_000, seed=6)
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        assert encode_stream(stream, CFG_TBR, grid) == encode_stream(stream, CFG_TBR)
        assert grid.ac_count == grid.spike_count == 0

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

    def test_unequal_to_other_types(self):
        frame = EncodedFrame(G, 8, np.zeros(G.shape, dtype=np.uint32))
        assert frame != frame.codes.tolist()
        assert frame != None  # noqa: E711

    def test_max_code(self):
        codes = np.zeros(G.shape, dtype=np.uint32)
        assert EncodedFrame(G, 8, codes).max_code == 255
        assert EncodedFrame(G, 1, codes).max_code == 1
        assert EncodedFrame(G, 16, codes).max_code == 65535

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EncodedFrame(G, 8, np.zeros((3, 3), dtype=np.uint32))

    @pytest.mark.parametrize("code", [-1, 2**32 + 3, 0.5])
    def test_codes_the_uint32_cast_would_change_are_rejected(self, code):
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            EncodedFrame(SensorGeometry(2, 1), 8, np.array([[code, 3]]))

    @pytest.mark.parametrize("codes", [np.array([[True, False]]), np.array([[255.0, 3.0]])])
    def test_bool_and_integral_float_codes_become_uint32(self, codes):
        frame = EncodedFrame(SensorGeometry(2, 1), 8, codes)
        assert frame.codes.dtype == np.uint32
        assert frame.codes.tolist() == codes.astype(int).tolist()

    def test_unsigned_codes_keep_their_dtype(self):
        codes = np.array([[7, 3]], dtype=np.uint16)
        assert EncodedFrame(SensorGeometry(2, 1), 8, codes).codes is codes
