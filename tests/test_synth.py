import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import reference_edge_pixels

from evtbr import events, synth
from evtbr.encoder import EncoderConfig, encode_stream
from evtbr.events import SensorGeometry, SlicingConfig
from evtbr.synth import SceneKind, SynthScene, generate

G64 = SensorGeometry(64, 64)


def scene(kind, **kw):
    defaults = dict(
        geometry=G64,
        velocity=64.0,
        events_per_edge_pixel_per_slice=3.0,
        duration=100_000,
        seed=0,
    )
    defaults.update(kw)
    return SynthScene(kind=kind, **defaults)


def bar_edge_columns(sc, t):
    # Independent arithmetic for the sweeping bar: at time t the bar spans
    # [offset, offset + width) mod w; its right edge leads, its left trails.
    w = sc.geometry.width
    offset = int(sc.velocity * t / 1e6)
    lead = (offset + sc.size - 1) % w
    trail = offset % w
    return lead, trail


class TestSceneValidation:
    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            scene(SceneKind.MOVING_BAR, velocity=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            scene(SceneKind.MOVING_BAR, duration=-1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            scene(SceneKind.MOVING_BAR, events_per_edge_pixel_per_slice=-0.5)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            pytest.param("emission_period", 0, "emission_period must be positive", id="zero-period"),
            pytest.param("emission_period", -2_500, "emission_period must be positive", id="negative-period"),
            pytest.param("seed", -1, "seed must be non-negative", id="negative-seed"),
            pytest.param("object_size", 0, "object_size must be at least 1", id="zero-size"),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            scene(SceneKind.MOVING_BAR, **{field: value})

    def test_bar_wider_than_sensor_rejected(self):
        with pytest.raises(ValueError, match="bar width 65 exceeds sensor width 64"):
            scene(SceneKind.MOVING_BAR, object_size=65)

    def test_dot_taller_than_sensor_rejected(self):
        with pytest.raises(ValueError, match="dot side 9 does not fit 64x8"):
            scene(SceneKind.MOVING_DOT, geometry=SensorGeometry(64, 8), object_size=9)

    @pytest.mark.parametrize("field", ["velocity", "events_per_edge_pixel_per_slice"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rate_or_velocity_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            scene(SceneKind.MOVING_BAR, **{field: value})

    def test_default_sizes(self):
        assert scene(SceneKind.MOVING_BAR).size == 8
        assert scene(SceneKind.MOVING_DOT).size == 4
        assert scene(SceneKind.BLINKING_GRID).size == 8
        assert scene(SceneKind.MOVING_BAR, object_size=3).size == 3


class TestGenerateBasics:
    @pytest.mark.parametrize("kind", list(SceneKind))
    def test_deterministic(self, kind):
        a = generate(scene(kind, seed=11))
        b = generate(scene(kind, seed=11))
        assert a == b

    @pytest.mark.parametrize("kind", list(SceneKind))
    def test_seed_sensitivity(self, kind):
        a = generate(scene(kind, seed=1))
        b = generate(scene(kind, seed=2))
        assert a != b

    def test_zero_duration_empty(self):
        assert len(generate(scene(SceneKind.MOVING_BAR, duration=0))) == 0

    @pytest.mark.parametrize("kind", list(SceneKind))
    def test_timestamps_sorted_and_in_range(self, kind):
        stream = generate(scene(kind, duration=77_000))
        assert (np.diff(stream.t) >= 0).all()
        assert int(stream.t.min()) >= 0
        assert int(stream.t.max()) < 77_000

    def test_zero_rate_is_empty(self):
        stream = generate(scene(SceneKind.MOVING_BAR, events_per_edge_pixel_per_slice=0.0))
        assert len(stream) == 0

    @pytest.mark.parametrize("spare", [0, -1])
    def test_event_bytes_past_the_limit_are_rejected(self, monkeypatch, spare):
        # The limit counts 17 bytes an event, summed over the slices so far.
        sc = scene(SceneKind.MOVING_BAR, duration=10_000)
        stream = generate(sc)
        last = int(stream.t[-1]) // sc.emission_period
        monkeypatch.setattr(events, "MAX_FRAME_BYTES", 17 * len(stream) + spare)
        if spare == 0:
            assert generate(sc) == stream
        else:
            match = (
                f"slice {last} brings the scene to {len(stream)} events, "
                f"over the limit of {17 * len(stream) - 1} bytes"
            )
            with pytest.raises(ValueError, match=match):
                generate(sc)

    def test_polarities_are_valid(self):
        stream = generate(scene(SceneKind.MOVING_BAR))
        assert set(np.unique(stream.p)).issubset({-1, 1})


class TestMovingBar:
    def test_events_only_on_edge_columns(self):
        sc = scene(SceneKind.MOVING_BAR, velocity=1_000.0, duration=200_000)
        stream = generate(sc)
        period = sc.emission_period
        for s in np.unique(stream.t // period):
            start = int(s) * period
            lead, trail = bar_edge_columns(sc, start)
            in_slice = stream[(stream.t >= start) & (stream.t < start + period)]
            cols = set(in_slice.x.tolist())
            assert cols.issubset({lead, trail})
            pos_cols = set(in_slice.x[in_slice.p == 1].tolist())
            neg_cols = set(in_slice.x[in_slice.p == -1].tolist())
            assert pos_cols.issubset({lead})
            assert neg_cols.issubset({trail})

    def test_every_row_active_on_the_edge(self):
        # Full-height bar: at a healthy rate every row of the lead column
        # emits within a slice with overwhelming probability.
        sc = scene(SceneKind.MOVING_BAR, velocity=0.0, duration=2_500,
                   events_per_edge_pixel_per_slice=50.0)
        stream = generate(sc)
        lead, _ = bar_edge_columns(sc, 0)
        rows = set(stream.y[stream.x == lead].tolist())
        assert rows == set(range(64))

    def test_sweep_covers_all_columns(self):
        # 64 px/s across 64 columns with wrap: one full second visits all.
        sc = scene(SceneKind.MOVING_BAR, velocity=64.0, duration=1_000_000,
                   events_per_edge_pixel_per_slice=5.0)
        stream = generate(sc)
        assert set(stream.x[stream.p == 1].tolist()) == set(range(64))

    def test_mean_event_count_tracks_rate(self):
        # 2 edge columns x 64 rows x 40 slices at rate 3 gives 15360 expected
        # events; Poisson sd is ~124, so 5 sigma is a generous corridor.
        sc = scene(SceneKind.MOVING_BAR, duration=100_000)
        n = len(generate(sc))
        expected = 2 * 64 * 40 * 3.0
        assert abs(n - expected) < 5 * np.sqrt(expected)


class TestMovingDot:
    def test_static_dot_fixed_perimeter(self):
        sc = scene(SceneKind.MOVING_DOT, velocity=0.0, duration=50_000,
                   events_per_edge_pixel_per_slice=50.0)
        stream = generate(sc)
        assert (stream.p == 1).all()
        side = sc.size
        y0 = (64 - side) // 2
        x0 = (64 - side) // 2
        on_perimeter = (
            ((stream.y == y0) | (stream.y == y0 + side - 1))
            & (stream.x >= x0) & (stream.x < x0 + side)
        ) | (
            ((stream.x == x0) | (stream.x == x0 + side - 1))
            & (stream.y >= y0) & (stream.y < y0 + side)
        )
        assert on_perimeter.all()

    def test_static_dot_active_every_slice(self):
        sc = scene(SceneKind.MOVING_DOT, velocity=0.0, duration=50_000,
                   events_per_edge_pixel_per_slice=50.0)
        stream = generate(sc)
        slices = set((stream.t // sc.emission_period).tolist())
        assert slices == set(range(20))

    def test_moving_dot_edges_are_vertical_columns(self):
        sc = scene(SceneKind.MOVING_DOT, velocity=2_000.0, duration=100_000,
                   events_per_edge_pixel_per_slice=10.0)
        stream = generate(sc)
        side = sc.size
        y0 = (64 - side) // 2
        period = sc.emission_period
        for s in np.unique(stream.t // period):
            start = int(s) * period
            x0 = ((64 - side) // 2 + sc.offset_at(start)) % 64
            in_slice = stream[(stream.t >= start) & (stream.t < start + period)]
            assert set(in_slice.x[in_slice.p == 1].tolist()).issubset(
                {(x0 + side - 1) % 64}
            )
            assert set(in_slice.x[in_slice.p == -1].tolist()).issubset({x0})
            assert (in_slice.y >= y0).all() and (in_slice.y < y0 + side).all()


class TestBlinkingGrid:
    def test_velocity_ignored(self):
        a = generate(scene(SceneKind.BLINKING_GRID, velocity=0.0))
        b = generate(scene(SceneKind.BLINKING_GRID, velocity=500.0))
        assert a == b

    def test_alternating_parity_between_slices(self):
        sc = scene(SceneKind.BLINKING_GRID, duration=5_000,
                   events_per_edge_pixel_per_slice=20.0)
        stream = generate(sc)
        cell = sc.size
        for s in (0, 1):
            start = s * sc.emission_period
            in_slice = stream[(stream.t >= start) & (stream.t < start + sc.emission_period)]
            cell_parity = (in_slice.y // cell + in_slice.x // cell + s) % 2
            assert (cell_parity == 0).all()

    def test_events_on_cell_perimeters_only(self):
        sc = scene(SceneKind.BLINKING_GRID, duration=2_500,
                   events_per_edge_pixel_per_slice=20.0)
        stream = generate(sc)
        cell = sc.size
        rx = stream.x % cell
        ry = stream.y % cell
        # 64 divides evenly by 8, so every cell is full-size and the
        # perimeter test is a plain modulus check.
        on_edge = (rx == 0) | (rx == cell - 1) | (ry == 0) | (ry == cell - 1)
        assert on_edge.all()

    def test_slices_without_edge_pixels_emit_nothing(self):
        # At 1x1 the one pixel is on a cell perimeter in even slices only,
        # so every odd slice has no edge pixel to draw events for.
        sc = scene(SceneKind.BLINKING_GRID, geometry=SensorGeometry(1, 1), duration=25_000)
        stream = generate(sc)
        assert len(stream) > 0
        assert (stream.t // sc.emission_period % 2 == 0).all()

    def test_all_positive_polarity(self):
        stream = generate(scene(SceneKind.BLINKING_GRID))
        assert (stream.p == 1).all()


@st.composite
def edge_cases(draw):
    """One scene of every kind, each with a fitting size, and a run of slices."""
    geometry = SensorGeometry(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    # 10^5 px/s wraps a 40-pixel sensor many times within one slice; 0 makes
    # the dot static.
    velocity = draw(st.just(0.0) | st.sampled_from([64.0, 333.3, 1e5]) | st.floats(0.0, 1e5))
    period = draw(st.integers(1, 5_000))
    limits = {
        SceneKind.MOVING_BAR: geometry.width,
        SceneKind.MOVING_DOT: min(geometry.shape),
        SceneKind.BLINKING_GRID: max(geometry.shape) + 1,
    }
    scenes = [
        SynthScene(
            kind, geometry, velocity=velocity, emission_period=period,
            object_size=draw(st.integers(1, limit)),
        )
        for kind, limit in limits.items()
    ]
    first = draw(st.integers(0, 10_000))
    return scenes, range(first, first + draw(st.integers(1, 4)))


class TestEdgePixels:
    @given(edge_cases())
    def test_matches_per_pixel_reference(self, case):
        scenes, slices = case
        for sc in scenes:
            for s in slices:
                t = s * sc.emission_period
                xs, ys, ps = synth._edge_pixels(sc, s, t)
                assert ps.dtype == np.int8
                assert (xs.tolist(), ys.tolist(), ps.tolist()) == reference_edge_pixels(sc, s, t)


class TestIdealTbr:
    """Clean reference frames: encode_stream over a noise-free generated scene."""

    def test_n_windows_override(self):
        # More windows than the default for an empty stream, which has none.
        sc = scene(SceneKind.MOVING_BAR, events_per_edge_pixel_per_slice=0.0)
        cfg = EncoderConfig(slicing=SlicingConfig(2_500, 8))
        frames = encode_stream(generate(sc), cfg, n_windows=5)
        assert len(frames) == 5
        assert all(not f.codes.any() for f in frames)

    def test_frames_show_bar_activity(self):
        sc = scene(SceneKind.MOVING_BAR, duration=20_000)
        cfg = EncoderConfig(slicing=SlicingConfig(2_500, 8))
        frames = encode_stream(generate(sc), cfg)
        assert len(frames) == 1
        assert frames[0].codes.any()
