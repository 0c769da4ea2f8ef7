import numpy as np

from evtbr.events import SensorGeometry

from bench import BenchResult, measure_encode_throughput, random_stream


class TestBenchResult:
    def test_events_per_second(self):
        r = BenchResult(n_events=1_000, n_frames=5, seconds=0.5)
        assert r.events_per_second == 2_000.0


class TestRandomStream:
    def test_shape_and_sortedness(self):
        g = SensorGeometry(16, 16)
        stream = random_stream(g, n_events=500, duration=10_000, seed=0)
        assert len(stream) == 500
        assert (np.diff(stream.t) >= 0).all()
        assert (stream.t >= 0).all() and (stream.t < 10_000).all()
        assert (stream.x < 16).all() and (stream.y < 16).all()
        assert set(np.unique(stream.p)).issubset({-1, 1})

    def test_seeded_determinism(self):
        g = SensorGeometry(16, 16)
        a = random_stream(g, 200, 5_000, seed=3)
        b = random_stream(g, 200, 5_000, seed=3)
        assert a == b


class TestMeasure:
    def test_small_run_reports_sane_numbers(self):
        result = measure_encode_throughput(
            n_events=5_000,
            geometry=SensorGeometry(32, 32),
            duration=100_000,
            repeats=1,
        )
        assert result.n_events == 5_000
        assert result.n_frames == 5
        assert result.seconds > 0
        assert result.events_per_second > 0
