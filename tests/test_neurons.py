import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtbr import neurons
from evtbr.events import SensorGeometry
from evtbr.neurons import NeuronConfig, NeuronGrid, NeuronVariant, StepInput

G = SensorGeometry(4, 4)
# With v_rest = 0 and beta = 2**-m, a 320x240 grid leaks lazily on every
# step of fewer than 88 events; grids of 65 536 pixels or fewer never do.
LAZY_GEOMETRY = SensorGeometry(320, 240)


def one_pixel_input(value: float, x: int = 1, y: int = 1, count: int = 1) -> StepInput:
    values = np.zeros(G.shape, dtype=np.float64)
    values[y, x] = value
    return StepInput(values, count)


class TestNeuronConfig:
    def test_requires_beta_or_tau(self):
        with pytest.raises(ValueError):
            NeuronConfig(variant=NeuronVariant.LIF)

    def test_tau_derives_beta(self):
        cfg = NeuronConfig(variant=NeuronVariant.PLIF, tau_m=2.0)
        assert cfg.beta == 0.5

    def test_tau_must_exceed_one_step(self):
        with pytest.raises(ValueError, match="tau_m must exceed 1 timestep"):
            NeuronConfig(variant=NeuronVariant.PLIF, tau_m=1.0)

    def test_zero_tau_is_a_value_error(self):
        with pytest.raises(ValueError, match="tau_m must exceed 1 timestep"):
            NeuronConfig(tau_m=0.0)

    def test_inconsistent_beta_tau_rejected(self):
        with pytest.raises(ValueError):
            NeuronConfig(beta=0.4, tau_m=2.0)

    def test_consistent_beta_tau_accepted(self):
        cfg = NeuronConfig(beta=0.5, tau_m=2.0)
        assert cfg.beta == 0.5

    @pytest.mark.parametrize("beta", [0.0, -0.1, 1.0001])
    def test_beta_range(self, beta):
        with pytest.raises(ValueError):
            NeuronConfig(beta=beta)

    def test_beta_one_allowed(self):
        assert NeuronConfig(beta=1.0).beta == 1.0

    def test_vth_positive(self):
        with pytest.raises(ValueError):
            NeuronConfig(beta=0.5, v_th=0.0)

    def test_zero_vth_rejected_with_rest_below_it(self):
        with pytest.raises(ValueError, match="v_th must be positive"):
            NeuronConfig(beta=0.5, v_th=0.0, v_rest=-1.0)

    @pytest.mark.parametrize("v_rest", [1.1, 1.2, 50.0])
    def test_rest_at_or_above_threshold_rejected(self, v_rest):
        with pytest.raises(ValueError, match="v_rest must be below v_th"):
            NeuronConfig(beta=0.5, v_th=1.1, v_rest=v_rest)

    def test_rest_just_below_threshold_accepted(self):
        assert NeuronConfig(beta=0.5, v_th=1.1, v_rest=1.0).v_rest == 1.0

    @pytest.mark.parametrize("field", ["v_th", "v_rest", "weight_pos", "weight_neg"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NeuronConfig(beta=0.5, **{field: value})

    def test_negative_weight_accepted(self):
        assert NeuronConfig(beta=0.5, weight_neg=-0.5).weight_neg == -0.5

    def test_defaults(self):
        cfg = NeuronConfig(beta=0.5)
        assert cfg.variant is NeuronVariant.LIF
        assert cfg.v_th == 1.1
        assert cfg.v_rest == 0.0
        assert cfg.weight_pos == 1.0 and cfg.weight_neg == 1.0

    def test_hard_reset_flags(self):
        assert NeuronVariant.LIF.hard_reset
        assert NeuronVariant.REC_LIF.hard_reset
        assert NeuronVariant.PLIF.hard_reset
        assert not NeuronVariant.LR_LIF.hard_reset


class TestStepInput:
    def test_from_events_sums_weights(self):
        cfg = NeuronConfig(beta=0.5, weight_pos=1.0, weight_neg=0.25)
        x = np.array([1, 1, 2])
        y = np.array([1, 1, 0])
        p = np.array([1, -1, 1])
        inp = StepInput.from_events(G, x, y, p, cfg)
        assert inp.pixels.tolist() == [5, 5, 2]
        assert inp.values.tolist() == [1.0, 0.25, 1.0]
        sums = np.bincount(inp.pixels, weights=inp.values, minlength=G.pixel_count)
        sums = sums.reshape(G.shape)
        assert sums[1, 1] == 1.25
        assert sums[0, 2] == 1.0
        assert sums.sum() == 2.25
        assert inp.event_count == 3

    def test_zeros(self):
        inp = StepInput.zeros(G)
        assert inp.values.shape == G.shape
        assert not inp.values.any()
        assert inp.event_count == 0
        assert inp.pixels is None

    def test_dense_input_of_the_transposed_shape_rejected(self):
        geometry = SensorGeometry(4, 3)
        grid = NeuronGrid(geometry, NeuronConfig(beta=0.5))
        with pytest.raises(ValueError, match="does not match grid"):
            grid.step(StepInput(np.zeros((4, 3)), 0))


@st.composite
def sparse_step_cases(draw):
    """A neuron config, a geometry and per-step (x, y, p) events with repeated pixels.

    In lazy cases the grid is LAZY_GEOMETRY with v_rest = 0, so every step
    leaks lazily when beta = 2**-m (0.3 keeps the dense leak).
    """
    lazy = draw(st.booleans())
    variant = draw(st.sampled_from(list(NeuronVariant)))
    cfg = NeuronConfig(
        variant=variant,
        beta=draw(st.sampled_from([0.25, 0.3, 0.5, 1.0] + ([] if lazy else [0.9]))),
        v_th=draw(st.sampled_from([0.9, 1.1, 1.6])),
        v_rest=0.0 if lazy else draw(st.sampled_from([0.0, 0.3, -0.2])),
        weight_pos=draw(st.sampled_from([1.0, 0.7, 2.5])),
        weight_neg=draw(st.sampled_from([1.0, 0.45, -0.6, -1.3])),
    )
    # 40x30 and 64x48 keep every step below one event per 16 pixels
    # (scattered adds, and the candidate threshold test when v_rest == 0);
    # 4x4 sends every non-empty step through the full histogram.
    sizes = [(4, 4), (16, 8), (40, 30), (64, 48)]
    geometry = LAZY_GEOMETRY if lazy else SensorGeometry(*draw(st.sampled_from(sizes)))
    pixel = st.tuples(st.integers(0, geometry.width - 1), st.integers(0, geometry.height - 1))
    pool = draw(st.lists(pixel, min_size=1, max_size=5))
    event = st.tuples(st.sampled_from(pool), st.sampled_from([1, -1]))
    steps = draw(st.lists(st.lists(event, max_size=12), min_size=1, max_size=40))
    # Reading v brings every lazy membrane up to date, so lazy grids are read
    # only after some steps, leaving gaps of several steps between the others.
    reads = [True] * len(steps)
    if lazy:
        reads = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    return cfg, geometry, steps, reads


class TestSparseStepInput:
    @settings(max_examples=400)
    @given(sparse_step_cases())
    def test_sparse_matches_dense_bincount(self, case):
        cfg, geometry, steps, reads = case
        sparse, dense = NeuronGrid(geometry, cfg), NeuronGrid(geometry, cfg)
        for events, read in zip(steps, reads):
            x = np.array([e[0][0] for e in events], dtype=np.int64)
            y = np.array([e[0][1] for e in events], dtype=np.int64)
            p = np.array([e[1] for e in events], dtype=np.int64)
            inp = StepInput.from_events(geometry, x, y, p, cfg)
            assert inp.pixels is not None and inp.event_count == len(events)
            w = np.where(p > 0, cfg.weight_pos, cfg.weight_neg)
            sums = np.bincount(y * geometry.width + x, weights=w, minlength=geometry.pixel_count)
            dense_inp = StepInput(sums.reshape(geometry.shape), len(events))
            frame = sparse.step(inp)
            assert np.array_equal(frame, dense.step(dense_inp))
            assert np.array_equal(sparse.fired, np.flatnonzero(frame))
            assert np.array_equal(dense.fired, np.flatnonzero(frame))
            if read:
                assert np.array_equal(sparse.v, dense.v)
        assert np.array_equal(sparse.v, dense.v)
        assert sparse.ac_count == dense.ac_count
        assert sparse.spike_count == dense.spike_count
        if geometry == LAZY_GEOMETRY and cfg.beta != 0.3:
            assert lazy_steps(sparse) == len(steps)

    def test_scratch_is_cleared_between_steps(self):
        big = SensorGeometry(64, 64)
        grid = NeuronGrid(big, NeuronConfig(beta=0.5))
        cfg = grid.config
        grid.step(StepInput.from_events(big, np.array([3, 3]), np.array([2, 2]),
                                        np.array([1, 1]), cfg))
        assert grid.v[2, 3] == 0.0  # two events fired and reset the neuron
        grid.step(StepInput.from_events(big, np.array([3]), np.array([2]), np.array([1]), cfg))
        assert grid.v[2, 3] == 1.0

    def test_empty_sparse_input_only_leaks(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        grid.v[:] = 1.0
        assert not grid.step(empty_sparse_input(G, grid.config)).any()
        assert (grid.v == 0.5).all() and grid.ac_count == 0


def empty_sparse_input(geometry: SensorGeometry, cfg: NeuronConfig) -> StepInput:
    none = np.array([], dtype=np.int64)
    return StepInput.from_events(geometry, none, none, none, cfg)


def one_event_input(geometry: SensorGeometry, cfg: NeuronConfig, x: int, y: int) -> StepInput:
    return StepInput.from_events(geometry, np.array([x]), np.array([y]), np.array([1]), cfg)


class TestCandidateSet:
    """Sparse steps test the threshold only where a neuron can cross it."""

    BIG = SensorGeometry(64, 48)
    FLAT = 7 * 64 + 5  # pixel (5, 7)

    def test_lrlif_residual_fires_again_without_input(self):
        cfg = NeuronConfig(variant=NeuronVariant.LR_LIF, beta=0.9, v_th=1.1, weight_pos=2.5)
        grid = NeuronGrid(self.BIG, cfg)
        assert grid.step(one_event_input(self.BIG, cfg, 5, 7))[7, 5]
        assert grid.fired.tolist() == [self.FLAT]
        # Residual 1.4 leaks to 1.26 >= v_th with no event on the pixel.
        frame = grid.step(empty_sparse_input(self.BIG, cfg))
        assert frame[7, 5] and frame.sum() == 1
        assert grid.fired.tolist() == [self.FLAT]
        assert grid.spike_count == 2

    def test_reclif_feedback_alone_refires(self):
        cfg = NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.0)
        grid = NeuronGrid(self.BIG, cfg)
        assert grid.step(one_event_input(self.BIG, cfg, 5, 7))[7, 5]
        assert grid.ac_count == 1
        frame = grid.step(empty_sparse_input(self.BIG, cfg))
        assert frame[7, 5] and frame.sum() == 1
        assert grid.fired.tolist() == [self.FLAT]
        assert grid.ac_count == 2  # one event plus one feedback addition

    @pytest.mark.parametrize(
        "cfg",
        [
            NeuronConfig(variant=NeuronVariant.LR_LIF, beta=0.9, v_th=1.1, weight_pos=2.5),
            NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.0),
        ],
        ids=["lrlif", "reclif"],
    )
    def test_reset_clears_pending_spikers(self, cfg):
        grid = NeuronGrid(self.BIG, cfg)
        grid.step(one_event_input(self.BIG, cfg, 5, 7))
        grid.reset()
        assert len(grid.fired) == 0
        assert not grid.step(empty_sparse_input(self.BIG, cfg)).any()
        assert len(grid.fired) == 0
        assert grid.ac_count == 1 and grid.spike_count == 1

    def test_nonzero_rest_rounding_fires_as_dense(self):
        # With v_rest != 0 the leak can round a membrane up onto v_th:
        # 0.9999999999999999 - 0.3 + 0.3 == 1.0, so the test must stay dense.
        cfg = NeuronConfig(beta=1.0, v_th=1.0, v_rest=0.3)
        sparse, dense = NeuronGrid(self.BIG, cfg), NeuronGrid(self.BIG, cfg)
        sparse.v[7, 5] = dense.v[7, 5] = 0.9999999999999999
        frame = sparse.step(empty_sparse_input(self.BIG, cfg))
        assert frame[7, 5] and frame.sum() == 1
        assert np.array_equal(frame, dense.step(StepInput.zeros(self.BIG)))
        assert sparse.fired.tolist() == dense.fired.tolist() == [self.FLAT]

    def test_membrane_written_at_threshold_fires_as_dense(self):
        # beta = 1 keeps a membrane written at exactly v_th there, and a
        # dense step fires it: v >= v_th, not v > v_th.
        geometry = SensorGeometry(64, 64)
        cfg = NeuronConfig(beta=1.0)
        sparse, dense = NeuronGrid(geometry, cfg), NeuronGrid(geometry, cfg)
        sparse.v[10, 10] = dense.v[10, 10] = cfg.v_th
        frame = sparse.step(one_event_input(geometry, cfg, 0, 0))
        values = np.zeros(geometry.shape)
        values[0, 0] = 1.0
        assert np.array_equal(frame, dense.step(StepInput(values, 1)))
        assert sparse.fired.tolist() == dense.fired.tolist() == [10 * 64 + 10]

    @pytest.mark.parametrize("idle", [0, 1])
    @pytest.mark.parametrize("variant", list(NeuronVariant))
    @pytest.mark.parametrize("geometry", [BIG, LAZY_GEOMETRY], ids=["sparse", "lazy"])
    def test_membrane_written_over_threshold_fires_as_dense(self, geometry, variant, idle):
        # A membrane written through v at or above v_th is no step's input
        # and no step's spiker; the next sparse step must still test it.
        cfg = NeuronConfig(variant=variant, beta=0.5)
        sparse, dense = NeuronGrid(geometry, cfg), NeuronGrid(geometry, cfg)
        sparse.v[7, 5] = dense.v[7, 5] = 5.0
        sparse.decay_only(idle)
        dense.decay_only(idle)
        frame = sparse.step(one_event_input(geometry, cfg, 0, 0))
        values = np.zeros(geometry.shape)
        values[0, 0] = 1.0
        assert np.array_equal(frame, dense.step(StepInput(values, 1)))
        assert sparse.fired.tolist() == dense.fired.tolist() == [7 * geometry.width + 5]
        assert lazy_steps(sparse) == idle + (geometry is LAZY_GEOMETRY)
        assert same_bits(sparse.v, dense.v)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two float arrays, signed zeros included."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def lazy_steps(grid: NeuronGrid) -> int:
    """Leak steps the grid has taken lazily."""
    return grid._clock


class TestLazyLeak:
    """With v_rest = 0 and beta = 2**-m, sparse steps leak only the neurons they touch."""

    @pytest.mark.parametrize(
        "size,events,lazy",
        [
            ((64, 64), 1, False),
            ((128, 128), 1, False),
            ((128, 128), 250, False),
            ((320, 240), 87, True),
            ((320, 240), 88, False),
            ((1280, 720), 250, True),
            ((1280, 720), 8000, False),
        ],
    )
    def test_events_against_pixels_choose_the_path(self, size, events, lazy):
        geometry = SensorGeometry(*size)
        grid = NeuronGrid(geometry, NeuronConfig(beta=0.5))
        pixels = np.random.default_rng(0).integers(0, geometry.pixel_count, events)
        grid.step(StepInput(np.ones(events), events, pixels))
        assert lazy_steps(grid) == int(lazy)

    @pytest.mark.parametrize(
        "cfg",
        [NeuronConfig(beta=0.3), NeuronConfig(beta=0.5, v_rest=-0.1), NeuronConfig(beta=0.75)],
        ids=["beta-0.3", "v_rest", "beta-0.75"],
    )
    def test_other_configs_keep_the_dense_leak(self, cfg):
        grid = NeuronGrid(LAZY_GEOMETRY, cfg)
        grid.step(one_event_input(LAZY_GEOMETRY, cfg, 5, 7))
        grid.decay_only(3)
        assert lazy_steps(grid) == 0

    def test_a_burst_syncs_once_and_later_small_steps_go_lazy(self, monkeypatch):
        cfg = NeuronConfig(beta=0.5)
        grid, dense = NeuronGrid(LAZY_GEOMETRY, cfg), NeuronGrid(LAZY_GEOMETRY, cfg)
        rng = np.random.default_rng(1)
        full_syncs = []
        decayed = NeuronGrid._decayed

        def counting_decayed(self, v, gaps):
            if v.size == LAZY_GEOMETRY.pixel_count:
                full_syncs.append(gaps)
            return decayed(self, v, gaps)

        monkeypatch.setattr(NeuronGrid, "_decayed", counting_decayed)

        def step_both(n):
            pixels = rng.integers(0, LAZY_GEOMETRY.pixel_count, n)
            grid.step(StepInput(np.ones(n), n, pixels))
            sums = np.bincount(pixels, None, LAZY_GEOMETRY.pixel_count)
            dense.step(StepInput(sums.reshape(LAZY_GEOMETRY.shape), n))

        step_both(10)
        step_both(10)
        assert lazy_steps(grid) == 2 and not full_syncs
        # 500 events is sparse but over the lazy rule at 320x240: the first
        # such step syncs every membrane, the next has nothing to sync.
        step_both(500)
        step_both(500)
        assert lazy_steps(grid) == 2 and len(full_syncs) == 1
        step_both(10)
        step_both(10)
        assert lazy_steps(grid) == 4 and len(full_syncs) == 1
        assert same_bits(grid.v + 0.0, dense.v + 0.0)
        assert len(full_syncs) == 2

    @pytest.mark.parametrize("beta", [0.5, 0.25])
    def test_idle_chains_into_subnormals_match_the_dense_chain(self, beta):
        # Every step puts a fresh pixel at 1 + 2**-52 and another at -0.7;
        # after 1200 steps their idle gaps span 0..1199, across the steps
        # where the chain leaves the normal floats (about 1022 at 0.5, 511
        # at 0.25). The reference is a plain array leaked by ``*= beta``.
        # The chain never fires, so v_th sits above every written membrane.
        cfg = NeuronConfig(beta=beta, v_th=2.0**61, weight_pos=1 + 2**-52, weight_neg=-0.7)
        grid = NeuronGrid(LAZY_GEOMETRY, cfg)
        chain = np.zeros(LAZY_GEOMETRY.pixel_count)
        total, lanes = 1200, 10_000
        rng = np.random.default_rng(7)
        written = {
            0: [1 + 2**-52, 3 * 2**-1074, 2**-1022 * (1 + 2**-52), -0.3],
            # Random mantissas that idle into the subnormals at the end.
            total - int(2100 * beta): list(  # idle 1050 steps at 0.5, 525 at 0.25
                rng.uniform(-1.0, 1.0, 100) * 2.0 ** rng.integers(-60, 60, 100)
            ),
        }
        for step in range(total):
            if step in written:
                values = written[step]
                grid.v.reshape(-1)[lanes : lanes + len(values)] = values
                chain[lanes : lanes + len(values)] = values
                lanes += len(values)
            y, x = np.divmod(np.array([2 * step, 2 * step + 1]), LAZY_GEOMETRY.width)
            grid.step(StepInput.from_events(LAZY_GEOMETRY, x, y, np.array([1, -1]), cfg))
            chain *= beta
            chain[2 * step] += cfg.weight_pos
            chain[2 * step + 1] += cfg.weight_neg
        assert lazy_steps(grid) == total
        assert ((chain != 0.0) & (np.abs(chain) < 2.0**-1022)).any()
        assert (chain < 0.0).any() and (chain == 0.0).any()
        assert same_bits(grid.v.reshape(-1), chain)

    @pytest.mark.parametrize("clock_limit", [None, 7], ids=["clock", "restarting-clock"])
    @pytest.mark.parametrize("beta", [0.5, 0.25, 1.0])
    def test_direct_writes_between_lazy_steps_match_the_dense_chain(
        self, beta, clock_limit, monkeypatch
    ):
        if clock_limit is not None:
            monkeypatch.setattr(neurons, "_CLOCK_LIMIT", clock_limit)
        cfg = NeuronConfig(variant=NeuronVariant.LR_LIF, beta=beta, weight_neg=-0.6)
        lazy, dense = NeuronGrid(LAZY_GEOMETRY, cfg), NeuronGrid(LAZY_GEOMETRY, cfg)
        rng = np.random.default_rng(3)
        pool = rng.integers(0, LAZY_GEOMETRY.pixel_count, 20)
        for step in range(300):
            n = int(rng.integers(0, 8))
            pixels, p = rng.choice(pool, n), rng.choice([1, -1], n)
            w = np.where(p > 0, cfg.weight_pos, cfg.weight_neg)
            frame = lazy.step(StepInput(w, n, pixels))
            sums = np.bincount(pixels, w, LAZY_GEOMETRY.pixel_count).reshape(LAZY_GEOMETRY.shape)
            assert np.array_equal(frame, dense.step(StepInput(sums, n)))
            if step % 37 == 5:
                y, x = divmod(int(rng.choice(pool)), LAZY_GEOMETRY.width)
                value = float(rng.uniform(-2.0, 1.0))
                lazy.v[y, x] = value
                dense.v[y, x] = value
        if clock_limit is None:
            assert lazy_steps(lazy) == 300
        else:
            assert lazy_steps(lazy) <= clock_limit + 1
        # The dense step adds +0.0 to every membrane, turning -0.0 into +0.0.
        assert same_bits(lazy.v + 0.0, dense.v + 0.0)

    def test_write_after_reset_fires_as_the_dense_chain(self):
        cfg = NeuronConfig(beta=0.5)
        sparse = one_event_input(LAZY_GEOMETRY, cfg, 0, 0)
        sums = np.bincount(sparse.pixels, sparse.values, LAZY_GEOMETRY.pixel_count)
        grids = []
        for inp in (sparse, StepInput(sums.reshape(LAZY_GEOMETRY.shape), 1)):
            grid = NeuronGrid(LAZY_GEOMETRY, cfg)
            for _ in range(5):
                grid.step(inp)
            grid.reset()
            grid.v[1, 82] = 3.0  # pixel 402, idle since the grid was built
            grid.step(inp)
            grids.append(grid)
        lazy, chain = grids
        assert lazy_steps(lazy) == 6
        assert lazy.fired.tolist() == chain.fired.tolist() == [402]

    def test_decay_only_advances_the_clock(self):
        grid = NeuronGrid(LAZY_GEOMETRY, NeuronConfig(beta=0.5))
        grid.v[1, 2] = 3.0
        grid.decay_only(4)
        assert lazy_steps(grid) == 4
        assert grid.v[1, 2] == 3.0 / 16
        grid.decay_only(10**9)
        assert grid.v[1, 2] == 0.0

    def test_gaps_are_capped_before_their_exponent_is_taken(self):
        # 1100 idle ticks of 2109 steps at m = 1000: an uncapped gap's
        # exponent, -2.3e9, wraps in int32 and ldexp then gives inf.
        grid = NeuronGrid(LAZY_GEOMETRY, NeuronConfig(beta=2.0**-1000))
        grid.v[0, 0] = 1.0
        for _ in range(1100):
            grid.decay_only(2109)
        assert grid.v[0, 0] == 0.0

    def test_largest_membrane_idles_to_zero_within_the_gap_cap(self):
        # 2^1023 halves to 2^-1074 in 2097 steps and to zero in one more.
        grid = NeuronGrid(LAZY_GEOMETRY, NeuronConfig(beta=0.5))
        grid.v[0, 0] = chain = 2.0**1023
        grid.decay_only(2100)
        for _ in range(2100):
            chain *= 0.5
        assert grid.v[0, 0] == chain == 0.0

    def test_clock_never_passes_int32(self):
        # The clock restarts at _CLOCK_LIMIT and moves at most _GAP_CAP at once.
        assert neurons._CLOCK_LIMIT + neurons._GAP_CAP <= np.iinfo(np.int32).max


class TestSpikeFrame:
    """step returns one read-only buffer, valid until the next step."""

    @pytest.mark.parametrize("geometry", [G, LAZY_GEOMETRY], ids=["dense", "lazy"])
    def test_frame_holds_only_the_last_steps_spikers(self, geometry):
        cfg = NeuronConfig(beta=0.5, v_th=1.0)
        grid = NeuronGrid(geometry, cfg)
        first = grid.step(one_event_input(geometry, cfg, 1, 1))
        assert not first.flags.writeable
        assert np.flatnonzero(first).tolist() == [geometry.width + 1]
        second = grid.step(one_event_input(geometry, cfg, 2, 3))
        assert second is first
        assert np.flatnonzero(second).tolist() == [3 * geometry.width + 2] == grid.fired.tolist()
        dense = grid.step(StepInput.zeros(geometry))
        assert not dense.any()
        grid.step(one_event_input(geometry, cfg, 0, 0))
        grid.reset()
        assert not grid.step(empty_sparse_input(geometry, cfg)).any()

    def test_frame_cannot_be_written(self):
        frame = NeuronGrid(G, NeuronConfig(beta=0.5)).step(StepInput.zeros(G))
        with pytest.raises(ValueError):
            frame[0, 0] = True


class TestStep:
    def test_single_event_stays_subthreshold(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        spikes = grid.step(one_pixel_input(1.0))
        assert not spikes.any()
        assert grid.v[1, 1] == 1.0

    def test_second_event_crosses_threshold(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        grid.step(one_pixel_input(1.0))
        spikes = grid.step(one_pixel_input(1.0))
        assert spikes[1, 1] and spikes.sum() == 1
        assert grid.v[1, 1] == 0.0

    def test_soft_reset_keeps_residual(self):
        grid = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.LR_LIF, beta=0.5))
        grid.step(one_pixel_input(1.0))
        spikes = grid.step(one_pixel_input(1.0))
        assert spikes[1, 1]
        assert abs(grid.v[1, 1] - 0.4) < 1e-12

    @pytest.mark.parametrize(
        "variant", [NeuronVariant.LIF, NeuronVariant.REC_LIF, NeuronVariant.PLIF]
    )
    def test_hard_reset_returns_to_rest(self, variant):
        cfg = NeuronConfig(variant=variant, beta=0.5, v_rest=0.2)
        grid = NeuronGrid(G, cfg)
        grid.step(one_pixel_input(5.0))
        assert grid.v[1, 1] == 0.2

    def test_input_not_decayed_on_arrival(self):
        # With beta=0.1 a fresh unit input must land at full strength.
        grid = NeuronGrid(G, NeuronConfig(beta=0.1))
        grid.step(one_pixel_input(1.0))
        assert grid.v[1, 1] == 1.0

    def test_geometry_mismatch_rejected(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        with pytest.raises(ValueError):
            grid.step(StepInput.zeros(SensorGeometry(5, 5)))

    def test_nonzero_rest_decay_is_toward_rest(self):
        cfg = NeuronConfig(beta=0.5, v_rest=1.0, v_th=10.0)
        grid = NeuronGrid(G, cfg)
        grid.v[:] = 3.0
        grid.step(StepInput.zeros(G))
        assert np.allclose(grid.v, 2.0)

    def test_hard_reset_leaves_all_below_threshold(self):
        rng = np.random.default_rng(0)
        cfg = NeuronConfig(beta=0.9, v_th=1.1)
        grid = NeuronGrid(G, cfg)
        for step_seed in range(50):
            values = rng.random(G.shape) * 2.0
            grid.step(StepInput(values, 0))
            assert (grid.v < cfg.v_th).all()

    def test_lrlif_single_spike_per_step(self):
        grid = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.LR_LIF, beta=0.5))
        spikes = grid.step(one_pixel_input(5.0))
        assert spikes[1, 1]
        assert abs(grid.v[1, 1] - 3.9) < 1e-12


class TestDecay:
    def test_halving_three_steps(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        grid.v[:] = 1.0
        grid.decay_only(3)
        assert np.allclose(grid.v, 0.125, atol=0, rtol=0)

    def test_beta_one_is_identity(self):
        grid = NeuronGrid(G, NeuronConfig(beta=1.0))
        grid.v[:] = 0.7
        grid.decay_only(100)
        assert (grid.v == 0.7).all()

    def test_single_step(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.9))
        grid.v[:] = 1.0
        assert grid.decay_only(1) is grid
        assert np.allclose(grid.v, 0.9, atol=0, rtol=0)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_decay_law_sixty_steps(self, beta):
        v0 = 1.0
        grid = NeuronGrid(G, NeuronConfig(beta=beta))
        grid.v[:] = v0
        for k in range(1, 61):
            grid.decay_only(1)
            assert abs(grid.v[0, 0] - beta**k * v0) <= 1e-12 * v0

    def test_rejects_negative_steps(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        with pytest.raises(ValueError):
            grid.decay_only(-1)


class TestReset:
    def test_returns_to_rest(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5, v_rest=0.3))
        grid.v[:] = 2.0
        grid.reset()
        assert (grid.v == 0.3).all()

    def test_clears_feedback(self):
        grid = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5))
        grid.step(one_pixel_input(5.0))
        grid.reset()
        follow = grid.step(StepInput.zeros(G))
        assert not follow.any()
        assert (grid.v == 0.0).all()

    def test_idempotent(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        grid.v[:] = 1.0
        grid.reset()
        v1 = grid.v.copy()
        grid.reset()
        assert np.array_equal(grid.v, v1)


class TestRecurrentFeedback:
    def test_feedback_adds_one_spike_unit_next_step(self):
        rec = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.1))
        lif = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.LIF, beta=0.5, v_th=1.1))
        kick = one_pixel_input(2.0)
        rec.step(kick)
        lif.step(kick)
        rec.step(StepInput.zeros(G))
        lif.step(StepInput.zeros(G))
        assert rec.v[1, 1] - lif.v[1, 1] == 1.0

    def test_feedback_can_sustain_activity(self):
        # With v_th=1.0 a spike alone re-arms the neuron every step.
        cfg = NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.0)
        grid = NeuronGrid(G, cfg)
        assert grid.step(one_pixel_input(1.0))[1, 1]
        for _ in range(5):
            assert grid.step(StepInput.zeros(G))[1, 1]


class TestAcCounting:
    def test_one_ac_per_event_lif(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        rng = np.random.default_rng(1)
        total = 0
        for _ in range(10):
            n = int(rng.integers(0, 200))
            x = rng.integers(0, G.width, n)
            y = rng.integers(0, G.height, n)
            p = rng.integers(0, 2, n) * 2 - 1
            grid.step(StepInput.from_events(G, x, y, p, grid.config))
            total += n
        assert grid.ac_count == total == 1000 or grid.ac_count == total

    def test_empty_run_zero_acs(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        assert grid.ac_count == 0

    def test_reclif_counts_feedback_applications(self):
        # One pixel, events every step at v_th=1.0: every step spikes, so
        # feedback applies on steps 1..4. Five events plus four feedbacks.
        cfg = NeuronConfig(variant=NeuronVariant.REC_LIF, beta=0.5, v_th=1.0)
        grid = NeuronGrid(G, cfg)
        for _ in range(5):
            grid.step(one_pixel_input(1.0, count=1))
        assert grid.ac_count == 5 + 4
        assert grid.spike_count == 5


class TestPlifEquivalence:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_plif_matches_lif_bit_for_bit(self, beta):
        tau = 1.0 / (1.0 - beta)
        lif = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.LIF, beta=1.0 - 1.0 / tau))
        plif = NeuronGrid(G, NeuronConfig(variant=NeuronVariant.PLIF, tau_m=tau))
        assert lif.config.beta == plif.config.beta
        rng = np.random.default_rng(42)
        for _ in range(30):
            values = (rng.random(G.shape) < 0.4) * 1.0
            s_lif = lif.step(StepInput(values.copy(), 0))
            s_plif = plif.step(StepInput(values.copy(), 0))
            assert np.array_equal(s_lif, s_plif)
            assert np.array_equal(lif.v, plif.v)


class TestDeterminism:
    def test_identical_runs_identical_spikes(self):
        def run():
            grid = NeuronGrid(G, NeuronConfig(beta=0.7))
            rng = np.random.default_rng(9)
            outs = []
            for _ in range(20):
                outs.append(grid.step(StepInput(rng.random(G.shape), 0)).copy())
            return np.stack(outs), grid.v.copy()

        spikes_a, v_a = run()
        spikes_b, v_b = run()
        assert np.array_equal(spikes_a, spikes_b)
        assert np.array_equal(v_a, v_b)
