import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtbr.events import SensorGeometry
from evtbr.neurons import NeuronConfig, NeuronGrid, NeuronVariant, StepInput

G = SensorGeometry(4, 4)


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
        with pytest.raises(ValueError):
            NeuronConfig(variant=NeuronVariant.PLIF, tau_m=1.0)

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


@st.composite
def sparse_step_cases(draw):
    """A neuron config, a geometry and per-step (x, y, p) events with repeated pixels."""
    variant = draw(st.sampled_from(list(NeuronVariant)))
    cfg = NeuronConfig(
        variant=variant,
        beta=draw(st.sampled_from([0.3, 0.5, 0.9, 1.0])),
        v_th=draw(st.sampled_from([0.9, 1.1, 1.6])),
        v_rest=draw(st.sampled_from([0.0, 0.3, -0.2])),
        weight_pos=draw(st.sampled_from([1.0, 0.7])),
        weight_neg=draw(st.sampled_from([1.0, 0.45, -0.6, -1.3])),
    )
    # 40x30 keeps every step below one event per 16 pixels (scattered adds);
    # 4x4 sends every non-empty step through the full histogram.
    geometry = SensorGeometry(*draw(st.sampled_from([(4, 4), (16, 8), (40, 30)])))
    pixel = st.tuples(st.integers(0, geometry.width - 1), st.integers(0, geometry.height - 1))
    pool = draw(st.lists(pixel, min_size=1, max_size=5))
    event = st.tuples(st.sampled_from(pool), st.sampled_from([1, -1]))
    steps = draw(st.lists(st.lists(event, max_size=12), min_size=1, max_size=40))
    return cfg, geometry, steps


class TestSparseStepInput:
    @settings(max_examples=200)
    @given(sparse_step_cases())
    def test_sparse_matches_dense_bincount(self, case):
        cfg, geometry, steps = case
        sparse, dense = NeuronGrid(geometry, cfg), NeuronGrid(geometry, cfg)
        for events in steps:
            x = np.array([e[0][0] for e in events], dtype=np.int64)
            y = np.array([e[0][1] for e in events], dtype=np.int64)
            p = np.array([e[1] for e in events], dtype=np.int64)
            inp = StepInput.from_events(geometry, x, y, p, cfg)
            assert inp.pixels is not None and inp.event_count == len(events)
            w = np.where(p > 0, cfg.weight_pos, cfg.weight_neg)
            sums = np.bincount(y * geometry.width + x, weights=w, minlength=geometry.pixel_count)
            dense_inp = StepInput(sums.reshape(geometry.shape), len(events))
            assert np.array_equal(sparse.step(inp), dense.step(dense_inp))
            assert np.array_equal(sparse.v, dense.v)
        assert sparse.ac_count == dense.ac_count
        assert sparse.spike_count == dense.spike_count

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
        empty = np.array([], dtype=np.int64)
        inp = StepInput.from_events(G, empty, empty, empty, grid.config)
        assert not grid.step(inp).any()
        assert (grid.v == 0.5).all() and grid.ac_count == 0


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
        grid.decay_only(1)
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


class TestSpikeWindow:
    def test_zero_inputs_zero_output(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        out = grid.spike_window([StepInput.zeros(G)] * 4)
        assert not out.any()

    def test_single_spike_pixel(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        out = grid.spike_window([one_pixel_input(2.0)])
        assert out[1, 1] and out.sum() == 1

    @pytest.mark.parametrize("gap,fires", [(1, True), (2, True), (3, True), (4, False),
                                           (5, False), (6, False), (7, False), (8, False)])
    def test_two_event_gap_threshold(self, gap, fires):
        # beta=0.5, v_th=1.1: 0.5**gap + 1 >= 1.1 only while gap <= 3.
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        inputs = [one_pixel_input(1.0)]
        inputs += [StepInput.zeros(G)] * (gap - 1)
        inputs += [one_pixel_input(1.0)]
        out = grid.spike_window(inputs)
        assert bool(out[1, 1]) is fires

    def test_empty_inputs_rejected(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        with pytest.raises(ValueError):
            grid.spike_window([])


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

    def test_clear_counters_keeps_state(self):
        grid = NeuronGrid(G, NeuronConfig(beta=0.5))
        grid.step(one_pixel_input(1.0))
        grid.clear_counters()
        assert grid.ac_count == 0 and grid.spike_count == 0
        assert grid.v[1, 1] == 1.0


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
