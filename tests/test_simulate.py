import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import wonhamlab as wl


class TestTimeGrid:
    def test_basic_properties(self):
        grid = wl.TimeGrid(1.0, 1e-3)
        assert grid.n_steps == 1000
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0
        assert grid.node(0.5) == 500

    def test_off_grid_time_rejected(self):
        grid = wl.TimeGrid(1.0, 1e-3)
        with pytest.raises(wl.GridMismatchError):
            grid.node(0.50042)

    def test_incompatible_horizon_rejected(self):
        with pytest.raises(wl.GridMismatchError):
            wl.TimeGrid(1.0005, 1e-3)

    # An int or fraction too large for a double is as infinite as a YAML
    # ``t_end: 1e400``, not Python's OverflowError from float().
    @pytest.mark.parametrize("t_end, dt", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan),
                                           (1.0, math.inf), (math.inf, math.inf), (1.0, 1e-320),
                                           pytest.param(10**400, 0.1, id="huge-t_end"),
                                           pytest.param(1.0, 10**400, id="huge-dt"),
                                           pytest.param(Fraction(10**400), 0.1, id="huge-fraction")])
    def test_non_finite_grid_rejected(self, t_end, dt):
        with pytest.raises(wl.GridMismatchError):
            wl.TimeGrid(t_end, dt)

    # 10**400 overflows float(), and 1e308 / dt overflows round().
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge-int"), 1e308])
    def test_non_finite_node_rejected(self, t):
        with pytest.raises(wl.GridMismatchError):
            wl.TimeGrid(1.0, 1e-3).node(t)

    def test_refined(self):
        grid = wl.TimeGrid(2.0, 1e-3)
        assert grid.refined().n_steps == 2 * grid.n_steps


class TestSimulateSignal:
    def test_reproducible(self, ref_model):
        grid = wl.TimeGrid(10.0, 1e-2)
        a = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 42)
        b = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 42)
        assert np.array_equal(a.segment_starts, b.segment_starts)
        assert np.array_equal(a.states, b.states)

    def test_degenerate_initial_law(self, ref_model):
        grid = wl.TimeGrid(1.0, 1e-2)
        for seed in range(20):
            path = wl.simulate_signal([1.0, 0.0], ref_model.generator, grid, seed)
            assert path.initial_state == 0

    def test_consecutive_states_differ(self, three_state_model):
        grid = wl.TimeGrid(50.0, 1e-2)
        path = wl.simulate_signal(
            three_state_model.initial, three_state_model.generator, grid, 7
        )
        assert np.all(np.diff(path.states) != 0)
        assert np.all(np.diff(path.segment_starts) > 0)

    def test_mean_holding_time(self, ref_model):
        # unit exit rates: 1e4 sojourns give a 3-sigma CLT window of 0.03
        grid = wl.TimeGrid(10500.0, 0.5)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 123)
        holds = np.diff(path.segment_starts)
        assert holds.shape[0] >= 10_000
        assert abs(holds[:10_000].mean() - 1.0) < 0.03

    def test_occupation_fraction_matches_stationary_law(self, ref_model):
        # ergodic CLT: Cov(1{X_t=1}, 1{X_s=1}) = e^{-2|t-s|}/4, so the time
        # average has variance 0.25/T; assert inside the 3-sigma window
        grid = wl.TimeGrid(1000.0, 0.5)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 99)
        occupation = path.occupation_times(2) / grid.t_end
        assert abs(occupation[0] - 0.5) < 3.0 * 0.5 / np.sqrt(grid.t_end)

    def test_occupation_chi_square_goodness_of_fit(self, three_state_model):
        # states sampled on a unit-time grid over a 1e3-long path
        grid = wl.TimeGrid(1000.0, 0.5)
        path = wl.simulate_signal(
            three_state_model.initial, three_state_model.generator, grid, 2024
        )
        samples = path.state_at(np.arange(1.0, 1000.5, 1.0))
        counts = np.bincount(samples, minlength=3)
        expected = wl.stationary_distribution(three_state_model.generator) * counts.sum()
        _, p_value = stats.chisquare(counts, expected)
        assert p_value > 0.01

    def test_absorbing_state_detection(self):
        gen = wl.GeneratorMatrix(entries=np.zeros((2, 2)), mixing=True)
        with pytest.raises(wl.AbsorbingStateError):
            wl.simulate_signal([0.5, 0.5], gen, wl.TimeGrid(1.0, 1e-2), 1)

    def test_non_mixing_absorbing_state_is_allowed(self):
        gen = wl.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
        path = wl.simulate_signal([1.0, 0.0], gen, wl.TimeGrid(100.0, 0.5), 5)
        assert path.states[-1] == 1  # eventually absorbed, no error


class TestSimulateObservations:
    def test_reproducible_and_independent_streams(self, ref_model):
        grid = wl.TimeGrid(1.0, 1e-3)
        sig_a, noise_a = wl.spawn_generators(7, 2)
        sig_b, noise_b = wl.spawn_generators(7, 2)
        path_a = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, sig_a)
        path_b = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, sig_b)
        assert np.array_equal(path_a.segment_starts, path_b.segment_starts)
        obs_a = wl.simulate_observations(path_a, ref_model.observation, grid, noise_a)
        obs_b = wl.simulate_observations(path_b, ref_model.observation, grid, 12345)
        # same signal either way, different noise stream changes increments only
        assert np.array_equal(path_a.states, path_b.states)
        assert not np.array_equal(obs_a.increments, obs_b.increments)

    def test_zero_levels_give_unit_variance_noise(self, ref_model):
        grid = wl.TimeGrid(100.0, 1e-3)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 31)
        obs = wl.simulate_observations(path, wl.validate_observation([0.0, 0.0]), grid, 32)
        scaled = obs.increments / np.sqrt(grid.dt)
        assert scaled.shape[0] == 100_000
        assert abs(scaled.var(ddof=1) - 1.0) < 0.02

    def test_drift_without_jumps_is_unbiased(self, ref_model):
        grid = wl.TimeGrid(100.0, 1e-3)
        frozen = wl.SignalPath(
            segment_starts=np.array([0.0]), states=np.array([1]), t_end=grid.t_end
        )
        obs = wl.simulate_observations(frozen, ref_model.observation, grid, 11)
        residual = obs.increments - 1.0 * grid.dt
        n = residual.shape[0]
        assert abs(residual.mean()) < 3.0 * np.sqrt(grid.dt) / np.sqrt(n)

    def test_single_jump_splits_cell_exactly(self, ref_model):
        grid = wl.TimeGrid(1.0, 0.1)
        alpha = 0.3
        path = wl.SignalPath(
            segment_starts=np.array([0.0, 0.5 + alpha * 0.1]),
            states=np.array([0, 1]),
            t_end=1.0,
        )
        drift = wl.simulate.integrated_drift(path, ref_model.observation, grid)
        levels = ref_model.observation.levels
        expected = alpha * 0.1 * levels[0] + (1 - alpha) * 0.1 * levels[1]
        assert drift[5] == pytest.approx(expected, abs=1e-15)
        assert drift[4] == pytest.approx(0.0, abs=1e-15)
        assert drift[6] == pytest.approx(levels[1] * 0.1, abs=1e-15)

    def test_grid_mismatch_detected(self, ref_model):
        grid = wl.TimeGrid(1.0, 1e-2)
        short = wl.simulate_signal(ref_model.initial, ref_model.generator, wl.TimeGrid(0.5, 1e-2), 3)
        with pytest.raises(wl.GridMismatchError):
            wl.simulate_observations(short, ref_model.observation, grid, 4)
        with pytest.raises(wl.GridMismatchError):
            wl.ObservationPath(np.zeros(50), grid)


class TestBatchAndExport:
    def test_batch_deterministic_and_prefix_stable(self, ref_model):
        grid = wl.TimeGrid(0.5, 1e-2)
        small = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 77, 8
        )
        again = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 77, 8
        )
        large = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 77, 32
        )
        assert np.array_equal(small, again)
        assert np.array_equal(small, large[:8])

    @pytest.mark.parametrize("case", ["two-state", "three-state", "absorbing", "zero-weight"])
    @pytest.mark.parametrize("seed", [2026, 7727, 4111])
    def test_rows_are_the_one_path_routes(self, ref_model, three_state_model, case, seed):
        """Each row is ``simulate_observations(simulate_signal(...))`` on its
        trial's two spawned seeds, bit for bit: at d = 2 and d = 3, with a
        non-mixing model whose state 1 has no exit rate, and with a zero-weight
        initial state."""
        model = ref_model if case == "two-state" else three_state_model
        initial, generator = model.initial, model.generator
        if case == "absorbing":
            generator = wl.validate_generator([[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [2.0, 1.0, -3.0]])
            assert not generator.mixing
        elif case == "zero-weight":
            initial = np.array([0.0, 0.4, 0.6])
        grid = wl.TimeGrid(5.0, 1e-2)
        batch = wl.simulate_increments_batch(initial, generator, model.observation, grid, seed, 12)
        assert batch.shape == (12, grid.n_steps)
        for row, child in zip(batch, np.random.SeedSequence(seed).spawn(12), strict=True):
            sig, noise = (np.random.Generator(np.random.Philox(s)) for s in child.spawn(2))
            path = wl.simulate_signal(initial, generator, grid, sig)
            assert np.array_equal(row, wl.simulate_observations(path, model.observation, grid, noise).increments)

    def test_no_trials(self, ref_model):
        grid = wl.TimeGrid(0.5, 1e-2)
        batch = wl.simulate_increments_batch(ref_model.initial, ref_model.generator, ref_model.observation,
                                             grid, 5, 0)
        assert batch.shape == (0, grid.n_steps)

    @pytest.mark.parametrize("name, value", [("master_seed", None), ("master_seed", -1), ("master_seed", 2.5),
                                             ("master_seed", True), ("n_trials", -1), ("n_trials", 2.5),
                                             ("n_trials", True), ("n_trials", None)])
    def test_rejects_bad_seed_or_trial_count(self, ref_model, name, value):
        """The rule ``ExperimentSpec`` applies: a nonnegative whole number, not a bool."""
        args = {"master_seed": 5, "n_trials": 3, name: value}
        with pytest.raises(wl.ConfigError, match=f"{name} must be a nonnegative whole number"):
            wl.simulate_increments_batch(ref_model.initial, ref_model.generator, ref_model.observation,
                                         wl.TimeGrid(0.5, 1e-2), args["master_seed"], args["n_trials"])

    @pytest.mark.parametrize("value", [None, -1, 2.5, True, [5, None], (5, -1), [2.5]])
    @pytest.mark.parametrize("route", ["signal", "observations", "spawn-seed", "spawn-count", "probe"])
    def test_every_seeded_route_rejects_bad_seeds(self, ref_model, route, value):
        """The same rule on every other route that takes a seed, for an int
        seed and each entry of a list or tuple: ``None`` would draw OS entropy,
        and numpy would raise its own ValueError or TypeError for the others.
        The count of ``spawn_generators`` takes whole numbers only."""
        grid = wl.TimeGrid(0.5, 1e-2)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 1)
        call = {
            "signal": lambda: wl.simulate_signal(ref_model.initial, ref_model.generator, grid, value),
            "observations": lambda: wl.simulate_observations(path, ref_model.observation, grid, value),
            "spawn-seed": lambda: wl.spawn_generators(value, 2),
            "spawn-count": lambda: wl.spawn_generators(5, value),
            "probe": lambda: wl.measure_integrator_tolerance(ref_model, grid, value),
        }[route]
        with pytest.raises(wl.ConfigError, match="must be a nonnegative whole number"):
            call()

    def test_seeded_routes_take_generators_and_seed_lists(self, ref_model):
        """A Generator passes through as the stream itself, and a list of
        whole numbers seeds as numpy's ``SeedSequence`` does."""
        grid = wl.TimeGrid(0.5, 1e-2)
        rng = np.random.default_rng(3)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, rng)
        again = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, np.random.default_rng(3))
        assert np.array_equal(path.segment_starts, again.segment_starts)
        [ours] = wl.spawn_generators([5, np.int64(7)], 1)
        [theirs] = np.random.SeedSequence([5, 7]).spawn(1)
        assert ours.random() == np.random.Generator(np.random.Philox(theirs)).random()

    def test_numpy_integers_are_whole_numbers(self, ref_model):
        args = (ref_model.initial, ref_model.generator, ref_model.observation, wl.TimeGrid(0.5, 1e-2))
        assert np.array_equal(wl.simulate_increments_batch(*args, np.int64(5), np.int32(3)),
                              wl.simulate_increments_batch(*args, 5, 3))

    def test_memory_beyond_the_output(self, ref_model):
        """A (200, 10^4) batch allocates at most 1 MiB beyond its output at its
        peak: each trial works on its own row, and no batch-sized temporary
        (a finiteness mask of the batch alone is 1.9 MiB) is made."""
        args = (ref_model.initial, ref_model.generator, ref_model.observation, wl.TimeGrid(10.0, 1e-3))
        wl.simulate_increments_batch(*args, 1, 1)
        tracemalloc.start()
        try:
            out = wl.simulate_increments_batch(*args, 2026, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (200, 10_000)
        assert peak - out.nbytes <= 2**20

    def test_csv_export_round_trip(self, ref_model, tmp_path):
        grid = wl.TimeGrid(0.2, 1e-2)
        sig, noise = wl.spawn_generators(5, 2)
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, grid, sig)
        obs = wl.simulate_observations(path, ref_model.observation, grid, noise)
        dest = tmp_path / "path.csv"
        wl.export_path_csv(path, obs, dest)
        rows = dest.read_text().strip().splitlines()
        assert rows[0] == "t,state,dY"
        assert len(rows) == grid.n_steps + 1
        t, state, dy = rows[1].split(",")
        assert float(t) == 0.0
        assert int(state) == path.initial_state
        assert float(dy) == pytest.approx(obs.increments[0])


class TestStateAt:
    """At seed 0 on [0, 1] the reference chain visits the states 0, 1, 0, 1."""

    @pytest.fixture
    def path(self, ref_model):
        path = wl.simulate_signal(ref_model.initial, ref_model.generator, wl.TimeGrid(1.0, 1e-2), 0)
        assert path.states.tolist() == [0, 1, 0, 1]
        return path

    def test_segments_and_both_ends(self, path):
        assert np.array_equal(path.state_at(path.segment_starts), path.states)
        assert path.state_at(0.0) == 0
        assert path.state_at(1.0) == path.state_at(1.0 + 0.5 * wl.simulate.NODE_TOL) == 1
        assert np.array_equal(path.state_at([0.0, 0.5, 1.0]), [0, 1, 1])

    @pytest.mark.parametrize("t", [-0.5, -1e-12, math.nan, math.inf, -math.inf,
                                   1.0 + 2 * wl.simulate.NODE_TOL])
    def test_times_off_the_path_rejected(self, path, t):
        # an index of -1 would wrap to the last segment, state 1
        with pytest.raises(wl.GridMismatchError):
            path.state_at(t)
        with pytest.raises(wl.GridMismatchError):
            path.state_at([0.5, t])


def choice_signal(initial, generator, t_end, rng):
    """Reference sampler: the event loop drawing every state with Generator.choice."""
    lam = generator.entries
    d = generator.d
    state = int(rng.choice(d, p=initial))
    t, starts, states = 0.0, [0.0], [state]
    while True:
        exit_rate = -lam[state, state]
        if exit_rate <= 0.0:
            if generator.mixing:
                raise wl.AbsorbingStateError(f"state {state} has zero exit rate in a mixing model")
            break
        t += rng.exponential(1.0 / exit_rate)
        if t >= t_end:
            break
        jump_probs = lam[state].copy()
        jump_probs[state] = 0.0
        jump_probs /= exit_rate
        state = int(rng.choice(d, p=jump_probs))
        starts.append(t)
        states.append(state)
    return np.asarray(starts), np.asarray(states)


def sampler_model(rng, d, mixing):
    """Random rates of d states; a non-mixing one has about half its rates and
    every rate out of one state zeroed, so that state absorbs."""
    rates = rng.uniform(0.2, 3.0, size=(d, d))
    if not mixing:
        rates *= rng.random((d, d)) < 0.5
        rates[rng.integers(d)] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return wl.validate_generator(rates)


class TestJumpTables:
    """Drawing from per-state cumulative tables keeps Generator.choice's stream."""

    @given(d=st.integers(2, 6), mixing=st.booleans(), zero_weight=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_matches_choice_loop(self, d, mixing, zero_weight, seed):
        rng = np.random.default_rng(seed)
        generator = sampler_model(rng, d, mixing)
        initial = rng.dirichlet(np.ones(d))
        if zero_weight:
            # a boundary law: one zero weight, the rest renormalized
            initial[rng.integers(d)] = 0.0
            initial /= initial.sum()
        grid = wl.TimeGrid(20.0, 0.5)
        ours = wl.spawn_generators(seed, 1)[0]
        theirs = wl.spawn_generators(seed, 1)[0]
        path = wl.simulate_signal(initial, generator, grid, ours)
        starts, states = choice_signal(initial, generator, grid.t_end, theirs)
        assert np.array_equal(path.segment_starts, starts)
        assert np.array_equal(path.states, states)
        assert ours.random() == theirs.random()

    def test_zero_weight_state_never_starts(self, ref_model):
        grid = wl.TimeGrid(1.0, 0.5)
        for seed in range(50):
            path = wl.simulate_signal([0.0, 1.0], ref_model.generator, grid, seed)
            assert path.initial_state == 1

    def test_absorbing_state_raises_after_the_same_draws(self):
        # state 1 has no exit rate but the model is flagged mixing: both
        # samplers raise, and only once the chain reaches that state
        gen = wl.GeneratorMatrix(entries=np.array([[-1.0, 1.0], [0.0, 0.0]]), mixing=True)
        grid = wl.TimeGrid(50.0, 0.5)
        for seed in range(5):
            with pytest.raises(wl.AbsorbingStateError, match="state 1"):
                wl.simulate_signal([1.0, 0.0], gen, grid, seed)
            with pytest.raises(wl.AbsorbingStateError, match="state 1"):
                choice_signal(np.array([1.0, 0.0]), gen, grid.t_end, wl.spawn_generators(seed, 1)[0])
