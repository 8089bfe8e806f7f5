import math

import numpy as np
import pytest

import wonhamlab as wl
from conftest import batch_flows, gauge_cell
from wonhamlab.filters import split_rate_matrix
from wonhamlab.sensitivity import (
    derivative_from_flow,
    derivative_opnorm_from_flow,
    second_derivative_from_flow,
    smoothing_from_flow,
)


class TestDerivativeFlow:
    def test_zero_horizon_returns_direction(self, ref_model, ref_obs):
        mu = wl.validate_simplex([0.4, 0.6])
        v = wl.validate_tangent([0.3, -0.3])
        out = wl.derivative_flow(mu, v, 0.5, 0.5, ref_obs, ref_model.generator,
                                 ref_model.observation)
        assert out == pytest.approx(v, abs=1e-12)

    def test_matches_restarted_finite_differences(self, ref_model, ref_obs):
        # central differences of the actual restarted filter on the same path
        mu = wl.validate_simplex([0.35, 0.65])
        v = wl.validate_tangent([0.5, -0.5])
        flow_route = wl.derivative_flow(mu, v, 0.0, 1.0, ref_obs, ref_model.generator,
                                        ref_model.observation)
        eps = 1e-6
        up = wl.filter_semiflow(mu + eps * v, 0.0, 1.0, ref_obs, ref_model.generator,
                                ref_model.observation)
        down = wl.filter_semiflow(mu - eps * v, 0.0, 1.0, ref_obs, ref_model.generator,
                                  ref_model.observation)
        fd = (up - down) / (2 * eps)
        assert np.abs(flow_route - fd).sum() <= 1e-4 * np.abs(fd).sum()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_rk4_route_differences(self, observe, d):
        """Central differences of the RK4 route started from nu +- eps v share
        no code with the gauge kernel behind the flow route."""
        rng = np.random.default_rng(40 + d)
        for path in range(3):
            off = rng.uniform(0.3, 1.5, (d, d))
            np.fill_diagonal(off, 0.0)
            nu = rng.uniform(0.2, 1.0, d)
            model = wl.FilterModel.from_raw(nu / nu.sum(), off - np.diag(off.sum(axis=1)),
                                            np.linspace(-1.0, 1.0, d) + rng.uniform(-0.1, 0.1, d))
            obs = observe(model, 1.0, 1e-3, 100 * d + path)
            z = rng.standard_normal(d)
            v = (z - z.mean()) / np.abs(z - z.mean()).sum()
            nu, gen, levels = model.initial, model.generator, model.observation
            flow_route = wl.derivative_flow(nu, v, 0.0, 1.0, obs, gen, levels)
            for eps in (1e-4, 1e-5, 1e-6):
                fd = (wl.projected_filter_trajectory(nu + eps * v, gen, levels, obs)[-1]
                      - wl.projected_filter_trajectory(nu - eps * v, gen, levels, obs)[-1]) / (2 * eps)
                assert np.abs(flow_route - fd).sum() <= 1e-5 * np.abs(flow_route).sum()

    def test_matches_smoothing_route(self, ref_model, ref_obs):
        v = wl.validate_tangent([0.5, -0.5])
        flow_route = wl.derivative_flow(ref_model.initial, v, 0.0, 1.0, ref_obs,
                                        ref_model.generator, ref_model.observation)
        smooth_route = wl.derivative_smoothing_route(ref_model.initial, v, 1.0, ref_obs,
                                                     ref_model.generator, ref_model.observation)
        assert np.abs(flow_route - smooth_route).sum() <= 1e-4 * np.abs(flow_route).sum()

    def test_three_state_route_agreement(self, three_state_model, observe):
        obs = observe(three_state_model, 1.0, 1e-3, 6021)
        v = wl.validate_tangent([0.2, -0.5, 0.3])
        nu = three_state_model.initial
        flow_route = wl.derivative_flow(nu, v, 0.0, 1.0, obs, three_state_model.generator,
                                        three_state_model.observation)
        smooth_route = wl.derivative_smoothing_route(nu, v, 1.0, obs, three_state_model.generator,
                                                     three_state_model.observation)
        eps = 1e-6
        fd = (
            wl.filter_semiflow(nu + eps * v, 0.0, 1.0, obs, three_state_model.generator,
                               three_state_model.observation)
            - wl.filter_semiflow(nu - eps * v, 0.0, 1.0, obs, three_state_model.generator,
                                 three_state_model.observation)
        ) / (2 * eps)
        scale = np.abs(flow_route).sum()
        assert np.abs(flow_route - smooth_route).sum() <= 1e-4 * scale
        assert np.abs(flow_route - fd).sum() <= 1e-4 * scale

    def test_linearity(self, ref_model, ref_obs):
        flow = wl.zakai_flow(0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        mu = np.array([0.5, 0.5])
        v = np.array([1.0, -1.0])
        w = np.array([0.25, -0.25])
        combo = derivative_from_flow(flow.entries, mu, 2.0 * v + 3.0 * w)
        parts = 2.0 * derivative_from_flow(flow.entries, mu, v) + 3.0 * derivative_from_flow(
            flow.entries, mu, w
        )
        assert np.abs(combo - parts).max() < 1e-10

    def test_zero_direction(self, ref_model, ref_obs):
        out = wl.derivative_flow([0.5, 0.5], [0.0, 0.0], 0.0, 1.0, ref_obs,
                                 ref_model.generator, ref_model.observation)
        assert np.abs(out).max() == 0.0

    def test_tangency(self, three_state_model, observe):
        obs = observe(three_state_model, 1.0, 1e-3, 445)
        v = wl.validate_tangent([0.6, -0.2, -0.4])
        out = wl.derivative_flow(three_state_model.initial, v, 0.0, 1.0, obs,
                                 three_state_model.generator, three_state_model.observation)
        assert abs(out.sum()) <= 1e-8


class TestSmoothingMatrix:
    def test_identity_at_time_zero(self, ref_model, ref_obs):
        rho = wl.smoothing_matrix(0.0, ref_obs, ref_model.initial, ref_model.generator,
                                  ref_model.observation)
        assert rho == pytest.approx(np.eye(2))

    def test_columns_are_distributions(self, three_state_model, observe):
        obs = observe(three_state_model, 1.0, 1e-3, 5252)
        rho = wl.smoothing_matrix(1.0, obs, three_state_model.initial,
                                  three_state_model.generator, three_state_model.observation)
        assert rho.sum(axis=0) == pytest.approx(np.ones(3), abs=1e-8)
        assert np.all(rho >= 0.0) and np.all(rho <= 1.0)

    def test_column_spread_bound_on_many_paths(self, ref_model):
        # pathwise contraction of the initial-state posterior across terminal
        # states; 300 paths here, the acceptance suite runs the full load
        beta = wl.mixing_rate(ref_model.generator)
        for t_end in (0.5, 1.0, 2.0, 4.0):
            grid = wl.TimeGrid(t_end, 1e-3)
            increments = wl.simulate_increments_batch(
                ref_model.initial, ref_model.generator, ref_model.observation, grid, 4242, 300
            )
            flows = batch_flows(ref_model, increments, grid.dt)
            rho = smoothing_from_flow(flows, ref_model.initial)
            spread = np.abs(rho[:, :, :, None] - rho[:, :, None, :]).max(axis=(1, 2, 3))
            violations = int((spread > math.exp(-beta * t_end) + 1e-6).sum())
            assert violations == 0


class TestTiltedFilter:
    def test_matches_direct_restart(self, ref_model, ref_obs):
        mu = wl.validate_simplex([0.3, 0.7])
        tilted = wl.tilted_filter(mu, 1.0, ref_obs, ref_model.initial, ref_model.generator,
                                  ref_model.observation)
        direct = wl.filter_semiflow(mu, 0.0, 1.0, ref_obs, ref_model.generator,
                                    ref_model.observation)
        assert np.abs(tilted - direct).sum() <= 1e-5

    def test_matches_direct_restart_three_state(self, three_state_model, observe):
        obs = observe(three_state_model, 1.0, 1e-3, 31)
        mu = wl.validate_simplex([0.5, 0.2, 0.3])
        tilted = wl.tilted_filter(mu, 1.0, obs, three_state_model.initial,
                                  three_state_model.generator, three_state_model.observation)
        direct = wl.filter_semiflow(mu, 0.0, 1.0, obs, three_state_model.generator,
                                    three_state_model.observation)
        assert np.abs(tilted - direct).sum() <= 1e-5


# The three bounds damped by exp(-beta (t - s)), as functions of s, t and the rate matrix.
SPAN_BOUNDS = pytest.mark.parametrize("bound", [
    lambda s, t, gen: wl.derivative_bound([0.5, 0.5], [1.0, -1.0], s, t, gen),
    lambda s, t, gen: wl.lipschitz_bound([0.5, 0.5], [0.3, 0.7], s, t, gen),
    lambda s, t, gen: wl.second_derivative_gap_bound([0.5, 0.5], [1.0, -1.0], [0.5, -0.5], s, t, gen),
], ids=["derivative", "lipschitz", "second_derivative_gap"])


class TestDerivativeBound:
    def test_zero_horizon_value(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        mu = [0.5, 0.5]
        v = [1.0, -1.0]
        assert wl.derivative_bound(mu, v, 0.0, 0.0, gen) == pytest.approx(4.0)
        assert np.abs(np.asarray(v)).sum() <= 4.0

    def test_unit_horizon_example(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        value = wl.derivative_bound([0.5, 0.5], [1.0, -1.0], 0.0, 1.0, gen)
        assert value == pytest.approx(4.0 * math.exp(-2.0))

    def test_not_mixing(self):
        gen = wl.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(wl.NotMixingError):
            wl.derivative_bound([0.5, 0.5], [1.0, -1.0], 0.0, 1.0, gen)

    @SPAN_BOUNDS
    def test_reversed_span_rejected(self, bound):
        """A span with t < s is a GridMismatchError, as on every route over [s, t];
        it would otherwise grow the bound by exp(+beta (s - t))."""
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert bound(0.5, 0.5, gen) == bound(0.0, 0.0, gen)
        with pytest.raises(wl.GridMismatchError):
            bound(1.0, 0.0, gen)

    @SPAN_BOUNDS
    @pytest.mark.parametrize("time", ["0", math.nan, math.inf, True, np.True_, None, 10**400],
                             ids=["string", "nan", "inf", "true", "numpy-true", "none", "huge-int"])
    @pytest.mark.parametrize("end", ["s", "t"])
    def test_a_time_that_is_not_a_finite_real_is_rejected(self, bound, time, end):
        """Each end of the span is a finite real number, bools excluded, as a
        grid node is: not Python's TypeError for "0", not a NaN bound, and
        t=True is not the bound at t = 1."""
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        s, t = (time, 1.0) if end == "s" else (0.0, time)
        with pytest.raises(wl.GridMismatchError, match="finite real times"):
            bound(s, t, gen)
        assert bound(0, 1, gen) == bound(0.0, np.float64(1.0), gen)

    def test_pathwise_domination_ten_thousand_draws(self, ref_model):
        # 500 paths x 20 random (mu, v) draws; zero violations beyond 1e-6
        grid = wl.TimeGrid(1.0, 1e-3)
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 8080, 500
        )
        flows = batch_flows(ref_model, increments, grid.dt)
        rng = np.random.default_rng(17)
        worst = -np.inf
        for _ in range(20):
            mu = rng.dirichlet(np.full(2, 2.0), size=500)
            z = rng.standard_normal((500, 2))
            v = z - z.mean(axis=1, keepdims=True)
            actual = np.abs(derivative_from_flow(flows, mu, v)).sum(axis=1)
            bound = np.array([wl.derivative_bound(m, u, 0.0, 1.0, ref_model.generator)
                              for m, u in zip(mu, v)])
            worst = max(worst, float((actual - bound).max()))
        assert worst <= 1e-6


class TestLipschitzBound:
    def test_equal_laws_give_zero(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert wl.lipschitz_bound([0.4, 0.6], [0.4, 0.6], 0.0, 3.0, gen) == 0.0

    def test_pathwise_domination_ten_thousand_draws(self, ref_model):
        grid = wl.TimeGrid(1.0, 1e-3)
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 9090, 500
        )
        flows = batch_flows(ref_model, increments, grid.dt)
        rng = np.random.default_rng(23)
        worst = -np.inf
        for _ in range(20):
            mu_1 = rng.dirichlet(np.full(2, 2.0), size=500)
            mu_2 = rng.dirichlet(np.full(2, 2.0), size=500)
            img_1 = np.einsum("mij,mj->mi", flows, mu_1)
            img_2 = np.einsum("mij,mj->mi", flows, mu_2)
            img_1 /= img_1.sum(axis=1, keepdims=True)
            img_2 /= img_2.sum(axis=1, keepdims=True)
            actual = np.abs(img_2 - img_1).sum(axis=1)
            bound = np.array([wl.lipschitz_bound(m_1, m_2, 0.0, 1.0, ref_model.generator)
                              for m_1, m_2 in zip(mu_1, mu_2)])
            worst = max(worst, float((actual - bound).max()))
        assert worst <= 1e-6

    def test_decay_rate_fit_beats_forgetting_rate(self, ref_model):
        # slope of log mean gap over t in [2, 10]; the bound guarantees decay
        # at least at the forgetting rate, the fit is usually faster
        grid = wl.TimeGrid(10.0, 1e-3)
        m = 200
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 606, m
        )
        s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
        levels = ref_model.observation.levels
        state_1 = np.broadcast_to(np.array([0.5, 0.5]), (m, 2)).copy()
        state_2 = np.broadcast_to(np.array([0.2, 0.8]), (m, 2)).copy()
        step_nodes = np.arange(0, grid.n_steps + 1, 100)
        means = np.empty(step_nodes.shape[0])
        means[0] = np.abs(state_2 - state_1).sum(axis=1).mean()
        pos = 1
        for k in range(grid.n_steps):
            state_1 = gauge_cell(state_1, increments[:, k], grid.dt, s_diag, t_off, levels)
            state_1 /= state_1.sum(axis=1, keepdims=True)
            state_2 = gauge_cell(state_2, increments[:, k], grid.dt, s_diag, t_off, levels)
            state_2 /= state_2.sum(axis=1, keepdims=True)
            if pos < step_nodes.shape[0] and k + 1 == step_nodes[pos]:
                means[pos] = np.abs(state_2 - state_1).sum(axis=1).mean()
                pos += 1
        times = step_nodes * grid.dt
        window = (times >= 2.0) & (times <= 10.0)
        slope = np.polyfit(times[window], np.log(means[window]), 1)[0]
        beta = wl.mixing_rate(ref_model.generator)
        assert slope <= -beta + 0.1


class TestSecondDerivative:
    def test_zero_horizon_against_finite_differences(self, ref_model, ref_obs):
        mu = wl.validate_simplex([0.45, 0.55])
        v = wl.validate_tangent([0.3, -0.3])
        out = wl.second_derivative_flow(mu, v, 0.2, 0.2, ref_obs, ref_model.generator,
                                        ref_model.observation)
        # the projection is locally affine along tangent directions, so this
        # vanishes at the start point
        assert np.abs(out).max() < 1e-12

    def test_matches_second_differences(self, ref_model, ref_obs):
        mu = wl.validate_simplex([0.45, 0.55])
        v = wl.validate_tangent([0.4, -0.4])
        out = wl.second_derivative_flow(mu, v, 0.0, 1.0, ref_obs, ref_model.generator,
                                        ref_model.observation)
        eps = 1e-4
        fd = (
            wl.filter_semiflow(mu + eps * v, 0.0, 1.0, ref_obs, ref_model.generator,
                               ref_model.observation)
            - 2.0 * wl.filter_semiflow(mu, 0.0, 1.0, ref_obs, ref_model.generator,
                                       ref_model.observation)
            + wl.filter_semiflow(mu - eps * v, 0.0, 1.0, ref_obs, ref_model.generator,
                                 ref_model.observation)
        ) / eps**2
        assert np.abs(out - fd).sum() <= 1e-2 * np.abs(out).sum()

    def test_contracted_form_matches_tensor_form(self, ref_model, ref_obs):
        """The public route, which contracts in closed form, against the
        simplex projection's public second-derivative tensor contracted with
        two copies of the propagated direction."""
        flow = wl.zakai_flow(0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        mu = np.array([0.45, 0.55])
        v = np.array([0.4, -0.4])
        x, w = flow.apply(mu), flow.apply(v)
        assert wl.second_derivative_flow(mu, v, 0.0, 1.0, ref_obs, ref_model.generator,
                                         ref_model.observation) == pytest.approx(
            np.einsum("ikl,k,l->i", wl.normalize_second_derivative(x), w, w))

    def test_gap_bound_on_thousand_draws(self, ref_model):
        grid = wl.TimeGrid(1.0, 1e-3)
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 515, 500
        )
        flows = batch_flows(ref_model, increments, grid.dt)
        rng = np.random.default_rng(29)
        worst = -np.inf
        for _ in range(2):
            mu = rng.dirichlet(np.full(2, 2.0), size=500)
            z_v = rng.standard_normal((500, 2))
            z_w = rng.standard_normal((500, 2))
            v = z_v - z_v.mean(axis=1, keepdims=True)
            w = z_w - z_w.mean(axis=1, keepdims=True)
            gap = np.abs(
                second_derivative_from_flow(flows, mu, v) - second_derivative_from_flow(flows, mu, w)
            ).sum(axis=1)
            bound = np.array([wl.second_derivative_gap_bound(m, a, b, 0.0, 1.0, ref_model.generator)
                              for m, a, b in zip(mu, v, w)])
            worst = max(worst, float((gap - bound).max()))
        assert worst <= 1e-6

    def test_gap_bound_value(self):
        gen = wl.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        value = wl.second_derivative_gap_bound(
            [0.5, 0.5], [1.0, -1.0], [0.5, -0.5], 0.0, 1.0, gen
        )
        # sum_k |v+w|_k / mu_k = 6 and sum_j |v-w|_j / mu_j = 2
        expected = 2.0 * 6.0 * 2.0 * math.exp(-2.0)
        assert value == pytest.approx(expected)


class TestErrorRepresentation:
    def test_zero_for_identical_rates(self, ref_model, observe):
        obs = observe(ref_model, 2.0, 1e-3, 888)
        pair = wl.ModelPair(
            true_model=ref_model,
            approx_model=wl.FilterModel.from_raw([0.3, 0.7], [[-1.0, 1.0], [1.0, -1.0]],
                                                 [0.0, 1.0]),
        )
        assert wl.error_representation_check(2.0, obs, pair) == pytest.approx(0.0, abs=1e-15)

    def test_residual_within_budget(self, ref_model, observe):
        obs = observe(ref_model, 2.0, 1e-3, 999)
        pair = wl.ModelPair(
            true_model=ref_model,
            approx_model=wl.FilterModel.from_raw([0.3, 0.7], [[-1.1, 1.1], [0.9, -0.9]],
                                                 [0.0, 1.0]),
        )
        assert wl.error_representation_check(2.0, obs, pair) <= 1e-4

    def test_rejects_different_levels(self, ref_model, ref_obs, perturbed_model):
        pair = wl.ModelPair(true_model=ref_model, approx_model=perturbed_model)
        with pytest.raises(wl.ObservationMismatchError):
            wl.error_representation_check(1.0, ref_obs, pair)
        with pytest.raises(wl.ObservationMismatchError):
            wl.robustness_inequality(1.0, ref_obs, pair)


class TestRobustnessInequality:
    def test_holds_on_one_path(self, ref_model, observe):
        obs = observe(ref_model, 2.0, 1e-3, 1234)
        pair = wl.ModelPair(
            true_model=ref_model,
            approx_model=wl.FilterModel.from_raw([0.3, 0.7], [[-1.1, 1.1], [0.9, -0.9]],
                                                 [0.0, 1.0]),
        )
        lhs, rhs = wl.robustness_inequality(2.0, obs, pair)
        allowance = 10.0 * wl.measure_integrator_tolerance(ref_model, obs.grid, 1234)
        assert lhs <= rhs + allowance

    def test_holds_pathwise_on_thousand_draws(self, ref_model):
        grid = wl.TimeGrid(2.0, 1e-3)
        pair = wl.ModelPair(
            true_model=ref_model,
            approx_model=wl.FilterModel.from_raw([0.3, 0.7], [[-1.1, 1.1], [0.9, -0.9]],
                                                 [0.0, 1.0]),
        )
        allowance = 10.0 * wl.measure_integrator_tolerance(ref_model, grid, 777)
        violations = 0
        for chunk_seed in range(4):
            increments = wl.simulate_increments_batch(
                ref_model.initial, ref_model.generator, ref_model.observation,
                grid, 51_000 + chunk_seed, 250,
            )
            for row in increments:
                lhs, rhs = wl.robustness_inequality(grid.t_end, wl.ObservationPath(row, grid), pair)
                violations += not lhs <= rhs + allowance
        assert violations == 0

    def test_opnorm_dominates_specific_directions(self, ref_model, ref_obs):
        flow = wl.zakai_flow(0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        mu = np.array([0.4, 0.6])
        opnorm = float(derivative_opnorm_from_flow(flow.entries, mu))
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.standard_normal(2)
            v = z - z.mean()
            norm = np.abs(v).sum()
            if norm < 1e-12:
                continue
            actual = np.abs(derivative_from_flow(flow.entries, mu, v / norm)).sum()
            assert actual <= opnorm + 1e-12


class TestInversePowerMoments:
    def test_monte_carlo_within_exponential_bound(self, ref_model):
        # reciprocal-power moments of single filter weights, k in {1, 2},
        # t in {0.5, 1}; Monte Carlo mean must sit under the bound + 3 sigma
        grid = wl.TimeGrid(1.0, 1e-3)
        m = 1500
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid, 321, m
        )
        s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
        levels = ref_model.observation.levels
        state = np.broadcast_to(ref_model.initial, (m, 2)).copy()
        recorded = {}
        for k in range(grid.n_steps):
            state = gauge_cell(state, increments[:, k], grid.dt, s_diag, t_off, levels)
            state /= state.sum(axis=1, keepdims=True)
            if k + 1 in (500, 1000):
                recorded[(k + 1) * grid.dt] = state.copy()
        for t, snap in recorded.items():
            for power in (1, 2):
                for state_idx in (0, 1):
                    samples = snap[:, state_idx] ** (-float(power))
                    bound = wl.component_inverse_moment_bound(
                        ref_model.initial, ref_model.generator, ref_model.observation,
                        state=state_idx, power=power, t=t,
                    )
                    half_width = 3.0 * samples.std(ddof=1) / math.sqrt(m)
                    assert samples.mean() <= bound + half_width


class TestDerivativeRecords:
    def test_csv_export(self, ref_model, ref_obs, tmp_path):
        v = wl.validate_tangent([0.5, -0.5])
        value = wl.derivative_flow(ref_model.initial, v, 0.0, 1.0, ref_obs,
                                   ref_model.generator, ref_model.observation)
        records = [wl.DerivativeRecord(direction=v, value=value, route="flow", s=0.0, t=1.0)]
        dest = tmp_path / "records.csv"
        wl.derivative_records_to_csv(records, dest)
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "s,t,route,v_1,v_2,dpi_1,dpi_2"
        assert len(lines) == 2
        assert "flow" in lines[1]

    @pytest.mark.parametrize("direction, value", [
        pytest.param([0.2, -0.1, -0.1], [0.1, -0.05, -0.05], id="three-states"),
        pytest.param([0.5, -0.5], [0.1, -0.05, -0.05], id="three-values"),
        pytest.param([[0.5, -0.5]], [[0.1, -0.1]], id="rows"),
    ])
    def test_ragged_records_are_a_typed_error(self, tmp_path, direction, value):
        """A record whose direction or value has not the first direction's size
        would write a row that does not fit the header; no file is written."""
        first = wl.DerivativeRecord(direction=np.array([0.5, -0.5]), value=np.array([0.1, -0.1]),
                                    route="flow", s=0.0, t=1.0)
        odd = wl.DerivativeRecord(direction=np.array(direction), value=np.array(value),
                                  route="flow", s=0.0, t=1.0)
        dest = tmp_path / "records.csv"
        with pytest.raises(wl.DimensionMismatchError):
            wl.derivative_records_to_csv([first, odd], dest)
        assert not dest.exists()

    def test_no_records_is_a_typed_error(self, tmp_path):
        """With no records the CSV has no state dimension, and no file is written."""
        dest = tmp_path / "records.csv"
        with pytest.raises(wl.DimensionMismatchError, match="no records"):
            wl.derivative_records_to_csv([], dest)
        assert not dest.exists()
