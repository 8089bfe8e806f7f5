import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import wonhamlab as wl
from conftest import gauge_cell, lockstep_nodes, lockstep_stacks
from wonhamlab.filters import (
    _GAUGE_BLOCK,
    _SCAN_BLOCK,
    _cell_factors,
    _endpoint_flows,
    _euler_batch_values,
    _flow_loop,
    _gauge_factors,
    _lockstep,
    _prefix_products,
    _scan_nodes,
    _scan_path,
    cell_propagators,
    propagate_cell,
    propagate_cell_matrix,
    split_rate_matrix,
)
from wonhamlab.sensitivity import derivative_from_flow, derivative_opnorm_from_flow


class TestNormalize:
    def test_examples(self):
        assert wl.normalize([2.0, 2.0]) == pytest.approx([0.5, 0.5])
        assert wl.normalize([1.0, 3.0]) == pytest.approx([0.25, 0.75])

    def test_subnormal_inputs_survive(self):
        assert wl.normalize([1e-300, 1e-300]) == pytest.approx([0.5, 0.5])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 2.0, size=5)
        assert wl.normalize(3.7 * x) == pytest.approx(wl.normalize(x), rel=1e-14)

    def test_rejects_non_positive(self):
        with pytest.raises(wl.NonPositiveEntryError):
            wl.normalize([1.0, 0.0])
        with pytest.raises(wl.NonPositiveEntryError):
            wl.normalize([1.0, -0.2])


class TestNormalizeJacobian:
    def test_uniform_point(self):
        jac = wl.normalize_jacobian([1.0, 1.0])
        assert jac == pytest.approx(np.array([[0.25, -0.25], [-0.25, 0.25]]))

    def test_annihilates_base_point(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(0.05, 3.0, size=4)
            assert np.abs(wl.normalize_jacobian(x) @ x).max() < 1e-15

    def test_homogeneity(self):
        x = np.array([0.4, 1.1, 2.2])
        assert wl.normalize_jacobian(2.0 * x) == pytest.approx(0.5 * wl.normalize_jacobian(x))

    def test_finite_difference_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        step = 1e-6
        jac = wl.normalize_jacobian(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            column = (wl.normalize(x + e) - wl.normalize(x - e)) / (2 * step)
            assert np.abs(column - jac[:, j]).max() / np.abs(jac[:, j]).max() < 1e-6


class TestNormalizeSecondDerivative:
    def test_vanishes_along_zero_sum_directions_at_unit_mass(self):
        # on the simplex plane the projection is locally the identity, so the
        # second derivative contracted with a tangent direction is zero
        x = np.array([0.2, 0.3, 0.5])
        v = np.array([0.4, -0.1, -0.3])
        contracted = np.einsum("ikl,k,l->i", wl.normalize_second_derivative(x), v, v)
        assert np.abs(contracted).max() < 1e-15

    def test_finite_difference_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        tensor = wl.normalize_second_derivative(x)
        step = 1e-4
        v = np.array([0.4, -0.1, 0.1])
        contracted = np.einsum("ikl,k,l->i", tensor, v, v)
        fd = (wl.normalize(x + step * v) - 2 * wl.normalize(x) + wl.normalize(x - step * v)) / step**2
        assert np.abs(contracted - fd).sum() <= 1e-5 * np.abs(contracted).sum()

    def test_homogeneity(self):
        x = np.array([0.5, 1.5])
        assert wl.normalize_second_derivative(3.0 * x) == pytest.approx(
            wl.normalize_second_derivative(x) / 9.0
        )


class TestWonhamStep:
    def test_constant_levels_reduce_to_forward_equation(self, ref_model):
        obs = wl.validate_observation([2.0, 2.0])
        pi = np.array([0.3, 0.7])
        dt, d_y = 1e-3, 0.05
        stepped = wl.wonham_step(pi, d_y, dt, ref_model.generator, obs)
        kolmogorov = pi + dt * ref_model.generator.drift_transpose @ pi
        assert stepped == pytest.approx(kolmogorov / kolmogorov.sum(), abs=1e-15)

    def test_stationary_point_is_fixed(self, ref_model):
        obs = wl.validate_observation([1.0, 1.0])
        pi = np.array([0.5, 0.5])
        stepped = wl.wonham_step(pi, 0.02, 1e-3, ref_model.generator, obs)
        assert stepped == pytest.approx(pi, abs=1e-16)

    def test_state_collapse_detected(self, ref_model):
        with pytest.raises(wl.StateCollapseError):
            wl.wonham_step(np.array([0.5, 0.5]), -8.0, 1.0, ref_model.generator, ref_model.observation)

    def test_one_step_gap_to_gauge_is_second_order(self, ref_model):
        # Average the one-step difference over the symmetric two-point
        # increments dY = drift*dt +/- sqrt(dt): the variance-mismatch term
        # cancels and the remaining gap is O(dt^2), so halving dt gives ~4x.
        s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
        levels = ref_model.observation.levels
        pi = np.array([0.3, 0.7])

        def mean_gap(dt):
            gaps = []
            for sign in (1.0, -1.0):
                d_y = float(levels @ pi) * dt + sign * math.sqrt(dt)
                rho = gauge_cell(pi, d_y, dt, s_diag, t_off, levels)
                gauge = rho / rho.sum()
                euler = wl.wonham_step(pi, d_y, dt, ref_model.generator, ref_model.observation)
                gaps.append(gauge - euler)
            return np.abs(0.5 * (gaps[0] + gaps[1])).sum()

        ratios = [mean_gap(dt) / mean_gap(dt / 2) for dt in (4e-3, 2e-3, 1e-3)]
        assert all(3.5 <= r <= 4.5 for r in ratios)


class TestGaugeFilter:
    @pytest.mark.parametrize("start, error", [
        ([math.nan, 1.0], wl.NonPositiveEntryError),
        ([math.inf, 1.0], wl.NonPositiveEntryError),
        ([0.5, 0.25, 0.25], wl.DimensionMismatchError),
        ([[0.5, 0.5]], wl.DimensionMismatchError),
    ])
    def test_rejects_bad_starts(self, ref_model, ref_obs, start, error):
        """A non-finite start, or one without one entry per state, is a typed error."""
        for route in (wl.gauge_filter, wl.filter_semiflow):
            with pytest.raises(error):
                route(start, 0.0, 0.01, ref_obs, ref_model.generator, ref_model.observation)

    def test_start_near_the_double_range(self, ref_model, ref_obs):
        """A finite start whose sum overflows is rescaled by its largest entry
        first: the vector of an equal start, and a finite log scale."""
        args = (ref_obs, ref_model.generator, ref_model.observation)
        rho, log_scale = wl.gauge_filter([1e308, 1e308], 0.3, 0.3, *args)
        assert np.array_equal(rho, [0.5, 0.5])
        assert log_scale == pytest.approx(math.log(1e308) + math.log(2.0), rel=1e-15)
        rho, log_scale = wl.gauge_filter([1e308, 1e308], 0.0, 0.01, *args)
        half, half_log = wl.gauge_filter([0.5, 0.5], 0.0, 0.01, *args)
        assert np.array_equal(rho, half)
        assert math.isfinite(log_scale)
        assert log_scale - half_log == pytest.approx(math.log(1e308) + math.log(2.0), rel=1e-15)
        assert np.array_equal(wl.filter_semiflow([1e308, 1e308], 0.0, 0.01, *args), half)

    def test_zero_rates_give_closed_form(self, ref_obs):
        # With a zero rate matrix the gauge ODE right side vanishes and each
        # cell is the exact diagonal gauge factor.
        gen = wl.validate_generator([[0.0, 0.0], [0.0, 0.0]])
        obs_map = wl.validate_observation([0.0, 1.0])
        mu = np.array([0.4, 0.6])
        rho, log_scale = wl.gauge_filter(mu, 0.0, 0.01, ref_obs, gen, obs_map)
        dt = ref_obs.grid.dt
        log_factors = np.zeros(2)
        for k in range(10):
            c = 0.5 * obs_map.levels**2 - obs_map.levels * ref_obs.increments[k] / dt
            log_factors += -c * dt
        expected = mu * np.exp(log_factors)
        assert math.exp(log_scale) * rho == pytest.approx(expected, rel=1e-13)

    def test_positivity_on_random_cells(self, ref_model):
        # one vectorized sweep over 1e4 random cells
        rng = np.random.default_rng(8)
        s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
        mu = rng.dirichlet(np.ones(2), size=10_000)
        d_y = rng.normal(0.0, math.sqrt(1e-3), size=10_000)
        out = gauge_cell(mu, d_y, 1e-3, s_diag, t_off, ref_model.observation.levels)
        assert np.all(out > 0.0)

    def test_scale_invariance_up_to_log(self, ref_model, ref_obs):
        mu = np.array([0.25, 0.75])
        rho_1, log_1 = wl.gauge_filter(mu, 0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        rho_2, log_2 = wl.gauge_filter(5.0 * mu, 0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        assert rho_2 == pytest.approx(rho_1, rel=1e-12)
        assert log_2 - log_1 == pytest.approx(math.log(5.0), abs=1e-12)

    def test_agreement_with_euler_route(self, ref_model, ref_obs):
        # The Euler route misses the variance-correction term of the exact
        # per-cell solve, so the routes differ at the sqrt(dt) scale; the
        # measured gap at this seed is ~9.3e-4.  Budget: twice that.
        gauge = wl.filter_trajectory(ref_model.initial, ref_model.generator,
                                     ref_model.observation, ref_obs)
        euler = wl.euler_filter_trajectory(ref_model.initial, ref_model.generator,
                                           ref_model.observation, ref_obs)
        gap = np.abs(gauge.values[-1] - euler[-1]).sum()
        assert gap <= 2e-3

    def test_trajectory_stays_interior_and_normalized(self, ref_model, ref_obs):
        traj = wl.filter_trajectory(ref_model.initial, ref_model.generator,
                                    ref_model.observation, ref_obs)
        assert np.all(traj.values > 0.0)
        assert np.abs(traj.values.sum(axis=1) - 1.0).max() < 1e-8
        assert traj.at(0.5) == pytest.approx(traj.values[500])


class TestProjectedFilter:
    def test_equal_levels_give_forward_kolmogorov_solution(self, three_state_model, observe):
        # With equal levels the observation terms cancel on renormalization and
        # the normalized equation is the forward equation pi' = Lambda^T pi.
        obs = observe(three_state_model, 1.0, 1e-3, 20260810)
        flat = wl.validate_observation([2.0, 2.0, 2.0])
        values = wl.projected_filter_trajectory(three_state_model.initial,
                                                three_state_model.generator, flat, obs)
        exact = expm(three_state_model.generator.drift_transpose * 1.0) @ three_state_model.initial
        assert np.abs(values[-1] - exact).sum() <= 1e-10

    def test_values_positive_with_unit_mass(self, ref_model, ref_obs):
        values = wl.projected_filter_trajectory(ref_model.initial, ref_model.generator,
                                                ref_model.observation, ref_obs)
        assert values.shape == (ref_obs.grid.n_steps + 1, 2)
        assert np.all(values > 0.0)
        assert np.abs(values.sum(axis=1) - 1.0).max() < 1e-12

    def test_agrees_with_gauge_route_at_every_node(self, three_state_model, observe):
        # Independent solvers of the same filter on the same observation
        # polygon; measured worst l1 gap over the nodes 2.8e-7.
        obs = observe(three_state_model, 1.0, 1e-3, 20260810)
        gauge = wl.filter_trajectory(three_state_model.initial, three_state_model.generator,
                                     three_state_model.observation, obs)
        projected = wl.projected_filter_trajectory(three_state_model.initial,
                                                   three_state_model.generator,
                                                   three_state_model.observation, obs)
        assert np.abs(gauge.values - projected).sum(axis=1).max() <= 1e-6

    def test_state_collapse_detected(self, ref_model):
        obs = wl.ObservationPath(np.array([-8.0]), wl.TimeGrid(1.0, 1.0))
        with pytest.raises(wl.StateCollapseError):
            wl.projected_filter_trajectory(ref_model.initial, ref_model.generator,
                                           ref_model.observation, obs)


RANGE_START = np.array([0.2, 0.6])


def _flow_pair(*args):
    flow = wl.zakai_flow(*args)
    return flow.entries, flow.log_scale


# The routes over the node range [s, t], each returning (value, log scale).
RANGE_ROUTES = {
    "gauge_filter": lambda s, t, *args: wl.gauge_filter(RANGE_START, s, t, *args),
    "zakai_flow": _flow_pair,
    "zakai_flow_inverse": wl.zakai_flow_inverse,
}
# What each returns when s == t: its start, with no log mass added.
RANGE_IDENTITY = {
    "gauge_filter": (RANGE_START / RANGE_START.sum(), math.log(RANGE_START.sum())),
    "zakai_flow": (np.eye(2), 0.0),
    "zakai_flow_inverse": (np.eye(2), 0.0),
}


class TestNodeRange:
    """The routes over a node range share one range check and return their
    exact start on an empty range."""

    @pytest.mark.parametrize("route", list(RANGE_ROUTES))
    def test_identity_at_equal_times(self, ref_model, ref_obs, route):
        value, log_scale = RANGE_ROUTES[route](0.3, 0.3, ref_obs, ref_model.generator,
                                               ref_model.observation)
        start, start_log = RANGE_IDENTITY[route]
        assert np.array_equal(value, start)
        assert log_scale == start_log

    @pytest.mark.parametrize("route", list(RANGE_ROUTES))
    @pytest.mark.parametrize("s, t", [(0.5, 0.3), (0.3, 0.5005), (0.1005, 0.3)])
    def test_reversed_or_off_grid_range_rejected(self, ref_model, ref_obs, route, s, t):
        with pytest.raises(wl.GridMismatchError):
            RANGE_ROUTES[route](s, t, ref_obs, ref_model.generator, ref_model.observation)


class TestZakaiFlow:
    def test_entries_nonnegative(self, ref_model, ref_obs):
        flow = wl.zakai_flow(0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        assert np.all(flow.entries >= 0.0)

    def test_composition_property(self, ref_model, observe):
        obs = observe(ref_model, 5.0, 1e-3, 31415)
        rng = np.random.default_rng(4)
        for _ in range(3):
            r = round(rng.uniform(0.5, 4.5), 3)
            whole = wl.zakai_flow(0.0, 5.0, obs, ref_model.generator, ref_model.observation)
            first = wl.zakai_flow(0.0, r, obs, ref_model.generator, ref_model.observation)
            second = wl.zakai_flow(r, 5.0, obs, ref_model.generator, ref_model.observation)
            product = wl.compose_flows(second, first)
            gap = np.abs(product.dense() - whole.dense()).max()
            assert gap <= 1e-6 * np.abs(whole.dense()).max()

    def test_flow_route_matches_trajectory(self, ref_model, ref_obs):
        traj = wl.filter_trajectory(ref_model.initial, ref_model.generator,
                                    ref_model.observation, ref_obs)
        flow = wl.zakai_flow(0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        via_flow = wl.normalize(flow.apply(ref_model.initial))
        assert np.abs(via_flow - traj.values[-1]).sum() <= 1e-6

    def test_inverse_flow_recovers_identity(self, ref_model, observe):
        obs = observe(ref_model, 2.0, 1e-3, 2718)
        flow = wl.zakai_flow(0.0, 2.0, obs, ref_model.generator, ref_model.observation)
        inverse, log_inv = wl.zakai_flow_inverse(0.0, 2.0, obs, ref_model.generator,
                                                 ref_model.observation)
        product = math.exp(log_inv + flow.log_scale) * (inverse @ flow.entries)
        assert np.abs(product - np.eye(2)).max() <= 1e-5

    def test_long_flow_is_silent_and_composes(self, ref_model, observe):
        """At t = 20 the unit-mass propagator is close to rank one (the filter
        has forgotten its start), yet it warns on nothing and equals the
        composition of its two halves to rounding."""
        obs = observe(ref_model, 20.0, 1e-3, 777)
        args = (obs, ref_model.generator, ref_model.observation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = wl.zakai_flow(0.0, 20.0, *args)
            product = wl.compose_flows(wl.zakai_flow(10.0, 20.0, *args), wl.zakai_flow(0.0, 10.0, *args))
        assert np.abs(product.entries - whole.entries).max() <= 1e-13 * np.abs(whole.entries).max()
        assert abs(product.log_scale - whole.log_scale) <= 1e-13 * abs(whole.log_scale)


class TestSemiflow:
    def test_zero_horizon_is_identity(self, ref_model, ref_obs):
        mu = wl.validate_simplex([0.3, 0.7])
        assert wl.filter_semiflow(mu, 0.5, 0.5, ref_obs, ref_model.generator,
                                  ref_model.observation) == pytest.approx(mu)

    @pytest.mark.parametrize("model_name", ["ref_model", "three_state_model"])
    def test_composition(self, model_name, observe, request):
        model = request.getfixturevalue(model_name)
        obs = observe(model, 1.0, 1e-3, 5150)
        rng = np.random.default_rng(6)
        mu = wl.validate_simplex(rng.dirichlet(np.ones(model.d)))
        for r in (0.25, 0.5, 0.875):
            inner = wl.filter_semiflow(mu, 0.0, r, obs, model.generator, model.observation)
            outer = wl.filter_semiflow(inner, r, 1.0, obs, model.generator, model.observation)
            direct = wl.filter_semiflow(mu, 0.0, 1.0, obs, model.generator, model.observation)
            assert np.abs(outer - direct).sum() <= 1e-6

    def test_injectivity_spot_check(self, ref_model, ref_obs):
        # distinct starts stay distinct through one flow matrix: 1e3 draws
        flow = wl.zakai_flow(0.0, 1.0, ref_obs, ref_model.generator, ref_model.observation)
        rng = np.random.default_rng(12)
        mu = rng.dirichlet(np.ones(2), size=1000)
        nu = rng.dirichlet(np.ones(2), size=1000)
        distinct = np.abs(mu - nu).sum(axis=1) > 1e-12
        img_mu = (flow.entries @ mu.T).T
        img_nu = (flow.entries @ nu.T).T
        img_mu /= img_mu.sum(axis=1, keepdims=True)
        img_nu /= img_nu.sum(axis=1, keepdims=True)
        gaps = np.abs(img_mu - img_nu).sum(axis=1)
        assert np.all(gaps[distinct] > 0.0)


class TestIntegratorRefinement:
    def test_frozen_polygon_refinement_is_fourth_order(self, ref_model, observe):
        # Sub-stepping the one-cell solver on a fixed observation polygon
        # isolates the RK4 order: halving the sub-step divides the error by ~16.
        obs = observe(ref_model, 1.0, 4e-3, 161)
        s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
        levels = ref_model.observation.levels

        def endpoint(splits):
            inc = np.repeat(obs.increments, splits) / splits
            dt = obs.grid.dt / splits
            rho = np.array(ref_model.initial)
            for k in range(inc.shape[0]):
                rho = gauge_cell(rho, inc[k], dt, s_diag, t_off, levels)
                rho /= rho.sum()
            return rho

        ends = [endpoint(2**j) for j in range(4)]
        errors = [np.abs(e - ends[-1]).sum() for e in ends[:-1]]
        assert errors[0] / errors[1] >= 8.0
        assert errors[1] / errors[2] >= 8.0

    def test_successive_halving_improves_and_order_is_recorded(self, ref_model):
        # Full-pipeline refinement: new observation information enters as the
        # polygon refines, so the error shrinks like sqrt(dt) (halving ratio
        # about 1.4) rather than at the one-cell solver order.  Assert that
        # refinement helps monotonically and record the observed order.
        grid_fine = wl.TimeGrid(1.0, 2.5e-4)
        increments = wl.simulate_increments_batch(
            ref_model.initial, ref_model.generator, ref_model.observation, grid_fine, 909, 32
        )
        s_diag, t_off = split_rate_matrix(ref_model.generator.entries)
        levels = ref_model.observation.levels

        def endpoints(inc, dt):
            vals = np.broadcast_to(ref_model.initial, (inc.shape[0], 2)).copy()
            for k in range(inc.shape[1]):
                vals = gauge_cell(vals, inc[:, k], dt, s_diag, t_off, levels)
                vals /= vals.sum(axis=1, keepdims=True)
            return vals

        reference = endpoints(increments, 2.5e-4)
        errors = {}
        for dt in (4e-3, 2e-3, 1e-3):
            factor = round(dt / 2.5e-4)
            inc = increments.reshape(32, -1, factor).sum(axis=2)
            errors[dt] = float(np.abs(endpoints(inc, dt) - reference).sum(axis=1).mean())
        ratios = [errors[4e-3] / errors[2e-3], errors[2e-3] / errors[1e-3]]
        orders = [math.log2(r) for r in ratios]
        print(f"pipeline refinement errors: {errors}; observed orders: {orders}")
        assert errors[4e-3] > errors[2e-3] > errors[1e-3]
        assert all(r > 1.1 for r in ratios)


class TestTrajectoryExport:
    def test_csv_columns(self, ref_model, ref_obs, tmp_path):
        traj = wl.filter_trajectory(ref_model.initial, ref_model.generator,
                                    ref_model.observation, ref_obs)
        dest = tmp_path / "traj.csv"
        wl.export_trajectory_csv(traj, dest)
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "t,pi_1,pi_2,log_scale"
        assert len(lines) == ref_obs.grid.n_steps + 2
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[1]) == pytest.approx(traj.values[-1][0])


# -- blocked prefix scan against the plain per-cell recursion -----------------

BLOCK = _SCAN_BLOCK
SCAN_LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10_000]
PROBE_LENGTHS = [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK - 7]
SCAN_SETTINGS = settings(derandomize=True, deadline=None, max_examples=3)


def kernel_parts(model):
    return split_rate_matrix(model.generator.entries) + (model.observation.levels,)


def loop_path(state, increments, dt, s_diag, t_off, levels):
    """Reference recursion: one kernel call per cell, renormalized at every cell.

    ``increments`` has shape (n,) or (n, r) (r cells per step); returns the
    unit-mass images at the n step ends and their log masses relative to
    ``state``.
    """
    kernel = gauge_cell if np.ndim(state) == 1 else propagate_cell_matrix
    images, logs, log_mass = [], [], 0.0
    for step in increments:
        for d_y in np.atleast_1d(step):
            state = kernel(state, d_y, dt, s_diag, t_off, levels)
            total = state.sum()
            state = state / total
            log_mass += math.log(total)
        images.append(state)
        logs.append(log_mass)
    return np.reshape(images, (len(logs),) + np.shape(state)), np.array(logs)


def loop_probe(model, grid, master_seed):
    """Reference step-halving probe: fine and coarse filters cell by cell."""
    fine = grid.refined(2)
    sig, noise = np.random.SeedSequence([master_seed, 0xA110]).spawn(2)
    path = wl.simulate_signal(model.initial, model.generator, fine,
                              np.random.Generator(np.random.Philox(sig)))
    obs = wl.simulate_observations(path, model.observation, fine,
                                   np.random.Generator(np.random.Philox(noise)))
    steps = obs.increments.reshape(-1, 2)
    fine_vals, _ = loop_path(model.initial, steps, fine.dt, *kernel_parts(model))
    coarse_vals, _ = loop_path(model.initial, steps.sum(axis=1), grid.dt, *kernel_parts(model))
    return float(np.abs(fine_vals - coarse_vals).sum(axis=1).max())


def assert_matches_loop(values, logs, ref_values, ref_logs):
    """1e-12 in l1 per node, 1e-12 relative (floor 1) in log mass, and strictly
    positive wherever the reference holds a normal (not subnormal) float."""
    assert values.shape == ref_values.shape and logs.shape == ref_logs.shape
    gaps = np.abs(values - ref_values).sum(axis=tuple(range(1, values.ndim)))
    assert gaps.max(initial=0.0) <= 1e-12
    assert np.all(np.abs(logs - ref_logs) <= 1e-12 * np.maximum(1.0, np.abs(ref_logs)))
    assert np.all(values[ref_values >= np.finfo(float).tiny] > 0.0)


def random_model(rng, d, mixing):
    """Random model of d states with one initial weight 1e-12.

    A non-mixing model has about half its rates and every rate into one state
    zeroed.
    """
    rates = rng.uniform(0.2, 3.0, size=(d, d))
    if not mixing:
        rates *= rng.random((d, d)) < 0.5
        rates[:, rng.integers(d)] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    initial = rng.dirichlet(np.ones(d))
    initial[rng.integers(d)] = 1e-12
    return wl.FilterModel.from_raw(initial / initial.sum(), rates, rng.uniform(-2.0, 2.0, size=d))


@st.composite
def scan_models(draw):
    """Random model with d in 2..6, mixing or not, and one initial weight 1e-12."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_model(rng, d, draw(st.booleans()))


def simulated_obs(model, n, dt, seed):
    grid = wl.TimeGrid(n * dt, dt)
    sig, noise = wl.spawn_generators(seed, 2)
    path = wl.simulate_signal(model.initial, model.generator, grid, sig)
    return wl.simulate_observations(path, model.observation, grid, noise)


class TestPrefixScan:
    @given(model=scan_models(), n=st.integers(1, 70), seed=st.integers(0, 999))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_prefix_products_match_loop(self, model, n, seed):
        obs = simulated_obs(model, n, 1e-2, seed)
        maps = cell_propagators(obs.increments, 1e-2, model.generator, model.observation)
        prods, logs = _prefix_products(maps)
        assert np.abs(prods.sum(axis=(1, 2)) - 1.0).max() <= 1e-13
        product, log_mass, expected, expected_logs = np.eye(model.d), 0.0, [], []
        for cell in maps:
            product = cell @ product
            total = product.sum()
            product = product / total
            log_mass += math.log(total)
            expected.append(product)
            expected_logs.append(log_mass)
        assert_matches_loop(prods, logs, np.array(expected), np.array(expected_logs))

    @pytest.mark.parametrize("n", SCAN_LENGTHS)
    @given(model=scan_models(), dt=st.sampled_from([1e-3, 1e-2]),
           cells_per_step=st.sampled_from([1, 2]), matrix_state=st.booleans(),
           seed=st.integers(0, 999))
    @SCAN_SETTINGS
    def test_driver_matches_loop(self, model, n, dt, cells_per_step, matrix_state, seed):
        obs = simulated_obs(model, max(1, n * cells_per_step), dt, seed)
        steps = obs.increments[:n * cells_per_step]
        if cells_per_step == 2:
            steps = steps.reshape(n, 2)
        state = np.eye(model.d) if matrix_state else model.initial
        parts = kernel_parts(model)
        blocks = list(_scan_path(state, steps, dt, model.generator, model.observation))
        assert all(len(logs) <= BLOCK for _, logs in blocks)
        values = np.concatenate([v for v, _ in blocks] or [np.empty((0,) + state.shape)])
        logs = np.concatenate([lg for _, lg in blocks] or [np.empty(0)])
        assert_matches_loop(values, logs, *loop_path(state, steps, dt, *parts))

    @pytest.mark.parametrize("n", SCAN_LENGTHS)
    @given(model=scan_models(), dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 999))
    @SCAN_SETTINGS
    def test_public_routes_match_loop(self, model, n, dt, seed):
        obs = simulated_obs(model, max(1, n), dt, seed)
        gen, obs_map = model.generator, model.observation
        parts = kernel_parts(model)
        ref_values, ref_logs = loop_path(model.initial, obs.increments[:n], dt, *parts)
        if n > 0:
            traj = wl.filter_trajectory(model.initial, gen, obs_map, obs)
            assert_matches_loop(traj.values[1:], traj.log_scale[1:], ref_values, ref_logs)
            assert np.array_equal(traj.values[0], model.initial) and traj.log_scale[0] == 0.0

        rho, log_scale = wl.gauge_filter(3.0 * model.initial, 0.0, n * dt, obs, gen, obs_map)
        ref_rho = np.concatenate([[model.initial], ref_values])[-1]
        ref_log = math.log(3.0) + np.concatenate([[0.0], ref_logs])[-1]
        assert_matches_loop(rho[None], np.array([log_scale]), ref_rho[None], np.array([ref_log]))

        if n > 0:
            # the flow starts off node 0, so its blocks begin at an offset into the path
            flow = wl.zakai_flow(dt, n * dt, obs, gen, obs_map)
            ref_flow, ref_flow_log = loop_path(np.eye(model.d), obs.increments[1:n], dt, *parts)
            if n == 1:
                assert np.array_equal(flow.entries, np.eye(model.d)) and flow.log_scale == 0.0
            else:
                assert_matches_loop(flow.entries[None], np.array([flow.log_scale]),
                                    ref_flow[-1:], ref_flow_log[-1:])

        per_cell = [propagate_cell_matrix(np.eye(model.d), d_y, dt, *parts) for d_y in obs.increments]
        assert np.array_equal(cell_propagators(obs.increments, dt, gen, obs_map),
                              np.array(per_cell))

    @pytest.mark.parametrize("n", PROBE_LENGTHS)
    @given(model=scan_models(), dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 999))
    @SCAN_SETTINGS
    def test_probe_matches_loop(self, model, n, dt, seed):
        grid = wl.TimeGrid(n * dt, dt)
        probe = wl.measure_integrator_tolerance(model, grid, seed)
        assert abs(probe - loop_probe(model, grid, seed)) <= 1e-12


class TestScanWorkingSet:
    """The scan holds one block of maps at a time, whatever the path length."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_long_flow_and_gauge_filter(self, ref_model, observe):
        obs = observe(ref_model, 100.0, 1e-3, 4242)
        gen, obs_map = ref_model.generator, ref_model.observation

        def run():
            wl.zakai_flow(0.0, 100.0, obs, gen, obs_map)
            wl.gauge_filter(ref_model.initial, 0.0, 100.0, obs, gen, obs_map)

        assert self.peak_bytes(run) < 2 * 2**20

    def test_probe_on_the_desk_grid(self, ref_model):
        grid = wl.TimeGrid(10.0, 1e-3)
        assert self.peak_bytes(lambda: wl.measure_integrator_tolerance(ref_model, grid, 2026)) < 2**20


# -- cell kernels against einsum, and the lockstep driver -----------------------


def einsum_cell(values, d_y, dt, s_diag, t_off, levels):
    """Reference cell kernel with the contractions written as einsum; one model."""
    c = 0.5 * levels**2 - s_diag - levels * (np.asarray(d_y, dtype=float)[..., None] / dt)
    e_half, e_full = np.exp(c * (0.5 * dt)), np.exp(c * dt)

    def coeff(f, e):
        return e * np.einsum("ij,...j->...i", t_off, f / e)

    k1 = np.einsum("ij,...j->...i", t_off, values)
    k2 = coeff(values + (0.5 * dt) * k1, e_half)
    k3 = coeff(values + (0.5 * dt) * k2, e_half)
    k4 = coeff(values + dt * k3, e_full)
    return (values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) / e_full


def einsum_cell_matrix(matrices, d_y, dt, s_diag, t_off, levels):
    """Reference matrix kernel with einsum contractions; columns (..., d, k)."""
    c = (0.5 * levels**2 - s_diag - levels * (np.asarray(d_y, dtype=float)[..., None] / dt))[..., None]
    e_half, e_full = np.exp(c * (0.5 * dt)), np.exp(c * dt)

    def coeff(f, e):
        return e * np.einsum("ij,...jk->...ik", t_off, f / e)

    k1 = np.einsum("ij,...jk->...ik", t_off, matrices)
    k2 = coeff(matrices + (0.5 * dt) * k1, e_half)
    k3 = coeff(matrices + (0.5 * dt) * k2, e_half)
    k4 = coeff(matrices + dt * k3, e_full)
    return (matrices + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) / e_full


def assert_relative(actual, expected, rel=1e-14):
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= rel * np.abs(expected))


KERNEL_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


class TestCellKernels:
    @given(d=st.integers(2, 6), width=st.sampled_from([None, 1, 7]), k=st.integers(1, 7),
           dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_kernels_match_einsum(self, d, width, k, dt, seed):
        """Scalar d_y with unbatched inputs, or d_y of shape (width,) batched."""
        rng = np.random.default_rng(seed)
        parts = kernel_parts(random_model(rng, d, bool(rng.integers(2))))
        lead = () if width is None else (width,)
        d_y = float(rng.normal(0.0, 0.1)) if width is None else rng.normal(0.0, 0.1, size=width)
        values = rng.uniform(0.01, 1.0, size=lead + (d,))
        matrices = rng.uniform(0.01, 1.0, size=lead + (d, k))
        assert_relative(gauge_cell(values, d_y, dt, *parts), einsum_cell(values, d_y, dt, *parts))
        assert_relative(propagate_cell_matrix(matrices, d_y, dt, *parts),
                        einsum_cell_matrix(matrices, d_y, dt, *parts))

    @given(d=st.integers(2, 6), lead=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           k=st.integers(2, 7), dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_matrix_kernel_flattens_leading_axes(self, d, lead, k, dt, seed):
        """Matrices (a, b, d, k) with one increment per matrix equal one call
        per matrix, bit for bit: every flattened row keeps its own matrix's
        increment and gauge factors.  Each call has k >= 2 rows, so both sides
        are matrix products."""
        rng = np.random.default_rng(seed)
        parts = kernel_parts(random_model(rng, d, bool(rng.integers(2))))
        matrices = rng.uniform(0.01, 1.0, size=lead + (d, k))
        d_y = rng.normal(0.0, 0.1, size=lead)
        expected = [[propagate_cell_matrix(matrices[i, j], d_y[i, j], dt, *parts)
                     for j in range(lead[1])] for i in range(lead[0])]
        assert np.array_equal(propagate_cell_matrix(matrices, d_y, dt, *parts), np.array(expected))

    @given(d=st.integers(2, 10), form=st.sampled_from(["scalar", "rows"]),
           width=st.integers(1, 7), dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_given_factors_set_the_gauge(self, d, form, width, dt, seed):
        """The factors it is handed are the kernel's only gauge: ``_gauge_factors``
        built for another increment give that increment's einsum step."""
        rng = np.random.default_rng(seed)
        s_diag, t_off, levels = parts = kernel_parts(random_model(rng, d, bool(rng.integers(2))))
        values = rng.uniform(0.01, 1.0, size=(d,) if form == "scalar" else (width, d))
        d_y = float(rng.normal(0.0, 0.1)) if form == "scalar" else rng.normal(0.0, 0.1, size=width)
        other = d_y + 0.5
        given = propagate_cell(values, dt, t_off, _gauge_factors(other, dt, s_diag, levels))
        assert_relative(given, einsum_cell(values, other, dt, *parts))
        assert not np.array_equal(given, gauge_cell(values, d_y, dt, *parts))

    @given(d=st.integers(2, 10), form=st.sampled_from(["vector", "rows", "signed"]),
           width=st.integers(1, 7), dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_one_factor_stages_are_the_two_factor_step(self, d, form, width, dt, seed):
        """With g = exp(-c dt / 2) the two-factor stages of ``einsum_cell`` are
        k2 = p2 / g, k3 = p3 / g and k4 = p4 / g**2, so the kernel's step is the
        two-factor step in exact arithmetic; in doubles the two agree within a few ulps.
        On vectors and rows, entry by entry; on the signed rates of
        ``zakai_flow_inverse``'s drift, whose sums cancel, against each row's
        largest entry."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, bool(rng.integers(2)))
        if form == "signed":
            levels = model.observation.levels
            drift = np.diag(levels**2) - model.generator.entries
            parts = (*split_rate_matrix(drift.T), -levels)
            values = rng.uniform(-1.0, 1.0, size=(width, d))
        else:
            parts = kernel_parts(model)
            values = rng.uniform(0.01, 1.0, size=(d,) if form == "vector" else (width, d))
        d_y = rng.normal(0.0, math.sqrt(dt), size=values.shape[:-1])
        got = gauge_cell(values, d_y, dt, *parts)
        want = einsum_cell(values, d_y, dt, *parts)
        scale = np.abs(want).max(axis=-1, keepdims=True) if form == "signed" else np.abs(want)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2e-15 * scale)

    @given(d=st.integers(2, 10), n_filters=st.integers(1, 4), width=st.integers(1, 6),
           n=st.sampled_from([0, 1, 2, 37]), dt=st.sampled_from([1e-3, 1e-2]),
           mixing=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_lockstep_matches_separate_loops(self, d, n_filters, width, n, dt, mixing, seed):
        """Each filter with its own generator, levels and initial law, against
        its own einsum loop; nodes yielded earlier do not change as the stack
        advances."""
        rng = np.random.default_rng(seed)
        models = [random_model(rng, d, mixing[f]) for f in range(n_filters)]
        increments = rng.normal(0.0, math.sqrt(dt), size=(width, n))
        yielded = [(stack, stack.copy()) for stack in
                   lockstep_stacks([(m.initial, m.generator, m.observation) for m in models], increments, dt)]
        assert len(yielded) == n + 1
        for i, model in enumerate(models):
            state = np.broadcast_to(model.initial, (width, d))
            for k, (stack, at_yield) in enumerate(yielded):
                if k > 0:
                    state = einsum_cell(state, increments[:, k - 1], dt, *kernel_parts(model))
                    state = state / state.sum(axis=1, keepdims=True)
                assert stack.shape == (n_filters, width, d)
                assert np.array_equal(stack, at_yield)
                assert np.abs(stack[i] - state).sum(axis=1).max() <= 1e-14


def record_kernel_calls(monkeypatch):
    """Record the arguments of every ``propagate_cell`` call the filters module makes."""
    calls = []
    real = wl.filters.propagate_cell

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wl.filters, "propagate_cell", recorded)
    return calls


def per_cell_lockstep(filters, increments, dt, c_ordered_rates=False, cell=gauge_cell):
    """Reference driver: the block-diagonal stack with its gauge factors
    computed by ``_gauge_factors``, one cell at a time.  Its rate matrix is
    laid out as ``_lockstep`` lays it out, the transpose of C-ordered rows: the
    plain and transposed BLAS kernels round some sums apart, so a comparison of
    the factors' blocking must not change the layout.  ``c_ordered_rates``
    passes ``t_off`` C-ordered instead, which sends BLAS to its transposed kernel.
    ``cell`` takes the cell's step as ``gauge_cell`` does (``einsum_cell``, say)."""
    initials, generators, observations = zip(*filters)
    parts = [split_rate_matrix(g.entries) for g in generators]
    count, d = len(parts), parts[0][0].shape[0]
    s_diag = np.concatenate([p[0] for p in parts])
    rows = [p[1].T for p in parts]
    t_off = np.block([[rows[f] if f == g else np.zeros((d, d)) for g in range(count)]
                      for f in range(count)]).T
    if c_ordered_rates:
        t_off = np.ascontiguousarray(t_off)
    levels = np.concatenate([o.levels for o in observations])
    block_ones = np.kron(np.eye(count), np.ones((d, d)))
    states = np.tile(np.concatenate(initials).astype(float), (increments.shape[0], 1))
    yield states
    for k in range(increments.shape[1]):
        states = cell(states, increments[:, k], dt, s_diag, t_off, levels)
        states /= states @ block_ones
        yield states


def stacked_models(models, increments, dt):
    """Reference driver: each model its own ``(m, d)`` rows, one gauge kernel
    call per model per cell, stacked to ``(F, m, d)`` at every node."""
    parts = [kernel_parts(model) for model in models]
    states = [np.tile(np.asarray(model.initial, dtype=float), (increments.shape[0], 1))
              for model in models]
    yield np.stack(states)
    for k in range(increments.shape[1]):
        states = [gauge_cell(state, increments[:, k], dt, *p) for state, p in zip(states, parts)]
        states = [state / state.sum(axis=1, keepdims=True) for state in states]
        yield np.stack(states)


class TestBlockDiagonalStack:
    """``_lockstep`` advances F filters as one model with F * d states."""

    # Empty, one cell, one short block, one full block, a block and one cell,
    # two full blocks and one cell, and many blocks.
    @pytest.mark.parametrize("n", [0, 1, _GAUGE_BLOCK - 1, _GAUGE_BLOCK, _GAUGE_BLOCK + 1,
                                   2 * _GAUGE_BLOCK + 1, 1000])
    @pytest.mark.parametrize("width", [1, 2, 5, 200])
    @given(d=st.integers(2, 10), n_filters=st.integers(1, 4), dt=st.sampled_from([1e-3, 1e-2]),
           mixing=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=3)
    def test_blocked_factors_match_per_cell_loop(self, width, n, d, n_filters, dt, mixing, seed):
        """Gauge factors computed per block of cells give the per-cell loop,
        bit for bit, at every node.  The nodes come as node 0 alone, then one
        block of nodes per block of ``_GAUGE_BLOCK`` cells, the last one short."""
        rng = np.random.default_rng(seed)
        models = [random_model(rng, d, mixing[f]) for f in range(n_filters)]
        filters = [(m.initial, m.generator, m.observation) for m in models]
        increments = rng.normal(0.0, math.sqrt(dt), size=(width, n))
        reference = per_cell_lockstep(filters, increments, dt)
        sizes = []
        for block in _lockstep(filters, increments, dt):
            assert block.shape[1:] == (width, n_filters * d)
            sizes.append(len(block))
            for got in block:
                assert np.array_equal(got, next(reference))
        assert next(reference, None) is None
        assert sizes == [1] + [min(_GAUGE_BLOCK, n - lo) for lo in range(0, n, _GAUGE_BLOCK)]

    def test_each_cell_gets_contiguous_factors(self, monkeypatch):
        """One kernel call per cell, each given its own (m, F * d) gauge factor
        slice, C-ordered and bit for bit the factor ``_gauge_factors`` gives for
        the cell's increments, and the block-diagonal rate rows ``t_off.T``
        C-ordered.  A block's calls are checked as its nodes are yielded,
        before the next block overwrites the factor buffer."""
        rng = np.random.default_rng(5)
        models = [random_model(rng, 3, f % 2 == 0) for f in range(3)]
        s_diag = np.concatenate([split_rate_matrix(m.generator.entries)[0] for m in models])
        levels = np.concatenate([m.observation.levels for m in models])
        width, n = 5, 2 * _GAUGE_BLOCK + 3
        increments = rng.normal(0.0, math.sqrt(1e-3), size=(width, n))
        calls = record_kernel_calls(monkeypatch)
        blocks = _lockstep([(m.initial, m.generator, m.observation) for m in models], increments, 1e-3)
        next(blocks)
        done = 0
        for block in blocks:
            done += len(block)
            assert len(calls) == done
            for k in range(done - len(block), done):
                _, dt, t_off, gauge = calls[k]
                assert dt == 1e-3
                assert t_off.shape == (9, 9) and t_off.T.flags.c_contiguous
                assert gauge.shape == (width, 9) and gauge.flags.c_contiguous
                assert np.array_equal(gauge, _gauge_factors(increments[:, k], 1e-3, s_diag, levels))
        assert done == len(calls) == n

    def test_desk_stack_stays_on_the_two_factor_loop(self, ref_model, perturbed_model):
        """The desk's robustness stack, the reference and the desk model on 200
        paths of the reference model over 2000 cells of 1e-3, against a per-cell
        loop of the two-factor step ``einsum_cell``: the one-factor rounding does not build up
        along a path, and every node stays within 1e-13, inside the 1e-12 contract."""
        filters = [(m.initial, m.generator, m.observation) for m in (ref_model, perturbed_model)]
        increments = wl.simulate_increments_batch(ref_model.initial, ref_model.generator,
                                                  ref_model.observation, wl.TimeGrid(2.0, 1e-3), 2026, 200)
        gaps = [np.abs(got - want).max() for got, want in zip(
            lockstep_nodes(filters, increments, 1e-3),
            per_cell_lockstep(filters, increments, 1e-3, cell=einsum_cell), strict=True)]
        assert len(gaps) == 2001 and max(gaps) <= 1e-13

    @given(d=st.integers(2, 10), n_filters=st.integers(1, 4), width=st.integers(1, 6),
           n=st.sampled_from([0, 1, 37]), dt=st.sampled_from([1e-3, 1e-2]),
           mixing=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_matches_stacked_models(self, d, n_filters, width, n, dt, mixing, seed):
        """The block-diagonal stack against the F models stepped one kernel
        call per model per cell and stacked; nodes yielded earlier do not
        change as the driver advances."""
        rng = np.random.default_rng(seed)
        models = [random_model(rng, d, mixing[f]) for f in range(n_filters)]
        filters = [(m.initial, m.generator, m.observation) for m in models]
        increments = rng.normal(0.0, math.sqrt(dt), size=(width, n))
        yielded = [(stack, stack.copy()) for stack in lockstep_stacks(filters, increments, dt)]
        reference = list(stacked_models(models, increments, dt))
        assert len(yielded) == len(reference) == n + 1
        for (stack, at_yield), expected in zip(yielded, reference):
            assert stack.shape == (n_filters, width, d)
            assert np.array_equal(stack, at_yield)
            assert np.abs(stack - expected).sum(axis=-1).max() <= 1e-14

    @given(d=st.integers(2, 6), n_filters=st.integers(1, 2), width=st.integers(1, 9),
           n=st.sampled_from([1, 37]), dt=st.sampled_from([1e-3, 4e-3]),
           mixing=st.lists(st.booleans(), min_size=2, max_size=2), seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_rows_do_not_depend_on_batch_width(self, d, n_filters, width, n, dt, mixing, seed):
        """The first m rows of a 2m-path stack equal an m-path run at every
        node: bit for bit for m >= 2, where both are matrix products.  One row
        alone goes to a matrix-vector routine, which rounds the same sums
        apart by at most an ulp."""
        rng = np.random.default_rng(seed)
        models = [random_model(rng, d, mixing[f]) for f in range(n_filters)]
        filters = [(m.initial, m.generator, m.observation) for m in models]
        increments = rng.normal(0.0, math.sqrt(dt), size=(2 * width, n))
        wide = lockstep_nodes(filters, increments, dt)
        narrow = lockstep_nodes(filters, increments[:width].copy(), dt)
        for both, first in zip(wide, narrow, strict=True):
            if width >= 2:
                assert np.array_equal(both[:width], first)
            else:
                assert np.abs(both[:width] - first).max() <= 2.3e-16


class TestNonMixingUnderflow:
    """With no rate into a state, that state's weight leaves the double range.

    The gauge routes keep every weight nonnegative, and strictly positive
    wherever the true weight is a normal double; a weight below the double
    range is 0.0, and a restart from such a law is rejected.
    """

    def test_weight_without_inflow_underflows_to_zero(self, observe):
        model = wl.FilterModel.from_raw(
            [0.4, 0.3, 0.3],
            [[-3.0, 1.5, 1.5], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]],
            [0.0, 1.0, -1.0],
        )
        obs = observe(model, 400.0, 1e-2, 7)
        gen, obs_map = model.generator, model.observation
        traj = wl.filter_trajectory(model.initial, gen, obs_map, obs)
        values = traj.values
        assert np.all(values >= 0.0) and np.all(np.isfinite(traj.log_scale))
        assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(values[:, 1:] > 0.0)
        zeros = np.flatnonzero(values[:, 0] == 0.0)
        assert np.array_equal(zeros, np.arange(23_933, values.shape[0]))
        with pytest.raises(wl.NonPositiveEntryError):
            wl.gauge_filter(values[-1], 399.0, 400.0, obs, gen, obs_map)


# -- one-path routes on the scan, the suffix scan and the batched Euler step ----

ROUTE_LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2000]


def same_observation_model(rng, model, mixing):
    """Random model on the state space of ``model`` with its observation levels."""
    other = random_model(rng, model.d, mixing)
    return wl.FilterModel(initial=other.initial, generator=other.generator,
                          observation=model.observation)


def backward_flows(maps):
    """Reference endpoint flows: products from every node to the last, one cell
    at a time from the end, renormalized at every cell."""
    lead, n, d = maps.shape[:-3], maps.shape[-3], maps.shape[-1]
    out = np.empty(lead + (n + 1, d, d))
    current = np.broadcast_to(np.eye(d), lead + (d, d)).copy()
    out[..., n, :, :] = current
    for k in range(n - 1, -1, -1):
        current = current @ maps[..., k, :, :]
        current = current / current.sum(axis=(-1, -2), keepdims=True)
        out[..., k, :, :] = current
    return out


def loop_euler_batch(initial, increments, dt, generator, observation):
    """Reference batch Euler route: the hand-written loop the batched step replaced."""
    lam = generator.entries
    levels = observation.levels
    m = increments.shape[0]
    pi = np.broadcast_to(np.asarray(initial, dtype=float), (m, lam.shape[0])).copy()
    for k in range(increments.shape[1]):
        drift = pi @ lam
        gain = levels[None, :] - (pi @ levels)[:, None]
        pi = pi + drift * dt + pi * gain * (increments[:, k, None] - (pi @ levels)[:, None] * dt)
        pi = np.clip(pi, wl.filters.EULER_FLOOR, None)
        pi /= pi.sum(axis=1, keepdims=True)
    return pi


class TestOnePathRoutes:
    @pytest.mark.parametrize("n", ROUTE_LENGTHS)
    @given(model=scan_models(), mixing=st.booleans(), dt=st.sampled_from([1e-3, 1e-2]),
           seed=st.integers(0, 999))
    @SCAN_SETTINGS
    def test_one_path_trajectories_match_lockstep(self, model, mixing, n, dt, seed):
        other = random_model(np.random.default_rng(seed), model.d, mixing)
        filters = [(m.initial, m.generator, m.observation) for m in (model, other)]
        inc = simulated_obs(model, max(1, n), dt, seed).increments[:n]
        values = np.stack([_scan_nodes(mu, inc, dt, g, o)[0] for mu, g, o in filters])
        reference = np.stack(list(lockstep_stacks(filters, inc[None], dt)), axis=2)[:, 0]
        assert values.shape == reference.shape == (2, n + 1, model.d)
        assert np.abs(values - reference).sum(axis=-1).max() <= 1e-12
        assert np.all(values[reference >= np.finfo(float).tiny] > 0.0)

    @pytest.mark.parametrize("n", ROUTE_LENGTHS)
    @given(model=scan_models(), width=st.sampled_from([None, 1, 3]),
           dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 999))
    @SCAN_SETTINGS
    def test_endpoint_flows_match_backward_loop(self, model, width, n, dt, seed):
        """Unbatched maps (n, d, d), one path (1, n, d, d) and a small batch."""
        rng = np.random.default_rng(seed)
        shape = (n,) if width is None else (width, n)
        increments = rng.normal(0.0, math.sqrt(dt), size=shape)
        maps = cell_propagators(increments, dt, model.generator, model.observation)
        flows = _endpoint_flows(maps)
        reference = backward_flows(maps)
        assert flows.shape == reference.shape == shape[:-1] + (n + 1, model.d, model.d)
        assert np.array_equal(flows[..., n, :, :], reference[..., n, :, :])
        assert np.abs(flows - reference).sum(axis=(-2, -1)).max() <= 1e-12

    @given(d=st.integers(2, 6), width=st.integers(2, 9), split=st.integers(2, 4),
           dt=st.sampled_from([1e-3, 4e-3]), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_batched_euler_step_is_row_by_row(self, d, width, split, dt, seed):
        """Rows step independently: a batch equals the same rows stepped in
        sub-batches, bit for bit.  A single row passed alone goes to different
        BLAS routines (dot and gemv instead of gemv and gemm), which round the
        same sums apart by at most an ulp."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, bool(rng.integers(2)))
        pi = rng.dirichlet(np.ones(d), size=width)
        d_y = rng.normal(0.0, math.sqrt(dt), size=width)
        args = (dt, model.generator, model.observation)
        batch = wl.wonham_step(pi, d_y, *args)
        chunks = [wl.wonham_step(pi[lo:lo + split], d_y[lo:lo + split], *args)
                  for lo in range(0, width - split - 1, split)]
        lo = len(chunks) * split
        chunks.append(wl.wonham_step(pi[lo:], d_y[lo:], *args))
        assert np.array_equal(batch, np.concatenate(chunks))
        rows = np.array([wl.wonham_step(p, y, *args) for p, y in zip(pi, d_y)])
        assert np.abs(rows - batch).max() <= 2.3e-16

    @given(d=st.integers(2, 6), width=st.integers(1, 6), n=st.sampled_from([0, 1, 2, 37]),
           dt=st.sampled_from([1e-3, 4e-3]), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_euler_batch_matches_hand_written_loop(self, d, width, n, dt, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, bool(rng.integers(2)))
        increments = rng.normal(0.0, math.sqrt(dt), size=(width, n))
        args = (model.initial, increments, dt, model.generator, model.observation)
        assert np.array_equal(_euler_batch_values(*args), loop_euler_batch(*args))

    @given(model=scan_models(), mixing=st.booleans(), dt=st.sampled_from([1e-3, 1e-2]),
           seed=st.integers(0, 999))
    @SCAN_SETTINGS
    def test_inequality_and_representation_at_zero_and_one_cell(self, model, mixing, dt, seed):
        """At t = 0 both sides of the inequality are the initial gap and the
        representation residual is 0.0.  After one cell both checks equal a
        computation from one kernel step per filter and the two-node trapezoid."""
        rng = np.random.default_rng(seed)
        approx = same_observation_model(rng, model, mixing)
        pair = wl.ModelPair(true_model=model, approx_model=approx)
        obs = simulated_obs(model, 1, dt, seed)
        gap = float(np.abs(model.initial - approx.initial).sum())

        lhs, rhs = wl.robustness_inequality(0.0, obs, pair)
        assert lhs == rhs == pytest.approx(gap, rel=1e-15)
        assert wl.error_representation_check(0.0, obs, pair) == 0.0

        def step(m, start):
            out = gauge_cell(np.asarray(start, dtype=float), obs.increments[0], dt, *kernel_parts(m))
            return out / out.sum()

        truth_1 = step(model, model.initial)
        mu_1, nu_1 = step(approx, approx.initial), step(approx, model.initial)
        eye = np.eye(model.d)
        approx_map = cell_propagators(obs.increments[:1], dt, approx.generator, approx.observation)[0]
        delta = model.generator.drift_transpose - approx.generator.drift_transpose
        integrand = [
            float(derivative_opnorm_from_flow(flow / flow.sum(), pi)) * np.abs(delta @ pi).sum()
            for flow, pi in ((approx_map, model.initial), (eye, truth_1))
        ]
        lhs, rhs = wl.robustness_inequality(dt, obs, pair)
        assert lhs == pytest.approx(np.abs(truth_1 - mu_1).sum(), rel=1e-12, abs=1e-15)
        expected = np.abs(nu_1 - mu_1).sum() + 0.5 * dt * sum(integrand)
        assert rhs == pytest.approx(expected, rel=1e-12, abs=1e-15)

        breve_1, restarted_1 = mu_1, step(model, approx.initial)
        truth_map = cell_propagators(obs.increments[:1], dt, model.generator, model.observation)[0]
        drift_gap = approx.generator.drift_transpose - model.generator.drift_transpose
        parts = [derivative_from_flow(flow / flow.sum(), pi, drift_gap @ pi)
                 for flow, pi in ((truth_map, approx.initial), (eye, breve_1))]
        residual = np.abs(breve_1 - restarted_1 - 0.5 * dt * (parts[0] + parts[1])).sum()
        assert wl.error_representation_check(dt, obs, pair) == pytest.approx(residual, rel=1e-9,
                                                                             abs=1e-15)


# -- the flow loop of the derivative audit and the inverse propagator -----------

def per_cell_flow_loop(matrices, increments, dt, s_diag, t_off, levels):
    """Reference recursion with the flow loop's per-cell body: one
    ``propagate_cell_matrix`` call per cell, then each matrix divided by its
    absolute mass, the log masses summed in order."""
    log_mass = np.zeros(increments.shape[:-1])
    for k in range(increments.shape[-1]):
        matrices = propagate_cell_matrix(matrices, increments[..., k], dt, s_diag, t_off, levels)
        mass = np.abs(matrices).sum(axis=(-2, -1))
        matrices /= mass[..., None, None]
        log_mass += np.log(mass)
    return matrices, log_mass


def inverse_parts(model):
    """Kernel parts of the transposed inverse equation, as ``zakai_flow_inverse`` forms them."""
    levels = model.observation.levels
    drift = np.diag(levels**2) - model.generator.entries
    s_diag = np.diag(drift).copy()
    t_rows = drift.T.copy()
    np.fill_diagonal(t_rows, 0.0)
    return s_diag, t_rows.T, -levels


class TestFlowLoop:
    """One loop advances the audit's batch of nonnegative flows and the signed
    inverse propagator, bit for bit as one ``propagate_cell_matrix`` call per
    cell did (``per_cell_flow_loop``)."""

    @given(model=scan_models(), width=st.integers(2, 6), n=st.integers(0, 60),
           dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_nonnegative_batch_matches_audit_loop(self, model, width, n, dt, seed):
        increments = np.random.default_rng(seed).normal(0.0, math.sqrt(dt), size=(width, n))
        parts = kernel_parts(model)
        start = np.broadcast_to(np.eye(model.d), (width, model.d, model.d))
        flows, logs = _flow_loop(start, increments, dt, *parts)
        ref_flows, ref_logs = per_cell_flow_loop(start, increments, dt, *parts)
        assert np.array_equal(flows, ref_flows) and np.array_equal(logs, ref_logs)

    @given(model=scan_models(), n=st.integers(1, 60), dt=st.sampled_from([1e-3, 1e-2]),
           seed=st.integers(0, 2**32 - 1))
    @KERNEL_SETTINGS
    def test_signed_path_matches_inverse_loop(self, model, n, dt, seed):
        increments = np.random.default_rng(seed).normal(0.0, math.sqrt(dt), size=n)
        parts = inverse_parts(model)
        z, log_scale = _flow_loop(np.eye(model.d), increments, dt, *parts)
        ref_z, ref_log = per_cell_flow_loop(np.eye(model.d), increments, dt, *parts)
        assert np.array_equal(z, ref_z) and np.array_equal(log_scale, ref_log)
        # the public route is the loop, transposed
        obs = wl.ObservationPath(increments=increments, grid=wl.TimeGrid(n * dt, dt))
        inverse, log_inv = wl.zakai_flow_inverse(0.0, n * dt, obs, model.generator, model.observation)
        assert np.array_equal(inverse, ref_z.T) and log_inv == ref_log

    @pytest.mark.parametrize("s", [0.0, 0.05, 0.1])
    def test_inverse_over_no_cells_is_writable_identity(self, s):
        """Over [s, s] the inverse propagator is the identity with log scale 0,
        and the caller owns it: it is not a view of the loop's start."""
        model = wl.FilterModel.from_raw([0.5, 0.5], [[-1.0, 1.0], [2.0, -2.0]], [0.0, 1.0])
        obs = wl.ObservationPath(increments=np.full(100, 0.03), grid=wl.TimeGrid(0.1, 1e-3))
        inverse, log_scale = wl.zakai_flow_inverse(s, s, obs, model.generator, model.observation)
        assert np.array_equal(inverse, np.eye(2)) and log_scale == 0.0
        inverse[0, 1] = 3.0
        assert inverse[0, 1] == 3.0

    # Empty, one cell, a short block, one full block, a block and one cell,
    # two full blocks and one cell, and many blocks of gauge factors.
    @pytest.mark.parametrize("n", [0, 1, _GAUGE_BLOCK - 1, _GAUGE_BLOCK, _GAUGE_BLOCK + 1,
                                   2 * _GAUGE_BLOCK + 1, 1000])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    @given(d=st.integers(2, 10), signed=st.booleans(), dt=st.sampled_from([1e-3, 1e-2]),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=3)
    def test_matches_per_cell_matrix_loop(self, n, lead, d, signed, dt, seed):
        """Bit for bit, matrices and log masses, as one ``propagate_cell_matrix``
        call per cell, from nonnegative starts under the forward drift or the
        inverse propagator's signed drift; the start is left as it was."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, d, bool(rng.integers(2)))
        parts = inverse_parts(model) if signed else kernel_parts(model)
        start = rng.uniform(0.0, 1.0, size=lead + (d, d))
        before = start.copy()
        increments = rng.normal(0.0, math.sqrt(dt), size=lead + (n,))
        flows, logs = _flow_loop(start, increments, dt, *parts)
        ref_flows, ref_logs = per_cell_flow_loop(start.copy(), increments, dt, *parts)
        assert flows.shape == start.shape and logs.shape == lead
        assert np.all(np.isfinite(flows)) and flows.flags.writeable
        assert np.array_equal(flows, ref_flows) and np.array_equal(logs, ref_logs)
        assert np.array_equal(start, before)


class TestCellFactors:
    """The batch loops' gauge factors, a block of cells at a time, with the
    (row, state) pairs on the innermost axis."""

    @pytest.mark.parametrize("n", range(1, _GAUGE_BLOCK + 1))
    @pytest.mark.parametrize("width", [1, 200])
    @given(states=st.integers(1, 40), dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=3)
    def test_block_matches_gauge_factors(self, n, width, states, dt, seed):
        """One block, a (b, w, D) array of gauge factors: each cell's factor as
        ``_gauge_factors`` gives it for that cell alone, bit for bit, each a
        C-ordered (w, D) array."""
        rng = np.random.default_rng(seed)
        s_diag = -rng.uniform(0.0, 5.0, size=states)
        levels = rng.uniform(-2.0, 2.0, size=states)
        increments = rng.normal(0.0, math.sqrt(dt), size=(width, n))
        [block] = _cell_factors(increments, dt, s_diag, levels)
        assert block.shape == (n, width, states)
        for k, got in enumerate(block):
            assert got.shape == (width, states) and got.flags.c_contiguous
            assert np.array_equal(got, _gauge_factors(increments[:, k], dt, s_diag, levels))

    def test_broadcast_rows_over_several_blocks(self):
        """The flow loop's layout: each matrix's increments repeated over its
        k rows by a broadcast view, rows in C order of the leading axes."""
        rng = np.random.default_rng(3)
        matrices, k, n, states = 5, 3, 2 * _GAUGE_BLOCK + 5, 3
        s_diag, levels = -rng.uniform(0.0, 5.0, size=states), rng.uniform(-2.0, 2.0, size=states)
        per_row = np.broadcast_to(rng.normal(0.0, 0.03, size=(matrices, 1, n)), (matrices, k, n))
        j = 0
        for gauges in _cell_factors(per_row, 1e-3, s_diag, levels):
            assert len(gauges) == min(_GAUGE_BLOCK, n - j)
            for gauge in gauges:
                assert np.array_equal(gauge, _gauge_factors(per_row[..., j].ravel(), 1e-3, s_diag, levels))
                j += 1
        assert j == n

    @pytest.mark.parametrize("value", [1e3, -1e3, math.nan])
    def test_out_of_range_cell_raises_before_the_first_block(self, value):
        """One cell of the last block whose exponent c dt leaves the double
        range of exp (about 1e3 here), or is NaN, fails the loop at once."""
        increments = np.zeros((3, 4 * _GAUGE_BLOCK))
        increments[2, -1] = value
        with pytest.raises(wl.StateCollapseError, match="double range"):
            next(_cell_factors(increments, 1e-3, np.array([-1.0, -1.0]), np.array([0.0, 1.0])))

    @given(bound=st.floats(200.0, 600.0), seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_range_check_is_the_per_cell_check(self, bound, seed):
        """The loop checks its extreme increments only; it raises exactly when
        ``_gauge_factors`` raises for one of its cells alone."""
        rng = np.random.default_rng(seed)
        # levels of one sign, so that only one end of the increments can overflow
        s_diag = -rng.uniform(0.0, 5.0, size=3)
        levels = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0, size=3)
        increments = rng.uniform(-bound, bound, size=(4, 2 * _GAUGE_BLOCK))

        def raises(fn):
            try:
                fn()
            except wl.StateCollapseError:
                return True
            return False

        per_cell = any(raises(lambda: _gauge_factors(increments[:, k], 1e-3, s_diag, levels))
                       for k in range(increments.shape[1]))
        assert raises(lambda: list(_cell_factors(increments, 1e-3, s_diag, levels))) == per_cell


class TestRateLayout:
    """Every kernel call gets its rate rows ``t_off.T`` C-ordered, so BLAS runs
    its plain matrix kernel.  A C-ordered ``t_off`` sends it to the transposed
    kernel instead, which rounds some sums apart; over thousands of cells the
    two layouts stay well inside the 1e-12 contract at every node."""

    CELLS = 3000

    @pytest.mark.parametrize("route", ["audit", "inverse", "propagators", "lockstep"])
    def test_kernel_gets_contiguous_rate_rows(self, monkeypatch, three_state_model, route):
        """The flow loop, for the derivative audit's batch and for the inverse
        propagator, the per-cell maps of the prefix scan, and the lockstep
        stack's block-diagonal rates."""
        model = three_state_model
        increments = np.random.default_rng(9).normal(0.0, math.sqrt(1e-3), size=40)
        calls = record_kernel_calls(monkeypatch)
        states = 6 if route == "lockstep" else 3
        if route == "lockstep":
            other = wl.FilterModel.from_raw([0.5, 0.25, 0.25], 2.0 * model.generator.entries,
                                            model.observation.levels)
            filters = [(m.initial, m.generator, m.observation) for m in (model, other)]
            list(_lockstep(filters, np.stack([increments, -increments]), 1e-3))
            # each model's rates off the diagonal in its block, exact zeros elsewhere
            t_rows = calls[0][2].T
            assert np.array_equal(t_rows[:3, :3], split_rate_matrix(model.generator.entries)[1].T)
            assert np.array_equal(t_rows[3:, 3:], split_rate_matrix(other.generator.entries)[1].T)
            assert np.count_nonzero(t_rows) == 12
        elif route == "audit":
            pair = wl.ModelPair(true_model=model, approx_model=model)
            wl.run_derivative_audit(wl.ExperimentSpec(pair=pair, grid=wl.TimeGrid(0.04, 1e-3), n_trials=100,
                                                      master_seed=1, checkpoints=(0.0, 0.04)))
        elif route == "inverse":
            obs = wl.ObservationPath(increments=increments, grid=wl.TimeGrid(0.04, 1e-3))
            wl.zakai_flow_inverse(0.0, 0.04, obs, model.generator, model.observation)
        else:
            cell_propagators(increments, 1e-3, model.generator, model.observation)
        assert calls
        for args in calls:
            assert args[2].shape == (states, states) and args[2].T.flags.c_contiguous

    @pytest.mark.parametrize("d, n_filters, width", [(10, 2, 200), (3, 1, 1)])
    def test_lockstep_layouts_agree(self, d, n_filters, width):
        rng = np.random.default_rng(d)
        models = [random_model(rng, d, True) for _ in range(n_filters)]
        filters = [(m.initial, m.generator, m.observation) for m in models]
        increments = rng.normal(0.0, math.sqrt(1e-3), size=(width, self.CELLS))
        gaps = [np.abs(new - old).max() for new, old in zip(
            lockstep_nodes(filters, increments, 1e-3),
            per_cell_lockstep(filters, increments, 1e-3, c_ordered_rates=True), strict=True)]
        assert len(gaps) == self.CELLS + 1 and np.max(gaps) <= 1e-13

    @pytest.mark.parametrize("d, lead, k", [(20, (10,), 20), (3, (), 1)])
    def test_flow_loop_layouts_agree(self, d, lead, k):
        """Matrices advanced one cell per loop call, so every node is compared;
        the chained calls give the one call over all cells, bit for bit."""
        rng = np.random.default_rng(d)
        s_diag, t_off, levels = kernel_parts(random_model(rng, d, True))
        c_ordered = np.ascontiguousarray(t_off)
        start = rng.uniform(0.01, 1.0, size=lead + (d, k))
        increments = rng.normal(0.0, math.sqrt(1e-3), size=lead + (self.CELLS,))
        new = old = start
        gap = 0.0
        for j in range(self.CELLS):
            cell = increments[..., j:j + 1]
            new, _ = _flow_loop(new, cell, 1e-3, s_diag, t_off, levels)
            old, _ = _flow_loop(old, cell, 1e-3, s_diag, c_ordered, levels)
            gap = np.maximum(gap, np.abs(new - old).max())
        assert gap <= 1e-13
        assert np.array_equal(new, _flow_loop(start, increments, 1e-3, s_diag, t_off, levels)[0])
