"""Edge contract of the public one-path routes.

At the edges (up to ten states, an initial weight of 1e-300, rate matrices
that do not mix, paths of up to about 2000 cells) every route either returns
finite values, nonnegative where they are weights, or raises a typed
``WonhamLabError``.  Every route that takes loose model parts raises
``DimensionMismatchError`` when their sizes disagree or a state index is not a
state of the model, and refining a grid needs a whole factor >= 1.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import wonhamlab as wl

TINY_WEIGHT = 1e-300


def edge_model(rng, d, levels=None):
    """A model of d states whose rates do not mix: about half of them zero, no
    rate into one state, and maybe no rate out of another.  One initial weight
    is 1e-300."""
    rates = rng.uniform(0.2, 3.0, size=(d, d)) * (rng.random((d, d)) < 0.5)
    rates[:, rng.integers(d)] = 0.0
    if rng.random() < 0.5:
        rates[rng.integers(d)] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    initial = rng.dirichlet(np.ones(d))
    initial[rng.integers(d)] = TINY_WEIGHT
    if levels is None:
        levels = rng.uniform(-2.0, 2.0, size=d)
    return wl.FilterModel.from_raw(initial / initial.sum(), rates, levels)


def weights(value):
    return np.all(np.isfinite(value)) and np.all(np.asarray(value) >= 0.0)


def finite(value):
    return np.all(np.isfinite(value))


def routes(model, pair, obs, v):
    """(name, call, check) for every public route on one path."""
    t = obs.grid.t_end
    s = obs.grid.dt * (obs.grid.n_steps // 2)
    gen, levels, mu = model.generator, model.observation, model.initial

    def pair_of(check):
        return lambda out: all(check(x) for x in out)

    return [
        ("filter_trajectory", lambda: wl.filter_trajectory(mu, gen, levels, obs),
         lambda out: weights(out.values) and finite(out.log_scale)),
        ("gauge_filter", lambda: wl.gauge_filter(mu, s, t, obs, gen, levels),
         lambda out: weights(out[0]) and finite(out[1])),
        ("filter_semiflow", lambda: wl.filter_semiflow(mu, 0.0, t, obs, gen, levels), weights),
        ("zakai_flow", lambda: wl.zakai_flow(0.0, t, obs, gen, levels),
         lambda out: weights(out.entries) and finite(out.log_scale)),
        ("zakai_flow_inverse", lambda: wl.zakai_flow_inverse(0.0, t, obs, gen, levels),
         pair_of(finite)),
        ("euler_filter_trajectory", lambda: wl.euler_filter_trajectory(mu, gen, levels, obs), weights),
        ("projected_filter_trajectory", lambda: wl.projected_filter_trajectory(mu, gen, levels, obs),
         weights),
        ("derivative_flow", lambda: wl.derivative_flow(mu, v, 0.0, t, obs, gen, levels), finite),
        ("second_derivative_flow", lambda: wl.second_derivative_flow(mu, v, s, t, obs, gen, levels),
         finite),
        ("derivative_smoothing_route",
         lambda: wl.derivative_smoothing_route(mu, v, t, obs, gen, levels), finite),
        ("smoothing_matrix", lambda: wl.smoothing_matrix(t, obs, mu, gen, levels), weights),
        ("tilted_filter", lambda: wl.tilted_filter(pair.approx_model.initial, t, obs, mu, gen, levels),
         weights),
        ("robustness_inequality", lambda: wl.robustness_inequality(t, obs, pair), pair_of(weights)),
        ("error_representation_check", lambda: wl.error_representation_check(t, obs, pair), weights),
        ("measure_integrator_tolerance",
         lambda: wl.measure_integrator_tolerance(model, obs.grid, 7), weights),
    ]


@given(d=st.integers(2, 10), n=st.integers(1, 2000), dt=st.sampled_from([1e-3, 1e-2]),
       seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, deadline=None, max_examples=8)
# A terminal weight underflows to 0.0 here; the smoothing routes must not divide 0 by 0.
@example(d=2, n=822, dt=1e-2, seed=0)
def test_one_path_routes_give_finite_weights_or_a_typed_error(d, n, dt, seed):
    rng = np.random.default_rng(seed)
    model = edge_model(rng, d)
    pair = wl.ModelPair(true_model=model,
                        approx_model=edge_model(rng, d, model.observation.levels))
    grid = wl.TimeGrid(n * dt, dt)
    sig, noise = wl.spawn_generators(seed, 2)
    obs = wl.simulate_observations(wl.simulate_signal(model.initial, model.generator, grid, sig),
                                   model.observation, grid, noise)
    z = rng.standard_normal(d)
    v = (z - z.mean()) / np.abs(z - z.mean()).sum()
    bad = []
    for name, call, check in routes(model, pair, obs, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except wl.WonhamLabError as exc:
                event(f"{name}: {type(exc).__name__}")
                continue
        if not check(out):
            bad.append(name)
    assert not bad, f"non-finite or negative values from {bad} (d={d}, n={n}, dt={dt})"


# Routes that take whole validated models, which cannot disagree on the state count.
WHOLE_MODEL_ROUTES = {"robustness_inequality", "error_representation_check", "measure_integrator_tolerance"}
# Routes that read no start, and the routes that read a direction.
NO_START_ROUTES = {"zakai_flow", "zakai_flow_inverse"}
DIRECTION_ROUTES = {"derivative_flow", "second_derivative_flow", "derivative_smoothing_route"}


@pytest.mark.parametrize("part", ["levels", "start", "direction"])
def test_loose_parts_of_mismatched_sizes_raise_a_typed_error(part):
    """Three-state rates with the levels, start or direction of a two-state
    model: every route of ``routes`` that takes loose parts, and ``wonham_step``,
    raises DimensionMismatchError (not numpy's ValueError) when it reads the
    odd part, and runs otherwise."""
    rng = np.random.default_rng(11)
    model, small = edge_model(rng, 3), edge_model(rng, 2)
    pair = wl.ModelPair(true_model=model, approx_model=edge_model(rng, 3, model.observation.levels))
    grid = wl.TimeGrid(0.05, 1e-3)
    obs = wl.simulate_observations(wl.simulate_signal(model.initial, model.generator, grid, rng),
                                   model.observation, grid, rng)
    loose = SimpleNamespace(initial=model.initial, generator=model.generator, observation=model.observation)
    v = np.array([0.5, -0.25, -0.25])
    if part == "levels":
        loose.observation = small.observation
    elif part == "start":
        loose.initial = small.initial
    else:
        v = np.array([0.5, -0.5])
    loose_routes = [(name, call) for name, call, _ in routes(loose, pair, obs, v)
                    if name not in WHOLE_MODEL_ROUTES]
    loose_routes.append(("wonham_step", lambda: wl.wonham_step(loose.initial, 0.01, grid.dt,
                                                               loose.generator, loose.observation)))
    names = {name for name, _ in loose_routes}
    reading = {"levels": names, "start": names - NO_START_ROUTES, "direction": DIRECTION_ROUTES}[part]
    assert len(names) == 13 and reading <= names
    for name, call in loose_routes:
        if name in reading:
            with pytest.raises(wl.DimensionMismatchError):
                call()
        else:
            call()


def checked_routes(p, grid):
    """(name, call, parts it reads) for the routes that take loose parts but no
    observation path: the three sensitivity bounds, the per-cell maps, the
    simulation and the inverse-moment constants.  ``p`` holds the parts."""
    path = wl.SignalPath(np.array([0.0, 0.01, 0.02]), np.array([0, 2, 1]), grid.t_end)
    return [
        ("derivative_bound", lambda: wl.derivative_bound(p.initial, p.direction, 0.0, 1.0, p.generator),
         {"initial", "direction"}),
        ("lipschitz_bound", lambda: wl.lipschitz_bound(p.initial, p.other, 0.0, 1.0, p.generator),
         {"initial", "other"}),
        ("second_derivative_gap_bound",
         lambda: wl.second_derivative_gap_bound(p.initial, p.direction, p.direction[::-1], 0.0, 1.0,
                                                p.generator),
         {"initial", "direction"}),
        ("cell_propagators",
         lambda: wl.filters.cell_propagators(np.zeros(3), grid.dt, p.generator, p.levels), {"levels"}),
        ("simulate_signal", lambda: wl.simulate_signal(p.initial, p.generator, grid, 1), {"initial"}),
        ("simulate_increments_batch",
         lambda: wl.simulate_increments_batch(p.initial, p.generator, p.levels, grid, 1, 50),
         {"initial", "levels"}),
        ("simulate_observations", lambda: wl.simulate_observations(path, p.levels, grid, 1), {"levels"}),
        ("inverse_moment_constant",
         lambda: wl.inverse_moment_constant(p.initial, p.generator, p.levels), {"initial", "levels"}),
        ("component_inverse_moment_bound",
         lambda: wl.component_inverse_moment_bound(p.initial, p.generator, p.levels, p.state, 2, 1.0),
         {"initial", "levels", "state"}),
    ]


@pytest.mark.parametrize("part, odd", [
    pytest.param("levels", wl.validate_observation([0.0, 1.0]), id="levels"),
    pytest.param("initial", np.array([0.5, 0.5]), id="initial"),
    pytest.param("other", np.array([0.4, 0.6]), id="other"),
    pytest.param("direction", np.array([0.5, -0.5]), id="direction"),
    pytest.param("state", -1, id="state-minus-1"),
    pytest.param("state", 3, id="state-3"),
    pytest.param("state", 1.0, id="state-float"),
])
def test_checked_routes_raise_a_typed_error_on_mismatched_parts(part, odd):
    """Three-state rates with one part of a two-state model, or a state index
    that is not a whole number in 0..2 (Python would wrap -1): each route of
    ``checked_routes`` that reads the odd part raises DimensionMismatchError,
    not numpy's ValueError or IndexError nor a value, and the others run."""
    grid = wl.TimeGrid(0.05, 1e-3)
    p = SimpleNamespace(
        generator=wl.validate_generator([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]]),
        levels=wl.validate_observation([0.0, 1.0, -1.0]), initial=np.array([0.2, 0.3, 0.5]),
        other=np.array([0.3, 0.3, 0.4]), direction=np.array([0.5, -0.25, -0.25]), state=2)
    for _, call, _ in checked_routes(p, grid):
        call()
    setattr(p, part, odd)
    for _, call, reads in checked_routes(p, grid):
        if part in reads:
            with pytest.raises(wl.DimensionMismatchError):
                call()
        else:
            call()


@pytest.mark.parametrize("factor", [0, 1.5, 2.0, True])
def test_refine_factor_must_be_a_whole_number(factor):
    """Only a whole factor >= 1 gives a grid whose nodes nest in the coarse grid."""
    grid = wl.TimeGrid(1.0, 0.01)
    with pytest.raises(wl.GridMismatchError):
        grid.refined(factor)
    assert grid.refined(1) == grid
    assert grid.refined(np.int64(3)).node(0.01) == 3


@pytest.mark.parametrize("route", ["normalize", "normalize_jacobian", "normalize_second_derivative"])
@pytest.mark.parametrize("x, error", [
    pytest.param([1.0, math.nan], wl.NonPositiveEntryError, id="nan"),
    pytest.param([1.0, math.inf], wl.NonPositiveEntryError, id="inf"),
    pytest.param([1.0, 0.0], wl.NonPositiveEntryError, id="zero"),
    pytest.param([1.0, -0.5], wl.NonPositiveEntryError, id="negative"),
    pytest.param([[1.0, 2.0]], wl.DimensionMismatchError, id="row"),
    pytest.param(2.0, wl.DimensionMismatchError, id="scalar"),
    pytest.param([], wl.DimensionMismatchError, id="empty"),
])
def test_simplex_projection_and_its_derivatives_check_their_point(route, x, error):
    """The projection and its two derivatives take a flat nonempty vector of
    strictly positive finite entries: anything else is a typed error, not a NaN
    result, a numpy warning, a (2, 1) matrix for the row [[1, 2]], a (0, 0)
    matrix or numpy's ValueError for the empty vector."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            getattr(wl, route)(x)


def test_flows_of_different_sizes_raise_a_typed_error():
    """Composing a two-state and a three-state flow, or applying a flow to a
    vector without one entry per state, is a DimensionMismatchError, not
    numpy's ValueError."""
    two = wl.FlowMatrix(entries=np.full((2, 2), 0.25), log_scale=0.0, s=0.0, t=1.0)
    three = wl.FlowMatrix(entries=np.full((3, 3), 1.0 / 9.0), log_scale=0.0, s=1.0, t=2.0)
    assert wl.compose_flows(two, wl.FlowMatrix(two.entries, 0.0, -1.0, 0.0)).d == 2
    assert two.apply([0.5, 0.5]).shape == (2,)
    for call in (lambda: wl.compose_flows(three, two), lambda: two.apply([0.2, 0.3, 0.5]),
                 lambda: two.apply([[0.5, 0.5]]), lambda: two.apply(0.5)):
        with pytest.raises(wl.DimensionMismatchError):
            call()


@pytest.mark.parametrize("log_scale", [800.0, -800.0, math.nan])
def test_dense_flow_outside_the_double_range_is_a_typed_error(log_scale):
    """exp(log_scale) overflows above the double range and is 0 or subnormal
    below it: ``dense`` raises StateCollapseError, not Python's OverflowError
    nor a zero matrix, and points to ``entries`` and ``log_scale``."""
    flow = wl.FlowMatrix(entries=np.full((2, 2), 0.25), log_scale=log_scale, s=0.0, t=1.0)
    with pytest.raises(wl.StateCollapseError, match="entries and log_scale"):
        flow.dense()
    inside = wl.FlowMatrix(flow.entries, math.copysign(700.0, log_scale), 0.0, 1.0).dense()
    assert np.all(np.isfinite(inside)) and np.all(inside > 0.0)


def test_dense_flow_of_a_long_spiky_path_is_a_typed_error():
    """Levels 0 and 100 over [0, 10] give a propagator of log scale about 15126."""
    model = wl.FilterModel.from_raw([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 100.0])
    grid = wl.TimeGrid(10.0, 1e-3)
    sig, noise = wl.spawn_generators(3, 2)
    obs = wl.simulate_observations(wl.simulate_signal(model.initial, model.generator, grid, sig),
                                   model.observation, grid, noise)
    flow = wl.zakai_flow(0.0, 10.0, obs, model.generator, model.observation)
    assert flow.log_scale > 15000.0 and np.all(np.isfinite(flow.entries))
    with pytest.raises(wl.StateCollapseError):
        flow.dense()


@pytest.mark.parametrize("t_end, dt", [("1", 0.1), (1.0, None), (True, 0.5), (1.0, np.True_), ([1.0], 0.5)])
def test_grid_of_non_numbers_is_a_typed_error(t_end, dt):
    """A grid's horizon and step are real numbers, not strings, None or bools."""
    with pytest.raises(wl.GridMismatchError):
        wl.TimeGrid(t_end, dt)
    assert wl.TimeGrid(np.float64(1.0), 0.5).n_steps == wl.TimeGrid(1, 0.5).n_steps == 2


@pytest.mark.parametrize("field, value", [
    ("checkpoints", 5.0), ("checkpoints", ("a",)), ("checkpoints", (0.5, True)), ("checkpoints", None),
    ("sweep_sizes", 0.5), ("sweep_sizes", ("0.5",)), ("sweep_sizes", (False,)),
])
def test_spec_lists_of_non_numbers_are_a_typed_error(ref_model, field, value):
    """Checkpoints and sweep sizes are sequences of real numbers (bools excluded):
    anything else is a ConfigError, not Python's TypeError."""
    pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
    with pytest.raises(wl.ConfigError, match=field):
        wl.ExperimentSpec(pair=pair, grid=wl.TimeGrid(1.0, 1e-3), n_trials=100, master_seed=1,
                          **{field: value})


def test_spec_keeps_a_checkpoint_within_the_node_tolerance_of_the_horizon(ref_model):
    """A checkpoint the grid takes as its last node is kept, not silently dropped."""
    pair = wl.ModelPair(true_model=ref_model, approx_model=ref_model)
    grid = wl.TimeGrid(1.0, 1e-3)
    late = 1.0 + 5e-10
    spec = wl.ExperimentSpec(pair=pair, grid=grid, n_trials=100, master_seed=1, checkpoints=(0.5, late))
    assert spec.checkpoints == (0.5, late) and grid.node(late) == 1000
    far = 1.0 + 2 * wl.simulate.NODE_TOL
    assert wl.ExperimentSpec(pair=pair, grid=grid, n_trials=100, master_seed=1,
                             checkpoints=(0.5, far)).checkpoints == (0.5,)


@pytest.mark.parametrize("time", ["0", None, True, np.True_, [0.5], pytest.param(10**400, id="huge-int")])
def test_a_time_that_is_not_a_real_number_is_a_typed_error(ref_model, time):
    """A grid node is asked for by a finite real number, bools excluded, as the
    grid's own fields: not Python's TypeError or OverflowError, and True is not
    node 100."""
    grid = wl.TimeGrid(1.0, 0.01)
    obs = wl.simulate_observations(wl.simulate_signal(ref_model.initial, ref_model.generator, grid, 1),
                                   ref_model.observation, grid, 2)
    trajectory = wl.filter_trajectory(ref_model.initial, ref_model.generator, ref_model.observation, obs)
    for call in (lambda: grid.node(time), lambda: trajectory.at(time),
                 lambda: wl.zakai_flow(time, 0.5, obs, ref_model.generator, ref_model.observation),
                 lambda: wl.zakai_flow(0.0, time, obs, ref_model.generator, ref_model.observation)):
        with pytest.raises(wl.GridMismatchError, match="not a node"):
            call()
    assert grid.node(np.float64(0.5)) == grid.node(1) // 2 == 50


@pytest.mark.parametrize("validator", [wl.validate_observation, wl.validate_tangent])
def test_an_empty_model_part_is_a_typed_error(validator):
    """Levels and directions have one entry per state, and a model has at least
    one state: the empty vector is a DimensionMismatchError, not an empty part."""
    with pytest.raises(wl.DimensionMismatchError, match="nonempty"):
        validator([])


@pytest.mark.parametrize("increments, got", [
    pytest.param(np.array(0.5), "shape ()", id="0-d"),
    pytest.param([0.0] * 10, "list", id="list"),
    pytest.param(np.zeros((10, 1)), r"shape \(10, 1\)", id="column"),
    pytest.param(np.zeros(9), r"shape \(9,\)", id="short"),
])
def test_observation_increments_of_another_shape_are_a_typed_error(increments, got):
    """An observation path holds a flat array of one increment per cell; anything
    else is a GridMismatchError that states what it got, not an IndexError, an
    AttributeError or "10 increments for 10 cells" for a (10, 1) column."""
    with pytest.raises(wl.GridMismatchError, match=rf"\(10,\).*got {got}"):
        wl.ObservationPath(increments, wl.TimeGrid(0.1, 0.01))


@pytest.mark.parametrize("power, t, error", [
    pytest.param(2, math.nan, wl.GridMismatchError, id="t-nan"),
    pytest.param(2, math.inf, wl.GridMismatchError, id="t-inf"),
    pytest.param(2, -1.0, wl.GridMismatchError, id="t-negative"),
    pytest.param(2, "1", wl.GridMismatchError, id="t-string"),
    pytest.param(-1, 1.0, wl.ConfigError, id="power-negative"),
    pytest.param(0, 1.0, wl.ConfigError, id="power-zero"),
    pytest.param(True, 1.0, wl.ConfigError, id="power-bool"),
    pytest.param(math.nan, 1.0, wl.ConfigError, id="power-nan"),
    pytest.param("2", 1.0, wl.ConfigError, id="power-string"),
    pytest.param(2, 10**400, wl.GridMismatchError, id="t-huge-int"),
    pytest.param(10**400, 1.0, wl.ConfigError, id="power-huge-int"),
])
def test_inverse_moment_bound_outside_its_domain_is_a_typed_error(ref_model, power, t, error):
    """The bound holds for a power > 0 at a finite time >= 0; elsewhere its
    formula is no bound (power -1 gives 0.18 at t = 1, below E[pi_t^0] = 0.5)."""
    parts = (ref_model.initial, ref_model.generator, ref_model.observation, 0)
    with pytest.raises(error):
        wl.component_inverse_moment_bound(*parts, power, t)
    assert wl.component_inverse_moment_bound(*parts, 1.5, 0) == pytest.approx(0.5 ** -1.5)
