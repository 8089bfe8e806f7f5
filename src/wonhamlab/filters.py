"""Filter integrators: the conditional-distribution recursion, its linear
unnormalized propagator, and the gauge-transformed reference integrator.

The reference route rewrites the linear unnormalized equation as a random ODE
with an entrywise-nonnegative coefficient matrix (diagonal gauge change), which
keeps every iterate nonnegative by construction, and strictly positive wherever
the true weight is a normal double (with no rate into a state, its weight can
underflow to 0.0).  Each grid cell is solved with one classical RK4 step,
holding the observation path piecewise linear inside the cell.  There is one
cell kernel, ``propagate_cell``: one RK4 step of one vector (d,) or rows (m, d)
on the gauge factor exp(-c dt / 2) its caller hands it, one per (row, state).
Matrices advance column-wise, as rows: ``propagate_cell_matrix`` flattens their
leading axes per call, for the one-path routes, and ``_flow_loop`` once per batch.

The per-cell maps of the linear equation do not depend on the state, so their
products are associative.  Every recursion along one observation path runs
through one blocked prefix-scan driver: ``filter_trajectory``, ``gauge_filter``,
``zakai_flow``, the step-halving probe, and the trajectories of the robustness
inequality and the error-representation check.  Per block of cells,
``cell_propagators`` gives the block's maps, a Hillis-Steele scan
forms their products rescaled to unit mass with the log masses summed apart,
and the products are applied to the carried vector or matrix, whose last node
and log mass carry into the next block.  The endpoint flows of those two checks
are the suffix scan beside it: the same scan on the reversed, transposed maps.
The matrix recursions off the scan, the derivative audit's batch of flows and
the signed inverse propagator, share one loop, ``_flow_loop``: one kernel call
per cell, each matrix rescaled to unit absolute mass.  Monte Carlo batches
instead advance the filters that share their paths in lockstep, with one
kernel call per cell: there one call already covers many paths, and the scan's
extra matrix products would cost more than the calls it saves.  No code
chooses between the two: one-path routes call the scan, batches the stack.  The
unnormalized equations of different models do not couple, so ``_lockstep``
runs a stack of F models with d states each as one model with F * d states:
the diagonal rates and levels concatenated, the F off-diagonal blocks on the
diagonal of one (F * d, F * d) matrix.  Each RK4 stage is then one 2-D matrix
product over the paths, and each node renormalizes every block by one product
with the block-diagonal matrix of ones.  The exact zeros off the blocks add
nothing to any sum.  Both batch loops take their gauge factors from
``_cell_factors`` one block of cells at a time, with the (row, state) pairs on
numpy's innermost axis, and hand each cell's kernel call its own contiguous
slice; the factors are elementwise, so no value moves.  ``_lockstep`` yields
node 0, then each block's nodes as one new array of flat rows (b, m, F * d).
Every route checks its exponents against the double range before any exp: an
overflow is a StateCollapseError, not a NaN.  One splitter,
``split_rate_matrix``, lays out every route's rate matrix ``t_off``, once per
loop, as the transpose of a C-ordered array, so the row form ``t_off.T`` that
each RK4 stage multiplies by is contiguous and BLAS runs its plain kernel, not
the slower transposed one (the two round some sums apart).

Two routes solve the nonlinear, normalized equation instead.  The projected
route (``projected_filter_trajectory``) takes one RK4 step of its Wong-Zakai
form on the same observation polygon; it shares no code with the gauge kernel
and is the independent check of the reference integrator.  The explicit Euler
step of the Ito form (``wonham_step``, batched over leading axes; one call per
cell in ``euler_filter_trajectory`` and, for a batch of paths,
``_euler_batch_values``) is a diagnostic-only route of strong order 1/2, kept
for step-size studies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GridMismatchError, NonPositiveEntryError, StateCollapseError
from .models import GeneratorMatrix, ObservationMap, _check_sizes, _checked
from .simulate import NODE_TOL, ObservationPath, TimeGrid

EULER_FLOOR = 1e-14
# Gauge exponents c dt whose gauge exp(c dt) is a normal double; the kernel's factor
# exp(-c dt / 2) then is one too.
_EXPONENT_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))
# Cells per block of the prefix scan.  A block costs log2(block) matrix
# products per cell and its maps are the scan's whole working set; much shorter
# blocks pay the per-block call overhead instead.
_SCAN_BLOCK = 512
# Cells per block of the batch loops' gauge factors, and nodes per block the lockstep stack
# yields: one exponential call per block in place of one per cell.  Shorter blocks give back
# much of the saving; the factor buffer holds 16 * w * D doubles (w rows, D states).
_GAUGE_BLOCK = 16


def _positive_vector(name: str, x) -> np.ndarray:
    """``x`` as a flat float vector of strictly positive finite entries, or a typed error."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or not arr.size:
        raise DimensionMismatchError(f"{name} needs a flat nonempty vector, got shape {arr.shape}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise NonPositiveEntryError(f"{name} needs strictly positive finite entries")
    return arr


def normalize(x) -> np.ndarray:
    """Project a strictly positive vector onto the simplex, x / sum(x).

    Rescales by the largest entry first so that subnormal inputs survive.
    """
    arr = _positive_vector("normalize", x)
    arr = arr / arr.max()
    return arr / arr.sum()


def normalize_jacobian(x) -> np.ndarray:
    """Derivative matrix of the simplex projection at x.

    Entry (i, j) is (delta_ij - (x/sum x)_i) / sum(x); annihilates x itself and
    scales like 1/alpha under x -> alpha x.
    """
    arr = _positive_vector("the simplex projection's derivatives", x)
    total = arr.sum()
    return (np.eye(arr.shape[0]) - np.outer(arr / total, np.ones(arr.shape[0]))) / total


def normalize_second_derivative(x) -> np.ndarray:
    """Second-derivative tensor of the simplex projection at x.

    Component (i, k, l) equals -(J_ik + J_il) / sum(x) where J is the first
    derivative matrix; scales like 1/alpha^2 under x -> alpha x.
    """
    jac = normalize_jacobian(x)
    return -(jac[:, :, None] + jac[:, None, :]) / np.asarray(x, dtype=float).sum()


def split_rate_matrix(rates) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's ``s_diag`` and ``t_off`` of a rate matrix (D, D), for every route:
    the diagonal, and the rates with the diagonal zeroed.

    ``t_off`` is the transpose of a C-ordered array: ``propagate_cell`` multiplies
    rows by ``t_off.T``, and that operand is then contiguous, so BLAS runs its
    plain (not transposed) matrix kernel.
    """
    t_rows = np.array(rates, dtype=float, order="C")
    s_diag = np.diag(t_rows).copy()
    np.fill_diagonal(t_rows, 0.0)
    return s_diag, t_rows.T


def _gauge_factors(d_y, dt: float, s_diag: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # The gauge factor g = exp(-c dt / 2), the reciprocal of the gauge at the
    # middle of the cell (g * g is that of its end); c is the per-state exponent
    # rate, with the observation path linear inside the cell.  An exponent c dt
    # outside _EXPONENT_RANGE, or NaN, raises before any exp.
    c = 0.5 * levels**2 - s_diag - levels * (np.asarray(d_y, dtype=float)[..., None] / dt)
    exponent = np.multiply(c, dt)
    lo, hi = _EXPONENT_RANGE
    if exponent.size and not (lo <= exponent.min() and exponent.max() <= hi):
        raise StateCollapseError(f"gauge exponent c dt in [{exponent.min():.4g}, {exponent.max():.4g}] leaves "
                                 "the double range of exp; reduce dt or the gap between observation levels")
    gauge = np.multiply(c, -0.5 * dt, out=exponent)
    return np.exp(gauge, out=gauge)


def propagate_cell(values, dt, t_off, gauge) -> np.ndarray:
    """One RK4 step of the gauge ODE across one grid cell, on the gauge factor it is handed.

    ``values`` is one vector (d,) or rows (m, d), and ``gauge`` the factor
    g = exp(-c dt / 2) that ``_gauge_factors`` gives for the cell's increment,
    one row per row of ``values``.  A Monte Carlo stack of several models is one
    model with a block-diagonal ``t_off`` (see ``_lockstep``).  The image is
    entrywise positive whenever the input is, unless a weight underflows to 0.0.

    With T = ``t_off.T`` and h = dt / 2, the stages are k1 = v T and p_i = w_i T on
        w2 = g (v + h k1),  w3 = g v + h p2,  w4 = g (g v + dt p3),
        out = g (g (v + dt/6 k1) + dt/3 (p2 + p3)) + dt/6 p4.
    In exact arithmetic this is the RK4 step of the gauge ODE, whose stages
    k2 = p2 / g, k3 = p3 / g, k4 = p4 / g**2 divide by the gauge at the middle
    and the end of the cell: one factor per (row, state), and no division.

    Each stage is an ``np.dot`` of the rows by ``t_off.T``: pass ``t_off``
    as ``split_rate_matrix`` returns it, so that operand is contiguous and BLAS
    runs its plain kernel, not the transposed one; the two round some sums apart.
    """
    t_rows = t_off.T
    h = 0.5 * dt
    k1 = np.dot(values, t_rows)
    scaled = gauge * values
    w = h * k1
    w += values
    w *= gauge
    p2 = np.dot(w, t_rows)
    w = np.multiply(p2, h, out=w)
    w += scaled
    p3 = np.dot(w, t_rows)
    w = np.multiply(p3, dt, out=w)
    w += scaled
    w *= gauge
    p4 = np.dot(w, t_rows)
    # g (g (v + dt/6 k1) + dt/3 (p2 + p3)) + dt/6 p4, accumulated in k1
    k1 *= dt / 6.0
    k1 += values
    k1 *= gauge
    p2 += p3
    p2 *= dt / 3.0
    k1 += p2
    k1 *= gauge
    p4 *= dt / 6.0
    k1 += p4
    return k1


def propagate_cell_matrix(matrices, d_y, dt, s_diag, t_off, levels) -> np.ndarray:
    """Advance propagator matrices (..., d, k) across one grid cell, column-wise.

    ``d_y`` broadcasts over the leading axes, which are flattened here alone:
    the k columns of every matrix are rows of one kernel call, each with its
    matrix's gauge factors, computed once per matrix.
    """
    rows = np.swapaxes(matrices, -1, -2)
    gauge = _gauge_factors(np.asarray(d_y, dtype=float)[..., None], dt, s_diag, levels)
    shape = np.broadcast_shapes(rows.shape, gauge.shape)
    rows, gauge = (np.broadcast_to(a, shape).reshape(-1, shape[-1]) for a in (rows, gauge))
    out = propagate_cell(rows, dt, t_off, gauge)
    return np.swapaxes(out.reshape(shape), -1, -2)


def _cell_factors(increments, dt, s_diag, levels):
    """Per block of ``_GAUGE_BLOCK`` cells of ``increments`` (..., n), the gauge factors (b, w, D),
    w = prod(...): entry j is the factor ``_gauge_factors`` gives for the block's cell j, bit for
    bit.  From a C-ordered copy of the block's increments, with the w * D (row, state) pairs
    innermost: the increments over dt repeated per state, the levels and rate constants tiled
    over the rows once.  One exponential per block, into one buffer that the next block overwrites.
    It restates ``_gauge_factors``' exponent formula in the same operation order, which keeps
    the two bit for bit (``TestCellFactors``); the one-path routes keep ``_gauge_factors``.
    Each operation of that formula is monotone in the increment, so the exponents of the
    loop's extreme increments bound every cell's: one range check, before the first block."""
    width, states = math.prod(increments.shape[:-1]), len(levels)
    if increments.size:
        _gauge_factors(np.array([increments.min(), increments.max()]), dt, s_diag, levels)
    cells_first = (increments.ndim - 1, *range(increments.ndim - 1))
    tiled_levels, tiled_base = np.tile([levels, 0.5 * levels**2 - s_diag], width)
    buffer = np.empty((_GAUGE_BLOCK, width * states))
    for lo in range(0, increments.shape[-1], _GAUGE_BLOCK):
        block = increments[..., lo:lo + _GAUGE_BLOCK].transpose(cells_first)
        d_y = np.ascontiguousarray(block).reshape(-1, width)
        c = np.repeat(d_y / dt, states).reshape(len(d_y), -1)
        c *= tiled_levels
        np.subtract(tiled_base, c, out=c)
        gauge = np.multiply(c, -0.5 * dt, out=buffer[:len(d_y)])
        yield np.exp(gauge, out=gauge).reshape(-1, width, states)


def _flow_loop(matrices, increments, dt, s_diag, t_off, levels) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (..., d, k) advanced across the cells of ``increments`` (..., n), each
    rescaled to unit absolute mass after every cell (so signed entries too), and their
    summed log masses (...).  Flattened to rows once, each matrix's columns as
    ``propagate_cell_matrix`` lays them out; one kernel call per cell of each ``_cell_factors`` block."""
    lead = np.broadcast_shapes(matrices.shape[:-2], increments.shape[:-1])
    d, k = matrices.shape[-2:]
    rows = np.array(np.broadcast_to(np.swapaxes(matrices, -1, -2), lead + (k, d))).reshape(-1, k, d)
    per_row = np.broadcast_to(increments[..., None, :], lead + (k, increments.shape[-1]))
    log_mass = np.zeros(len(rows))
    for gauges in _cell_factors(per_row, dt, s_diag, levels):
        for gauge in gauges:
            rows = propagate_cell(rows.reshape(-1, d), dt, t_off, gauge).reshape(-1, k, d)
            mass = np.abs(rows).sum(axis=(1, 2))
            rows /= mass[:, None, None]
            log_mass += np.log(mass)
    return np.swapaxes(rows.reshape(lead + (k, d)), -1, -2), log_mass.reshape(lead)


def _prefix_products(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Hillis-Steele inclusive scan of maps (..., n, d, d) along the cell axis:
    # entry k of the result is maps[k] @ ... @ maps[0] rescaled to unit mass,
    # with its log mass kept apart.  Every partial product is renormalized at
    # every level, so the mass neither over- nor underflows however many cells
    # the scan holds.
    mass = maps.sum(axis=(-2, -1))
    prods = maps / mass[..., None, None]
    logs = np.log(mass)
    shift = 1
    while shift < prods.shape[-3]:
        joined = prods[..., shift:, :, :] @ prods[..., :-shift, :, :]
        mass = joined.sum(axis=(-2, -1))
        logs[..., shift:] = logs[..., shift:] + logs[..., :-shift] + np.log(mass)
        prods[..., shift:, :, :] = joined / mass[..., None, None]
        shift *= 2
    return prods, logs


def _endpoint_flows(propagators: np.ndarray) -> np.ndarray:
    """Unit-mass propagators from every grid node to the final node.

    ``propagators`` holds the per-cell maps, shape (..., n, d, d); the result has
    shape (..., n + 1, d, d) with the identity in the last slot.  A suffix scan:
    the prefix products of the reversed, transposed maps are the transposed
    products from each node to the end.
    """
    n, d = propagators.shape[-3], propagators.shape[-1]
    out = np.empty(propagators.shape[:-3] + (n + 1, d, d))
    out[..., n, :, :] = np.eye(d)
    prods, _ = _prefix_products(np.swapaxes(propagators[..., ::-1, :, :], -1, -2))
    out[..., :n, :, :] = np.swapaxes(prods[..., ::-1, :, :], -1, -2)
    return out


def _scan_path(state, increments, dt, generator: GeneratorMatrix, observation: ObservationMap):
    """Blocked prefix-scan driver for one observation path.

    ``state`` is a vector (d,) or a matrix (d, d).  ``increments`` has shape
    (n,), one entry per step, or (n, r), where a step is r consecutive cells of
    width ``dt`` taken in order.  Yields, block by block, the images of
    ``state`` at the block's nodes rescaled to unit mass, shape (b, d) or
    (b, d, d), and their log masses relative to ``state``, shape (b,).  The
    last node and its log mass are carried into the next block, so the working
    set stays of the order of one block whatever the number of steps.
    """
    carried_log = 0.0
    for lo in range(0, len(increments), _SCAN_BLOCK):
        maps = cell_propagators(increments[lo:lo + _SCAN_BLOCK], dt, generator, observation)
        if maps.ndim == 4:
            steps = maps[:, 0]
            for j in range(1, maps.shape[1]):
                steps = maps[:, j] @ steps
            maps = steps
        prods, logs = _prefix_products(maps)
        images = prods @ state
        mass = images.sum(axis=tuple(range(1, images.ndim)), keepdims=True)
        images /= mass
        logs += carried_log + np.log(mass.ravel())
        yield images, logs
        state, carried_log = images[-1], logs[-1]


def _scan_nodes(state, increments, dt, generator: GeneratorMatrix,
                observation: ObservationMap) -> tuple[np.ndarray, np.ndarray]:
    """``state`` and its unit-mass images at every node of one path, stacked
    along a new first axis, with their log masses relative to ``state``."""
    blocks = list(_scan_path(state, increments, dt, generator, observation))
    values = np.concatenate([np.asarray(state, dtype=float)[None], *(images for images, _ in blocks)])
    return values, np.concatenate([[0.0], *(logs for _, logs in blocks)])


def _lockstep(filters, increments, dt):
    """Run (initial, generator, observation) ``filters`` in lockstep on every
    path of ``increments`` (m, n), one kernel call per cell for the whole stack.

    The F models do not couple, so the stack is one model with F * d states and
    a block-diagonal rate matrix, advanced as rows (m, F * d); each block is
    renormalized by its own mass, with one product by the block-diagonal ones.
    Yields them in blocks of nodes (b, m, F * d), each a new array: node 0 alone, then the
    nodes of each ``_cell_factors`` block of cells; ``reshape(b, m, F, d)`` views the stack.
    """
    initials, generators, observations = zip(*filters)
    count, d = len(generators), generators[0].d
    rates = np.zeros((count * d, count * d))
    for i, g in enumerate(generators):
        rates[i * d:(i + 1) * d, i * d:(i + 1) * d] = g.entries
    s_diag, t_off = split_rate_matrix(rates)
    levels = np.concatenate([o.levels for o in observations])
    block_ones = np.kron(np.eye(count), np.ones((d, d)))
    states = np.tile(np.concatenate(initials).astype(float), (len(increments), 1))
    yield states[None]
    for gauges in _cell_factors(increments, dt, s_diag, levels):
        nodes = np.empty((len(gauges),) + states.shape)
        for node, gauge in zip(nodes, gauges):
            states = propagate_cell(states, dt, t_off, gauge)
            states = np.divide(states, np.dot(states, block_ones), out=node)
        yield nodes


def _node_range(obs: ObservationPath, s, t) -> np.ndarray:
    """Increments of the cells between the grid nodes at s and t; needs s <= t."""
    i0, i1 = obs.grid.node(s), obs.grid.node(t)
    if i1 < i0:
        raise GridMismatchError("need s <= t")
    return obs.increments[i0:i1]


def _scan_range(state, s, t, obs: ObservationPath, generator: GeneratorMatrix,
                observation: ObservationMap) -> tuple[np.ndarray, float]:
    """Unit-mass image of ``state`` over the node range [s, t] and its log mass
    relative to ``state``; ``state`` itself with log mass 0 when s == t."""
    log_mass = 0.0
    for images, logs in _scan_path(state, _node_range(obs, s, t), obs.grid.dt, generator, observation):
        state, log_mass = images[-1].copy(), float(logs[-1])
    return state, log_mass


def cell_propagators(increments, dt, generator: GeneratorMatrix, observation: ObservationMap) -> np.ndarray:
    """Exact per-cell linear maps of the discretized unnormalized flow.

    For increments of shape (..., n) returns maps of shape (..., n, d, d); the
    product over a cell range reproduces the propagator over that range.
    """
    _check_sizes(generator, observation)
    increments = np.asarray(increments, dtype=float)
    eye = np.broadcast_to(np.eye(generator.d), increments.shape + (generator.d, generator.d))
    return propagate_cell_matrix(eye, increments, dt, *split_rate_matrix(generator.entries), observation.levels)


def gauge_filter(mu, s, t, obs: ObservationPath, generator: GeneratorMatrix,
                 observation: ObservationMap) -> tuple[np.ndarray, float]:
    """Unnormalized filter over the node range [s, t] started from mu.

    Returns a unit-l1 nonnegative vector (positive unless a weight underflows)
    together with a log scale; the actual unnormalized value is
    exp(log_scale) times the vector.  Linear in mu, so scaling mu scales the
    result.  Raises NonPositiveEntryError unless mu is strictly positive and
    finite, and DimensionMismatchError unless it and the levels have one entry
    per state.
    """
    arr = _positive_vector("gauge filter start", mu)
    _check_sizes(generator, observation, arr)
    # Rescaled by the largest entry before the sum, as in ``normalize``: the sum cannot overflow.
    peak = arr.max()
    arr = arr / peak
    total = arr.sum()
    rho, log_mass = _scan_range(arr / total, s, t, obs, generator, observation)
    return rho, math.log(peak) + math.log(total) + log_mass


def filter_semiflow(mu, s, t, obs: ObservationPath, generator: GeneratorMatrix,
                    observation: ObservationMap) -> np.ndarray:
    """Conditional distribution at t of the filter restarted from mu at s."""
    rho, _ = gauge_filter(mu, s, t, obs, generator, observation)
    return rho


@dataclass(frozen=True)
class FilterTrajectory:
    """Filter values at every grid node, with the accumulated log mass of the
    unnormalized solution stored separately."""

    grid: TimeGrid
    values: np.ndarray
    log_scale: np.ndarray
    initial: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def at(self, t: float) -> np.ndarray:
        return self.values[self.grid.node(t)]


def filter_trajectory(initial, generator: GeneratorMatrix, observation: ObservationMap,
                      obs: ObservationPath) -> FilterTrajectory:
    """Run the reference integrator over the whole grid from the given initial law."""
    (pi0,) = _checked(generator, observation, [initial])
    values, log_scale = _scan_nodes(pi0, obs.increments, obs.grid.dt, generator, observation)
    return FilterTrajectory(grid=obs.grid, values=values, log_scale=log_scale, initial=pi0)


def wonham_step(pi, d_y, dt: float, generator: GeneratorMatrix,
                observation: ObservationMap) -> np.ndarray:
    """One explicit Euler step of the nonlinear filter equation, then projection.

    Batched: ``pi`` has shape (..., d) and ``d_y`` broadcasts over its leading
    axes.  Diagnostic route only; components are clipped at ``EULER_FLOOR`` and
    renormalized.  A post-step component below -0.5 signals gross instability
    (dt too large).
    """
    pi = np.asarray(pi, dtype=float)
    levels = observation.levels
    try:
        m = (pi @ levels)[..., None]
        drift = (pi @ generator.entries) * dt
    except ValueError:
        # Every size mismatch fails one of these products, so the check runs
        # only then, not once per cell of the Euler loops.
        _check_sizes(generator, observation, pi)
        raise
    step = pi + drift + pi * (levels - m) * (np.asarray(d_y)[..., None] - m * dt)
    lowest = step.min()
    if lowest < -0.5:
        raise StateCollapseError(f"Euler step produced component {lowest:.3f}; reduce dt")
    step = np.maximum(step, EULER_FLOOR)
    return step / step.sum(axis=-1, keepdims=True)


def euler_filter_trajectory(initial, generator: GeneratorMatrix, observation: ObservationMap,
                            obs: ObservationPath) -> np.ndarray:
    """Euler diagnostic route over the whole grid; returns values at every node."""
    (pi,) = _checked(generator, observation, [initial])
    values = np.empty((obs.grid.n_steps + 1, generator.d))
    values[0] = pi
    for k, d_y in enumerate(obs.increments):
        pi = values[k + 1] = wonham_step(pi, d_y, obs.grid.dt, generator, observation)
    return values


def _euler_batch_values(initial, increments, dt, generator, observation):
    """Endpoint of the Euler diagnostic route for a batch of paths."""
    pi = np.broadcast_to(np.asarray(initial, dtype=float), (increments.shape[0], generator.d)).copy()
    for k in range(increments.shape[1]):
        pi = wonham_step(pi, increments[:, k], dt, generator, observation)
    return pi


def projected_filter_trajectory(initial, generator: GeneratorMatrix, observation: ObservationMap,
                                obs: ObservationPath) -> np.ndarray:
    """Verification route: RK4 on the normalized filter equation; values at every node.

    Inside cell k the observation path is linear, so the filter solves the
    random ODE ``dpi/dt = A pi - (1^T A pi) pi`` with
    ``A = Lambda^T - H^2 / 2 + (dY_k / dt) H`` (Wong-Zakai form of the
    normalized equation).  Each cell takes one classical RK4 step of that
    nonlinear ODE, then renormalizes.  Shares no code with the gauge cell
    kernel.  Raises StateCollapseError when a node value is not strictly
    positive and finite; never clips.
    """
    (pi,) = _checked(generator, observation, [initial])
    grid = obs.grid
    dt = grid.dt
    levels = observation.levels
    base = generator.drift_transpose - np.diag(0.5 * levels**2)
    values = np.empty((grid.n_steps + 1, generator.d))
    values[0] = pi
    pi = np.array(pi)

    def field(a, p):
        ap = a @ p
        return ap - ap.sum() * p

    for k in range(grid.n_steps):
        a = base + np.diag(levels * (obs.increments[k] / dt))
        k1 = field(a, pi)
        k2 = field(a, pi + (0.5 * dt) * k1)
        k3 = field(a, pi + (0.5 * dt) * k2)
        k4 = field(a, pi + dt * k3)
        step = pi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.all(step > 0.0) and np.all(np.isfinite(step))):
            raise StateCollapseError(
                f"projected RK4 step left the open simplex at cell {k} (min component "
                f"{step.min():.3g}); reduce dt"
            )
        pi = step / step.sum()
        values[k + 1] = pi
    return values


@dataclass(frozen=True)
class FlowMatrix:
    """Propagator of the unnormalized filter over a node range.

    ``entries`` is the nonnegative matrix rescaled to unit total mass;
    ``exp(log_scale) * entries`` recovers the actual propagator.
    """

    entries: np.ndarray
    log_scale: float
    s: float
    t: float

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def dense(self) -> np.ndarray:
        """``exp(log_scale) * entries``; StateCollapseError unless the exponent lies in
        ``_EXPONENT_RANGE``, where exp(log_scale) is a normal double."""
        lo, hi = _EXPONENT_RANGE
        if not lo <= self.log_scale <= hi:
            raise StateCollapseError(f"log_scale {self.log_scale:.6g} leaves the double range of exp; "
                                     "use entries and log_scale instead")
        return math.exp(self.log_scale) * self.entries

    def apply(self, vec) -> np.ndarray:
        """Image of a vector (d,) under the scaled entries (log mass dropped)."""
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (self.d,):
            raise DimensionMismatchError(f"flow of {self.d} states applied to shape {arr.shape}")
        return self.entries @ arr


def zakai_flow(s, t, obs: ObservationPath, generator: GeneratorMatrix,
               observation: ObservationMap) -> FlowMatrix:
    """Propagator over [s, t], integrated column-wise by the gauge method.

    Entries stay nonnegative; the identity is returned exactly when s == t.
    Over long spans it tends to rank one as the filter forgets its start, with
    accurate entries, so no condition number is checked (about 1e17 at t = 20).
    """
    _check_sizes(generator, observation)
    u, log_scale = _scan_range(np.eye(generator.d), s, t, obs, generator, observation)
    return FlowMatrix(entries=u, log_scale=log_scale, s=float(s), t=float(t))


def compose_flows(later: FlowMatrix, earlier: FlowMatrix) -> FlowMatrix:
    """Chain two propagators of one state count; spans must abut."""
    if later.d != earlier.d:
        raise DimensionMismatchError(f"flows of {later.d} and {earlier.d} states do not compose")
    if abs(later.s - earlier.t) > NODE_TOL:
        raise GridMismatchError("flow spans do not abut")
    product = later.entries @ earlier.entries
    total = product.sum()
    return FlowMatrix(
        entries=product / total,
        log_scale=later.log_scale + earlier.log_scale + math.log(total),
        s=earlier.s,
        t=later.t,
    )


def zakai_flow_inverse(s, t, obs: ObservationPath, generator: GeneratorMatrix,
                       observation: ObservationMap) -> tuple[np.ndarray, float]:
    """Inverse propagator over [s, t], diagnostic route.

    Integrates the transposed inverse equation (drift ``H^2 - Lambda``, noise
    coefficient ``-H``) with the same per-cell gauge scheme, so the product with
    the forward propagator should recover the identity up to integrator error.
    Returns (unit-mass matrix, log scale); entries may be signed.

    Runs on the flow loop rather than the prefix scan: with signed entries
    the products are renormalized by absolute mass, which the scan's unit-mass
    products do not carry.
    """
    _check_sizes(generator, observation)
    levels = observation.levels
    drift = np.diag(levels**2) - generator.entries
    z, log_scale = _flow_loop(np.eye(generator.d), _node_range(obs, s, t), obs.grid.dt,
                              *split_rate_matrix(drift.T), -levels)
    return z.T, float(log_scale)


def export_trajectory_csv(traj: FilterTrajectory, dest) -> None:
    """Write (t, pi_1..pi_d, log_scale) rows for every grid node."""
    d = traj.values.shape[1]
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *[f"pi_{i + 1}" for i in range(d)], "log_scale"])
        for t, row, ls in zip(traj.times, traj.values, traj.log_scale):
            writer.writerow([f"{t:.10g}", *[f"{x:.17g}" for x in row], f"{ls:.17g}"])
