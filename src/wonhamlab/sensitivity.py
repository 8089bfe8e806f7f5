"""Derivatives of the filter with respect to its initial condition, computed by
two independent routes, plus the closed-form exponential bounds that dominate
them and the integral representation of the model-misspecification error.

The flow route differentiates the normalized filter through the linear
propagator; the smoothing route evaluates the same derivative from the
conditional law of the initial state given the observations and the terminal
state.  Log scales cancel in both routes because the simplex projection and its
derivatives are homogeneous, so all algebra runs on unit-mass propagators.

The pathwise checks (``robustness_inequality``, ``error_representation_check``)
take one observation path: their filter trajectories run on the prefix scan of
``filters`` and their endpoint flows on its suffix scan.  A batch of paths is a
loop over ``ObservationPath`` rows; there is no batch form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GridMismatchError, NonPositiveEntryError, ObservationMismatchError
from .filters import (
    _endpoint_flows,
    _scan_nodes,
    cell_propagators,
    zakai_flow,
)
from .models import (
    GeneratorMatrix,
    ModelPair,
    ObservationMap,
    _checked,
    _is_finite_real,
    mixing_rate,
    observation_gap,
)
from .simulate import ObservationPath


def _apply(entries, vec) -> np.ndarray:
    """Matrix-vector product broadcast over leading batch axes."""
    v = np.asarray(vec, dtype=float)
    return (entries @ v[..., :, None])[..., 0]


def derivative_from_flow(entries, mu, v) -> np.ndarray:
    """First derivative of the normalized filter, given propagator entries.

    Evaluates the simplex-projection jacobian at the propagated initial law and
    applies it to the propagated direction.  Accepts batches: ``entries`` of
    shape (..., d, d) with ``mu``/``v`` of shape (d,) or (..., d).
    """
    x = _apply(entries, mu)
    w = _apply(entries, v)
    total = x.sum(axis=-1, keepdims=True)
    return (w - x / total * w.sum(axis=-1, keepdims=True)) / total


def second_derivative_from_flow(entries, mu, v) -> np.ndarray:
    """Second derivative along (v, v), batched; algebraically contracted form."""
    total = _apply(entries, mu).sum(axis=-1, keepdims=True)
    w_sum = _apply(entries, v).sum(axis=-1, keepdims=True)
    return -2.0 * w_sum * derivative_from_flow(entries, mu, v) / total


def smoothing_from_flow(entries, initial) -> np.ndarray:
    """Initial-state posterior given the terminal state, from propagator entries.

    Row j, column i holds the probability that the chain started in j given the
    observations and terminal state i; each column sums to one.
    """
    nu = np.asarray(initial, dtype=float)
    den = _apply(entries, nu)
    if not np.all(den > 0.0):
        raise NonPositiveEntryError("smoothing needs a terminal filter with no weight underflowed to 0")
    swapped = np.swapaxes(entries, -1, -2)
    return swapped * nu[..., :, None] / den[..., None, :]


def derivative_from_smoothing(entries, initial, v) -> np.ndarray:
    """First derivative at the initial law itself, from smoothing probabilities.

    Component i is ``pi_i * sum_jk (v_j/nu_j) pi_k (rho_ji - rho_jk)`` with rho
    the smoothing matrix and pi the filter.  Batched like ``derivative_from_flow``.
    """
    nu = np.asarray(initial, dtype=float)
    x = _apply(entries, nu)
    pi = x / x.sum(axis=-1, keepdims=True)
    weighted = np.einsum("...j,...ji->...i", v / nu, smoothing_from_flow(entries, nu))
    return pi * (weighted - np.einsum("...i,...i->...", weighted, pi)[..., None])


def derivative_opnorm_from_flow(entries, mu) -> np.ndarray:
    """Operator norm of the filter derivative over unit-l1 zero-sum directions.

    The extreme directions are (e_i - e_j)/2, so the norm is half the largest
    l1 distance between two columns of the projected propagator.  Batched.
    """
    x = _apply(entries, mu)
    total = x.sum(axis=-1, keepdims=True)
    col_sums = entries.sum(axis=-2, keepdims=True)
    cols = (entries - (x / total)[..., :, None] * col_sums) / total[..., None]
    pair_gaps = np.abs(cols[..., :, :, None] - cols[..., :, None, :]).sum(axis=-3)
    return 0.5 * pair_gaps.max(axis=(-1, -2))


def _checked_flow(s, t, obs: ObservationPath, generator: GeneratorMatrix, observation: ObservationMap,
                  laws, directions=()):
    """``models._checked`` of the laws and directions, then the propagator over [s, t]."""
    return (*_checked(generator, observation, laws, directions),
            zakai_flow(s, t, obs, generator, observation))


def derivative_flow(mu, v, s, t, obs: ObservationPath, generator: GeneratorMatrix,
                    observation: ObservationMap) -> np.ndarray:
    """Directional derivative of the filter restarted at s, evaluated at t (flow route)."""
    mu, v, flow = _checked_flow(s, t, obs, generator, observation, [mu], [v])
    return derivative_from_flow(flow.entries, mu, v)


def smoothing_matrix(t, obs: ObservationPath, initial, generator: GeneratorMatrix,
                     observation: ObservationMap) -> np.ndarray:
    """Posterior of the initial state given observations up to t and the state at t."""
    nu, flow = _checked_flow(0.0, t, obs, generator, observation, [initial])
    return smoothing_from_flow(flow.entries, nu)


def derivative_smoothing_route(initial, v, t, obs: ObservationPath, generator: GeneratorMatrix,
                               observation: ObservationMap) -> np.ndarray:
    """Directional derivative at the true initial law via smoothing probabilities."""
    nu, v, flow = _checked_flow(0.0, t, obs, generator, observation, [initial], [v])
    return derivative_from_smoothing(flow.entries, nu, v)


def tilted_filter(mu, t, obs: ObservationPath, initial, generator: GeneratorMatrix,
                  observation: ObservationMap) -> np.ndarray:
    """Filter restarted from mu, reconstructed from true-model smoothing data.

    Uses the likelihood-ratio representation: reweight the joint law of the
    initial and terminal states by mu/nu and renormalize.
    """
    nu, mu, flow = _checked_flow(0.0, t, obs, generator, observation, [initial, mu])
    x = flow.apply(nu)
    pi = x / x.sum()
    rho = smoothing_from_flow(flow.entries, nu)
    joint = rho * pi[None, :]
    ratio = mu / nu
    numerator = ratio @ joint
    return numerator / (ratio @ joint.sum(axis=1))


def _decay(generator: GeneratorMatrix, s, t) -> float:
    """exp(-beta (t - s)) at the forgetting rate beta of ``generator``; needs
    finite real times s <= t (bools excluded)."""
    if not (_is_finite_real(s) and _is_finite_real(t)):
        raise GridMismatchError(f"need finite real times s and t, got s={s!r}, t={t!r}")
    if t < s:
        raise GridMismatchError("need s <= t")
    return math.exp(-mixing_rate(generator) * (t - s))


def derivative_bound(mu, v, s, t, generator: GeneratorMatrix) -> float:
    """Almost-sure bound on the l1 size of the filter derivative.

    Sum of |v_k|/mu_k, damped exponentially at the forgetting rate of the
    (mixing) rate matrix the filter runs with.  Raises GridMismatchError unless s <= t
    are finite real times.
    """
    mu, v = _checked(generator, None, [mu], [v])
    return float((np.abs(v) / mu).sum() * _decay(generator, s, t))


def lipschitz_bound(mu_1, mu_2, s, t, generator: GeneratorMatrix) -> float:
    """Almost-sure bound on the l1 gap between filters restarted from two laws; needs s <= t."""
    mu_1, mu_2 = _checked(generator, None, [mu_1, mu_2])
    prefactor = float(np.maximum(1.0 / mu_1, 1.0 / mu_2).max())
    return prefactor * float(np.abs(mu_2 - mu_1).sum()) * _decay(generator, s, t)


def second_derivative_flow(mu, v, s, t, obs: ObservationPath, generator: GeneratorMatrix,
                           observation: ObservationMap) -> np.ndarray:
    """Second directional derivative along (v, v) via the flow route: the
    contracted form of ``second_derivative_from_flow`` on the propagator over [s, t]."""
    mu, v, flow = _checked_flow(s, t, obs, generator, observation, [mu], [v])
    return second_derivative_from_flow(flow.entries, mu, v)


def second_derivative_gap_bound(mu, v, w, s, t, generator: GeneratorMatrix) -> float:
    """Almost-sure bound on the l1 gap between second derivatives along v and w; needs s <= t."""
    mu, v, w = _checked(generator, None, [mu], [v, w])
    plus = (np.abs(v + w) / mu).sum()
    minus = (np.abs(v - w) / mu).sum()
    return float(2.0 * plus * minus * _decay(generator, s, t))


def _pathwise(pair: ModelPair, starts, increments, dt, flow_generator: GeneratorMatrix):
    """Set-up of the pathwise checks on one path of ``increments`` (n,): the
    guard that both models share one observation function, the trajectories
    (F, n + 1, d) of the (initial, generator) ``starts`` under it, each through
    the prefix scan, and the endpoint flows (n + 1, d, d) of ``flow_generator``."""
    levels = pair.true_model.observation
    if observation_gap(levels, pair.approx_model.observation) > 0.0:
        raise ObservationMismatchError("the pathwise checks require identical observation functions")
    trajectories = np.stack([_scan_nodes(mu, increments, dt, g, levels)[0] for mu, g in starts])
    return trajectories, _endpoint_flows(cell_propagators(increments, dt, flow_generator, levels))


def error_representation_check(t, obs: ObservationPath, pair: ModelPair) -> float:
    """Residual of the exact integral representation of the drift-misspecification error.

    Runs the filter with the perturbed rate matrix (same observation function),
    rebuilds its gap to the correctly specified filter from the time integral of
    the propagated drift mismatch, and returns the l1 difference between the two
    sides.  Trapezoid quadrature on the grid.
    """
    truth, approx = pair.true_model, pair.approx_model
    grid, n = obs.grid, obs.grid.node(t)
    starts = [(approx.initial, approx.generator), (approx.initial, truth.generator)]
    (breve, restarted), flows = _pathwise(pair, starts, obs.increments[:n], grid.dt, truth.generator)
    delta = approx.generator.drift_transpose - truth.generator.drift_transpose
    mismatch = breve @ delta.T
    integrand = derivative_from_flow(flows, breve, mismatch)
    rhs = np.trapezoid(integrand, dx=grid.dt, axis=0)
    lhs = breve[n] - restarted[n]
    return float(np.abs(lhs - rhs).sum())


def robustness_inequality(t, obs: ObservationPath, pair: ModelPair) -> tuple[float, float]:
    """Realized filter error and its integrated bound on one observation path.

    The bound side adds the forgetting gap between the two perturbed-filter
    starts to the time integral of the derivative operator norm times the l1
    drift mismatch along the correctly filtered trajectory.  Requires identical
    observation functions.
    """
    truth, approx = pair.true_model, pair.approx_model
    dt = obs.grid.dt
    (true_traj, approx_from_mu, approx_from_nu), flows = _pathwise(
        pair, [(truth.initial, truth.generator), (approx.initial, approx.generator),
               (truth.initial, approx.generator)], obs.increments[:obs.grid.node(t)], dt, approx.generator)
    opnorms = derivative_opnorm_from_flow(flows, true_traj)
    delta = truth.generator.drift_transpose - approx.generator.drift_transpose
    mismatch_l1 = np.abs(true_traj @ delta.T).sum(axis=-1)
    integral = np.trapezoid(opnorms * mismatch_l1, dx=dt)
    forgetting = np.abs(approx_from_nu[-1] - approx_from_mu[-1]).sum()
    lhs = np.abs(true_traj[-1] - approx_from_mu[-1]).sum()
    return float(lhs), float(forgetting + integral)


@dataclass(frozen=True)
class DerivativeRecord:
    """One evaluated directional derivative, tagged with its route and horizon."""

    direction: np.ndarray
    value: np.ndarray
    route: str
    s: float
    t: float


def derivative_records_to_csv(records, dest) -> None:
    """Write one row per record: horizon, route, direction and value components."""
    records = list(records)
    if not records:
        raise DimensionMismatchError("no records to export: the CSV has no state dimension")
    d = records[0].direction.shape[0]
    if any(np.shape(x) != (d,) for rec in records for x in (rec.direction, rec.value)):
        raise DimensionMismatchError(f"every record's direction and value need {d} entries, as the first's")
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["s", "t", "route", *[f"v_{i + 1}" for i in range(d)], *[f"dpi_{i + 1}" for i in range(d)]]
        )
        for rec in records:
            writer.writerow(
                [f"{rec.s:.10g}", f"{rec.t:.10g}", rec.route,
                 *[f"{x:.17g}" for x in rec.direction],
                 *[f"{x:.17g}" for x in rec.value]]
            )
