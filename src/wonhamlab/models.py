"""Model parameters, validation, and the closed-form constants of the error bounds.

Everything downstream (simulation, filtering, sensitivity analysis, Monte Carlo
experiments) consumes the types defined here.  All containers are frozen and the
wrapped arrays are made read-only, so instances can be shared freely across
concurrent trial workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryInitialConditionError,
    ConfigError,
    DimensionMismatchError,
    GridMismatchError,
    NegativeOffDiagonalError,
    NonSquareError,
    NonzeroRowSumError,
    NotMixingError,
)

ROW_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-10
TANGENT_TOL = 1e-10


def _is_real(value) -> bool:
    """Whether ``value`` is a real number other than a bool (numpy's bool is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a real number other than a bool, finite as a double."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:  # an int or fraction beyond the double range
        return False


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated transition-rate matrix of a finite-state Markov chain.

    ``entries[i, j]`` for ``i != j`` is the jump rate from state ``i`` to state
    ``j`` (units 1/time); each row sums to zero.  ``mixing`` is true when every
    off-diagonal rate is strictly positive, which is what the exponential
    forgetting estimates require.
    """

    entries: np.ndarray
    mixing: bool

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def drift_transpose(self) -> np.ndarray:
        """The matrix acting on column distributions in the forward equation."""
        return self.entries.T


@dataclass(frozen=True)
class ObservationMap:
    """Per-state observation levels; state ``i`` drifts the observation at ``levels[i]``."""

    levels: np.ndarray

    @property
    def d(self) -> int:
        return self.levels.shape[0]

    @property
    def spread(self) -> float:
        """Largest gap between two observation levels."""
        return float(np.ptp(self.levels))


def _check_sizes(generator: GeneratorMatrix, observation: ObservationMap | None, *vectors) -> None:
    """Raise DimensionMismatchError unless the observation levels (when given),
    and the last axis of each array in ``vectors`` (laws, directions), have one
    entry per state of ``generator``.  Every public route that takes loose
    model parts calls it."""
    d = len(generator.entries)
    if observation is not None and len(observation.levels) != d:
        raise DimensionMismatchError(f"{len(observation.levels)} observation levels for {d} states")
    for x in vectors:
        if x.shape[-1:] != (d,):
            raise DimensionMismatchError(f"a vector of shape {x.shape} for {d} states")


def validate_generator(raw) -> GeneratorMatrix:
    """Validate a raw rate matrix and tag it with the mixing flag.

    Raises NonSquareError, NegativeOffDiagonalError or NonzeroRowSumError.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"rate matrix must be square, got shape {arr.shape}")
    d = arr.shape[0]
    if d < 2:
        raise NonSquareError("need at least two states")
    if not np.all(np.isfinite(arr)):
        raise NonzeroRowSumError("rate matrix has non-finite entries")
    off = arr[~np.eye(d, dtype=bool)]
    if np.any(off < 0.0):
        raise NegativeOffDiagonalError("off-diagonal rates must be nonnegative")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums) > ROW_SUM_TOL):
        worst = int(np.argmax(np.abs(sums)))
        raise NonzeroRowSumError(f"row {worst} sums to {sums[worst]:.3e}")
    return GeneratorMatrix(entries=_readonly(arr), mixing=bool(np.all(off > 0.0)))


def validate_observation(levels) -> ObservationMap:
    arr = np.asarray(levels, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError("observation levels must be a flat vector")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError("observation levels must be finite")
    return ObservationMap(levels=_readonly(arr))


def validate_simplex(weights, *, allow_boundary: bool = False) -> np.ndarray:
    """Check a probability vector and return a read-only copy.

    Interior points (all components strictly positive) are required unless
    ``allow_boundary`` is set.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1:
        raise BoundaryInitialConditionError("probability vector must be flat")
    if not np.isfinite(arr).all():
        raise BoundaryInitialConditionError("probability vector has a non-finite component")
    if abs(arr.sum() - 1.0) > SIMPLEX_TOL:
        raise BoundaryInitialConditionError(f"weights sum to {arr.sum():.12f}, not 1")
    if allow_boundary:
        if np.any(arr < 0.0):
            raise BoundaryInitialConditionError("negative probability component")
    elif np.any(arr <= 0.0):
        raise BoundaryInitialConditionError("interior point required: all components > 0")
    return _readonly(arr)


def validate_tangent(components) -> np.ndarray:
    """Check a zero-sum direction vector and return a read-only copy."""
    arr = np.asarray(components, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError("tangent vector must be flat")
    if not np.isfinite(arr).all():
        raise DimensionMismatchError("tangent vector has a non-finite component")
    if abs(arr.sum()) > TANGENT_TOL:
        raise DimensionMismatchError(f"tangent components sum to {arr.sum():.3e}, not 0")
    return _readonly(arr)


def _checked(generator: GeneratorMatrix, observation: ObservationMap | None, laws=(), directions=()) -> list:
    """``laws`` validated as interior simplex points, then ``directions`` as tangents,
    then all against the model's size; returns them, laws first.  ``FilterModel``
    and the path sampler check their own laws."""
    laws = [validate_simplex(x) for x in laws]
    directions = [validate_tangent(x) for x in directions]
    _check_sizes(generator, observation, *laws, *directions)
    return [*laws, *directions]


@dataclass(frozen=True)
class FilterModel:
    """One complete filtering model: initial law, rate matrix, observation levels."""

    initial: np.ndarray
    generator: GeneratorMatrix
    observation: ObservationMap

    def __post_init__(self):
        d = self.generator.d
        if self.initial.shape != (d,) or self.observation.d != d:
            raise DimensionMismatchError("initial law, generator and levels disagree on d")

    @classmethod
    def from_raw(cls, initial, generator, levels) -> "FilterModel":
        return cls(
            initial=validate_simplex(initial),
            generator=validate_generator(generator),
            observation=validate_observation(levels),
        )

    @property
    def d(self) -> int:
        return self.generator.d


@dataclass(frozen=True)
class ModelPair:
    """True data-generating model next to the (possibly misspecified) filter model."""

    true_model: FilterModel
    approx_model: FilterModel

    def __post_init__(self):
        if self.true_model.d != self.approx_model.d:
            raise DimensionMismatchError("models have different state-space sizes")

    @property
    def d(self) -> int:
        return self.true_model.d

    def require_mixing(self) -> None:
        """Bound evaluation needs both rate matrices strictly mixing."""
        if not self.true_model.generator.mixing:
            raise NotMixingError("true model is not mixing")
        if not self.approx_model.generator.mixing:
            raise NotMixingError("approximate model is not mixing")


def mixing_rate(generator: GeneratorMatrix) -> float:
    """Exponential forgetting rate: twice the smallest geometric mean of paired rates."""
    lam = generator.entries
    d = lam.shape[0]
    if not generator.mixing:
        raise NotMixingError("forgetting rate needs strictly positive off-diagonal rates")
    mask = ~np.eye(d, dtype=bool)
    pairwise = np.sqrt(lam * lam.T)[mask]
    return 2.0 * float(pairwise.min())


def generator_gap(a: GeneratorMatrix, b: GeneratorMatrix) -> float:
    """Operator gap between two rate matrices over the simplex.

    Equals ``sup { |(B' - A') tau|_1 : tau in interior simplex }``, which for a
    linear map is attained at the vertices, so it reduces to the largest row
    l1-norm of the difference.
    """
    if a.d != b.d:
        raise DimensionMismatchError("rate matrices have different sizes")
    return float(np.abs(b.entries - a.entries).sum(axis=1).max())


def observation_gap(a: ObservationMap, b: ObservationMap) -> float:
    """Largest per-state difference between two observation functions."""
    if a.d != b.d:
        raise DimensionMismatchError("observation maps have different sizes")
    return float(np.abs(b.levels - a.levels).max())


def inverse_moment_constant(initial, generator: GeneratorMatrix, observation: ObservationMap) -> float:
    """Uniform-in-time bound on the expected reciprocal of the smallest filter weight.

    Each state contributes ``max(1/initial_i, K2_i / K1_i)`` where ``K1_i`` is the
    smallest inflow rate into state ``i`` and ``K2_i`` collects the exit rate, the
    smallest inflow rate, and the squared observation spread seen from state ``i``.
    """
    (nu,) = _checked(generator, observation, [initial])
    if not generator.mixing:
        raise NotMixingError("inverse-moment bound needs a mixing rate matrix")
    lam = generator.entries
    h = observation.levels
    d = generator.d
    total = 0.0
    for i in range(d):
        inflow = np.delete(lam[:, i], i)
        k1 = inflow.min()
        k2 = abs(lam[i, i]) + k1 + float(np.max((h[i] - h) ** 2))
        total += max(1.0 / nu[i], k2 / k1)
    return float(total)


class RobustnessConstants(NamedTuple):
    c1: float
    c2: float
    c3: float


def robustness_constants(pair: ModelPair) -> RobustnessConstants:
    """Explicit constants of the uniform-in-time model-robustness bound.

    ``c1`` multiplies the l1 gap between the initial laws, ``c2`` the observation
    gap, and ``c3`` the rate-matrix gap.  The decomposition mirrors the four
    integral estimates behind the bound: the rate term is controlled by the
    inverse-moment constant, the observation terms by the forgetting rate of the
    approximate model together with the sizes and spreads of both level vectors.
    """
    pair.require_mixing()
    truth, approx = pair.true_model, pair.approx_model
    for model in (truth, approx):
        if np.any(model.initial <= 0.0):
            raise BoundaryInitialConditionError("bound constants need interior initial laws")
    d = pair.d
    beta = mixing_rate(approx.generator)

    h = truth.observation.levels
    h_tilde = approx.observation.levels
    h_max = float(np.abs(h).max())
    k_const = 2.0 * h_max + float(np.abs(h_tilde).max())
    spread_true = truth.observation.spread
    spread_approx = approx.observation.spread

    c1 = 6.0 * float(np.maximum(1.0 / truth.initial, 1.0 / approx.initial).max())
    c2 = (
        k_const * (d + 1)
        + (d + 1) * h_max
        + d * spread_approx
        + d * (d + 1) * (spread_true + spread_approx)
    ) / beta
    c3 = inverse_moment_constant(truth.initial, truth.generator, truth.observation) / beta
    return RobustnessConstants(c1=c1, c2=c2, c3=c3)


def _robustness_terms(pair: ModelPair) -> tuple[RobustnessConstants, dict, float]:
    """The pair's bound constants, its parameter gaps (``gap_initial``, the l1 gap
    between the initial laws, ``gap_levels`` and ``gap_rates``), and the bound
    c1 * gap_initial + c2 * gap_levels + c3 * gap_rates."""
    c = robustness_constants(pair)
    truth, approx = pair.true_model, pair.approx_model
    gaps = {"gap_initial": float(np.abs(approx.initial - truth.initial).sum()),
            "gap_levels": observation_gap(truth.observation, approx.observation),
            "gap_rates": generator_gap(truth.generator, approx.generator)}
    return c, gaps, c.c1 * gaps["gap_initial"] + c.c2 * gaps["gap_levels"] + c.c3 * gaps["gap_rates"]


def robustness_bound(pair: ModelPair) -> float:
    """Value of the robustness bound for the pair's parameter gaps."""
    return _robustness_terms(pair)[2]


def component_inverse_moment_bound(
    initial, generator: GeneratorMatrix, observation: ObservationMap, state: int, power: int, t: float
) -> float:
    """Bound on ``E[(pi_t^state)^(-power)]`` under the true model.

    Grows like ``exp(power * exit_rate * t)`` corrected by the squared observation
    spread seen from ``state``.  Raises DimensionMismatchError unless ``state``
    is the whole-number index of one of the generator's states,
    GridMismatchError unless ``t`` is a finite time >= 0, and ConfigError
    unless ``power`` is a finite real number > 0 (a negative power would ask
    for a bound on a moment, not an inverse moment).
    """
    (nu,) = _checked(generator, observation, [initial])
    if isinstance(state, bool) or not isinstance(state, numbers.Integral) or not 0 <= state < generator.d:
        raise DimensionMismatchError(f"state {state!r} of a {generator.d}-state model")
    if not (_is_finite_real(t) and t >= 0.0):
        raise GridMismatchError(f"need a finite time t >= 0, got {t!r}")
    if not (_is_finite_real(power) and power > 0.0):
        raise ConfigError(f"power must be a finite real number > 0, got {power!r}")
    lam = generator.entries
    h = observation.levels
    gap_sq = float(np.max((h[state] - h) ** 2))
    rate = -power * lam[state, state] + 0.5 * power * (power + 1) * gap_sq
    return float(nu[state] ** (-power) * np.exp(rate * t))


def stationary_distribution(generator: GeneratorMatrix) -> np.ndarray:
    """Probability vector solving the balance equations of the rate matrix."""
    d = generator.d
    a = np.vstack([generator.entries.T, np.ones(d)])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol
