"""Exact simulation of the hidden chain and of the observation increments.

The chain is simulated event by event (exponential holding times, embedded jump
chain), never discretized, and the observation drift is integrated in closed
form across jump times inside each grid cell.  All randomness flows through
spawned counter-based generators so that runs are reproducible and the signal
and noise streams stay independent.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AbsorbingStateError, ConfigError, DimensionMismatchError, GridMismatchError
from .models import GeneratorMatrix, ObservationMap, _check_sizes, _is_finite_real, validate_simplex

NODE_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with step dt; cells are half-open [t_k, t_{k+1})."""

    t_end: float
    dt: float

    def __post_init__(self):
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise GridMismatchError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (self.dt > 0.0 and self.t_end > 0.0 and math.isfinite(self.t_end / self.dt)):
            raise GridMismatchError(f"need finite dt > 0 and t_end > 0, got dt={self.dt}, t_end={self.t_end}")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise GridMismatchError(f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def node(self, t: float) -> int:
        """Index of the grid node at time t; raises if t is off the grid or is
        not a finite real number (bools excluded), as the grid's own fields."""
        if not (_is_finite_real(t) and math.isfinite(t / self.dt)):
            raise GridMismatchError(f"t={t!r} is not a node of the grid (dt={self.dt})")
        idx = round(t / self.dt)
        if idx < 0 or idx > self.n_steps or abs(idx * self.dt - t) > NODE_TOL:
            raise GridMismatchError(f"t={t} is not a node of the grid (dt={self.dt})")
        return idx

    def refined(self, factor: int = 2) -> "TimeGrid":
        """The grid whose cells split each cell of this one into ``factor`` equal
        cells, so every node of this grid is a node of it."""
        if isinstance(factor, bool) or not isinstance(factor, numbers.Integral) or factor < 1:
            raise GridMismatchError(f"refine factor must be a whole number >= 1, got {factor!r}")
        return TimeGrid(self.t_end, self.dt / factor)


@dataclass(frozen=True)
class SignalPath:
    """Piecewise-constant chain trajectory.

    ``states[k]`` holds on ``[segment_starts[k], segment_starts[k+1])``; the last
    segment runs to ``t_end``.  States are 0-based indices.
    """

    segment_starts: np.ndarray
    states: np.ndarray
    t_end: float

    @property
    def initial_state(self) -> int:
        return int(self.states[0])

    @property
    def jump_times(self) -> np.ndarray:
        return self.segment_starts[1:]

    def state_at(self, t) -> np.ndarray:
        """The state at each time of ``t``, which must lie in [0, t_end] (up to
        ``NODE_TOL`` past ``t_end``); raises GridMismatchError otherwise."""
        t = np.asarray(t)
        if not np.all((t >= 0.0) & (t <= self.t_end + NODE_TOL)):
            raise GridMismatchError(f"state_at needs times in [0, t_end={self.t_end}]")
        idx = np.searchsorted(self.segment_starts, t, side="right") - 1
        return self.states[idx]

    def occupation_times(self, d: int) -> np.ndarray:
        """Total time spent in each of d states."""
        durations = np.diff(np.append(self.segment_starts, self.t_end))
        return np.bincount(self.states, weights=durations, minlength=d)


@dataclass(frozen=True)
class ObservationPath:
    """Increments of the observation process over the cells of a grid."""

    increments: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        increments, n = self.increments, self.grid.n_steps
        if not isinstance(increments, np.ndarray) or increments.shape != (n,):
            got = (f"shape {increments.shape}" if isinstance(increments, np.ndarray)
                   else type(increments).__name__)
            raise GridMismatchError(f"need an array of shape ({n},), one increment per cell, got {got}")
        if not np.all(np.isfinite(self.increments)):
            raise GridMismatchError("non-finite observation increment")


def spawn_generators(master_seed: int, n: int) -> list[np.random.Generator]:
    """Split a master seed (see ``_seed_sequence``) into n independent counter-based streams."""
    _check_whole("n", n)
    children = _seed_sequence("master_seed", master_seed).spawn(n)
    return [np.random.Generator(np.random.Philox(s)) for s in children]


def _seed_sequence(name: str, seed) -> np.random.SeedSequence:
    """The SeedSequence of a whole-number seed or a list or tuple of them; ConfigError otherwise."""
    for entry in seed if isinstance(seed, (list, tuple)) else [seed]:
        _check_whole(name, entry)
    return np.random.SeedSequence(seed)


def _as_generator(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else a stream from it as ``_seed_sequence`` checks it."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(_seed_sequence("seed", seed)))


def _cumulative_law(p) -> np.ndarray:
    # The normalized cumulative sums that Generator.choice(d, p=p) searches.
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def _check_whole(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a nonnegative whole number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"{name} must be a nonnegative whole number, got {value!r}")


def _path_sampler(initial, generator: GeneratorMatrix, t_end: float):
    """Check ``initial`` and build the exit rates and cumulative jump laws once;
    ``sample(rng)`` draws one path on [0, t_end) as lists of segment starts and
    states.  Each state is ``cdf.searchsorted(rng.random(), side="right")``, as
    ``Generator.choice(d, p=p)`` draws it after validating ``p``: the stream and
    the path are ``choice``'s, without its per-draw checks."""
    nu = validate_simplex(initial, allow_boundary=True)
    _check_sizes(generator, None, nu)
    lam = generator.entries
    exit_rates = -np.diag(lam)
    jump_cdfs = [None] * generator.d
    for i in np.flatnonzero(exit_rates > 0.0):
        jump_probs = lam[i] / exit_rates[i]
        jump_probs[i] = 0.0
        jump_cdfs[i] = _cumulative_law(jump_probs)
    start_cdf = _cumulative_law(nu)

    def sample(rng: np.random.Generator) -> tuple[list, list]:
        state = int(start_cdf.searchsorted(rng.random(), side="right"))
        t, starts, states = 0.0, [0.0], [state]
        while True:
            exit_rate = exit_rates[state]
            if exit_rate <= 0.0:
                if generator.mixing:
                    raise AbsorbingStateError(f"state {state} has zero exit rate in a mixing model")
                break
            t += rng.exponential(1.0 / exit_rate)
            if t >= t_end:
                break
            state = int(jump_cdfs[state].searchsorted(rng.random(), side="right"))
            starts.append(t)
            states.append(state)
        return starts, states

    return sample


def simulate_signal(initial, generator: GeneratorMatrix, grid: TimeGrid, seed) -> SignalPath:
    """Sample one chain trajectory on [0, t_end].

    The initial state follows ``initial``; holding times are exponential with the
    state's exit rate and the embedded jump chain follows the normalized
    off-diagonal rates.  Deterministic given the seed.
    """
    starts, states = _path_sampler(initial, generator, grid.t_end)(_as_generator(seed))
    return SignalPath(np.asarray(starts), np.asarray(states, dtype=np.int64), grid.t_end)


def _cell_drift(starts, states, t_end, levels, times) -> np.ndarray:
    # The running integral of the level is piecewise linear with breakpoints at
    # the jump times, so linear interpolation of its breakpoint values is exact.
    breaks = np.append(starts, t_end)
    cumulative = np.zeros(breaks.shape[0])
    cumulative[1:] = np.cumsum(levels[states] * np.diff(breaks))
    return np.diff(np.interp(times, breaks, cumulative))


def integrated_drift(path: SignalPath, observation: ObservationMap, grid: TimeGrid) -> np.ndarray:
    """Exact integral of the observation level over each grid cell.

    Raises DimensionMismatchError when a state of the path has no level.
    """
    if not (path.states.min() >= 0 and path.states.max() < observation.d):
        raise DimensionMismatchError(f"a path state outside the {observation.d} observation levels")
    if path.t_end < grid.t_end - NODE_TOL:
        raise GridMismatchError("signal path does not cover the grid horizon")
    return _cell_drift(path.segment_starts, path.states, path.t_end, observation.levels, grid.times)


def simulate_observations(
    path: SignalPath, observation: ObservationMap, grid: TimeGrid, seed
) -> ObservationPath:
    """Observation increments: exact drift per cell plus independent Gaussian noise."""
    rng = _as_generator(seed)
    drift = integrated_drift(path, observation, grid)
    noise = np.sqrt(grid.dt) * rng.standard_normal(grid.n_steps)
    return ObservationPath(increments=drift + noise, grid=grid)


def simulate_increments_batch(
    initial,
    generator: GeneratorMatrix,
    observation: ObservationMap,
    grid: TimeGrid,
    master_seed: int,
    n_trials: int,
) -> np.ndarray:
    """Observation increments for n_trials independent paths, shape (n_trials, n_steps).

    Trial i draws its signal and noise streams from the i-th spawn of the master
    seed, so the batch is reproducible and independent of batch size splits.  Its
    row is ``simulate_observations(simulate_signal(...))`` on them, bit for bit.
    Raises ConfigError unless the seed and the trial count are whole numbers >= 0.
    """
    _check_whole("master_seed", master_seed)
    _check_whole("n_trials", n_trials)
    _check_sizes(generator, observation)
    sample = _path_sampler(initial, generator, grid.t_end)
    times, scale = grid.times, np.sqrt(grid.dt)
    out = np.empty((n_trials, grid.n_steps))
    for row, child in zip(out, np.random.SeedSequence(master_seed).spawn(n_trials)):
        sig_seed, noise_seed = child.spawn(2)
        starts, states = sample(np.random.Generator(np.random.Philox(sig_seed)))
        np.random.Generator(np.random.Philox(noise_seed)).standard_normal(out=row)
        row *= scale
        row += _cell_drift(starts, states, grid.t_end, observation.levels, times)
        if not np.all(np.isfinite(row)):
            raise GridMismatchError("non-finite observation increment")
    return out


def export_path_csv(path: SignalPath, obs: ObservationPath, dest) -> None:
    """Write one (t, state, dY) row per grid cell; t is the left cell edge."""
    grid = obs.grid
    t_left = grid.times[:-1]
    states = path.state_at(t_left)
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "state", "dY"])
        for t, s, dy in zip(t_left, states, obs.increments):
            writer.writerow([f"{t:.10g}", int(s), f"{dy:.17g}"])
