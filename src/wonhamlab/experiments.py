"""Monte Carlo campaigns that measure filter errors and hold them against the
closed-form bounds.

Every experiment is a pure function of its spec: observation paths are drawn
from per-trial spawned streams, the exact and misspecified filters consume the
identical increments (common random numbers), and aggregation is an ordered
reduction over trial index, so reports are bit-reproducible.  Robustness,
forgetting, inverse-moment and the convergence sweep share one campaign: it
simulates the true model's paths once and advances every filter of the
experiment on them as one lockstep stack, which is the worker pool here.  Each
checkpoint row follows one rule (mean and 3-sigma half width against the bound
plus the integrator allowance), and a run with a row straddling its bound is
repeated once in full at four times the trials.  The three escalating runners
(robustness, forgetting, inverse-moment) name only their allowance, their
models and a ``read`` from a campaign to report parts; ``_escalate_once`` runs
and escalates the campaign, stamps the allowance and the escalation flag, and
builds the report.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import (
    ConfigError,
    InsufficientTrialsError,
    UnknownExperimentError,
)
from .filters import (
    _euler_batch_values,
    _flow_loop,
    _lockstep,
    _scan_path,
    split_rate_matrix,
)
from .models import (
    FilterModel,
    ModelPair,
    _is_finite_real,
    _is_real,
    _robustness_terms,
    inverse_moment_constant,
    mixing_rate,
)
from .sensitivity import (
    derivative_from_flow,
    derivative_from_smoothing,
    lipschitz_bound,
    second_derivative_from_flow,
    _apply,
)
from .simulate import (
    NODE_TOL,
    TimeGrid,
    _as_generator,
    _check_whole,
    simulate_increments_batch,
    simulate_observations,
    simulate_signal,
    spawn_generators,
)

MIN_TRIALS = 100
DENSE_SPACING = 0.1
BOUND_GRADE_DT = 0.01
ALLOWANCE_FACTOR = 10.0
DEFAULT_CHECKPOINTS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
REFINEMENT_LADDER = (4e-3, 2e-3, 1e-3, 5e-4)
# The model components a convergence sweep can move toward the truth.
_SWEEP_COMPONENTS = ("initial", "generator", "levels")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs: models, grid, trial count, seed, checkpoints.

    Checkpoints must be finite; those beyond the horizon are dropped, and the rest
    must be distinct grid nodes.

    ``sweep_sizes`` rescale the approximate model toward the truth (1 keeps the
    template, 0 is the truth itself); ``sweep_components`` selects which of the
    initial law, rate matrix and observation levels move, at least one.
    """

    pair: ModelPair
    grid: TimeGrid
    n_trials: int
    master_seed: int
    checkpoints: tuple = DEFAULT_CHECKPOINTS
    sweep_sizes: tuple | None = None
    sweep_components: tuple = _SWEEP_COMPONENTS
    strict_tolerance: bool = False

    def __post_init__(self):
        for name in ("n_trials", "master_seed"):
            _check_whole(name, getattr(self, name))
        if not isinstance(self.strict_tolerance, (bool, np.bool_)):
            raise ConfigError(f"strict_tolerance must be a bool, got {self.strict_tolerance!r}")
        if self.n_trials < MIN_TRIALS:
            raise InsufficientTrialsError(
                f"need at least {MIN_TRIALS} trials for reported statistics, got {self.n_trials}"
            )
        checkpoints = _reals("checkpoints", self.checkpoints)
        if not all(map(_is_finite_real, checkpoints)):
            raise ConfigError(f"checkpoints must be finite, got {list(checkpoints)}")
        kept = tuple(c for c in checkpoints if c <= self.grid.t_end + NODE_TOL)
        if not kept:
            raise ConfigError("no checkpoint lies on the grid horizon")
        nodes = [self.grid.node(c) for c in kept]
        if len(set(nodes)) < len(nodes):
            raise ConfigError("two checkpoints fall on the same grid node")
        object.__setattr__(self, "checkpoints", tuple(sorted(float(c) for c in kept)))
        if self.sweep_sizes is not None:
            sizes = tuple(float(s) for s in _reals("sweep_sizes", self.sweep_sizes))
            decreasing = list(sizes) == sorted(sizes, reverse=True)
            if not (sizes and decreasing and all(0.0 < s <= 1.0 for s in sizes)):
                raise ConfigError("sweep sizes must be nonempty, decreasing and lie in (0, 1]")
            object.__setattr__(self, "sweep_sizes", sizes)
        _check_components(self.sweep_components)
        object.__setattr__(self, "sweep_components", tuple(self.sweep_components))
        if self.grid.dt > BOUND_GRADE_DT:
            warnings.warn(
                f"dt={self.grid.dt} exceeds the bound-verification step {BOUND_GRADE_DT}; "
                "expect integrator error to contaminate bound comparisons",
                stacklevel=2,
            )


@dataclass
class ExperimentReport:
    """Aggregated outcome of one experiment run.

    ``table`` holds one row per checkpoint (or sweep entry) with the Monte Carlo
    statistic, its 3-sigma half width, the analytic bound and the violation
    flag; ``violations`` totals every failed comparison after the documented
    integrator allowance.
    """

    experiment: str
    master_seed: int
    n_trials: int
    constants: dict
    table: list
    supplementary: dict
    violations: int
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _model_lists(model: FilterModel) -> dict:
    """A model's initial law, rate matrix and observation levels as plain lists."""
    return {
        "initial": model.initial.tolist(),
        "generator": model.generator.entries.tolist(),
        "levels": model.observation.levels.tolist(),
    }


def spec_to_mapping(spec: ExperimentSpec) -> dict:
    """Resolved, JSON-ready echo of a spec (reproducibility contract)."""
    return _jsonable(
        {
            "model": _model_lists(spec.pair.true_model),
            "approx": _model_lists(spec.pair.approx_model),
            "grid": {"t_end": spec.grid.t_end, "dt": spec.grid.dt},
            **{f.name: getattr(spec, f.name) for f in fields(spec) if f.name not in ("pair", "grid")},
        }
    )


def _report(experiment: str, spec: ExperimentSpec, n_trials: int, **parts) -> ExperimentReport:
    """Stamp a runner's constants, table, supplementary and violations with the
    experiment name, the seed, the trial count it used and the spec's echo."""
    return ExperimentReport(experiment=experiment, master_seed=spec.master_seed, n_trials=n_trials,
                            config=spec_to_mapping(spec), **parts)


def _reals(name: str, values) -> tuple:
    """``values`` as a tuple; ConfigError unless they are a list or tuple of real
    numbers other than bools."""
    if not isinstance(values, (list, tuple)) or not all(_is_real(v) for v in values):
        raise ConfigError(f"{name} must be a list or tuple of real numbers, got {values!r}")
    return tuple(values)


def _check_components(components) -> None:
    """Raise ConfigError unless ``components`` is a list or tuple naming one or
    more sweep components."""
    if not isinstance(components, (list, tuple)):
        raise ConfigError(f"sweep_components must be a list or tuple, got {components!r}")
    # Compared, not hashed or sorted: a YAML list may hold a list or a number.
    unknown = [c for c in components if c not in _SWEEP_COMPONENTS]
    if unknown or not components:
        raise ConfigError(f"unknown sweep components: {unknown}" if unknown
                          else f"sweep components must name one or more of {list(_SWEEP_COMPONENTS)}")


def interpolate_pair(pair: ModelPair, size: float, components=_SWEEP_COMPONENTS) -> ModelPair:
    """Move the named components of the truth toward the approximate model:
    each becomes ``t + size * (a - t)``, and the others stay the truth's.
    Raises ConfigError unless ``components`` names one or more of the initial
    law, the rate matrix and the levels ("initial", "generator", "levels")."""
    _check_components(components)
    approx = _model_lists(pair.approx_model)
    moved = {name: np.asarray(t) + size * (np.asarray(approx[name]) - t) if name in components else t
             for name, t in _model_lists(pair.true_model).items()}
    return ModelPair(true_model=pair.true_model, approx_model=FilterModel.from_raw(**moved))


def measure_integrator_tolerance(model: FilterModel, grid: TimeGrid, master_seed: int) -> float:
    """Step-halving probe: l1 gap between the filter at dt and at dt/2 on one path.

    Pathwise bound checks later allow ten times this value; the probe seed is
    derived from the master seed so the allowance is reproducible.
    """
    fine = grid.refined(2)
    sig, noise = spawn_generators([master_seed, 0xA110], 2)
    path = simulate_signal(model.initial, model.generator, fine, sig)
    obs_fine = simulate_observations(path, model.observation, fine, noise)
    steps = obs_fine.increments.reshape(-1, 2)
    # Both filters advance block by block in lockstep: a fine step is the two
    # fine cells inside one coarse cell, so node k of each block is the same time.
    fine_blocks = _scan_path(model.initial, steps, fine.dt, model.generator, model.observation)
    coarse_blocks = _scan_path(model.initial, steps.sum(axis=1), grid.dt, model.generator,
                               model.observation)
    # np.maximum keeps a NaN gap, so a filter that broke down gives no finite allowance
    gap = 0.0
    for (rho_f, _), (rho_c, _) in zip(fine_blocks, coarse_blocks):
        gap = float(np.maximum(gap, np.abs(rho_f - rho_c).sum(axis=1).max()))
    return gap


def _allowance(spec: ExperimentSpec) -> float:
    if spec.strict_tolerance:
        return 0.0
    return ALLOWANCE_FACTOR * measure_integrator_tolerance(spec.pair.true_model, spec.grid, spec.master_seed)


def _stats(samples: np.ndarray) -> tuple[float, float]:
    """Mean and 3-sigma CLT half width along the trial axis (at least MIN_TRIALS).

    Both are taken on the samples scaled by the power of two of their largest
    magnitude, and scaled back: squared deviations of samples near the top of
    the double range stay finite, and the scaling is exact for normal doubles,
    so other samples keep their bits."""
    _, exp = math.frexp(float(np.abs(samples).max()))
    scaled = np.ldexp(samples, -exp)
    return (float(np.ldexp(scaled.mean(), exp)),
            3.0 * float(np.ldexp(scaled.std(ddof=1), exp)) / math.sqrt(samples.shape[0]))


def _dense_nodes(grid: TimeGrid) -> np.ndarray:
    step = max(1, round(DENSE_SPACING / grid.dt))
    nodes = np.arange(0, grid.n_steps + 1, step)
    if nodes[-1] != grid.n_steps:
        nodes = np.append(nodes, grid.n_steps)
    return nodes


def _campaign(spec: ExperimentSpec, models, n_trials: int, excursion_bound=None) -> dict:
    """Simulate the true model's paths once and run ``models`` on them in lockstep.

    Records, once per recorded node (the sorted union of the dense nodes and
    the checkpoints, picked from the stack's blocks of nodes), each later model's
    squared l2 and l1 gap to the first, (F-1, n_trials, nodes), and the first
    model's reciprocal smallest weight, (n_trials, nodes), and counts per later
    model the (trial, node) pairs where the squared gap exceeds the l1 gap.  Each
    record's dense and checkpoint columns come back as C-ordered copies: the layout
    fixes the means' summation order.  ``excursion_bound`` (one value per grid node)
    also counts, on each block of nodes where it lies, the (trial, node) pairs whose
    l1 gap exceeds it (or is NaN).  The block's l1 gaps are summed state by state,
    and the pairs within 2 d eps of their bound, where a different summation order
    could cross it, are recounted with ``sum(axis=-1)`` over the state axis: the
    count is that of ``sum(axis=-1)`` at every node, whatever order numpy sums
    in.  Each distinct model runs once: one whose initial law, rate
    matrix and levels are bytewise equal to an earlier one's shares that filter.
    """
    truth = spec.pair.true_model
    grid = spec.grid
    increments = simulate_increments_batch(
        truth.initial, truth.generator, truth.observation, grid, spec.master_seed, n_trials
    )
    dense = _dense_nodes(grid)
    checkpoints = [grid.node(c) for c in spec.checkpoints]
    # Sorted in Python: np.union1d would import numpy.ma, about 1 MiB of peak memory.
    pos = {node: i for i, node in enumerate(sorted({*dense.tolist(), *checkpoints}))}
    sq_gap, l1_gap = np.empty((2, len(models) - 1, n_trials, len(pos)))
    inv_min = np.empty((n_trials, len(pos)))
    excursions = 0
    row_of = {}
    rows = [row_of.setdefault((m.initial.tobytes(), m.generator.entries.tobytes(),
                               m.observation.levels.tobytes()), len(row_of)) for m in models]
    filters = [(m.initial, m.generator, m.observation)
               for m in (models[rows.index(r)] for r in range(len(row_of)))]
    later = rows[1:] if len(row_of) < len(models) else slice(1, None)  # a view when no row repeats
    d = spec.pair.d
    band = 2 * d * np.finfo(float).eps
    lo = 0
    for block in _lockstep(filters, increments, grid.dt):
        nodes = block.reshape(len(block), n_trials, -1, d)
        if excursion_bound is not None:
            bound = excursion_bound[lo:lo + len(block), None, None]
            l1 = np.abs(nodes[..., later, 0] - nodes[..., :1, 0])
            for j in range(1, d):
                l1 += np.abs(nodes[..., later, j] - nodes[..., :1, j])
            over = ~(l1 <= bound)
            # Any two orders of summing d terms >= 0 differ by at most 2 gamma_(d-1)
            # < 2 d eps of their sum, so only a pair in this band (or an inf l1)
            # can fall on the other side of its bound under sum(axis=-1).
            near = np.abs(l1 - bound) <= band * l1
            if near.any():
                exact = np.abs((nodes[..., later, :] - nodes[..., :1, :])[near]).sum(axis=-1)
                over[near] = ~(exact <= np.broadcast_to(bound, near.shape)[near])
            excursions += int(over.sum())
        for k in range(lo, lo + len(block)):
            i = pos.get(k)
            if i is not None:
                states = nodes[k - lo].swapaxes(0, 1)
                diff = states[later] - states[0]
                l1_gap[..., i] = np.abs(diff).sum(axis=-1)
                sq_gap[..., i] = (diff * diff).sum(axis=-1)
                inv_min[:, i] = 1.0 / states[0].min(axis=1)
        lo += len(block)

    def columns(record, nodes):
        return np.ascontiguousarray(record[..., [pos[node] for node in nodes]])

    return {"dense_times": dense * grid.dt, "excursions": excursions,
            "sq_dense": columns(sq_gap, dense), "l1_dense": columns(l1_gap, dense),
            "sq_chk": columns(sq_gap, checkpoints), "l1_chk": columns(l1_gap, checkpoints),
            "inv_min": columns(inv_min, checkpoints), "l1_dominance": (~(sq_gap <= l1_gap)).sum(axis=(1, 2))}


def _rows(samples, key: str, checkpoints, bounds, allowance: float) -> tuple[list, bool]:
    """One report row per checkpoint: mean and 3-sigma half width of
    ``samples[:, i]`` against ``bounds[i]`` plus the allowance.  Also returns
    whether a row violates its bound only through its noise band (inconclusive).
    """
    rows = []
    inconclusive = False
    for i, (c, bound) in enumerate(zip(checkpoints, bounds)):
        mean, hw = _stats(samples[:, i])
        violation = not (mean + hw <= bound + allowance)
        inconclusive = inconclusive or (violation and mean <= bound + allowance)
        rows.append({"time": float(c), key: mean, "half_width": hw,
                     "bound": float(bound), "violation": bool(violation)})
    return rows, inconclusive


def _escalate_once(name: str, spec: ExperimentSpec, models, allowance: float, read,
                   excursion_bound=None) -> ExperimentReport:
    """Run the campaign of ``models`` at the spec's trial count and ``read`` it
    (campaign -> report parts, inconclusive); if inconclusive, re-run both once
    in full at four times the trials.  The parts are the constants, table,
    supplementary and violations of ``_report``; the allowance is added to the
    constants and whether the run escalated to the supplementary.
    """
    for n in (spec.n_trials, 4 * spec.n_trials):
        parts, inconclusive = read(_campaign(spec, models, n, excursion_bound))
        if not inconclusive:
            break
    parts["constants"]["allowance"] = allowance
    parts["supplementary"]["escalated"] = n > spec.n_trials
    return _report(name, spec, n, **parts)


def _robustness_entries(spec: ExperimentSpec, camp: dict, approx_models, allowance: float):
    """Robustness report parts of each approximate model, run in ``camp`` after
    the truth: constants with the bound, checkpoint rows as the table, the
    supremum-over-time estimate, and the violations (rows plus l1 dominance).
    Also returns whether any row is inconclusive."""
    truth = spec.pair.true_model
    entries = []
    inconclusive = False
    for f, approx in enumerate(approx_models):
        c, gaps, bound = _robustness_terms(ModelPair(true_model=truth, approx_model=approx))
        rows, straddles = _rows(camp["sq_chk"][f], "mean_sq_error", spec.checkpoints,
                                [bound] * len(spec.checkpoints), allowance)
        inconclusive = inconclusive or straddles
        dense_mean = camp["sq_dense"][f].mean(axis=0)
        sup = int(np.argmax(dense_mean))
        entries.append({
            "table": rows,
            "constants": {**c._asdict(), **gaps, "bound": bound},
            "supplementary": {
                "sup_estimate": float(dense_mean[sup]),
                "sup_half_width": _stats(camp["sq_dense"][f][:, sup])[1],
                "sup_time": float(camp["dense_times"][sup]),
                "slack_ratio": bound / max(float(dense_mean[sup]), 1e-300),
                "dense_curve": {"time": camp["dense_times"], "mean_sq_error": dense_mean},
                "l1_dominance_violations": int(camp["l1_dominance"][f]),
            },
            "violations": sum(r["violation"] for r in rows) + int(camp["l1_dominance"][f]),
        })
    return entries, inconclusive


def run_robustness_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Misspecified-filter error versus the uniform-in-time analytic bound.

    Each trial simulates the true model, runs the exact and the misspecified
    filters on the same observations, and records squared l2 errors at the
    checkpoints plus a dense grid approximating the supremum over time.  The
    trial count escalates fourfold once if a comparison straddles the bound
    within its noise band.
    """
    spec.pair.require_mixing()
    allowance = _allowance(spec)
    truth, approx = spec.pair.true_model, spec.pair.approx_model

    def read(camp):
        (core,), inconclusive = _robustness_entries(spec, camp, [approx], allowance)
        core["constants"]["beta"] = mixing_rate(approx.generator)
        core["supplementary"].update(
            inverse_moment=[{"time": float(c), "mean": mean, "half_width": hw}
                            for c, (mean, hw) in zip(spec.checkpoints, map(_stats, camp["inv_min"].T))],
            inverse_moment_constant=inverse_moment_constant(truth.initial, truth.generator, truth.observation),
        )
        return core, inconclusive

    return _escalate_once("robustness", spec, [truth, approx], allowance, read)


def run_forgetting_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Decay of the gap between filters started from the two initial laws.

    Both filters run the approximate model on observations generated by the true
    model.  Counts pathwise excursions of the l1 gap above the exponential
    forgetting bound at every grid node and fits the decay rate of the mean gap
    on the window [2, 10].
    """
    truth, approx = spec.pair.true_model, spec.pair.approx_model
    beta = mixing_rate(approx.generator)
    allowance = _allowance(spec)
    mu_1, mu_2 = truth.initial, approx.initial
    prefactor = lipschitz_bound(mu_1, mu_2, 0.0, 0.0, approx.generator)
    node_bounds = np.array([prefactor * math.exp(-beta * t) + allowance for t in spec.grid.times])
    chk_bounds = [prefactor * math.exp(-beta * c) for c in spec.checkpoints]

    def read(camp):
        rows, inconclusive = _rows(camp["l1_chk"][0], "mean_gap", spec.checkpoints, chk_bounds, allowance)
        mean_curve = camp["l1_dense"][0].mean(axis=0)
        dense_times = camp["dense_times"]
        span = (dense_times >= 2.0) & (dense_times <= 10.0)
        window = span & (mean_curve > 0.0)
        fits = prefactor > 0.0 and int(window.sum()) >= 2
        if fits:
            fitted_rate = float(np.polyfit(dense_times[window], np.log(mean_curve[window]), 1)[0])
        else:
            fitted_rate = float("nan")
        # No fit passes only for want of a gap to fit; a non-finite mean gap fails.
        rate_ok = bool(np.all(np.isfinite(mean_curve[span]))) and (not fits or fitted_rate <= -beta + 0.1)
        return {
            "constants": {"beta": beta, "prefactor": prefactor},
            "table": rows,
            "supplementary": {
                "fitted_rate": fitted_rate,
                "rate_within_bound": bool(rate_ok),
                "pathwise_violations": camp["excursions"],
                "decay_curve": {"time": dense_times, "mean_gap": mean_curve},
            },
            "violations": sum(r["violation"] for r in rows) + camp["excursions"] + (0 if rate_ok else 1),
        }, inconclusive

    return _escalate_once("forgetting", spec, [replace(approx, initial=mu_1), approx], allowance, read,
                          node_bounds)


def run_inverse_moment_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Expected reciprocal of the smallest filter weight against its uniform bound."""
    truth = spec.pair.true_model
    analytic = inverse_moment_constant(truth.initial, truth.generator, truth.observation)
    allowance = _allowance(spec)

    def read(camp):
        rows, inconclusive = _rows(camp["inv_min"], "mean", spec.checkpoints,
                                   [analytic] * len(spec.checkpoints), allowance)
        peak = float(np.max([r["mean"] for r in rows]))
        late = {r["time"]: r for r in rows}
        stationarity = None
        if 10.0 in late and 20.0 in late:
            drift = abs(late[20.0]["mean"] - late[10.0]["mean"])
            stationarity = {
                "drift": drift,
                "within_noise": bool(drift <= 2.0 * (late[10.0]["half_width"] + late[20.0]["half_width"])),
            }
        return {
            "constants": {"bound": analytic},
            "table": rows,
            "supplementary": {
                "peak_estimate": peak,
                "slack_ratio": analytic / max(peak, 1e-300),
                "initial_exact": float(1.0 / truth.initial.min()),
                "stationarity": stationarity,
            },
            "violations": sum(r["violation"] for r in rows),
        }, inconclusive

    return _escalate_once("inverse-moment", spec, [truth], allowance, read)


def run_convergence_sweep(spec: ExperimentSpec) -> ExperimentReport:
    """Sup-over-time error as the perturbed model interpolates toward the truth.

    Simulates the observation paths once and runs the truth and every sweep
    entry's model on them as one stack, so all entries share the same paths
    and the error curve is monotone up to Monte Carlo noise.  The entry at
    size 0 is the truth itself and shares its filter, so its errors are
    exactly 0.0.
    """
    if spec.sweep_sizes is None:
        raise ConfigError("convergence sweep needs sweep_sizes in the spec")
    spec.pair.require_mixing()
    allowance = _allowance(spec)
    sizes = (0.0,) + spec.sweep_sizes
    models = [interpolate_pair(spec.pair, size, spec.sweep_components).approx_model for size in sizes]
    camp = _campaign(spec, [spec.pair.true_model, *models], spec.n_trials)
    cores, _ = _robustness_entries(spec, camp, models, allowance)
    violations = sum(core["violations"] for core in cores)
    entries = [{"size": float(size), "sup_error": core["supplementary"]["sup_estimate"],
                "half_width": core["supplementary"]["sup_half_width"], "bound": core["constants"]["bound"],
                "checkpoint_violations": sum(r["violation"] for r in core["table"])}
               for size, core in zip(sizes, cores)]

    floor = entries[0]["sup_error"]
    ordered = entries[1:]  # sweep sizes are validated decreasing
    for a, b in zip(ordered, ordered[1:]):
        monotone = b["sup_error"] <= a["sup_error"] + 2.0 * (a["half_width"] + b["half_width"])
        violations += int(not monotone)
        b["monotone_within_noise"] = bool(monotone)
    final = ordered[-1]
    final_ok = final["sup_error"] <= 2.0 * floor + final["bound"] + allowance
    violations += int(not final_ok)
    ratios = [
        {"from_size": a["size"], "to_size": b["size"],
         "error_ratio": a["sup_error"] / max(b["sup_error"], 1e-300)}
        for a, b in zip(ordered, ordered[1:])
    ]
    return _report(
        "convergence-sweep", spec, spec.n_trials,
        constants={"allowance": allowance, "floor": float(floor)},
        table=entries,
        supplementary={"final_entry_ok": bool(final_ok), "halving_ratios": ratios},
        violations=violations,
    )


FD_STEP_FIRST = 1e-6
FD_STEP_SECOND = 1e-4
AUDIT_TOL_FIRST = 1e-4
AUDIT_TOL_SECOND = 1e-2
AUDIT_TOL_TANGENCY = 1e-8


def _relative_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    num = np.abs(a - b).sum(axis=-1)
    den = np.maximum(np.abs(a).sum(axis=-1), np.abs(b).sum(axis=-1))
    return num / np.maximum(den, 1e-300)


def run_derivative_audit(spec: ExperimentSpec) -> ExperimentReport:
    """Cross-route and finite-difference agreement of the filter derivatives.

    One random zero-sum direction per trial, evaluated at the true initial law
    over the horizon min(1, t_end): flow route, smoothing route and central
    differences must agree pairwise; the second derivative is checked against
    second differences; every output must sum to zero.
    """
    truth = spec.pair.true_model
    grid = spec.grid
    t_audit = min(1.0, grid.t_end)
    m = spec.n_trials
    increments = simulate_increments_batch(
        truth.initial, truth.generator, truth.observation, TimeGrid(t_audit, grid.dt), spec.master_seed, m
    )
    d = truth.d
    flows, _ = _flow_loop(np.broadcast_to(np.eye(d), (m, d, d)), increments, grid.dt,
                          *split_rate_matrix(truth.generator.entries), truth.observation.levels)

    z = _as_generator([spec.master_seed, 0xD1F]).standard_normal((m, d))
    v = z - z.mean(axis=1, keepdims=True)
    v /= np.abs(v).sum(axis=1, keepdims=True)

    nu = truth.initial
    first_flow = derivative_from_flow(flows, nu, v)
    first_smooth = derivative_from_smoothing(flows, nu, v)
    second_flow = second_derivative_from_flow(flows, nu, v)

    def projected(x, entries=flows):
        image = _apply(entries, x)
        return image / image.sum(axis=1, keepdims=True)

    eps, eps2 = FD_STEP_FIRST, FD_STEP_SECOND
    first_fd = (projected(nu + eps * v) - projected(nu - eps * v)) / (2 * eps)
    # Where f'' is near zero the second difference of doubles is only rounding,
    # so it is formed in extended precision (double where longdouble is double).
    wide = flows.astype(np.longdouble)
    second_fd = ((projected(nu + eps2 * v, wide) - 2.0 * projected(nu, wide)
                  + projected(nu - eps2 * v, wide)) / eps2**2).astype(float)
    tangency = float(np.max([np.abs(x.sum(axis=1)).max() for x in (first_flow, first_smooth, second_flow)]))
    tangency_bad = not (tangency <= AUDIT_TOL_TANGENCY)

    violations = int(tangency_bad)
    table = []
    for name, a, b, tolerance in (
        ("flow_vs_smoothing", first_flow, first_smooth, AUDIT_TOL_FIRST),
        ("flow_vs_fd", first_flow, first_fd, AUDIT_TOL_FIRST),
        ("smoothing_vs_fd", first_smooth, first_fd, AUDIT_TOL_FIRST),
        ("second_flow_vs_fd", second_flow, second_fd, AUDIT_TOL_SECOND),
    ):
        gaps = _relative_gap(a, b)
        count = int((~(gaps <= tolerance)).sum())
        violations += count
        table.append(
            {"comparison": name, "max_relative_gap": float(gaps.max()),
             "mean_relative_gap": float(gaps.mean()), "tolerance": tolerance,
             "violations": count}
        )

    return _report(
        "derivative-audit", spec, m,
        constants={"horizon": float(t_audit), "fd_step_first": eps, "fd_step_second": eps2},
        table=table,
        supplementary={"max_tangency_sum": tangency, "tangency_ok": bool(not tangency_bad)},
        violations=violations,
    )


def run_integrator_refinement(spec: ExperimentSpec) -> ExperimentReport:
    """Step-size sensitivity of both integrator routes.

    Simulates at half the finest ladder step, aggregates increments upward so
    every level sees the same underlying paths, and reports mean l1 endpoint
    errors against the finest run.  A sub-step study holds the observation
    polygon of the coarsest level fixed to isolate the one-cell solver order:
    its entry j splits every coarse cell into 2**j equal cells, so it runs at
    the step of ladder level j.  Each level below the coarsest therefore runs
    with its sub-step entry as one lockstep stack of 2m paths, whose first m
    rows are the ladder run; at the coarsest level the ladder run is the
    study's first entry.
    """
    truth = spec.pair.true_model
    t_r = min(1.0, spec.grid.t_end)
    dt_ref = REFINEMENT_LADDER[-1] / 2.0
    fine_grid = TimeGrid(t_r, dt_ref)
    m = min(spec.n_trials, 128)
    increments = simulate_increments_batch(
        truth.initial, truth.generator, truth.observation, fine_grid, spec.master_seed, m
    )

    def gauge_end(inc, dt):
        for block in _lockstep([(truth.initial, truth.generator, truth.observation)], inc, dt):
            pass
        return block[-1]

    reference = gauge_end(increments, dt_ref)
    table = []
    gauge_errors = []
    split_ends = []
    for j, dt in enumerate(REFINEMENT_LADDER):
        # Level j and sub-step entry j share one stack only if the ladder halves exactly.
        assert REFINEMENT_LADDER[0] / 2**j == dt, "the refinement ladder must halve exactly"
        factor = round(dt / dt_ref)
        cells = increments.shape[1] // factor
        # Rows :m hold level j's increments, rows m: the coarsest ones split into 2**j cells.
        stack = np.empty((2 * m if j else m, cells))
        inc = np.sum(increments.reshape(m, cells, factor), axis=2, out=stack[:m])
        if j == 0:
            coarse_inc = inc
        else:
            np.divide(coarse_inc[:, :, None], 2**j, out=stack[m:].reshape(m, -1, 2**j))
        ends = gauge_end(stack, dt)
        g_end = ends[:m]
        split_ends.append(ends[m:] if j else g_end)
        e_end = _euler_batch_values(truth.initial, inc, dt, truth.generator, truth.observation)
        g_err = float(np.abs(g_end - reference).sum(axis=1).mean())
        e_err = float(np.abs(e_end - reference).sum(axis=1).mean())
        gauge_errors.append(g_err)
        table.append({"dt": dt, "gauge_error": g_err, "euler_error": e_err})
    for i in range(1, len(table)):
        table[i]["gauge_halving_ratio"] = gauge_errors[i - 1] / max(gauge_errors[i], 1e-300)
    ode_errors = [float(np.abs(e - split_ends[-1]).sum(axis=1).mean()) for e in split_ends[:-1]]
    ode_ratios = [ode_errors[i] / max(ode_errors[i + 1], 1e-300) for i in range(len(ode_errors) - 1)]

    # The pipeline halving ratio is dominated by the sqrt(dt) information term
    # of the refined observation polygon, so it is reported, not asserted; the
    # one-cell solver order is the enforceable check.
    violations = 0
    if not all(r >= 8.0 for r in ode_ratios):
        violations += 1

    observed_order = [math.log2(r) for r in ode_ratios]
    return _report(
        "integrator-refinement", spec, m,
        constants={"horizon": float(t_r), "reference_dt": dt_ref},
        table=table,
        supplementary={
            "ode_refinement_errors": ode_errors,
            "ode_refinement_ratios": ode_ratios,
            "ode_observed_order": observed_order,
            "coarsest_halving_ratio": table[1]["gauge_halving_ratio"],
        },
        violations=violations,
    )


EXPERIMENTS = {
    "robustness": (
        run_robustness_experiment,
        "misspecified-filter mean squared error vs the uniform-in-time analytic bound",
    ),
    "forgetting": (
        run_forgetting_experiment,
        "decay of the gap between filters started from different initial laws",
    ),
    "inverse-moment": (
        run_inverse_moment_experiment,
        "expected reciprocal smallest filter weight vs its closed-form bound",
    ),
    "convergence-sweep": (
        run_convergence_sweep,
        "sup-over-time error as the perturbed model shrinks toward the truth",
    ),
    "derivative-audit": (
        run_derivative_audit,
        "cross-route and finite-difference agreement of filter derivatives",
    ),
    "integrator-refinement": (
        run_integrator_refinement,
        "step-size sensitivity study of both filter integrators",
    ),
}


def list_experiments() -> list[tuple[str, str]]:
    """Registered experiment names with one-line descriptions."""
    return [(name, desc) for name, (_, desc) in EXPERIMENTS.items()]


def run_experiment(name: str, spec: ExperimentSpec) -> ExperimentReport:
    """Dispatch an experiment by registry name."""
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise UnknownExperimentError(f"unknown experiment {name!r}; registered: {known}")
    runner, _ = EXPERIMENTS[name]
    return runner(spec)
