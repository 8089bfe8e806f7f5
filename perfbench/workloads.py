"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed during set-up and then
offers a fixed list of operations.  One pass runs them in order, each only
after the previous one returned (a closed loop with one client).  An operation
returns an ``Outcome``: its output as canonical JSON text (compared across
passes and against the stored reference), the failed checks, and the nominal
work in path-cells (paths x grid cells x filters) used for throughput.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

ALLOWANCE_FACTOR = 10.0  # as in tests/test_sensitivity.py: lhs <= rhs + 10 * probe
ENDPOINT_TOL = 1e-12  # gauge trajectory vs normalized zakai flow, l1
DERIVATIVE_REL_TOL = 1e-10  # flow route vs smoothing route, relative l1
RESIDUAL_TOL = 1e-4  # error representation residual, as in the test suite
MASS_TOL = 1e-12  # |sum(pi) - 1| for every filter value
# Report rows whose violations are reported, not counted as failures, while
# they look like the known flake.  The derivative audit's second-derivative
# check against second differences has a relative tolerance only; on about one
# seed in ten one of its 200 trials has a near-zero second derivative and the
# relative gap of that trial exceeds 1e-2 (seed 6: 1.15e-2, seed 71: 0.43).
# Over 150 seeds it was never more than one trial, and the mean gap stayed at
# most 2.3e-3.  So the row is excused only with at most KNOWN_RED_MAX_TRIALS
# violating trials and a mean gap within the row's tolerance; a broken second
# derivative fails many trials and fails the operation.  Settling the flake
# belongs to the program, not to the benchmark.
KNOWN_RED_ROWS = {("derivative-audit", "second_flow_vs_fd")}
KNOWN_RED_MAX_TRIALS = 2

REF_MODEL = {"initial": [0.5, 0.5], "generator": [[-1.0, 1.0], [1.0, -1.0]], "levels": [0.0, 1.0]}
DESK_APPROX = {"initial": [0.3, 0.7], "generator": [[-1.3, 1.3], [0.8, -0.8]], "levels": [0.1, 1.15]}
MATCHED_APPROX = {"initial": [0.3, 0.7], "generator": [[-1.1, 1.1], [0.9, -0.9]], "levels": [0.0, 1.0]}
THREE_STATE = {
    "initial": [0.2, 0.3, 0.5],
    "generator": [[-3.0, 1.0, 2.0], [2.0, -3.0, 1.0], [1.0, 2.0, -3.0]],
    "levels": [0.0, 1.0, -1.0],
}
THREE_STATE_APPROX = {
    "initial": [0.3, 0.3, 0.4],
    "generator": [[-3.2, 1.1, 2.1], [2.0, -2.9, 0.9], [1.0, 2.2, -3.2]],
    "levels": [0.05, 1.1, -0.95],
}
DESK_CHECKPOINTS = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]


@dataclass
class Outcome:
    output: str
    failures: list = field(default_factory=list)
    path_cells: int = 0
    warnings: int = 0
    escalated: bool = False
    known_red: int = 0


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=True)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def filter_value_failures(name: str, values) -> list:
    """Finite, strictly positive and unit mass, for every row of a value array."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        return [f"{name}: non-finite filter value"]
    if np.any(arr <= 0.0):
        return [f"{name}: filter value not strictly positive (min {arr.min():.3e})"]
    mass = float(np.abs(arr.sum(axis=-1) - 1.0).max())
    if mass > MASS_TOL:
        return [f"{name}: unit mass off by {mass:.3e}"]
    return []


def write_config(dest: Path, truth: dict, approx: dict, *, t_end: float, dt: float,
                 n_trials: int, seed: int, checkpoints=None, sweep=None) -> None:
    """A YAML run configuration in the format ``wonhamlab.config`` reads."""
    experiment = {"n_trials": n_trials, "seed": seed}
    if checkpoints is not None:
        experiment["checkpoints"] = checkpoints
    if sweep is not None:
        experiment["sweep"] = sweep
    mapping = {"model": truth, "approx": approx, "grid": {"t_end": t_end, "dt": dt},
               "experiment": experiment}
    dest.write_text(yaml.safe_dump(mapping, sort_keys=True), encoding="utf-8")


def _experiment_cells(name: str, spec, report) -> int:
    """Nominal path-cells of one registered experiment, scaled by the reported n_trials."""
    n_cells = spec.grid.n_steps
    probe = 3 * n_cells  # allowance probe: one path at dt/2 plus one at dt
    n = report.n_trials
    d = spec.pair.d
    if name in ("robustness", "forgetting"):
        return 2 * n * n_cells + probe
    if name == "inverse-moment":
        return n * n_cells + probe
    if name == "convergence-sweep":
        return (1 + len(spec.sweep_sizes)) * 2 * n * n_cells + probe
    if name == "derivative-audit":
        return n * spec.grid.node(min(1.0, spec.grid.t_end)) * d
    if name == "integrator-refinement":
        # Per path on [0, 1]: reference at dt 2.5e-4 (4000 cells), gauge and Euler
        # on the ladder 4e-3..5e-4 (2 x 3750), and the sub-step study (3750).
        return n * 15250
    raise KeyError(name)


def _excused(experiment: str, row: dict) -> bool:
    """Whether a report row's violations are the known flake (see KNOWN_RED_ROWS)."""
    return ((experiment, row.get("comparison")) in KNOWN_RED_ROWS
            and row["violations"] <= KNOWN_RED_MAX_TRIALS
            and row["mean_relative_gap"] <= row["tolerance"])


class ExperimentWorkload:
    """Registered experiments driven through YAML config, as ``wonhamlab run`` does."""

    experiments: tuple = ()

    configs: dict = {}  # experiment name -> (config file name, write_config arguments)

    def __init__(self, wl, seed: int, out_dir: Path):
        self.wl = wl
        self.seed = seed
        self.out_dir = out_dir
        self.config_paths = {name: out_dir / fname for name, (fname, _) in self.configs.items()}

    def write_inputs(self) -> None:
        for name, (fname, kwargs) in self.configs.items():
            write_config(self.out_dir / fname, seed=self.seed, **kwargs)

    def prepare(self) -> None:
        """Program-side set-up: parse every configuration and build its spec."""
        for path in set(self.config_paths.values()):
            self.wl.config.load_config(path).to_spec()

    def ops(self):
        return [(name, lambda name=name: self.run_one(name)) for name in self.experiments]

    def run_one(self, name: str) -> Outcome:
        wl = self.wl
        config = wl.config.load_config(self.config_paths[name])
        spec = config.to_spec()
        report = wl.run_experiment(name, spec)
        wl.cli.write_report(report, self.out_dir / "reports")
        text = report.to_json()
        known_red = sum(row["violations"] for row in report.table if _excused(name, row))
        failures = []
        if report.violations - known_red != 0:
            failures.append(f"{name}: {report.violations - known_red} bound violations")
        if not _finite_numbers(json.loads(text)["table"]):
            failures.append(f"{name}: non-finite value in the report table")
        return Outcome(
            output=text,
            failures=failures,
            path_cells=_experiment_cells(name, spec, report),
            escalated=bool(report.supplementary.get("escalated", False)),
            known_red=known_red,
        )


class DeskCampaign(ExperimentWorkload):
    """Robustness, forgetting and inverse-moment at the ROADMAP desk spec."""

    experiments = ("robustness", "forgetting", "inverse-moment")
    truth = REF_MODEL
    _desk = ("desk.yaml", dict(truth=REF_MODEL, approx=DESK_APPROX, t_end=10.0, dt=1e-3,
                               n_trials=200, checkpoints=DESK_CHECKPOINTS))
    configs = dict.fromkeys(experiments, _desk)
    expected = (
        "simulate.simulate_increments_batch", "simulate.simulate_signal",
        "simulate.simulate_observations", "filters.propagate_cell",
        "experiments.measure_integrator_tolerance", "experiments.run_robustness_experiment",
        "experiments.run_forgetting_experiment", "experiments.run_inverse_moment_experiment",
        "models.robustness_constants", "models.inverse_moment_constant", "models.mixing_rate",
        "config.load_config", "cli.write_report",
    )


class MatrixAudit(ExperimentWorkload):
    """Three-state truth: convergence sweep, derivative audit, integrator refinement."""

    experiments = ("convergence-sweep", "derivative-audit", "integrator-refinement")
    truth = THREE_STATE
    _sweep = ("sweep.yaml", dict(truth=THREE_STATE, approx=THREE_STATE_APPROX, t_end=5.0, dt=1e-3,
                                 n_trials=150, sweep=[0.2, 0.1]))
    _audit = ("audit.yaml", dict(truth=THREE_STATE, approx=THREE_STATE_APPROX, t_end=10.0, dt=1e-3,
                                 n_trials=200))
    configs = {"convergence-sweep": _sweep, "derivative-audit": _audit, "integrator-refinement": _audit}
    expected = (
        "simulate.simulate_increments_batch", "simulate.simulate_signal",
        "simulate.simulate_observations", "filters.propagate_cell", "filters.propagate_cell_matrix",
        "experiments.measure_integrator_tolerance", "experiments.run_convergence_sweep",
        "experiments.run_derivative_audit", "experiments.run_integrator_refinement",
        "sensitivity.derivative_from_flow", "sensitivity.second_derivative_from_flow",
        "sensitivity.smoothing_from_flow", "sensitivity._apply",
        "models.robustness_constants", "models.inverse_moment_constant", "models.mixing_rate",
        "config.load_config", "cli.write_report",
    )


class SinglePath:
    """Width-1 routes on one reference-model path of 1e4 cells."""

    T_END, DT, T_LOCAL = 10.0, 1e-3, 2.0
    DIRECTION = (0.5, -0.5)
    truth = REF_MODEL
    expected = (
        "simulate.simulate_signal", "simulate.simulate_observations", "filters.propagate_cell",
        "filters.propagate_cell_matrix", "filters.cell_propagators", "filters.filter_trajectory",
        "filters.euler_filter_trajectory", "filters.zakai_flow",
        "experiments.measure_integrator_tolerance", "sensitivity.derivative_flow",
        "sensitivity.derivative_smoothing_route", "sensitivity.second_derivative_flow",
        "sensitivity.robustness_inequality", "sensitivity.error_representation_check",
        "sensitivity.derivative_from_flow", "sensitivity.smoothing_from_flow", "sensitivity._apply",
    )

    def __init__(self, wl, seed: int, out_dir: Path):
        self.wl = wl
        self.seed = seed
        self.out_dir = out_dir

    def write_inputs(self) -> None:
        """Nothing to write: the path is simulated from the seed in ``prepare``."""

    def prepare(self) -> None:
        """Program-side set-up: build the models and simulate the reference path."""
        wl = self.wl
        self.model = wl.FilterModel.from_raw(**REF_MODEL)
        self.pair = wl.ModelPair(true_model=self.model,
                                 approx_model=wl.FilterModel.from_raw(**MATCHED_APPROX))
        self.grid = wl.TimeGrid(self.T_END, self.DT)
        sig, noise = wl.spawn_generators(self.seed, 2)
        path = wl.simulate_signal(self.model.initial, self.model.generator, self.grid, sig)
        self.obs = wl.simulate_observations(path, self.model.observation, self.grid, noise)

    def ops(self):
        # Results carried between operations are cleared, so each pass checks its own.
        self.gauge_endpoint = None
        self.allowance = None
        return [
            ("trajectory", self.trajectory),
            ("flow", self.flow),
            ("derivative", self.derivative),
            ("probe", self.probe),
            ("inequality", self.inequality),
        ]

    def _args(self):
        m = self.model
        return m.generator, m.observation

    def trajectory(self) -> Outcome:
        wl, m = self.wl, self.model
        traj = wl.filters.filter_trajectory(m.initial, *self._args(), self.obs)
        euler = wl.filters.euler_filter_trajectory(m.initial, *self._args(), self.obs)
        failures = filter_value_failures("gauge trajectory", traj.values)
        failures += filter_value_failures("euler trajectory", euler)
        self.gauge_endpoint = traj.values[-1] if not failures else None
        n = self.grid.n_steps
        return Outcome(
            output=canonical({"gauge_end": traj.values[-1].tolist(),
                              "gauge_log_scale_end": float(traj.log_scale[-1]),
                              "euler_end": euler[-1].tolist()}),
            failures=failures,
            path_cells=2 * n,
        )

    def flow(self) -> Outcome:
        wl, m = self.wl, self.model
        flow = wl.filters.zakai_flow(0.0, self.T_END, self.obs, *self._args())
        x = flow.apply(m.initial)
        endpoint = x / x.sum()
        failures = filter_value_failures("zakai flow endpoint", endpoint)
        if self.gauge_endpoint is None:
            failures.append("no gauge endpoint: the trajectory operation failed")
        else:
            gap = float(np.abs(endpoint - self.gauge_endpoint).sum())
            if not gap <= ENDPOINT_TOL:
                failures.append(f"gauge vs zakai flow endpoint gap {gap:.3e}")
        return Outcome(
            output=canonical({"entries": flow.entries.tolist(), "log_scale": flow.log_scale}),
            failures=failures,
            path_cells=self.grid.n_steps * m.d,
        )

    def derivative(self) -> Outcome:
        wl, m = self.wl, self.model
        v = np.asarray(self.DIRECTION)
        t = self.T_LOCAL
        d_flow = wl.sensitivity.derivative_flow(m.initial, v, 0.0, t, self.obs, *self._args())
        d_smooth = wl.sensitivity.derivative_smoothing_route(m.initial, v, t, self.obs, *self._args())
        d_second = wl.sensitivity.second_derivative_flow(m.initial, v, 0.0, t, self.obs, *self._args())
        gap = float(np.abs(d_flow - d_smooth).sum() / max(np.abs(d_flow).sum(), np.abs(d_smooth).sum()))
        failures = []
        if not gap <= DERIVATIVE_REL_TOL:
            failures.append(f"flow vs smoothing derivative relative gap {gap:.3e}")
        if not np.all(np.isfinite(d_second)):
            failures.append("non-finite second derivative")
        return Outcome(
            output=canonical({"flow": d_flow.tolist(), "smoothing": d_smooth.tolist(),
                              "second": d_second.tolist()}),
            failures=failures,
            path_cells=3 * self.grid.node(t) * m.d,
        )

    def probe(self) -> Outcome:
        value = self.wl.experiments.measure_integrator_tolerance(self.model, self.grid, self.seed)
        failures = [] if math.isfinite(value) and value > 0.0 else [f"probe returned {value!r}"]
        self.allowance = ALLOWANCE_FACTOR * value if not failures else None
        return Outcome(output=canonical({"tolerance": value}), failures=failures,
                       path_cells=3 * self.grid.n_steps)

    def inequality(self) -> Outcome:
        wl = self.wl
        t = self.T_LOCAL
        lhs, rhs = wl.sensitivity.robustness_inequality(t, self.obs, self.pair)
        residual = wl.sensitivity.error_representation_check(t, self.obs, self.pair)
        failures = []
        if self.allowance is None:
            failures.append("no allowance: the probe failed")
        elif not lhs <= rhs + self.allowance:
            failures.append(f"robustness inequality: lhs {lhs:.3e} > rhs {rhs:.3e} + {self.allowance:.3e}")
        if not residual <= RESIDUAL_TOL:
            failures.append(f"representation residual {residual:.3e} > {RESIDUAL_TOL}")
        n_t, d = self.grid.node(t), self.model.d
        return Outcome(
            output=canonical({"lhs": lhs, "rhs": rhs, "residual": residual}),
            failures=failures,
            path_cells=(5 + 4 * d) * n_t,
        )


WORKLOADS = {
    "desk-campaign": DeskCampaign,
    "single-path": SinglePath,
    "matrix-audit": MatrixAudit,
}


def run_op(fn) -> Outcome:
    """Run one operation, counting IllConditionedWarning and turning a raise into a failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            outcome = Outcome(output="", failures=[f"raised {type(exc).__name__}: {exc}"])
    outcome.warnings = sum(1 for w in caught if w.category.__name__ == "IllConditionedWarning")
    return outcome
