"""Run configuration files.

One YAML file describes one model pair plus experiment defaults:

    model:
      generator: [[-1.0, 1.0], [1.0, -1.0]]
      levels: [0.0, 1.0]
      initial: [0.5, 0.5]
    approx:
      generator: [[-1.1, 1.1], [0.9, -0.9]]
      levels: [0.0, 1.05]
      initial: [0.45, 0.55]
    grid:
      t_end: 10.0
      dt: 0.001
    experiment:
      n_trials: 200
      seed: 2026
      checkpoints: [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
      sweep: [0.2, 0.1, 0.05, 0.025]          # optional
      sweep_components: [initial, generator]   # optional
      strict_tolerance: false                  # optional

Matrices are row lists.  Scalar fields can be overridden from the command line.
Fields are not coerced: the trial count and the seed must be whole numbers,
the flag true or false, and the checkpoints, sweep sizes and components lists;
anything else raises ConfigError.  ``RunConfig.with_overrides`` writes each
override into the parsed file and parses it again, so an override obeys the
same rules: a seed of 150.0 is kept as 150, and 2.7, True or "false" raise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import yaml

from .errors import ConfigError, WonhamLabError
from .experiments import _SWEEP_COMPONENTS, DEFAULT_CHECKPOINTS, ExperimentSpec, _model_lists
from .models import FilterModel, ModelPair
from .simulate import TimeGrid


def _whole(section: dict, key: str, default: int) -> int:
    value = section.get(key, default)
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _flag(section: dict, key: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _listed(section: dict, key: str, default=None):
    value = section.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated contents of one configuration file."""

    pair: ModelPair
    grid: TimeGrid
    n_trials: int
    master_seed: int
    checkpoints: tuple
    sweep_sizes: tuple | None
    sweep_components: tuple
    strict_tolerance: bool

    @classmethod
    def from_mapping(cls, mapping) -> "RunConfig":
        try:
            model = mapping["model"]
            approx = mapping["approx"]
            grid = mapping["grid"]
            experiment = mapping.get("experiment", {})
            pair = ModelPair(
                true_model=FilterModel.from_raw(model["initial"], model["generator"], model["levels"]),
                approx_model=FilterModel.from_raw(approx["initial"], approx["generator"], approx["levels"]),
            )
            time_grid = TimeGrid(t_end=float(grid["t_end"]), dt=float(grid["dt"]))
            sweep = experiment.get("sweep")
            return cls(
                pair=pair,
                grid=time_grid,
                n_trials=_whole(experiment, "n_trials", 100),
                master_seed=_whole(experiment, "seed", 0),
                checkpoints=tuple(float(c) for c in _listed(experiment, "checkpoints", DEFAULT_CHECKPOINTS)),
                sweep_sizes=None if sweep is None else tuple(float(s) for s in _listed(experiment, "sweep")),
                sweep_components=tuple(_listed(experiment, "sweep_components", _SWEEP_COMPONENTS)),
                strict_tolerance=_flag(experiment, "strict_tolerance", False),
            )
        except WonhamLabError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration: {exc!r}") from exc

    def to_mapping(self) -> dict:
        experiment = {
            "n_trials": self.n_trials,
            "seed": self.master_seed,
            "checkpoints": [float(c) for c in self.checkpoints],
            "sweep_components": list(self.sweep_components),
            "strict_tolerance": self.strict_tolerance,
        }
        if self.sweep_sizes is not None:
            experiment["sweep"] = [float(s) for s in self.sweep_sizes]
        return {
            "model": _model_lists(self.pair.true_model),
            "approx": _model_lists(self.pair.approx_model),
            "grid": {"t_end": float(self.grid.t_end), "dt": float(self.grid.dt)},
            "experiment": experiment,
        }

    def with_overrides(self, *, seed=None, trials=None, dt=None, strict_tolerance=None) -> "RunConfig":
        """This config with each given field written into its mapping and parsed
        again, so an override obeys the file's own rules."""
        mapping = self.to_mapping()
        for section, key, value in (("experiment", "seed", seed), ("experiment", "n_trials", trials),
                                    ("grid", "dt", dt), ("experiment", "strict_tolerance", strict_tolerance)):
            if value is not None:
                mapping[section][key] = value
        return RunConfig.from_mapping(mapping)

    def to_spec(self) -> ExperimentSpec:
        return ExperimentSpec(**{f.name: getattr(self, f.name) for f in fields(ExperimentSpec)})


def loads_config(text: str) -> RunConfig:
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse configuration: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping")
    return RunConfig.from_mapping(mapping)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def dumps_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.to_mapping(), sort_keys=True)
