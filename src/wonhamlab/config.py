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

Matrices are row lists.  The file parser holds the layout only: the sections,
the keys ``seed`` and ``sweep`` for the spec's ``master_seed`` and
``sweep_sizes``, and the defaults of 100 trials and seed 0.  Every value rule
belongs to ``ExperimentSpec``, ``TimeGrid`` and ``FilterModel``, which take
each field as written: nothing is coerced, so a string, a bool or None where a
number, a list or a flag belongs raises a typed error.  The one rule of the
file's own is that a whole float trial count or seed, such as 150.0, is kept
as 150.  ``load_config`` writes each command-line override into the parsed
file before that one parse, so an override obeys the same rules and the run
is checked once, as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .errors import ConfigError, WonhamLabError
from .experiments import ExperimentSpec, spec_to_mapping
from .models import FilterModel, ModelPair
from .simulate import TimeGrid

# The experiment section's keys and the spec fields they set.
_EXPERIMENT_KEYS = {"n_trials": "n_trials", "seed": "master_seed", "checkpoints": "checkpoints",
                    "sweep": "sweep_sizes", "sweep_components": "sweep_components",
                    "strict_tolerance": "strict_tolerance"}


def _whole(value):
    """A whole float as its int, so 150.0 trials are 150; any other value as written."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class RunConfig:
    """The experiment spec that one configuration file describes."""

    spec: ExperimentSpec

    @classmethod
    def from_mapping(cls, mapping) -> "RunConfig":
        """Parse a file's mapping, whose sections ``loads_config`` has checked are mappings."""
        try:
            true_model, approx_model = (FilterModel.from_raw(m["initial"], m["generator"], m["levels"])
                                        for m in (mapping["model"], mapping["approx"]))
            grid, experiment = mapping["grid"], mapping.get("experiment", {})
            fields = {name: experiment[key] for key, name in _EXPERIMENT_KEYS.items() if key in experiment}
            return cls(ExperimentSpec(
                pair=ModelPair(true_model=true_model, approx_model=approx_model),
                grid=TimeGrid(t_end=grid["t_end"], dt=grid["dt"]),
                **{**fields, "n_trials": _whole(fields.get("n_trials", 100)),
                   "master_seed": _whole(fields.get("master_seed", 0))},
            ))
        except WonhamLabError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration: {exc!r}") from exc

    def to_mapping(self) -> dict:
        """The spec in the file's layout, for ``dumps_config``."""
        echo = spec_to_mapping(self.spec)
        # The report echo writes the flag as 0 or 1, which the spec rejects.
        echo["strict_tolerance"] = bool(self.spec.strict_tolerance)
        experiment = {key: echo[name] for key, name in _EXPERIMENT_KEYS.items() if echo[name] is not None}
        return {**{name: echo[name] for name in ("model", "approx", "grid")}, "experiment": experiment}

    def to_spec(self) -> ExperimentSpec:
        return self.spec


def loads_config(text: str, *, seed=None, trials=None, dt=None, strict_tolerance=None) -> RunConfig:
    """Parse one configuration file's text, each given override written over its
    field first, so the file and its overrides are checked once, as one run."""
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse configuration: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping")
    for name in ("model", "approx", "grid", "experiment"):
        if name in mapping and not isinstance(mapping[name], dict):
            raise ConfigError(f"section {name} must be a mapping, got {mapping[name]!r}")
    for section, key, value in (("experiment", "seed", seed), ("experiment", "n_trials", trials),
                                ("grid", "dt", dt), ("experiment", "strict_tolerance", strict_tolerance)):
        if value is not None:
            mapping.setdefault(section, {})[key] = value
    return RunConfig.from_mapping(mapping)


def load_config(path, **overrides) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read(), **overrides)


def dumps_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.to_mapping(), sort_keys=True)
