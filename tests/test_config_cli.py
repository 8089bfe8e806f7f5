import json
import re
import textwrap
import warnings
from pathlib import Path

import pytest
import yaml

import wonhamlab as wl
import wonhamlab.config
from wonhamlab.cli import main
from wonhamlab.config import dumps_config, loads_config

ROOT = Path(__file__).resolve().parent.parent

GOOD_CONFIG = """\
model:
  generator: [[-1.0, 1.0], [1.0, -1.0]]
  levels: [0.0, 1.0]
  initial: [0.5, 0.5]
approx:
  generator: [[-1.1, 1.1], [0.9, -0.9]]
  levels: [0.0, 1.0]
  initial: [0.3, 0.7]
grid:
  t_end: 2.0
  dt: 0.001
experiment:
  n_trials: 100
  seed: 2026
  checkpoints: [0.0, 1.0, 2.0]
"""

NON_MIXING_CONFIG = GOOD_CONFIG.replace(
    "generator: [[-1.1, 1.1], [0.9, -0.9]]", "generator: [[-1.1, 1.1], [0.0, 0.0]]"
)


def with_experiment_field(field, value):
    """GOOD_CONFIG with one experiment field set to the YAML text ``value``."""
    mapping = yaml.safe_load(GOOD_CONFIG)
    mapping["experiment"][field] = yaml.safe_load(value)
    return yaml.safe_dump(mapping)


def with_section(name, value):
    """GOOD_CONFIG with the section ``name`` set to the YAML text ``value``."""
    mapping = yaml.safe_load(GOOD_CONFIG)
    mapping[name] = yaml.safe_load(value)
    return yaml.safe_dump(mapping)


WHOLE_VALUED_CONFIG = GOOD_CONFIG.replace("t_end: 2.0", "t_end: 2").replace(
    "checkpoints: [0.0, 1.0, 2.0]", "checkpoints: [0, 1, 2]")


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(GOOD_CONFIG)
    return path


def documented_config(source: str) -> str:
    """The sample configuration in the README or in the ``config`` module docstring."""
    if source == "README":
        (block,) = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
        return block
    lines = wonhamlab.config.__doc__.splitlines()
    return textwrap.dedent("\n".join(line for line in lines if line.startswith("    ")))


class TestRunConfig:
    @pytest.mark.parametrize("source", ["README", "config docstring"])
    def test_documented_sample_loads(self, source):
        spec = loads_config(documented_config(source)).to_spec()
        assert spec.n_trials == 200
        assert spec.sweep_sizes == (0.2, 0.1, 0.05, 0.025)

    def test_parse_and_fields(self):
        cfg = loads_config(GOOD_CONFIG)
        assert cfg.spec.n_trials == 100
        assert cfg.spec.master_seed == 2026
        assert cfg.spec.grid.t_end == 2.0
        assert cfg.spec.pair.approx_model.initial == pytest.approx([0.3, 0.7])

    def test_round_trip_is_semantically_identical(self):
        for source in (GOOD_CONFIG, with_experiment_field("sweep", "[0.2, 0.1]")):
            cfg = loads_config(source)
            text = dumps_config(cfg)
            again = loads_config(text)
            assert again.to_mapping() == cfg.to_mapping()
            # and the original file content maps onto the same resolved fields
            original = yaml.safe_load(source)
            resolved = cfg.to_mapping()
            assert resolved["model"] == original["model"]
            assert resolved["approx"] == original["approx"]
            assert resolved["grid"] == original["grid"]
            assert resolved["experiment"].get("sweep") == original["experiment"].get("sweep")

    def test_defaults_applied(self):
        minimal = yaml.safe_load(GOOD_CONFIG)
        del minimal["experiment"]
        cfg = loads_config(yaml.safe_dump(minimal))
        assert cfg.spec.n_trials == 100
        assert cfg.spec.master_seed == 0
        assert cfg.spec.sweep_sizes is None

    def test_parse_errors(self):
        with pytest.raises(wl.ConfigError):
            loads_config("just a string")
        with pytest.raises(wl.ConfigError):
            loads_config("model: {generator: [[-1.0, 1.0], [1.0, -1.0]]}")
        with pytest.raises(wl.ConfigError):
            loads_config("a: [unclosed")

    @pytest.mark.parametrize("field, value", [
        ("strict_tolerance", '"false"'),
        ("strict_tolerance", "1"),
        ("n_trials", "150.9"),
        ("n_trials", '"150"'),
        ("n_trials", "true"),
        ("seed", "3.7"),
        ("seed", ".nan"),
        ("sweep_components", "initial"),
        ("checkpoints", "1.0"),
        ("sweep", "0.5"),
    ])
    def test_fields_are_not_coerced(self, field, value):
        with pytest.raises(wl.ConfigError, match=field):
            loads_config(with_experiment_field(field, value))

    @pytest.mark.parametrize("section, field, value, error", [
        ("grid", "dt", '"0.001"', wl.GridMismatchError),
        ("grid", "dt", "true", wl.GridMismatchError),
        ("grid", "t_end", "true", wl.GridMismatchError),
        ("experiment", "sweep", "[true]", wl.ConfigError),
        ("experiment", "sweep", '["0.5"]', wl.ConfigError),
        ("experiment", "checkpoints", "[0, 1, true]", wl.ConfigError),
        ("experiment", "checkpoints", "{0.0: a, 2.0: b}", wl.ConfigError),
    ])
    def test_grid_and_list_entries_are_not_coerced(self, section, field, value, error):
        """A string or a bool is no step, horizon, sweep size or checkpoint."""
        mapping = yaml.safe_load(GOOD_CONFIG)
        mapping[section][field] = yaml.safe_load(value)
        with pytest.raises(error, match=field):
            loads_config(yaml.safe_dump(mapping))

    @pytest.mark.parametrize("name, value, overrides", [
        ("experiment", "", {}),
        ("experiment", "[1]", {}),
        ("experiment", "5", {}),
        ("experiment", "", {"seed": 3}),
        ("grid", "", {"dt": 0.005}),
        ("model", "[1]", {}),
    ])
    def test_a_section_that_is_not_a_mapping_is_a_typed_error(self, name, value, overrides):
        with pytest.raises(wl.ConfigError, match=f"section {name} must be a mapping"):
            loads_config(with_section(name, value), **overrides)

    def test_whole_valued_file_matches_its_float_twin(self, tmp_path):
        """A horizon of 2 and checkpoints (0, 1, 2) give the spec, and the report,
        of 2.0 and (0.0, 1.0, 2.0)."""
        config, twin = loads_config(WHOLE_VALUED_CONFIG), loads_config(GOOD_CONFIG)
        assert dumps_config(config) == dumps_config(twin)
        spec = config.to_spec()
        assert (spec.grid, spec.checkpoints) == (twin.to_spec().grid, twin.to_spec().checkpoints)
        assert all(type(x) is float for x in (spec.grid.t_end, spec.grid.dt, *spec.checkpoints))
        for name, text in (("ints", WHOLE_VALUED_CONFIG), ("floats", GOOD_CONFIG)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            assert main(["run", str(path), "inverse-moment", "--out", str(tmp_path / name)]) == 0
        for suffix in ("json", "csv"):
            report = f"inverse-moment-2026.{suffix}"
            assert (tmp_path / "ints" / report).read_bytes() == (tmp_path / "floats" / report).read_bytes()

    def test_whole_floats_and_real_flags_are_kept(self):
        mapping = yaml.safe_load(GOOD_CONFIG)
        mapping["experiment"].update(n_trials=150.0, strict_tolerance=True, sweep_components=["initial"])
        cfg = loads_config(yaml.safe_dump(mapping))
        assert cfg.spec.n_trials == 150 and isinstance(cfg.spec.n_trials, int)
        assert cfg.spec.strict_tolerance is True
        assert cfg.spec.sweep_components == ("initial",)

    def test_model_validation_errors_surface(self):
        bad = GOOD_CONFIG.replace("[[-1.0, 1.0], [1.0, -1.0]]", "[[-1.0, 2.0], [1.0, -1.0]]")
        with pytest.raises(wl.NonzeroRowSumError):
            loads_config(bad)

    def test_overrides(self):
        spec = loads_config(GOOD_CONFIG, seed=9, trials=256, dt=0.002, strict_tolerance=True).spec
        assert spec.master_seed == 9
        assert spec.n_trials == 256
        assert spec.grid.dt == 0.002
        assert spec.strict_tolerance

    @pytest.mark.parametrize("override, field", [
        pytest.param({"trials": 150.9}, "n_trials", id="fractional-trials"),
        pytest.param({"seed": True}, "seed", id="bool-seed"),
        pytest.param({"strict_tolerance": "false"}, "strict_tolerance", id="string-flag"),
        pytest.param({"seed": 2.7}, "seed", id="fractional-seed"),
    ])
    def test_overrides_follow_the_files_rules(self, override, field):
        """An override is parsed as the file's field would be: no int() or bool()
        turns 2.7 into seed 2 or the string "false" into strict mode."""
        with pytest.raises(wl.ConfigError, match=field):
            loads_config(GOOD_CONFIG, **override)

    @pytest.mark.parametrize("dt", ["0.001", True])
    def test_grid_overrides_are_not_coerced(self, dt):
        with pytest.raises(wl.GridMismatchError, match="dt"):
            loads_config(GOOD_CONFIG, dt=dt)

    @pytest.mark.parametrize("old, new, overrides", [
        ("n_trials: 100", "n_trials: 50", {"trials": 200}),
        ("n_trials: 100", "n_trials: 150.9", {"trials": 200}),
        ("dt: 0.001", "dt: 0.02", {"dt": 0.005}),
    ], ids=["too-few-trials", "fractional-trials", "coarse-step"])
    def test_an_override_replaces_the_file_value_before_the_check(self, old, new, overrides):
        """The run is checked once, with its overrides: a file value that an
        override replaces neither raises nor warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = loads_config(GOOD_CONFIG.replace(old, new), **overrides).spec
        assert (spec.n_trials, spec.grid.dt) == (overrides.get("trials", 100), overrides.get("dt", 0.001))

    def test_whole_float_overrides_are_kept(self):
        spec = loads_config(GOOD_CONFIG, seed=150.0, trials=150.0).spec
        assert spec.master_seed == spec.n_trials == 150
        assert isinstance(spec.master_seed, int) and isinstance(spec.n_trials, int)

    def test_overrides_leave_the_other_fields(self):
        text = dumps_config(loads_config(GOOD_CONFIG))
        assert dumps_config(loads_config(GOOD_CONFIG, seed=None)) == text
        assert dumps_config(loads_config(GOOD_CONFIG, dt=0.002)) == text.replace("dt: 0.001", "dt: 0.002")

    @pytest.mark.parametrize("flag", [None, True, False])
    def test_loaded_and_overridden_configs_build_specs(self, flag):
        mapping = yaml.safe_load(GOOD_CONFIG)
        if flag is not None:
            mapping["experiment"]["strict_tolerance"] = flag
        text = yaml.safe_dump(mapping)
        assert loads_config(text).to_spec().strict_tolerance is bool(flag)
        for override in (None, True, False):
            spec = loads_config(text, strict_tolerance=override).to_spec()
            assert spec.strict_tolerance is (bool(flag) if override is None else override)


class TestCliList:
    def test_lists_six_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        names = [line.split(":")[0] for line in out]
        assert names == [
            "robustness", "forgetting", "inverse-moment",
            "convergence-sweep", "derivative-audit", "integrator-refinement",
        ]
        assert all(":" in line for line in out)

    def test_listing_is_stable(self, capsys):
        main(["list"])
        first = capsys.readouterr().out
        main(["list"])
        assert capsys.readouterr().out == first


class TestCliRun:
    def test_happy_path_writes_reports(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main(["run", str(config_file), "forgetting", "--out", str(out_dir)])
        assert code == 0
        json_path = out_dir / "forgetting-2026.json"
        csv_path = out_dir / "forgetting-2026.csv"
        assert json_path.exists() and csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "forgetting"
        assert payload["master_seed"] == 2026
        assert payload["config"]["grid"] == {"t_end": 2.0, "dt": 0.001}
        header = csv_path.read_text().splitlines()
        assert header[0] == "# experiment: forgetting"
        assert any(line.startswith("# config:") for line in header)

    def test_seed_override_changes_file_names(self, config_file, tmp_path):
        out_dir = tmp_path / "reports"
        code = main(["run", str(config_file), "derivative-audit", "--out", str(out_dir),
                     "--seed", "55"])
        assert code == 0
        assert (out_dir / "derivative-audit-55.json").exists()

    def test_unknown_experiment_exits_one(self, config_file, tmp_path, capsys):
        code = main(["run", str(config_file), "mystery", "--out", str(tmp_path)])
        assert code == 1
        assert "UnknownExperiment" in capsys.readouterr().err

    def test_non_mixing_model_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(NON_MIXING_CONFIG)
        code = main(["run", str(path), "robustness", "--out", str(tmp_path)])
        assert code == 1
        assert "NotMixing" in capsys.readouterr().err

    def test_duplicate_checkpoint_exits_one(self, tmp_path, capsys):
        path = tmp_path / "dup.yaml"
        path.write_text(GOOD_CONFIG.replace("checkpoints: [0.0, 1.0, 2.0]", "checkpoints: [0.0, 1.0, 1.0]"))
        code = main(["run", str(path), "forgetting", "--out", str(tmp_path)])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, error", [
        ("t_end: 2.0", "t_end: .inf", "GridMismatchError"),
        ("t_end: 2.0", "t_end: .nan", "GridMismatchError"),
        ("dt: 0.001", "dt: .nan", "GridMismatchError"),
        ("initial: [0.5, 0.5]", "initial: [.nan, 0.5]", "BoundaryInitialConditionError"),
        ("checkpoints: [0.0, 1.0, 2.0]", "checkpoints: [0.0, .nan]", "ConfigError"),
    ])
    def test_non_finite_input_exits_one(self, tmp_path, capsys, old, new, error):
        path = tmp_path / "non-finite.yaml"
        path.write_text(GOOD_CONFIG.replace(old, new))
        code = main(["run", str(path), "inverse-moment", "--out", str(tmp_path)])
        assert code == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not list(tmp_path.glob("inverse-moment-*"))

    @pytest.mark.parametrize("source, flags, error", [
        (with_section("experiment", ""), [], "ConfigError"),
        (with_section("experiment", "[1]"), [], "ConfigError"),
        (with_section("experiment", "5"), [], "ConfigError"),
        (with_section("grid", ""), ["--dt", "0.005"], "ConfigError"),
        (GOOD_CONFIG.replace("dt: 0.001", 'dt: "0.001"'), [], "GridMismatchError"),
        (GOOD_CONFIG.replace("t_end: 2.0", "t_end: true"), [], "GridMismatchError"),
    ], ids=["empty-experiment", "list-experiment", "number-experiment", "empty-grid-with-dt",
            "string-dt", "bool-t-end"])
    def test_malformed_section_or_grid_exits_one(self, tmp_path, capsys, source, flags, error):
        path = tmp_path / "malformed.yaml"
        path.write_text(source)
        code = main(["run", str(path), "forgetting", "--out", str(tmp_path), *flags])
        assert code == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not list(tmp_path.glob("forgetting-*"))

    @pytest.mark.parametrize("field, value", [("strict_tolerance", '"false"'), ("n_trials", "150.9"),
                                              ("seed", "3.7"), ("sweep_components", "initial")])
    def test_coercible_field_exits_one(self, tmp_path, capsys, field, value):
        path = tmp_path / "loose.yaml"
        path.write_text(with_experiment_field(field, value))
        code = main(["run", str(path), "forgetting", "--out", str(tmp_path)])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not list(tmp_path.glob("forgetting-*"))

    @pytest.mark.parametrize("experiment, source, flags", [
        ("forgetting", GOOD_CONFIG, ["--seed", "-1"]),
        ("convergence-sweep", with_experiment_field("sweep", "[]"), []),
        ("convergence-sweep", GOOD_CONFIG + "  sweep: [0.2, 0.1]\n  sweep_components: []\n", []),
        ("convergence-sweep", GOOD_CONFIG + "  sweep: [0.2, 0.1]\n  sweep_components: [[initial]]\n", []),
    ], ids=["negative-seed", "empty-sweep", "no-sweep-components", "nested-sweep-components"])
    def test_unusable_seed_or_sweep_exits_one(self, tmp_path, capsys, experiment, source, flags):
        path = tmp_path / "edge.yaml"
        path.write_text(source)
        code = main(["run", str(path), experiment, "--out", str(tmp_path), *flags])
        assert code == 1
        assert "error: ConfigError" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{experiment}-*"))

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.yaml"), "forgetting"])
        assert code == 1

    def test_engineered_violation_exits_two(self, tmp_path, capsys, recwarn):
        # A step too coarse for the approximate model's fast mixing, with the
        # allowance disabled: at dt = 0.25 against rates about 10, the discrete
        # filters forget far slower than the bound exp(-beta t) with beta = 19.9.
        # At t = 1 the mean gap is over a thousand times its bound, so the
        # violation does not rest on the last bits of any value.
        config = GOOD_CONFIG.replace("generator: [[-1.1, 1.1], [0.9, -0.9]]",
                                     "generator: [[-11.0, 11.0], [9.0, -9.0]]")
        path = tmp_path / "coarse.yaml"
        path.write_text(config)
        code = main(["run", str(path), "forgetting", "--out", str(tmp_path),
                     "--dt", "0.25", "--strict-tolerance", "--seed", "7"])
        assert code == 2
        assert "BOUND VIOLATIONS" in capsys.readouterr().err
        late = json.loads((tmp_path / "forgetting-7.json").read_text())["table"][1]
        assert late["violation"] and late["mean_gap"] > 100.0 * late["bound"]

    def test_violation_count_drives_exit_code(self, config_file, tmp_path, monkeypatch, capsys):
        # exit-2 plumbing, independent of any particular violating scenario
        import wonhamlab.cli as cli_mod

        real = cli_mod.run_experiment

        def doctored(name, spec):
            report = real(name, spec)
            report.violations = 3
            return report

        monkeypatch.setattr(cli_mod, "run_experiment", doctored)
        code = main(["run", str(config_file), "derivative-audit", "--out", str(tmp_path)])
        assert code == 2

    def test_csv_columns_cover_every_row_key(self, tmp_path):
        # Sweep rows after the first carry monotone_within_noise; the CSV header
        # is the union of the row keys in first-seen order, blank where absent.
        path = tmp_path / "sweep.yaml"
        path.write_text(GOOD_CONFIG.replace("checkpoints: [0.0, 1.0, 2.0]",
                                            "checkpoints: [0.0, 1.0, 2.0]\n  sweep: [0.5, 0.25]"))
        assert main(["run", str(path), "convergence-sweep", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "convergence-sweep-2026.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0] == ["size", "sup_error", "half_width", "bound", "checkpoint_violations",
                           "monotone_within_noise"]
        payload = json.loads((tmp_path / "convergence-sweep-2026.json").read_text())
        assert [row[-1] == "" for row in rows[1:]] == [
            "monotone_within_noise" not in entry for entry in payload["table"]
        ]
        assert rows[-1][-1] in ("True", "False")

    def test_determinism_of_written_reports(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(config_file), "inverse-moment", "--out", str(out_a)]) == 0
        assert main(["run", str(config_file), "inverse-moment", "--out", str(out_b)]) == 0
        name = "inverse-moment-2026.json"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
