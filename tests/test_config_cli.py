import json
import re
import textwrap
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
        assert cfg.n_trials == 100
        assert cfg.master_seed == 2026
        assert cfg.grid.t_end == 2.0
        assert cfg.pair.approx_model.initial == pytest.approx([0.3, 0.7])

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
        assert cfg.n_trials == 100
        assert cfg.master_seed == 0
        assert cfg.sweep_sizes is None

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

    def test_whole_floats_and_real_flags_are_kept(self):
        mapping = yaml.safe_load(GOOD_CONFIG)
        mapping["experiment"].update(n_trials=150.0, strict_tolerance=True, sweep_components=["initial"])
        cfg = loads_config(yaml.safe_dump(mapping))
        assert cfg.n_trials == 150 and isinstance(cfg.n_trials, int)
        assert cfg.strict_tolerance is True
        assert cfg.sweep_components == ("initial",)

    def test_model_validation_errors_surface(self):
        bad = GOOD_CONFIG.replace("[[-1.0, 1.0], [1.0, -1.0]]", "[[-1.0, 2.0], [1.0, -1.0]]")
        with pytest.raises(wl.NonzeroRowSumError):
            loads_config(bad)

    def test_overrides(self):
        cfg = loads_config(GOOD_CONFIG).with_overrides(seed=9, trials=256, dt=0.002,
                                                       strict_tolerance=True)
        assert cfg.master_seed == 9
        assert cfg.n_trials == 256
        assert cfg.grid.dt == 0.002
        assert cfg.strict_tolerance

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
            loads_config(GOOD_CONFIG).with_overrides(**override)

    def test_whole_float_overrides_are_kept(self):
        cfg = loads_config(GOOD_CONFIG).with_overrides(seed=150.0, trials=150.0)
        assert cfg.master_seed == cfg.n_trials == 150
        assert isinstance(cfg.master_seed, int) and isinstance(cfg.n_trials, int)

    def test_overrides_leave_the_other_fields(self):
        cfg = loads_config(GOOD_CONFIG)
        assert dumps_config(cfg.with_overrides()) == dumps_config(cfg)
        assert dumps_config(cfg.with_overrides(dt=0.002)) == dumps_config(cfg).replace("dt: 0.001", "dt: 0.002")

    @pytest.mark.parametrize("flag", [None, True, False])
    def test_loaded_and_overridden_configs_build_specs(self, flag):
        mapping = yaml.safe_load(GOOD_CONFIG)
        if flag is not None:
            mapping["experiment"]["strict_tolerance"] = flag
        cfg = loads_config(yaml.safe_dump(mapping))
        assert cfg.to_spec().strict_tolerance is bool(flag)
        for override in (None, True, False):
            spec = cfg.with_overrides(strict_tolerance=override).to_spec()
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
        # Coarse grid over a long horizon with the allowance disabled: the
        # late-time forgetting bound drops below the residual finite-precision
        # gap between the two filter trajectories.  Deterministic at this seed.
        config = GOOD_CONFIG.replace("t_end: 2.0", "t_end: 20.0").replace(
            "checkpoints: [0.0, 1.0, 2.0]", "checkpoints: [0.0, 10.0, 20.0]"
        )
        path = tmp_path / "coarse.yaml"
        path.write_text(config)
        code = main(["run", str(path), "forgetting", "--out", str(tmp_path),
                     "--dt", "0.1", "--strict-tolerance", "--seed", "7"])
        assert code == 2
        assert "BOUND VIOLATIONS" in capsys.readouterr().err

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
