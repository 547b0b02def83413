import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opemu
from opemu.cli import main
from opemu.config import DEFAULTS, RunConfig
from opemu.errors import ConfigError


class TestRunConfig:
    def test_defaults_reproduce_reference_setup(self):
        cfg = RunConfig()
        grid = cfg.time_grid()
        assert grid.size == 176
        assert grid[0] == 0.0 and grid[-1] == 35.0
        assert cfg.input_basis().size * cfg.output_basis().size == 77
        assert cfg.raw["design"]["n"] == 40
        assert cfg.raw["prior"]["dof"] == 3.0

    def test_hash_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.hash() == b.hash()
        c = RunConfig({"design": {"seed": 99}})
        assert c.hash() != a.hash()

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key: desing"):
            RunConfig({"desing": {}})

    def test_rejects_inverted_bounds_naming_dimension(self):
        with pytest.raises(ConfigError, match="u0"):
            RunConfig({"design": {"bounds": [[-3, 1], [2, 1], [0.5, 3]]}})

    def test_rejects_partial_prior_override(self):
        with pytest.raises(ConfigError, match="together"):
            RunConfig({"prior": {"sigma2": 0.257}})

    def test_paper_value_override_accepted(self):
        cfg = RunConfig({"prior": {"sigma2": 0.257, "scale": 0.208}})
        assert cfg.raw["prior"]["sigma2"] == 0.257
        assert cfg.raw["prior"]["scale"] == 0.208

    def test_beta_rows_must_match_dims(self):
        with pytest.raises(ConfigError, match="beta"):
            RunConfig({"analysis": {"beta": [[1, 1, 0, 1]]}})

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="missing"):
            RunConfig({"analysis": {"sweeps": [{"dim": "u0"}]}})
        with pytest.raises(ConfigError, match="not a design dimension"):
            RunConfig({"analysis": {"sweeps": [
                {"dim": "nope", "lower": 0, "upper": 1, "fixed": [0, 1.5, 1]}
            ]}})


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small but complete run of every CLI command in one directory."""
    workdir = tmp_path_factory.mktemp("pipeline")
    config = {
        "design": {"n": 9, "seed": 5, "candidates": 8},
        "time": {"t_min": 0.0, "t_max": 8.0, "dt": 0.4},
        "kernel": {"restarts": 2},
        "analysis": {
            "mc_samples": 120,
            "seed": 3,
            "sweeps": [
                {"dim": "u0", "lower": 1.0, "upper": 2.0, "resolution": 5,
                 "fixed": [-1.0, 1.5, 1.5]},
            ],
        },
        "paths": {
            "design": str(workdir / "design.csv"),
            "training": str(workdir / "training.csv"),
            "model": str(workdir / "model.json"),
            "reports": str(workdir / "reports"),
        },
    }
    cfg_path = workdir / "run.json"
    cfg_path.write_text(json.dumps(config))
    base = ["--config", str(cfg_path)]
    for command in ("design", "simulate", "fit", "validate", "predict", "sweep", "uq"):
        argv = [command] + base
        if command == "predict":
            argv += ["--point=-1.0,1.5,1.5", "--out", str(workdir / "prediction.csv")]
        assert main(argv) == 0, command
    return workdir, cfg_path


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline_dir):
        workdir, _ = pipeline_dir
        for name in ("design.csv", "training.csv", "model.json", "prediction.csv"):
            assert (workdir / name).exists()
        reports = workdir / "reports"
        assert (reports / "loo_report.json").exists()
        assert (reports / "sweep_u0.csv").exists()
        assert (reports / "uq_quantiles.csv").exists()
        assert (reports / "uq_quantiles.json").exists()
        assert (reports / "uq_histogram.csv").exists()

    def test_outputs_are_self_describing(self, pipeline_dir):
        workdir, _ = pipeline_dir
        csv_artifacts = [
            workdir / "design.csv",
            workdir / "training.csv",
            workdir / "prediction.csv",
            workdir / "reports" / "loo_fold_00.csv",
            workdir / "reports" / "sweep_u0.csv",
            workdir / "reports" / "uq_quantiles.csv",
            workdir / "reports" / "uq_histogram.csv",
        ]
        for path in csv_artifacts:
            head = "\n".join(path.read_text().splitlines()[:5])
            assert "config_hash=" in head, path
            assert "seed=" in head, path
            assert "version=" in head, path
        for path in (workdir / "model.json",
                     workdir / "reports" / "loo_report.json",
                     workdir / "reports" / "uq_quantiles.json"):
            meta = json.loads(path.read_text())["meta"]
            assert {"config_hash", "seed", "version"} <= set(meta), path

    def test_design_rerun_is_byte_identical(self, pipeline_dir):
        workdir, cfg_path = pipeline_dir
        before = (workdir / "design.csv").read_bytes()
        assert main(["design", "--config", str(cfg_path)]) == 0
        assert (workdir / "design.csv").read_bytes() == before

    def test_validate_rerun_is_byte_identical(self, pipeline_dir):
        workdir, cfg_path = pipeline_dir
        reports = workdir / "reports"
        paths = [reports / "loo_report.json", *sorted(reports.glob("loo_fold_*.csv"))]
        assert len(paths) == 1 + 9
        before = [path.read_bytes() for path in paths]
        assert main(["validate", "--config", str(cfg_path)]) == 0
        assert [path.read_bytes() for path in paths] == before

    def test_uq_rerun_is_byte_identical(self, pipeline_dir):
        workdir, cfg_path = pipeline_dir
        path = workdir / "reports" / "uq_quantiles.csv"
        before = path.read_bytes()
        assert main(["uq", "--config", str(cfg_path)]) == 0
        assert path.read_bytes() == before

    def test_uq_reports_health_counts(self, pipeline_dir, capsys):
        workdir, cfg_path = pipeline_dir
        assert main(["uq", "--config", str(cfg_path)]) == 0
        doc = json.loads((workdir / "reports" / "uq_quantiles.json").read_text())
        assert doc["extrapolated"] == 0  # the default Beta ranges lie in the box
        assert doc["clamped"] >= 0
        assert (f"health: {doc['extrapolated']} samples outside the design box, "
                f"{doc['clamped']} variance entries clamped") in capsys.readouterr().out

    def test_global_flags_accepted_before_subcommand(self, pipeline_dir):
        workdir, cfg_path = pipeline_dir
        assert main(["--config", str(cfg_path), "--seed", "41", "design"]) == 0
        first = (workdir / "design.csv").read_bytes()
        assert main(["design", "--config", str(cfg_path), "--seed", "41"]) == 0
        assert (workdir / "design.csv").read_bytes() == first
        assert main(["design", "--config", str(cfg_path)]) == 0  # restore

    def test_seed_flag_overrides(self, pipeline_dir, tmp_path):
        workdir, cfg_path = pipeline_dir
        out1 = (workdir / "design.csv").read_bytes()
        assert main(["design", "--config", str(cfg_path), "--seed", "77"]) == 0
        changed = (workdir / "design.csv").read_bytes()
        assert changed != out1
        assert main(["design", "--config", str(cfg_path), "--seed", "77"]) == 0
        assert (workdir / "design.csv").read_bytes() == changed
        # restore for later tests in the module
        assert main(["design", "--config", str(cfg_path)]) == 0

    def test_predict_interpolates_training_row(self, pipeline_dir):
        workdir, cfg_path = pipeline_dir
        design_lines = [
            line for line in (workdir / "design.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        first_point = design_lines[1]
        train_lines = [
            line for line in (workdir / "training.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        observed = np.array([float(v) for v in train_lines[1].split(",")[3:]])
        out = workdir / "interp.csv"
        assert main([
            "predict", "--config", str(cfg_path),
            "--point=" + first_point, "--out", str(out),
        ]) == 0
        rows = [
            line for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ][1:]
        location = np.array([float(r.split(",")[1]) for r in rows])
        std = observed.std()
        assert np.abs(location - observed).max() <= 1e-2 * std


class TestDefaultConfig:
    def test_design_produces_forty_by_three(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "paths": {"design": str(tmp_path / "design.csv"),
                      "training": "training.csv", "model": "model.json",
                      "reports": "reports"},
        }))
        assert main(["design", "--config", str(cfg)]) == 0
        rows = [
            line for line in (tmp_path / "design.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == "x0,u0,c"
        assert len(rows) == 41  # header + 40 points
        assert all(len(r.split(",")) == 3 for r in rows[1:])

    def test_fit_echoes_prior_override(self, tmp_path):
        cfg_doc = {
            "design": {"n": 8, "seed": 1, "candidates": 5},
            "time": {"t_min": 0.0, "t_max": 6.0, "dt": 0.5},
            "kernel": {"lengths": [1.0, 0.5, 0.8, 1.0]},
            "prior": {"sigma2": 0.257, "scale": 0.208, "dof": 3.0},
            "paths": {"design": str(tmp_path / "d.csv"),
                      "training": str(tmp_path / "t.csv"),
                      "model": str(tmp_path / "m.json"),
                      "reports": str(tmp_path / "reports")},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_doc))
        for command in ("design", "simulate", "fit"):
            assert main([command, "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["prior"]["sigma2"] == 0.257
        assert doc["prior"]["scale"] == 0.208
        assert doc["prior"]["dof"] == 3.0

        from opemu.emulator import load_model

        model = load_model(str(tmp_path / "m.json"))
        assert model.prior.sigma2 == 0.257


SWEEP = {"dim": "x0", "lower": -2.0, "upper": 0.0, "resolution": 21, "fixed": [-1.0, 1.5, 1.5]}


def _wrong_kind(default):
    return 5 if isinstance(default, str) else "x"


# every leaf key of DEFAULTS and every key of a sweep object, with a value of the wrong kind
WRONG_KINDS = [(f"{section}.{key}", {section: {key: _wrong_kind(default)}})
               for section, keys in DEFAULTS.items() for key, default in keys.items()] + [
    (f"analysis.sweeps[0].{key}",
     {"analysis": {"sweeps": [{**SWEEP, key: _wrong_kind(default)}]}})
    for key, default in SWEEP.items()]


@pytest.mark.parametrize("key, override", WRONG_KINDS, ids=[key for key, _ in WRONG_KINDS])
def test_wrong_kind_exit_2_naming_the_key(tmp_path, capsys, key, override):
    design = str(tmp_path / "d.csv")
    paths = {"design": design, **override.get("paths", {})}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**override, "paths": paths}))
    assert main(["design", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_readme_config_sketch_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("### Config sketch", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    RunConfig(json.loads(sketch))


class TestExitCodes:
    def test_invalid_bounds_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"design": {"bounds": [[-3, 1], [2, 1], [0.5, 3]]}}))
        assert main(["design", "--config", str(cfg)]) == 2
        assert "u0" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [
        [[-1.0, 4.0], [0.2, 4.0], [0.3, 6.0], [1.0, 40.0]],  # negative lower bound
        [[5.0, 2.0], [0.2, 4.0], [0.3, 6.0], [1.0, 40.0]],  # inverted pair
        "abc",
    ], ids=["negative", "inverted", "string"])
    def test_bad_length_bounds_exit_2(self, tmp_path, capsys, bounds):
        # rejected with the config, before fit reads training data or estimates the prior
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kernel": {"length_bounds": bounds}}))
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "kernel.length_bounds" in err and "x0" in err

    @pytest.mark.parametrize("override, names", [
        ({"kernel": {"exponent": 3.0}}, ["kernel.exponent"]),
        ({"kernel": {"lengths": [-1.0, 1.0, 0.6, 3.0]}}, ["kernel.lengths"]),
        ({"kernel": {"lengths": [1.0, 1.0, "x", 3.0]}}, ["kernel.lengths"]),
        ({"kernel": {"lengths": [float("nan"), 1.0, 0.6, 3.0]}}, ["kernel.lengths"]),
        ({"analysis": {"beta": [[-5.0, 2.0, -2.0, 0.0], [2.0, 5.0, 1.0, 2.0],
                                [2.0, 5.0, 0.5, 2.5]]}}, ["analysis.beta"]),
        ({"analysis": {"sweeps": [{"dim": "x0", "lower": -2.0, "upper": 0.0,
                                   "resolution": 1, "fixed": [-1.0, 1.5, 1.5]}]}},
         ["analysis.sweeps", "resolution"]),
        ({"simulator": {"damping": -1.0}}, ["simulator", "damping"]),
        ({"basis": {"frequencies": [0]}}, ["basis.frequencies"]),
        ({"basis": {"frequencies": [float("nan")]}}, ["basis.frequencies"]),
        ({"design": {"bounds": [[-float("inf"), 1.0], [1.0, 2.0], [0.5, 3.0]]}},
         ["design.bounds", "x0"]),
        ({"design": {"bounds": [[-3.0, 1.0], [1.0, float("inf")], [0.5, 3.0]]}},
         ["design.bounds", "u0"]),
        ({"design": {"bounds": [["x", 1.0], [1.0, 2.0], [0.5, 3.0]]}},
         ["design.bounds", "x0"]),
        ({"design": {"bounds": [[-3.0, 1.0], [1.0], [0.5, 3.0]]}},
         ["design.bounds", "u0"]),
        ({"design": {"n": "40"}}, ["design.n"]),
        ({"design": {"n": 2.5}}, ["design.n"]),
        ({"design": {"candidates": "x"}}, ["design.candidates"]),
        ({"time": {"dt": "0.2"}}, ["time.dt"]),
        ({"design": {"seed": -1}}, ["design.seed"]),
        ({"kernel": {"restarts": "3"}}, ["kernel.restarts"]),
        ({"analysis": {"seed": -1}}, ["analysis.seed"]),
        ({"prior": {"dof": "x"}}, ["prior.dof"]),
        ({"validate": {"level": "x"}}, ["validate.level"]),
        ({"validate": {"level": 2}}, ["validate.level"]),
        ({"prior": {"split": 2}}, ["prior.split"]),
        ({"prior": {"dof": 1.5}}, ["prior.dof"]),
        ({"prior": {"sigma2": -1, "scale": 1.0}}, ["prior.sigma2"]),
        ({"prior": {"sigma2": "x", "scale": 1.0}}, ["prior.sigma2"]),
        ({"prior": {"sigma2": 1.0, "scale": 0}}, ["prior.scale"]),
        ({"kernel": {"jitter": -1}}, ["kernel.jitter"]),
        ({"design": {"bounds": 5}}, ["design.bounds"]),
        ({"design": {"names": 5}}, ["design.names"]),
        ({"design": {"names": [1, 2, 3]}}, ["design.names"]),
        ({"design": {"names": ["a,b", "c", "d"]}}, ["design.names"]),
        ({"design": {"names": ["a", "a", "b"]}}, ["design.names"]),
        ({"kernel": {"lengths": 5}}, ["kernel.lengths"]),
        ({"analysis": {"beta": 5}}, ["analysis.beta"]),
        ({"analysis": {"sweeps": 5}}, ["analysis.sweeps"]),
        ({"analysis": {"sweeps": [5]}}, ["analysis.sweeps[0]"]),
        ({"analysis": {"sweeps": [{**SWEEP, "fixed": 5}]}}, ["analysis.sweeps[0].fixed"]),
        ({"analysis": {"sweeps": [{**SWEEP, "dim": True}]}}, ["analysis.sweeps[0].dim"]),
        ({"analysis": {"sweeps": [{**SWEEP, "resolution": 2.7}]}},
         ["analysis.sweeps[0].resolution"]),
        ({"analysis": {"sweeps": [{**SWEEP, "resolutoin": 21}]}},
         ["analysis.sweeps[0].resolutoin"]),
        ({"validate": {"reoptimize": False}}, ["validate.reoptimize"]),
        ({"kernel": {"lengths": [1.0, 1.0, "0.6", 3.0]}}, ["kernel.lengths"]),
        ({"design": {"bounds": [["-3", 1.0], [1.0, 2.0], [0.5, 3.0]]}},
         ["design.bounds", "x0"]),
        ({"basis": {"frequencies": [True, 0.5]}}, ["basis.frequencies[0]"]),
        ({"analysis": {"beta": [[5.0, "2", -2.0, 0.0], [2.0, 5.0, 1.0, 2.0],
                                [2.0, 5.0, 0.5, 2.5]]}}, ["analysis.beta[0][1]"]),
        ({"analysis": {"sweeps": [{**SWEEP, "fixed": [-1.0, "1.5", 1.5]}]}},
         ["analysis.sweeps[0].fixed[1]"]),
    ], ids=["exponent", "negative-length", "string-length", "nan-length", "beta-shape",
            "sweep-resolution",
            "damping", "frequency", "nan-frequency", "infinite-lower-bound",
            "infinite-upper-bound", "string-bound", "short-bound-pair", "string-n",
            "fractional-n", "string-candidates",
            "string-dt", "negative-seed", "string-restarts", "negative-analysis-seed",
            "string-dof", "string-level", "level-range", "split-range", "estimated-dof",
            "negative-sigma2", "string-sigma2", "zero-scale", "negative-jitter",
            "number-bounds", "number-names", "integer-names", "comma-name", "repeated-name",
            "number-lengths", "number-beta", "number-sweeps", "number-sweep",
            "number-sweep-fixed", "boolean-sweep-dim", "fractional-sweep-resolution",
            "misspelt-sweep-key", "removed-reoptimize", "numeric-string-length",
            "numeric-string-bound", "boolean-frequency", "string-beta-entry",
            "numeric-string-sweep-fixed"])
    def test_bad_domain_value_exit_2_at_load(self, tmp_path, capsys, override, names):
        # rejected with the config, so `design` fails, not a later command
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**override,
                                   "paths": {"design": str(tmp_path / "d.csv")}}))
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("argv", [["--seed", "-1", "design"], ["--seed=-1", "design"],
                                      ["design", "--seed=-1"]])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": {"design": str(tmp_path / "d.csv")}}))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_missing_design_exit_3(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "paths": {"design": str(tmp_path / "absent.csv"),
                      "training": str(tmp_path / "t.csv"),
                      "model": str(tmp_path / "m.json"),
                      "reports": str(tmp_path / "r")},
        }))
        assert main(["simulate", "--config", str(cfg)]) == 3

    def test_missing_training_exit_3(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "paths": {"training": str(tmp_path / "nope.csv"),
                      "design": str(tmp_path / "d.csv"),
                      "model": str(tmp_path / "m.json"),
                      "reports": str(tmp_path / "r")},
        }))
        assert main(["fit", "--config", str(cfg)]) == 3

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["design", "--config", str(cfg)]) == 2

    def test_bad_point_exit_2(self, pipeline_dir):
        _, cfg_path = pipeline_dir
        assert main(["predict", "--config", str(cfg_path), "--point", "a,b,c"]) == 2
        assert main(["predict", "--config", str(cfg_path), "--point", "1.0"]) == 2
        assert main(["predict", "--config", str(cfg_path), "--point=nan,1.5,2"]) == 2
        assert main(["predict", "--config", str(cfg_path), "--point=-1.0,inf,2"]) == 2

    def test_broken_model_file_exit_3(self, pipeline_dir, tmp_path, capsys):
        workdir, cfg_path = pipeline_dir
        doc = json.loads((workdir / "model.json").read_text())
        del doc["posterior"]["scale"]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        config = json.loads(cfg_path.read_text())
        config["paths"]["model"] = str(tmp_path / "model.json")
        broken_cfg = tmp_path / "run.json"
        broken_cfg.write_text(json.dumps(config))
        out = str(tmp_path / "prediction.csv")
        assert main(["predict", "--config", str(broken_cfg), "--point=-1.0,1.5,1.5",
                     "--out", out]) == 3
        assert "posterior.scale" in capsys.readouterr().err

    def test_non_finite_model_value_exit_3(self, pipeline_dir, tmp_path, capsys):
        # a NaN residual weight would otherwise give a NaN prediction CSV and exit 0
        workdir, cfg_path = pipeline_dir
        doc = json.loads((workdir / "model.json").read_text())
        doc["residual_weights"][0][0] = float("nan")
        (tmp_path / "model.json").write_text(json.dumps(doc))
        cfg = self._config_with(cfg_path, tmp_path, model=tmp_path / "model.json")
        out = tmp_path / "prediction.csv"
        assert main(["predict", "--config", str(cfg), "--point=-1.0,1.5,1.5",
                     "--out", str(out)]) == 3
        assert "residual_weights" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_columns_name_the_level(self, pipeline_dir, tmp_path):
        workdir, cfg_path = pipeline_dir
        config = json.loads(cfg_path.read_text())
        config["validate"] = {"level": 0.9}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "prediction.csv"
        assert main(["predict", "--config", str(cfg), "--point=-1.0,1.5,1.5",
                     "--out", str(out)]) == 0
        header = [line for line in out.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == "time,location,scale,lo90,hi90"


    @staticmethod
    def _config_with(cfg_path, tmp_path, **paths):
        config = json.loads(cfg_path.read_text())
        config["paths"].update({key: str(value) for key, value in paths.items()})
        out = tmp_path / "run.json"
        out.write_text(json.dumps(config))
        return str(out)

    def test_non_finite_training_input_exit_3(self, pipeline_dir, tmp_path, capsys):
        workdir, cfg_path = pipeline_dir
        lines = (workdir / "training.csv").read_text().splitlines()
        data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        cells = lines[data[3]].split(",")
        cells[1] = "nan"  # u0 of data row 2
        lines[data[3]] = ",".join(cells)
        bad = tmp_path / "training.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg = self._config_with(cfg_path, tmp_path, training=bad,
                                model=tmp_path / "model.json")
        assert main(["fit", "--config", cfg]) == 3
        assert "row 2, column u0" in capsys.readouterr().err

    def test_validate_rejects_other_training_set(self, pipeline_dir, tmp_path, capsys):
        workdir, cfg_path = pipeline_dir
        other = tmp_path / "training.csv"
        cfg = self._config_with(cfg_path, tmp_path, design=tmp_path / "design.csv",
                                training=other, model=workdir / "model.json",
                                reports=tmp_path / "reports")
        assert main(["design", "--config", cfg, "--seed", "11"]) == 0
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["validate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert str(other) in err and str(workdir / "model.json") in err

        # model files without a fingerprint skip the check
        doc = json.loads((workdir / "model.json").read_text())
        doc["training_fingerprint"] = ""
        (tmp_path / "model.json").write_text(json.dumps(doc))
        cfg = self._config_with(cfg_path, tmp_path, training=other,
                                model=tmp_path / "model.json",
                                reports=tmp_path / "reports")
        assert main(["validate", "--config", cfg]) == 0


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _run_python(code, **env_vars):
    """Run ``code`` in a fresh interpreter without the thread variables set;
    returns the last line it printed."""
    src = os.path.dirname(os.path.dirname(opemu.__file__))
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(PYTHONPATH=src, **env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_stats():
    # scipy is imported by the functions that call it; the CLI's first
    # factorization or Beta draw loads it
    assert _run_python(f"import sys, opemu.cli; print({LOADED_SCIPY})") == "[]"


def test_design_and_simulate_load_no_scipy(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "design": {"n": 5, "seed": 1, "candidates": 3},
        "time": {"t_min": 0.0, "t_max": 4.0, "dt": 1.0},
        "paths": {"design": str(tmp_path / "d.csv"), "training": str(tmp_path / "t.csv"),
                  "model": str(tmp_path / "m.json"), "reports": str(tmp_path / "r")},
    }))
    code = ("import sys; from opemu.cli import main\n"
            f"assert main(['design', '--config', {str(cfg)!r}]) == 0\n"
            f"assert main(['simulate', '--config', {str(cfg)!r}]) == 0\n"
            f"print({LOADED_SCIPY})")
    assert _run_python(code) == "[]"
    assert (tmp_path / "t.csv").exists()


class TestThreadPin:
    READ_VARS = f"import os; print([os.environ.get(v) for v in {THREAD_VARS!r}])"

    def test_cli_pins_one_thread(self):
        assert _run_python(f"import opemu.cli; {self.READ_VARS}") == "['1', '1', '1']"

    def test_cli_keeps_a_thread_count_the_caller_set(self):
        out = _run_python(f"import opemu.cli; {self.READ_VARS}", OPENBLAS_NUM_THREADS="3")
        assert out == "['3', '1', '1']"

    def test_package_import_loads_no_numpy(self):
        # so `python -m opemu.cli` pins the threads before numpy loads
        assert _run_python("import sys, opemu; print('numpy' in sys.modules)") == "False"

    def test_library_leaves_the_environment_alone(self):
        code = ("import os; before = dict(os.environ); import opemu.emulator; "
                "print(dict(os.environ) == before)")
        assert _run_python(code) == "True"
