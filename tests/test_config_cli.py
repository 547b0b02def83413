import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opemu
from opemu.cli import main
from opemu.config import RunConfig
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


class TestExitCodes:
    def test_invalid_bounds_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"design": {"bounds": [[-3, 1], [2, 1], [0.5, 3]]}}))
        assert main(["design", "--config", str(cfg)]) == 2
        assert "u0" in capsys.readouterr().err

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


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone takes longer to import than the rest of the CLI
    src = os.path.dirname(os.path.dirname(opemu.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, opemu.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
