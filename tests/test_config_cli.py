import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import opemu
from opemu import likelihood
from opemu.cli import main
from opemu.config import DEFAULTS, RunConfig
from opemu.errors import ConfigError
from opemu.ioutil import read_table


class TestRunConfig:
    def test_defaults_reproduce_reference_setup(self):
        cfg = RunConfig()
        grid = cfg.time_grid()
        assert grid.size == 176
        assert grid[0] == 0.0 and grid[-1] == 35.0
        assert cfg.input_basis().size * cfg.output_basis().size == 77
        assert cfg.raw["design"]["n"] == 40
        assert cfg.raw["prior"]["dof"] == 3.0

    @pytest.mark.parametrize("time, expected", [
        ({"t_max": 1.0, "dt": 0.35}, [0.0, 0.35, 0.7]),  # a rounded step count ended at 1.05
        ({"t_max": 1.0, "dt": 0.3}, [0.0, 0.3, 0.6, 0.9]),
        ({"t_min": 0.1, "t_max": 0.7, "dt": 0.2}, [0.1, 0.3, 0.5, 0.7]),
        ({"t_max": 6.0, "dt": 0.5}, [0.5 * i for i in range(13)]),
    ])
    def test_time_grid_stays_within_t_max(self, time, expected):
        grid = RunConfig({"time": time}).time_grid()
        assert grid.tolist() == expected

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

    def test_sweep_interval_keeps_its_slack_at_load(self):
        # float noise of 1e-13 at the box's ends is not a sweep outside it
        sweep = {"dim": "x0", "lower": -3.0 - 1e-13, "upper": 1.0 + 1e-13,
                 "fixed": [-1.0, 1.5, 1.5]}
        RunConfig({"analysis": {"sweeps": [sweep]}})

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


def _config_with(cfg_path, tmp_path, sections=None, **paths):
    """The config at ``cfg_path`` with ``paths`` set and ``sections``
    ({section: {key: value}}) merged in, written to ``tmp_path``."""
    config = json.loads(cfg_path.read_text())
    for section, values in (sections or {}).items():
        config[section].update(values)
    config["paths"].update({key: str(value) for key, value in paths.items()})
    out = tmp_path / "run.json"
    out.write_text(json.dumps(config))
    return str(out)


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
        # --config is the one global flag: before the subcommand it gives the
        # bytes it gave after it, in the fixture
        workdir, cfg_path = pipeline_dir
        first = (workdir / "design.csv").read_bytes()
        assert main(["--config", str(cfg_path), "design"]) == 0
        assert (workdir / "design.csv").read_bytes() == first

    def test_seed_comes_from_the_config(self, tmp_path, capsys):
        # every artifact's seed is the config's, which its config_hash pins
        paths = {"design": str(tmp_path / "design.csv"),
                 "training": str(tmp_path / "training.csv"),
                 "model": str(tmp_path / "model.json"), "reports": str(tmp_path / "reports")}
        doc = {"design": {"n": 6, "seed": 41, "candidates": 4},
               "time": {"t_max": 8.0, "dt": 0.5},
               "kernel": {"lengths": [1.0, 0.5, 0.8, 1.5]}, "paths": paths}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        for command in ("design", "simulate", "fit"):
            assert main([command, "--config", str(cfg)]) == 0
        metas = [read_table(paths[name])[2] for name in ("design", "training")]
        metas.append(json.loads((tmp_path / "model.json").read_text())["meta"])
        assert [str(meta["seed"]) for meta in metas] == ["41"] * 3
        config_hash = RunConfig(doc).hash()
        assert [meta["config_hash"] for meta in metas] == [config_hash] * 3
        del doc["design"]["seed"]
        assert RunConfig(doc).hash() != config_hash

        capsys.readouterr()
        for argv in (["design", "--seed=41"], ["--seed=41", "design"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", str(cfg)])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err

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


class TestFitTrace:
    def test_one_row_per_evaluation(self, pipeline_dir, tmp_path, monkeypatch):
        workdir, cfg_path = pipeline_dir
        calls = []
        evaluate = likelihood._Workspace.evaluate

        def counted(self, lengths, tau=None, want_grad=False):
            calls.append(want_grad)
            return evaluate(self, lengths, tau, want_grad)

        monkeypatch.setattr(likelihood._Workspace, "evaluate", counted)
        # calls counted in a forked search worker never reach this list, so
        # every start runs here (the worker count changes no row: see
        # test_likelihood's TestForkedStarts)
        monkeypatch.setattr(likelihood, "_search_workers", lambda restarts: 1)
        cfg = _config_with(cfg_path, tmp_path, model=tmp_path / "model.json",
                           reports=tmp_path / "reports")
        assert main(["fit", "--trace", "--config", cfg]) == 0
        header, rows, meta = read_table(str(tmp_path / "reports" / "fit_trace.csv"))
        assert header == ["restart", "evaluation", "log_likelihood", "grad_norm",
                          "x0", "u0", "c", "time", "tau"]
        # the search evaluates with the gradient; the optimum is re-evaluated without
        assert len(rows) == sum(calls) and len(calls) == sum(calls) + 1
        restarts = [int(row[0]) for row in rows]
        assert sorted(set(restarts)) == [0, 1]  # kernel.restarts is 2
        for r in (0, 1):
            counts = [int(row[1]) for row in rows if int(row[0]) == r]
            assert counts == list(range(1, len(counts) + 1))
        assert all(float(row[-1]) > 0 for row in rows)
        assert meta["seed"] == "5" and meta["config_hash"]
        # tracing leaves the fit alone
        model = json.loads((tmp_path / "model.json").read_text())
        fixture_model = json.loads((workdir / "model.json").read_text())
        del model["meta"], fixture_model["meta"]
        assert model == fixture_model

    def test_no_trace_at_configured_lengths(self, pipeline_dir, tmp_path, capsys):
        _, cfg_path = pipeline_dir
        cfg = _config_with(cfg_path, tmp_path, {"kernel": {"lengths": [1.0, 0.5, 0.8, 1.5]}},
                           model=tmp_path / "model.json", reports=tmp_path / "reports")
        assert main(["fit", "--trace", "--config", cfg]) == 0
        assert (tmp_path / "model.json").exists()
        assert not (tmp_path / "reports" / "fit_trace.csv").exists()
        assert "fit_trace" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["validate", "--trace"], ["--trace", "fit"]])
    def test_trace_is_a_fit_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err


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

    def test_fit_echoes_prior_override(self, tmp_path, capsys):
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
        assert "prior (user-override): sigma2=0.257 dof=3 scale=0.208" in capsys.readouterr().out
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["prior"]["sigma2"] == 0.257
        assert doc["prior"]["scale"] == 0.208
        assert doc["prior"]["dof"] == 3.0

        from opemu.emulator import load_model

        model = load_model(str(tmp_path / "m.json"))
        assert model.prior.sigma2 == 0.257


SWEEP = {"dim": "x0", "lower": -2.0, "upper": 0.0, "resolution": 21, "fixed": [-1.0, 1.5, 1.5]}
U0_SWEEP = {**SWEEP, "dim": "u0", "lower": 1.0, "upper": 2.0}


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


def _readme_block(heading, lang):
    """The first ```lang block of README.md under ``heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split(f"```{lang}", 1)[1].split("```", 1)[0]


def test_readme_config_sketch_loads():
    RunConfig(json.loads(_readme_block("### Config sketch", "json")))


def test_readme_library_example_runs():
    # as written, so a changed signature cannot leave the example stale
    namespace = {}
    exec(compile(_readme_block("## Library example", "python"), "README.md", "exec"), namespace)
    assert namespace["batch"].location.shape == (5, 176)


class TestExitCodes:
    def test_invalid_bounds_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"design": {"bounds": [[-3, 1], [2, 1], [0.5, 3]]}}))
        assert main(["design", "--config", str(cfg)]) == 2
        assert "u0" in capsys.readouterr().err

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
        ({"simulator": {"damping": 0.05}}, ["unknown config key: simulator"]),
        ({"kernel": {"length_bounds": None}}, ["unknown config key: kernel.length_bounds"]),
        ({"analysis": {"sweeps": [SWEEP, {**SWEEP, "lower": -5.0}]}},
         ["analysis.sweeps[1]", "design box", "x0"]),
        ({"kernel": {"lengths": [1.0, 1.0, "0.6", 3.0]}}, ["kernel.lengths"]),
        ({"design": {"bounds": [["-3", 1.0], [1.0, 2.0], [0.5, 3.0]]}},
         ["design.bounds", "x0"]),
        ({"basis": {"frequencies": [True, 0.5]}}, ["basis.frequencies[0]"]),
        ({"analysis": {"beta": [[5.0, "2", -2.0, 0.0], [2.0, 5.0, 1.0, 2.0],
                                [2.0, 5.0, 0.5, 2.5]]}}, ["analysis.beta[0][1]"]),
        ({"analysis": {"sweeps": [{**SWEEP, "fixed": [-1.0, "1.5", 1.5]}]}},
         ["analysis.sweeps[0].fixed[1]"]),
        ({"analysis": {"sweeps": [{**U0_SWEEP, "fixed": [25.0, 1.5, -40.0]}]}},
         ["analysis.sweeps[0]", "fixed value 25.0", "design box", "x0"]),
        ({"analysis": {"sweeps": [U0_SWEEP, {**U0_SWEEP, "fixed": [-1.0, 1.5, -40.0]}]}},
         ["analysis.sweeps[1]", "fixed value -40.0", "design box", "c"]),
        ({"analysis": {"sweeps": [{**SWEEP, "fixed": [-1.0, 1.5]}]}},
         ["analysis.sweeps[0]", "fixed needs 3 values, got 2"]),
        ({"analysis": {"sweeps": [U0_SWEEP, SWEEP, U0_SWEEP]}},
         ["analysis.sweeps[2]", "u0 again"]),
    ], ids=["exponent", "negative-length", "string-length", "nan-length", "beta-shape",
            "sweep-resolution", "frequency", "nan-frequency", "infinite-lower-bound",
            "infinite-upper-bound", "string-bound", "short-bound-pair", "string-n",
            "fractional-n", "string-candidates",
            "string-dt", "negative-seed", "string-restarts", "negative-analysis-seed",
            "string-dof", "string-level", "level-range", "split-range", "estimated-dof",
            "negative-sigma2", "string-sigma2", "zero-scale", "negative-jitter",
            "number-bounds", "number-names", "integer-names", "comma-name", "repeated-name",
            "number-lengths", "number-beta", "number-sweeps", "number-sweep",
            "number-sweep-fixed", "boolean-sweep-dim", "fractional-sweep-resolution",
            "misspelt-sweep-key", "removed-reoptimize", "removed-simulator",
            "removed-length-bounds", "sweep-out-of-box", "numeric-string-length",
            "numeric-string-bound", "boolean-frequency", "string-beta-entry",
            "numeric-string-sweep-fixed", "sweep-fixed-out-of-box",
            "later-sweep-fixed-out-of-box", "sweep-fixed-count", "repeated-sweep-dim"])
    def test_bad_domain_value_exit_2_at_load(self, tmp_path, capsys, override, names):
        # rejected with the config, so `design` fails, not a later command
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**override,
                                   "paths": {"design": str(tmp_path / "d.csv")}}))
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("name", ["../c", "c/../../../escaped", "a\\b"])
    def test_slash_in_name_exit_2_at_load(self, tmp_path, capsys, name):
        # a dimension name is also a file name: sweep writes reports/sweep_<name>.csv
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"design": {"names": ["x0", "u0", name]},
                                   "paths": {"design": str(tmp_path / "d.csv")}}))
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "design.names" in err and "slashes" in err, err
        assert not (tmp_path / "d.csv").exists()

    def test_negative_t_min_exit_2_at_load(self, tmp_path, capsys):
        # the toy simulator needs t >= 0: caught at load, naming the key
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"time": {"t_min": -1.0},
                                   "paths": {"design": str(tmp_path / "d.csv")}}))
        assert main(["design", "--config", str(cfg)]) == 2
        assert "time.t_min" in capsys.readouterr().err
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
        cfg = _config_with(cfg_path, tmp_path, model=tmp_path / "model.json")
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


    def test_non_finite_training_input_exit_3(self, pipeline_dir, tmp_path, capsys):
        workdir, cfg_path = pipeline_dir
        lines = (workdir / "training.csv").read_text().splitlines()
        data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        cells = lines[data[3]].split(",")
        cells[1] = "nan"  # u0 of data row 2
        lines[data[3]] = ",".join(cells)
        bad = tmp_path / "training.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg = _config_with(cfg_path, tmp_path, training=bad, model=tmp_path / "model.json")
        assert main(["fit", "--config", cfg]) == 3
        assert "row 2, column u0" in capsys.readouterr().err

    @pytest.mark.parametrize("column, label", [(3, "t=inf"), (3, "t=-inf"), (-1, "t=nan")])
    def test_non_finite_time_header_exit_3(self, pipeline_dir, tmp_path, capsys, column, label):
        # float() reads these labels; the grid time must still be finite
        workdir, cfg_path = pipeline_dir
        lines = (workdir / "training.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header].split(",")
        cells[column] = label
        lines[header] = ",".join(cells)
        bad = tmp_path / "training.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg = _config_with(cfg_path, tmp_path, training=bad, model=tmp_path / "model.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--config", cfg]) == 3
        assert not caught
        err = capsys.readouterr().err
        assert err == (f"data error: {bad}: column {column % len(cells)} header {label!r} "
                       f"is not a time t=<finite number>\n")
        assert not (tmp_path / "model.json").exists()

    def test_validate_on_two_runs_exit_3(self, tmp_path, capsys):
        # design, simulate and fit take two runs; leave-one-out needs three
        paths = {"design": str(tmp_path / "design.csv"),
                 "training": str(tmp_path / "training.csv"),
                 "model": str(tmp_path / "model.json"), "reports": str(tmp_path / "reports")}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "design": {"n": 2, "candidates": 4}, "time": {"t_max": 8.0, "dt": 0.5},
            "kernel": {"lengths": [1.0, 0.5, 0.8, 1.5]}, "paths": paths}))
        for command in ("design", "simulate", "fit"):
            assert main([command, "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {paths['training']}: leave-one-out needs at least "
                       f"3 runs, got 2\n")
        assert not (tmp_path / "reports").exists()

    def test_model_over_other_dimension_order_exit_3(self, pipeline_dir, tmp_path, capsys):
        # the same dimensions listed as u0, x0, c, with bounds, beta rows and
        # the sweep reordered to match: the config's lists no longer line up
        # with the model's columns
        _, cfg_path = pipeline_dir
        config = json.loads(cfg_path.read_text())
        beta = DEFAULTS["analysis"]["beta"]
        config["design"].update(names=["u0", "x0", "c"],
                                bounds=[[1.0, 2.0], [-3.0, 1.0], [0.5, 3.0]])
        config["analysis"]["beta"] = [beta[1], beta[0], beta[2]]
        config["analysis"]["sweeps"][0]["fixed"] = [1.5, -1.0, 1.5]
        config["paths"]["reports"] = str(tmp_path / "reports")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "prediction.csv"
        for argv in (["uq"], ["sweep"], ["predict", "--point=1.5,-1.0,1.5", "--out", str(out)]):
            assert main(argv + ["--config", str(cfg)]) == 3, argv[0]
            err = capsys.readouterr().err
            assert "['x0', 'u0', 'c']" in err and "['u0', 'x0', 'c']" in err
            assert "rerun fit" in err
        assert not out.exists() and not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("lengths, message", [
        ([1.0, 0.5, 0.8, 1.5], "factorization failed for the input correlation matrix"),
        (None, "all optimizer restarts failed"),
    ], ids=["fixed-lengths", "length-search"])
    def test_repeated_design_row_exit_4(self, tmp_path, capsys, lengths, message):
        # a row one ulp from another passes ingest's repeat check, but their
        # correlation rounds to exactly 1 at every length, so without jitter
        # the input correlation's Cholesky factor has a pivot of exactly 0
        paths = {name: str(tmp_path / f"{name}.{ext}") for name, ext in
                 (("design", "csv"), ("training", "csv"), ("model", "json"))}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "design": {"n": 6, "candidates": 4}, "time": {"t_max": 8.0, "dt": 0.5},
            "kernel": {"jitter": 0, "restarts": 2, "lengths": lengths}, "paths": paths}))
        assert main(["design", "--config", str(cfg)]) == 0
        lines = (tmp_path / "design.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        x0, *rest = lines[header + 1].split(",")
        lines[header + 2] = ",".join([repr(float(np.nextafter(float(x0), 0.0))), *rest])
        (tmp_path / "design.csv").write_text("\n".join(lines) + "\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and message in err, err
        assert not (tmp_path / "model.json").exists()

    def test_repeated_training_rows_exit_3(self, tmp_path, capsys):
        # without jitter two equal rows would leave a pivot of exactly 0 in
        # the input correlation's Cholesky factor; ingest names both rows
        cfg = _small_config(tmp_path, design={"n": 6, "candidates": 4},
                            kernel={"jitter": 0, "restarts": 2})
        for command in ("design", "simulate"):
            assert main([command, "--config", cfg]) == 0
        training = tmp_path / "t.csv"
        lines = training.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header + 6] = lines[header + 2]  # the 6th data row repeats the 2nd
        training.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{training}: rows 1 and 5 repeat" in err, err
        assert not (tmp_path / "m.json").exists()

    def test_two_input_config_simulate_exit_2_naming_the_key(self, tmp_path, capsys):
        # design and fit take any dimension count; the toy needs three inputs
        cfg = _small_config(tmp_path, design={"n": 5, "seed": 1, "candidates": 3,
                                              "names": ["x0", "u0"],
                                              "bounds": [[-3.0, 1.0], [1.0, 2.0]]},
                            analysis={"beta": DEFAULTS["analysis"]["beta"][:2],
                                      "sweeps": [{"dim": "x0", "lower": -2.0, "upper": 0.0,
                                                  "fixed": [-1.0, 1.5]}]})
        assert main(["design", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: design.names lists 2 inputs ['x0', 'u0']"), err
        assert "position, speed and spread ratio" in err
        assert not (tmp_path / "t.csv").exists()

    def test_validate_rejects_other_training_set(self, pipeline_dir, tmp_path, capsys):
        workdir, cfg_path = pipeline_dir
        other = tmp_path / "training.csv"
        # the fixture's design has seed 5
        cfg = _config_with(cfg_path, tmp_path, {"design": {"seed": 11}},
                           design=tmp_path / "design.csv", training=other,
                           model=workdir / "model.json", reports=tmp_path / "reports")
        assert main(["design", "--config", cfg]) == 0
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["validate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert str(other) in err and str(workdir / "model.json") in err

        # a model file without a fingerprint cannot skip the check
        cfg = _config_with(cfg_path, tmp_path, training=other, model=tmp_path / "model.json",
                           reports=tmp_path / "reports")
        for fingerprint in ("", None):
            doc = json.loads((workdir / "model.json").read_text())
            if fingerprint is None:
                del doc["training_fingerprint"]
            else:
                doc["training_fingerprint"] = fingerprint
            (tmp_path / "model.json").write_text(json.dumps(doc))
            assert main(["validate", "--config", cfg]) == 3
            assert "'training_fingerprint'" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert main(["design", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(tmp_path) in err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"design": {"names": ["x\u00e90", "u0", "c"]}}'.encode("latin-1"))
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err

    @pytest.mark.parametrize("argv", [["fit"], ["predict", "--point=-1.0,1.5,1.5"]],
                             ids=["fit", "predict"])
    def test_model_path_directory_exit_3(self, pipeline_dir, tmp_path, capsys, monkeypatch,
                                         argv):
        # fit cannot replace a directory with the model, predict cannot read one
        monkeypatch.chdir(tmp_path)
        _, cfg_path = pipeline_dir
        model = tmp_path / "model.json"
        model.mkdir()
        cfg = _config_with(cfg_path, tmp_path, model=model)
        assert main([*argv, "--config", cfg]) == 3
        assert str(model) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "run.json"]

    def test_predict_out_directory_exit_3(self, pipeline_dir, tmp_path, capsys):
        _, cfg_path = pipeline_dir
        assert main(["predict", "--config", str(cfg_path), "--point=-1.0,1.5,1.5",
                     "--out", str(tmp_path)]) == 3
        assert str(tmp_path) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reports_path_file_exit_3(self, pipeline_dir, tmp_path, capsys):
        _, cfg_path = pipeline_dir
        reports = tmp_path / "reports"
        reports.write_text("")
        cfg = _config_with(cfg_path, tmp_path, reports=reports)
        assert main(["sweep", "--config", cfg]) == 3
        assert str(reports) in capsys.readouterr().err

    @pytest.mark.parametrize("key, argv", [
        ("design", ["simulate"]), ("training", ["fit"]),
        ("model", ["predict", "--point=-1.0,1.5,1.5"]),
    ], ids=["design", "training", "model"])
    def test_non_utf8_input_exit_3_naming_the_file(self, pipeline_dir, tmp_path, capsys,
                                                   monkeypatch, key, argv):
        # the dimension name x0 written as "x\xe90", as a Latin-1 editor saves "xé0"
        monkeypatch.chdir(tmp_path)
        workdir, cfg_path = pipeline_dir
        paths = {role: tmp_path / file for role, file in
                 (("design", "design.csv"), ("training", "training.csv"),
                  ("model", "model.json"))}
        for file in paths.values():
            file.write_bytes((workdir / file.name).read_bytes())
        paths[key].write_bytes(paths[key].read_bytes().replace(b"x0", b"x\xe90", 1))
        cfg = _config_with(cfg_path, tmp_path, **paths, reports=tmp_path / "reports")
        assert main([*argv, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(paths[key]) in err
        assert "utf-8" in err


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _python(code, **env_vars) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter without the thread variables set."""
    src = os.path.dirname(os.path.dirname(opemu.__file__))
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(PYTHONPATH=src, **env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def _run_python(code, **env_vars):
    """Run ``code`` as :func:`_python` does; returns the last line it printed."""
    return _python(code, **env_vars).stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_stats():
    # scipy is imported by the functions that call it; the CLI's first
    # factorization or Beta draw loads it
    assert _run_python(f"import sys, opemu.cli; print({LOADED_SCIPY})") == "[]"


def _small_config(path, **sections) -> str:
    """A five-run config writing under ``path``; returns the config file name."""
    cfg = path / "run.json"
    cfg.write_text(json.dumps({
        "design": {"n": 5, "seed": 1, "candidates": 3},
        "time": {"t_min": 0.0, "t_max": 4.0, "dt": 1.0},
        "paths": {"design": str(path / "d.csv"), "training": str(path / "t.csv"),
                  "model": str(path / "m.json"), "reports": str(path / "r")},
        **sections,
    }))
    return str(cfg)


def _loaded_scipy(*commands, kinds=False):
    """The scipy modules a fresh interpreter holds after running ``commands``:
    their sorted names, or with ``kinds`` a map from each name to whether
    the module is a compiled extension."""
    code = "import importlib.machinery, sys; from opemu.cli import main\n"
    for argv in commands:
        code += f"assert main({argv!r}) == 0\n"
    report = (f"{{m: isinstance(sys.modules[m].__loader__, "
              f"importlib.machinery.ExtensionFileLoader) for m in {LOADED_SCIPY}}}"
              if kinds else LOADED_SCIPY)
    return ast.literal_eval(_run_python(code + f"print({report})"))


def test_design_and_simulate_load_no_scipy(tmp_path):
    cfg = _small_config(tmp_path)
    assert _loaded_scipy(["design", "--config", cfg], ["simulate", "--config", cfg]) == []
    assert (tmp_path / "t.csv").exists()


FIXED_LENGTHS = {"lengths": [1.0, 0.5, 0.8, 1.0]}


def test_tiny_level_validate_writes_null_correlation(tmp_path):
    # at level 1e-300 every interval is 0 wide, so each fold's MCIL is 0
    # and its correlation with MED is undefined: null, with nothing on stderr
    cfg = _small_config(tmp_path, kernel=FIXED_LENGTHS, validate={"level": 1e-300})
    for command in ("design", "simulate", "fit"):
        assert main([command, "--config", cfg]) == 0
    proc = _python(f"import sys; from opemu.cli import main; "
                   f"sys.exit(main(['validate', '--config', {cfg!r}]))")
    assert proc.stderr == ""
    assert "corr(MED, MCIL)=undefined" in proc.stdout

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((tmp_path / "r" / "loo_report.json").read_text(), parse_constant=reject)
    assert doc["corr_med_mcil"] is None
    assert all(fold["mcil"] == 0.0 for fold in doc["folds"])


@pytest.mark.parametrize("level", [1e-300, 0.95])
def test_validate_stdout_names_the_fold_csv_level(tmp_path, capsys, level):
    # stdout names the level as the fold CSVs' band columns do, also where
    # whole percents would round it to "0%"
    cfg = _small_config(tmp_path, kernel=FIXED_LENGTHS, validate={"level": level})
    for command in ("design", "simulate", "fit", "validate"):
        assert main([command, "--config", cfg]) == 0
    fold = (tmp_path / "r" / "loo_fold_00.csv").read_text().splitlines()
    lo = next(line for line in fold if not line.startswith("#")).split(",")[3]
    assert lo == ("lo1e-298" if level == 1e-300 else "lo95")
    assert f"pooled {lo[2:]}% coverage: " in capsys.readouterr().out


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A workdir fitted at fixed lengths, and its config: 19 runs on the
    default 176-point grid, so the fit's dof (3347) and each LOO fold's
    (3171) are above the 3000 from which opemu computes the t quantile."""
    path = tmp_path_factory.mktemp("served")
    cfg = _small_config(path, design={"n": 19, "seed": 1, "candidates": 3},
                        time={"t_min": 0.0, "t_max": 35.0, "dt": 0.2},
                        kernel=FIXED_LENGTHS, analysis={"mc_samples": 50})
    for command in ("design", "simulate", "fit"):
        assert main([command, "--config", cfg]) == 0
    return path, cfg


@pytest.mark.parametrize("command", [["fit"], ["validate"], ["sweep"],
                                     ["predict", "--point=-1.0,1.5,1.5"]],
                         ids=lambda command: command[0])
def test_serving_commands_load_only_compiled_lapack(served, command):
    # LAPACK comes from scipy's compiled module, loaded without the scipy
    # and scipy.linalg packages, and the t quantile from opemu itself
    path, cfg = served
    argv = command + ["--config", cfg]
    if command[0] == "predict":
        argv += ["--out", str(path / "prediction.csv")]
    assert set(_loaded_scipy(argv)) <= {"scipy.linalg._flapack"}


def test_searching_fit_loads_only_compiled_lapack_and_lbfgsb(tmp_path):
    # the length search drives scipy's compiled L-BFGS-B module, loaded
    # without the scipy.optimize package, which would bring scipy.linalg and
    # scipy.special with it
    cfg = _small_config(tmp_path, kernel={"restarts": 2})
    for command in ("design", "simulate"):
        assert main([command, "--config", cfg]) == 0
    loaded = _loaded_scipy(["fit", "--trace", "--config", cfg], kinds=True)
    assert loaded == {"scipy.linalg._flapack": True, "scipy.optimize._lbfgsb": True}
    assert (tmp_path / "r" / "fit_trace.csv").exists()


def _assert_compiled_special_only(loaded):
    """``loaded`` (module name -> compiled?) holds scipy.special's compiled
    modules, and neither the scipy.special nor the scipy.linalg package."""
    assert "scipy.special" not in loaded
    assert "scipy.linalg" not in loaded
    special = {name: compiled for name, compiled in loaded.items()
               if name.startswith("scipy.special.")}
    assert "scipy.special._ufuncs" in special
    assert all(special.values()), special


def test_uq_loads_compiled_special_modules_only(served):
    # the Beta draws take betaincinv from scipy's compiled module, loaded
    # without the scipy.special package
    _assert_compiled_special_only(_loaded_scipy(["uq", "--config", served[1]], kinds=True))


def test_small_dof_interval_loads_compiled_special_modules_only(tmp_path):
    # five runs on five times give dof 28: the t quantile is stdtrit from
    # scipy's compiled module, loaded without the scipy.special package
    cfg = _small_config(tmp_path, kernel=FIXED_LENGTHS)
    loaded = _loaded_scipy(*([command, "--config", cfg] for command in
                             ("design", "simulate", "fit")),
                           ["predict", "--point=-1.0,1.5,1.5", "--config", cfg,
                            "--out", str(tmp_path / "prediction.csv")], kinds=True)
    _assert_compiled_special_only(loaded)


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
