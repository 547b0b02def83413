"""The calls the benchmark under bench/ makes into the package.

bench/passes.py calls the library by name with fixed arguments and reads
fixed attributes of the results; bench/tracing.py wraps some functions and
methods by name and reads ``OpeModel._grid_cache`` to mark cold predicts.
A change that breaks one of those calls makes every benchmark pass raise,
and the benchmark then reports no metrics at all. These tests make the
same calls on a small model, then run the benchmark's own library pass at
its short size, once untraced and once traced.
"""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import opemu
from opemu.config import RunConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
BENCH_MODULES = ("run", "passes", "tracing", "layers")
# per-layer metrics a library pass cannot give: the CLI layer's come from a
# CLI pass, the tracing overhead from the untraced passes of a run
NOT_FROM_LIBRARY = ("trace.untraced_pipeline_s", "trace.overhead_s")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules, imported without writing bytecode under bench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        yield {name: importlib.import_module(name) for name in BENCH_MODULES}
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def short(bench):
    """The benchmark's short configuration and recorded values."""
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    cfg = RunConfig(bench["run"].SIZES["short"])
    points = cfg.space().from_unit(np.random.default_rng(0).random((8, cfg.space().k)))
    return cfg, expected["short"], expected["tolerances"], points


def test_library_calls(bench, short, capsys):
    cfg, _, _, _ = short
    raw = cfg.raw
    space, grid = cfg.space(), cfg.time_grid()
    ib, ob = cfg.input_basis(), cfg.output_basis()
    design = opemu.maximin_lhd(raw["design"]["n"], space, raw["design"]["seed"],
                               raw["design"]["candidates"])
    train = opemu.toy_training_set(design, grid, cfg.toy_params())
    est = opemu.estimate_hyperparams(train, ib, ob, raw["prior"]["dof"],
                                     raw["prior"]["split"])
    kernel = opemu.KernelSpec((2.0, 1.0, 0.6), 1.5, raw["kernel"]["exponent"])
    model = opemu.fit(est.to_prior(), ib, ob, kernel, train, raw["kernel"]["jitter"])

    point = bench["passes"].PROBE_POINTS[0]
    assert model._grid_cache is None
    off = model.predict(point, times=bench["passes"].OFF_GRID_TIMES)
    assert model._grid_cache is None  # only a training-grid predict fills it
    series = model.predict(point)
    assert model._grid_cache is not None
    for s, size in ((off, bench["passes"].OFF_GRID_TIMES.size), (series, grid.size)):
        assert s.location.shape == s.scale.shape == (size,)
        assert s.extrapolation is False
        assert isinstance(s.clamped, int)

    level = raw["validate"]["level"]
    for spec in cfg.sweep_specs():
        curve = opemu.sensitivity_sweep(model, spec, level)
        assert np.all(np.isfinite(curve.max_elev))
    a = raw["analysis"]
    uq = opemu.uq_monte_carlo(model, cfg.beta_spec(), n=a["mc_samples"], seed=a["seed"],
                              level=level, bins=a["bins"])
    assert uq.max_elevation.values.shape == uq.mean_ci_length.values.shape == (5,)
    samples = opemu.sample_beta(cfg.beta_spec(), a["mc_samples"], a["seed"])
    assert np.array_equal(uq.samples, samples)
    assert uq.extrapolated == bench["passes"].count_outside(space, samples)
    assert capsys.readouterr().out == ""


def _completed(result) -> bool:
    """Whether a library pass ran every stage and probe without raising."""
    ops = sorted(op for op, _, _ in result.ops)
    return ("pipeline" in result.times and "analysis.uq_extrapolated" in result.counters
            and ops == sorted(("design", "calibrate", "validate", "analysis", "predict")))


def test_untraced_library_pass(bench, short, capsys):
    cfg, exp, tol, points = short
    result = bench["passes"].library_pass(cfg, exp, tol, points)
    assert _completed(result), result.ops
    assert capsys.readouterr().out == ""


def test_traced_library_pass_gives_every_library_metric(bench, short, tmp_path, capsys):
    cfg, exp, tol, points = short
    tracer = bench["tracing"].Tracer()
    tracer.pass_id = 1
    result = bench["passes"].library_pass(cfg, exp, tol, points, tracer, str(tmp_path))
    result.pass_id = 1
    assert _completed(result), result.ops
    assert "emulator.model_json_bytes" in result.counters  # the layer probes ran
    values = bench["layers"].per_layer(tracer.spans, [result])
    missing = [name for name in bench["layers"].PER_LAYER
               if values.get(name) is None and not name.startswith("cli.")
               and name not in NOT_FROM_LIBRARY]
    assert missing == []
    assert values["analysis.sweep_points_per_s"] > 0
    assert capsys.readouterr().out == ""
    # the pass removed its wrappers again
    assert not hasattr(opemu.emulator.OpeModel.predict, "__wrapped__")
    assert not hasattr(opemu.analysis.credible_interval, "__wrapped__")


def test_traced_cli_child_sees_every_layer(tmp_path):
    # bench/child.py imports opemu.cli before installing the tracer, and the
    # tracer rebinds names only in the opemu modules loaded by then: the
    # CLI must keep importing its layers at module level
    paths = {"design": "d.csv", "training": "t.csv", "model": "m.json", "reports": "r"}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "design": {"n": 6, "seed": 2, "candidates": 5},
        "time": {"t_min": 0.0, "t_max": 10.0, "dt": 1.0},
        "kernel": {"lengths": [2.0, 1.0, 0.6, 3.0]},
        "paths": {key: str(tmp_path / name) for key, name in paths.items()},
    }))
    from opemu.cli import main

    for command in ("design", "simulate"):
        assert main([command, "--config", str(cfg)]) == 0, command
    spans_path = tmp_path / "spans.json"
    src = os.path.dirname(os.path.dirname(opemu.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), str(spans_path),
                    "fit", "--config", str(cfg)],
                   env=env, capture_output=True, text=True, timeout=120, check=True)
    names = {span[0] for span in json.loads(spans_path.read_text())}
    assert {"cli.import", "cli.main", "emulator.fit", "kernels.kernel_matrices",
            "likelihood.estimate_hyperparams", "simulator.ingest_runs"} <= names


# the `reference` workload's calibration and UQ, as bench/passes.py runs them
REFERENCE_CALIBRATION = """
import json
import opemu
from opemu.config import RunConfig

cfg = RunConfig()
raw = cfg.raw
design = opemu.maximin_lhd(raw["design"]["n"], cfg.space(), raw["design"]["seed"],
                           raw["design"]["candidates"])
train = opemu.toy_training_set(design, cfg.time_grid(), cfg.toy_params())
ib, ob = cfg.input_basis(), cfg.output_basis()
est = opemu.estimate_hyperparams(train, ib, ob, raw["prior"]["dof"], raw["prior"]["split"])
state = opemu.optimize_correlation_lengths(
    train, ib, ob, est.sigma2, restarts=raw["kernel"]["restarts"],
    seed=raw["kernel"]["opt_seed"], exponent=raw["kernel"]["exponent"],
    jitter=raw["kernel"]["jitter"])
model = opemu.fit(est.to_prior(), ib, ob, state.kernel_spec(raw["kernel"]["exponent"]),
                  train, raw["kernel"]["jitter"])
uq = opemu.uq_monte_carlo(model, cfg.beta_spec(), n=raw["analysis"]["mc_samples"],
                          seed=raw["analysis"]["seed"], level=raw["validate"]["level"],
                          bins=raw["analysis"]["bins"])
print(json.dumps({"loglik": state.value,
                  "uq_max_elevation": uq.max_elevation.values.tolist(),
                  "uq_mean_ci_length": uq.mean_ci_length.values.tolist()}))
"""


def test_default_calibration_meets_the_reference_gates():
    # the benchmark gates the default calibration's log-likelihood and UQ
    # quantiles against its recorded values, so a change to the length
    # search can fail it by moving the optimizer's endpoint. The benchmark
    # pins BLAS to one thread, and the quantiles move by ~3e-9 relative
    # under more threads, so this runs in a child process with the same pin
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    tol, exp = recorded["tolerances"], recorded["reference"]
    src = os.path.dirname(os.path.dirname(opemu.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", REFERENCE_CALIBRATION], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    got = json.loads(out.stdout)
    assert abs(got["loglik"] - exp["loglik"]) <= tol["loglik_rtol"] * abs(exp["loglik"])
    for name in ("uq_max_elevation", "uq_mean_ci_length"):
        observed, expected = np.asarray(got[name]), np.asarray(exp[name])
        assert observed.shape == expected.shape, name
        assert np.all(np.abs(observed - expected) <= tol["uq_rtol"] * np.abs(expected)), (
            name, observed.tolist())
