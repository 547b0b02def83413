"""One full pass of each workload, with its correctness gates.

A pass runs the whole pipeline once and returns a :class:`PassResult`:
stage wall times, per-call predict latencies, the values the gates check,
exact counters, and one ``(operation, ok, detail)`` entry per operation.
An operation whose gate fails, or whose stage raises, counts as failed;
when a stage raises, every operation after it in the pass fails too.

``library_pass`` drives the package in-process (workload ``reference``).
``cli_pass`` runs the CLI pipeline as fresh ``python -m opemu.cli``
processes (workload ``cli-analysis``). Passed a tracer, a library pass installs it for the pass and also runs the layer
probes (calls the pipeline does not make, timed only through spans); a
CLI pass runs its children through ``child.py``.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import opemu
from opemu.config import RunConfig

# Calls go through ``opemu.<name>`` so that a tracer's rebinding sees them.

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Fixed points, inside the default box, where predictions must track the
# toy simulator (relative RMSE below the profile's recorded tolerance).
PROBE_POINTS = (
    (-1.0, 1.5, 1.5),
    (-1.0, 1.5, 2.0),
    (-2.5, 1.2, 0.8),
    (0.5, 1.8, 2.7),
    (-1.5, 1.3, 2.2),
)
# 100 prediction times inside 0..35 but off the dt=0.2 and dt=0.5 grids
# (their hundredths digit is 3 or 8)
OFF_GRID_TIMES = 0.03 + 0.35 * np.arange(100)

LIBRARY_STAGES = ("design", "simulate", "calibrate", "validate", "sweep", "uq", "predict")
LIBRARY_OPS = ("design", "calibrate", "validate", "analysis", "predict")
CLI_COMMANDS = ("design", "simulate", "fit", "validate", "sweep", "uq", "predict")
# Commands of one to two seconds, mostly interpreter start-up, run twice in
# a row per pass: a run has room for two passes, and two samples of a
# command gave its ten-run spread up to 0.24. uq (~5 s) runs once; predict
# runs once at each probe point.
CLI_REPEATS = {"design": 2, "simulate": 2, "fit": 2, "validate": 2, "sweep": 2}
CHILD_TIMEOUT_S = 150


@dataclass
class PassResult:
    traced: bool
    times: dict = field(default_factory=dict)  # stage -> wall seconds
    latencies: list = field(default_factory=list)  # per-predict wall seconds
    ops: list = field(default_factory=list)  # (operation, ok, detail)
    counters: dict = field(default_factory=dict)  # exact, repeat run to run
    values: dict = field(default_factory=dict)  # other per-pass facts
    root: int = -1  # tracer index of the pipeline span

    def gate(self, op, ok, detail="") -> None:
        self.ops.append((op, bool(ok), detail))

    def fail_rest(self, all_ops, exc) -> None:
        done = {op for op, _, _ in self.ops}
        for op in all_ops:
            if op not in done:
                self.ops.append((op, False, f"{type(exc).__name__}: {exc}"))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


@contextmanager
def span(tracer, name):
    """A span the benchmark opens itself; no-op on an untraced pass."""
    if tracer is None:
        yield -1
        return
    idx = tracer.open(name)
    try:
        yield idx
    finally:
        tracer.close(idx)


def rel_close(observed, expected, rtol) -> bool:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return observed.shape == expected.shape and bool(
        np.all(np.abs(observed - expected) <= rtol * np.abs(expected))
    )


def tracking_error(location, point, times, params) -> float:
    """RMSE of a predicted series against the toy simulator, relative to
    the simulator's peak magnitude."""
    truth = opemu.toy_simulate(point, times, params)
    return float(np.sqrt(np.mean((np.asarray(location) - truth) ** 2))
                 / np.abs(truth).max())


def count_outside(space, samples) -> int:
    """Monte-Carlo inputs outside the design box (extrapolated predictions)."""
    return int(sum(not space.contains(s) for s in samples))


def _gate_coverage(result, op, coverage, folds, failures, n, exp) -> None:
    lo, hi = exp["coverage_band"]
    result.gate(op, lo <= coverage <= hi and folds == n and failures == 0,
                f"pooled coverage {coverage:.6f} in [{lo}, {hi}], "
                f"{folds}/{n} folds, {failures} failed")


def _gate_uq(result, op, max_q, mcil_q, exp, rtol) -> None:
    ok = rel_close(max_q, exp["uq_max_elevation"], rtol) and rel_close(
        mcil_q, exp["uq_mean_ci_length"], rtol)
    result.gate(op, ok, f"UQ quantiles within rtol {rtol:g} of the recorded values")


# -- in-process library pipeline -------------------------------------------


def library_pass(cfg: RunConfig, exp: dict, tol: dict, points, tracer=None,
                 workdir=None) -> PassResult:
    """Design, simulate, calibrate, LOO, sweeps, UQ and a slice of predicts."""
    result = PassResult(traced=tracer is not None)
    raw = cfg.raw
    space, grid = cfg.space(), cfg.time_grid()
    ib, ob = cfg.input_basis(), cfg.output_basis()
    jitter, exponent = raw["kernel"]["jitter"], raw["kernel"]["exponent"]
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        with span(tracer, "bench.pipeline") as root:
            result.root = root
            marks = [clock()]
            design = opemu.maximin_lhd(raw["design"]["n"], space, raw["design"]["seed"],
                                       raw["design"]["candidates"])
            marks.append(clock())
            train = opemu.toy_training_set(design, grid, cfg.toy_params())
            marks.append(clock())
            est = opemu.estimate_hyperparams(train, ib, ob, raw["prior"]["dof"],
                                             raw["prior"]["split"])
            state = opemu.optimize_correlation_lengths(
                train, ib, ob, est.sigma2, restarts=raw["kernel"]["restarts"],
                seed=raw["kernel"]["opt_seed"], exponent=exponent, jitter=jitter,
                collect_trace=tracer is not None)
            kernel, prior = state.kernel_spec(exponent), est.to_prior()
            model = opemu.fit(prior, ib, ob, kernel, train, jitter)
            marks.append(clock())
            report = opemu.loo(train, ib, ob, kernel, prior, jitter=jitter,
                               level=raw["validate"]["level"])
            marks.append(clock())
            curves = [opemu.sensitivity_sweep(model, s, raw["validate"]["level"])
                      for s in cfg.sweep_specs()]
            marks.append(clock())
            uq = opemu.uq_monte_carlo(model, cfg.beta_spec(),
                                      n=raw["analysis"]["mc_samples"],
                                      seed=raw["analysis"]["seed"],
                                      level=raw["validate"]["level"],
                                      bins=raw["analysis"]["bins"])
            marks.append(clock())
            series = []
            for p in points:
                a = clock()
                s = model.predict(p)
                result.latencies.append(clock() - a)
                series.append(s)
            marks.append(clock())
        for i, name in enumerate(LIBRARY_STAGES):
            result.times[name] = marks[i + 1] - marks[i]
        result.times["pipeline"] = marks[-1] - marks[0]

        with span(tracer, "bench.probes"):
            min_d = design.min_distance(unit=True)
            result.gate("design", min_d == exp["min_distance"],
                        f"unit min distance {min_d!r}, recorded {exp['min_distance']!r}")
            result.gate("calibrate", rel_close(state.value, exp["loglik"], tol["loglik_rtol"]),
                        f"log-likelihood {state.value!r}, recorded {exp['loglik']!r}")
            _gate_coverage(result, "validate", report.pooled_coverage,
                           len(report.diagnostics), len(report.failures), train.n, exp)
            sweeps_ok = all(np.all(np.isfinite(c.max_elev)) for c in curves)
            if not sweeps_ok:
                result.gate("analysis", False, "non-finite sweep maxima")
            else:
                _gate_uq(result, "analysis", uq.max_elevation.values,
                         uq.mean_ci_length.values, exp, tol["uq_rtol"])
            worst = max(tracking_error(model.predict(p).location, p, grid, cfg.toy_params())
                        for p in PROBE_POINTS)
            finite = all(np.all(np.isfinite(s.location)) and np.all(np.isfinite(s.scale))
                         and not s.extrapolation for s in series)
            result.gate("predict", finite and worst <= exp["probe_rel_rmse_max"],
                        f"{len(series)} slice predictions finite and in-box: {finite}; "
                        f"worst probe relative RMSE {worst:.4f} "
                        f"(limit {exp['probe_rel_rmse_max']})")

            result.counters = {
                "design.min_distance": min_d,
                "likelihood.iterations": sum(s.get("iterations", 0) for s in state.starts),
                "likelihood.converged": sum(bool(s.get("converged")) for s in state.starts),
                "likelihood.restarts": len(state.starts),
                "validation.folds": len(report.diagnostics),
                "validation.failed_folds": len(report.failures),
                "analysis.uq_extrapolated": count_outside(space, uq.samples),
                "analysis.sweep_points": sum(c.n_evaluations for c in curves),
            }
            result.values = {"likelihood.loglik": state.value,
                             "validation.pooled_coverage": report.pooled_coverage,
                             "uq_max_elevation": uq.max_elevation.values.tolist(),
                             "uq_mean_ci_length": uq.mean_ci_length.values.tolist(),
                             "probe_rel_rmse": worst}
            if tracer is not None:
                result.counters["likelihood.evaluations"] = len(state.trace)
                _layer_probes(result, cfg, train, model, state, est, workdir)
    except Exception as exc:  # a failing stage fails its operation and the rest
        result.fail_rest(LIBRARY_OPS, exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def _layer_probes(result, cfg, train, model, state, est, workdir) -> None:
    """Layer calls the pipeline does not make; the tracer times them."""
    ib, ob = cfg.input_basis(), cfg.output_basis()
    raw = cfg.raw
    csv_path = os.path.join(workdir, "probe-training.csv")
    opemu.write_training_csv(train, csv_path)
    opemu.ingest_runs(csv_path, cfg.space())
    model_path = os.path.join(workdir, "probe-model.json")
    opemu.save_model(model, model_path)
    opemu.load_model(model_path)
    for p in PROBE_POINTS:
        model.predict(p, times=OFF_GRID_TIMES)
    lengths = list(state.input_lengths) + [state.output_length]
    for _ in range(3):
        opemu.log_marginal_likelihood(train, ib, ob, lengths, state.tau, est.sigma2,
                                raw["kernel"]["exponent"], raw["kernel"]["jitter"])
        opemu.log_marginal_likelihood_gradient(train, ib, ob, lengths, state.tau, est.sigma2,
                                         raw["kernel"]["exponent"], raw["kernel"]["jitter"])
    result.counters["simulator.training_csv_bytes"] = os.path.getsize(csv_path)
    result.counters["emulator.model_json_bytes"] = os.path.getsize(model_path)


# -- CLI pipeline in child processes ------------------------------------------


def _digest(directory: str) -> tuple:
    """(sha256 over every artifact, total artifact bytes) in a pass dir."""
    h = hashlib.sha256()
    total = 0
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name == "config.json" or name.startswith("spans-"):
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, directory).encode() + b"\0" + data)
            total += len(data)
    return h.hexdigest(), total


def cli_pass(cfg: RunConfig, exp: dict, tol: dict, points, workdir, env,
             reference_digest=None, tracer=None) -> PassResult:
    """The CLI commands, each a fresh interpreter, in a fresh directory.

    A command's time in ``times`` is the mean over its runs (see
    ``CLI_REPEATS``); ``predict`` runs once per point, each writing its own
    CSV. ``times["pipeline"]`` is the wall time of the whole pass, repeats
    included; ``times["pipeline_once"]`` adds up one run of each command
    and the predicts at every point: the time of one run of the pipeline.
    """
    result = PassResult(traced=tracer is not None)
    pass_dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    with open(os.path.join(pass_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg.raw, fh)
    point_args = [",".join(repr(float(v)) for v in p) for p in points]
    steps = [(cmd, [cmd]) for cmd in CLI_COMMANDS if cmd != "predict"
             for _ in range(CLI_REPEATS.get(cmd, 1))]
    steps += [(f"predict-{i}", ["predict", f"--point={arg}", f"--out=prediction-{i}.csv"])
              for i, arg in enumerate(point_args)]
    codes, walls = {}, {}
    clock = time.perf_counter
    with span(tracer, "bench.pipeline") as root:
        result.root = root
        t0 = clock()
        for name, args in steps:
            args = ["--config", "config.json"] + args
            spans_path = os.path.join(pass_dir, f"spans-{name}.json")
            if tracer is None:
                argv = [sys.executable, "-m", "opemu.cli"] + args
            else:
                argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), spans_path] + args
            with span(tracer, f"cli.{args[2]}") as cmd_span:
                a = clock()
                try:
                    proc = subprocess.run(argv, cwd=pass_dir, env=env, capture_output=True,
                                          text=True, timeout=CHILD_TIMEOUT_S)
                    code, stderr = proc.returncode, proc.stderr
                except subprocess.TimeoutExpired:  # run() has killed and reaped it
                    code, stderr = "timeout", ""
                walls.setdefault(name, []).append(clock() - a)
            # a command run twice keeps the first failure
            if codes.get(name, 0) == 0:
                codes[name] = code
            if code != 0:
                result.values[f"stderr.{name}"] = stderr[-400:]
            if tracer is not None and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh), cmd_span)
        result.times["pipeline"] = clock() - t0
    for name, secs in walls.items():
        result.times[name] = statistics.fmean(secs)
    predicts = [result.times.pop(f"predict-{i}") for i in range(len(points))]
    result.times["predict"] = statistics.fmean(predicts)
    result.times["pipeline_once"] = sum(predicts) + sum(
        result.times[cmd] for cmd in CLI_COMMANDS if cmd != "predict")

    def ok_exit(cmd):
        return codes[cmd] == 0, f"exit code {codes[cmd]}"

    for cmd in ("simulate", "fit", "sweep"):
        result.gate(cmd, *ok_exit(cmd))
    raw = cfg.raw
    try:
        design = opemu.design.load_design_csv(
            os.path.join(pass_dir, raw["paths"]["design"]), cfg.space())
        min_d = design.min_distance(unit=True)
        # unit coordinates come back from physical ones in the CSV: ~1 ulp off
        result.gate("design", codes["design"] == 0 and rel_close(
                        min_d, exp["min_distance"], tol["csv_min_distance_rtol"]),
                    f"exit {codes['design']}, unit min distance {min_d!r}")
        result.counters["design.min_distance"] = min_d
    except Exception as exc:  # unreadable output fails the operation
        result.gate("design", False, f"{type(exc).__name__}: {exc}")
    reports = os.path.join(pass_dir, raw["paths"]["reports"])
    try:
        with open(os.path.join(reports, "loo_report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        _gate_coverage(result, "validate", rep["pooled_coverage"], len(rep["folds"]),
                       len(rep["failures"]), raw["design"]["n"], exp)
        result.counters["validation.folds"] = len(rep["folds"])
        result.counters["validation.failed_folds"] = len(rep["failures"])
        result.values["validation.pooled_coverage"] = rep["pooled_coverage"]
    except Exception as exc:  # unreadable output fails the operation
        result.gate("validate", False, f"{type(exc).__name__}: {exc}")
    try:
        with open(os.path.join(reports, "uq_quantiles.json"), encoding="utf-8") as fh:
            q = json.load(fh)
        result.values["uq_max_elevation"] = q["max_elevation"]
        result.values["uq_mean_ci_length"] = q["mean_ci_length"]
        if codes["uq"] != 0:
            result.gate("uq", False, f"exit code {codes['uq']}")
        else:
            _gate_uq(result, "uq", q["max_elevation"], q["mean_ci_length"], exp,
                     tol["uq_rtol"])
    except Exception as exc:  # unreadable output fails the operation
        result.gate("uq", False, f"{type(exc).__name__}: {exc}")
    for i, (point, arg) in enumerate(zip(points, point_args)):
        code = codes[f"predict-{i}"]
        try:
            _, rows, _ = opemu.ioutil.read_table(os.path.join(pass_dir, f"prediction-{i}.csv"))
            times = np.array([float(row[0]) for row in rows])
            location = np.array([float(row[1]) for row in rows])
            err = tracking_error(location, point, times, cfg.toy_params())
            result.gate("predict", code == 0 and err <= exp["probe_rel_rmse_max"],
                        f"exit {code}, relative RMSE {err:.4f} at {arg}")
        except Exception as exc:  # unreadable output fails the operation
            result.gate("predict", False, f"{type(exc).__name__}: {exc}")

    digest, total = _digest(pass_dir)
    same = reference_digest is None or digest == reference_digest
    result.gate("artifacts", same, f"artifact digest {digest[:16]}")
    result.values["digest"] = digest
    result.counters["cli.artifact_bytes"] = total
    # the UQ draws are a pure function of the config
    a = raw["analysis"]
    result.counters["analysis.uq_extrapolated"] = count_outside(
        cfg.space(), opemu.sample_beta(cfg.beta_spec(), a["mc_samples"], a["seed"]))
    result.counters["cli.exit_nonzero"] = sum(1 for c in codes.values() if c != 0)
    result.counters["simulator.training_csv_bytes"] = _size(pass_dir, raw["paths"]["training"])
    result.counters["emulator.model_json_bytes"] = _size(pass_dir, raw["paths"]["model"])
    return result


def _size(directory, name) -> int:
    path = os.path.join(directory, name)
    return os.path.getsize(path) if os.path.exists(path) else 0
