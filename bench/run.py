"""Benchmark of the opemu emulator pipeline, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``reference``: the library pipeline in-process at the paper's size
  (n=40 maximin design, q=176 times, 77 regressors): design, toy
  simulation, hyperparameters, length optimisation (5 restarts), fit,
  40-fold LOO, the three default sweeps, UQ with 1000 Beta samples and a
  slice of single-point predictions.
- ``cli-analysis``: ``design, simulate, fit, validate, sweep, uq`` and
  ``predict`` at five fixed points, as fresh ``python -m opemu.cli``
  processes, with the lengths fixed at the reference optimum and 10000 UQ
  samples. ``predict`` runs five times because one ~1 s process per pass
  (mostly interpreter start-up) gave ``predict_ms`` a ten-run spread of 23%.

A run starts with one untimed fresh interpreter importing ``opemu.cli``
and, for the library workload, one untimed warm-up pass. It then repeats
whole passes, at least two, and starts another only while it is expected
to end within ``--seconds``. Before every pass and after the last, it times
fresh interpreters importing ``opemu.cli`` (one per gap, two for
``cli-analysis``, whose passes are few) and a fixed piece of work that does
not touch ``opemu`` (the host probe). ``setup_s`` is the median of the
import times, so its samples span the run like the passes do. Stage times
are means over the passes (see ``end_to_end`` for why not medians);
``predict_ms`` is the mean over every timed predict of the run. The host
probe's times go to the details line only: when two runs differ, they show
whether the host ran at another speed.
For ``cli-analysis`` the stage metrics are the wall times of the matching
commands (``calibrate_s`` is ``fit``, ``predict_ms`` is ``predict``), and
``pipeline_s`` adds up one run of each command: a pass runs the shorter
commands twice (see ``passes.CLI_REPEATS``).

``--seed`` picks the inputs the benchmark generates: the in-box points of
the predict slices (each pass times its own 500) and, for ``cli-analysis``,
the order in which ``predict`` is run at the five fixed probe points. The pipeline's own seeds
stay at the config defaults, so every pass can be checked against recorded
outputs (``expected.json``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: span-derived
times, exact counters, self time per layer and the tracing overhead
(median traced minus median untraced pass). Layers a workload
does not exercise are measured once on a complementary traced pass: the
CLI pipeline at the same size (default config, so ``fit`` optimises the
lengths) for ``reference``, the library pipeline for ``cli-analysis``.
These figures belong to the other pipeline, not to the workload; the
details line lists their names under ``from_complement``.

BLAS and OpenMP run on one thread: the variables are pinned before numpy
is imported and inherited by every child process. ``--short`` shrinks the
problems (n=12) and the set-up sampling so the self-tests stay quick.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the environment, counters and gate
details. Every gated operation that fails counts in ``failed``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the reference optimum, so cli-analysis skips length optimisation
REFERENCE_LENGTHS = [25.750167101125825, 4.747970140005533, 0.5417035216542387,
                     1.582420853862906]
SIZES = {
    "reference": {},
    "short": {"design": {"n": 12, "candidates": 10}, "time": {"dt": 0.5},
              "kernel": {"restarts": 2}, "analysis": {"mc_samples": 200}},
}
CLI_ANALYSIS = {"kernel": {"lengths": REFERENCE_LENGTHS}, "analysis": {"mc_samples": 10000}}
CLI_ANALYSIS_SHORT = {"kernel": {"lengths": REFERENCE_LENGTHS}, "analysis": {"mc_samples": 500}}
WORKLOADS = {"reference": "library", "cli-analysis": "cli"}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "design_s": "s",
    "calibrate_s": "s",
    "validate_s": "s",
    "predict_ms": "ms",
    "uq_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# timed set-up imports before each pass and after the last
SETUP_PER_GAP = {"library": 1, "cli": 2}
PREDICT_SLICE = 500
MIN_PASSES = 2


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, value in extra.items():
        if isinstance(value, dict):
            out[key] = {**out.get(key, {}), **value}
        else:
            out[key] = value
    return out


def _read_steal():
    """(steal ticks, all ticks) of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def _openblas_runtime():
    """(threads, config string) reported by the loaded OpenBLAS, if found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_threads(), get_config().decode()
    return None, None


def environment(steal_start, steal_end) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _openblas_runtime()
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime_threads": threads, "runtime_config": config},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    if steal_start and steal_end:
        d_steal = steal_end[0] - steal_start[0]
        d_all = steal_end[1] - steal_start[1]
        env["cpu_steal"] = {"start_ticks": steal_start[0], "end_ticks": steal_end[0],
                            "share_of_all_cpus": d_steal / d_all if d_all else 0.0}
    return env


def import_seconds(env) -> float:
    """Wall seconds of a fresh interpreter importing opemu.cli.

    The child's output goes to pipes, so the wait for it ends when they
    close; without pipes, subprocess polls for the exit in steps of up to
    50 ms, which rounds the time to that step.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import opemu.cli"], env=env, check=True,
                   timeout=60, capture_output=True)
    return time.perf_counter() - start


def host_probe_ms() -> float:
    """Milliseconds of fixed interpreter and numpy work, best of three.

    It does not touch opemu, so a change to the package leaves it alone;
    its drift from run to run is the host's speed, not the code's.
    """
    import numpy as np

    a = np.linspace(0.5, 1.5, 48 * 48).reshape(48, 48) + 48.0 * np.eye(48)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        for _ in range(100):
            np.linalg.solve(a, a[:, 0])
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def end_to_end(kind, passes, setup, mc) -> dict:
    """End-to-end values: means over the passes, median over set-up samples.

    On the shared 2-core host this was built on, the same pass runs in one
    of two speed states about 1.5x apart (2.05 s or 3.2 s for ``reference``,
    not explained by CPU steal), each lasting from seconds to minutes. A
    median over a few passes, or over the predicts, then jumps from one
    state to the other between runs, while a mean moves only with the share
    of time spent in each (ten-run spread of ``predict_ms``: 35% as a
    median, 16% as a mean).
    """
    times = {k: statistics.fmean([r.times[k] for r in passes]) for k in passes[0].times}
    if kind == "cli":
        pipeline = times["pipeline_once"]
        calibrate, predict_ms = times["fit"], 1e3 * times["predict"]
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        pipeline, calibrate = times["pipeline"], times["calibrate"]
        predict_ms = 1e3 * statistics.fmean([t for r in passes for t in r.latencies])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup),
        "pipeline_s": pipeline,
        "design_s": times["design"],
        "calibrate_s": calibrate,
        "validate_s": times["validate"],
        "predict_ms": predict_ms,
        "uq_samples_per_s": mc / times["uq"],
        "peak_rss_mb": rss,
    }


def _latency_summary(latencies) -> dict:
    """Percentiles of the run's timed library predicts, in ms."""
    if not latencies:
        return {}
    ms = sorted(1e3 * t for t in latencies)
    return {"samples": len(ms), "min": ms[0], "p10": ms[len(ms) // 10],
            "median": statistics.median(ms), "mean": statistics.fmean(ms)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small problems and set-up sampling, for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opemu", "__init__.py")):
        print(f"error: no opemu package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        details, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args, workdir):
    # numpy and opemu are imported only now, after the thread pins
    import numpy as np

    from opemu.config import RunConfig
    from layers import PER_LAYER, per_layer
    from passes import PROBE_POINTS, cli_pass, library_pass
    from tracing import Tracer, self_times

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)
    tol = expected["tolerances"]
    kind = WORKLOADS[args.workload]
    size = "short" if args.short else "reference"
    lib_cfg = RunConfig(SIZES[size])
    exp = expected[size]
    env = dict(os.environ)
    rng = np.random.default_rng(args.seed)
    space = lib_cfg.space()

    if kind == "cli":
        extra = CLI_ANALYSIS_SHORT if args.short else CLI_ANALYSIS
        cli_cfg = RunConfig(_merge(SIZES[size], extra))
        cli_exp = {**exp, **expected[f"{size}+cli-analysis"]}
        turn = args.seed % len(PROBE_POINTS)
        points = PROBE_POINTS[turn:] + PROBE_POINTS[:turn]
        first_digest = [None]

        def one_pass(tracer):
            r = cli_pass(cli_cfg, cli_exp, tol, points, workdir, env, first_digest[0], tracer)
            first_digest[0] = first_digest[0] or r.values.get("digest")
            return r

        def complement(tracer):
            return library_pass(lib_cfg, exp, tol, _points(8), tracer, workdir)
    else:
        slice_size = 50 if args.short else PREDICT_SLICE

        def one_pass(tracer):
            return library_pass(lib_cfg, exp, tol, _points(slice_size), tracer, workdir)

        def complement(tracer):
            return cli_pass(lib_cfg, exp, tol, PROBE_POINTS[:1], workdir, env, None, tracer)

    def _points(count):
        return space.from_unit(rng.random((count, space.k)))

    setup, probes = [], []

    def gap():
        probes.append(host_probe_ms())
        setup.extend(import_seconds(env) for _ in range(SETUP_PER_GAP[kind]))

    steal_start = _read_steal()
    import_seconds(env)  # untimed: .pyc files and the page cache
    if kind == "library":
        # one untimed full pass: lazy imports, BLAS start-up, the first
        # predicts' grid cache and the allocator's growth to this size
        one_pass(None)

    tracer = Tracer() if args.trace else None
    passes = []
    begin = time.perf_counter()
    while True:
        # start another pass only if a gap and a pass, at the mean so far,
        # would end within --seconds
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
            break
        gap()
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.pass_id = len(passes) + 1
        r = one_pass(tracer if traced else None)
        r.pass_id = len(passes) + 1
        passes.append(r)
    gap()

    extra_passes = []
    if tracer is not None:
        tracer.pass_id = 0
        c = complement(tracer)
        c.pass_id = 0
        extra_passes.append(c)
    steal_end = _read_steal()

    every = passes + extra_passes
    attempted = sum(len(r.ops) for r in every)
    failed = sum(r.failed for r in every)
    # a pass whose pipeline raised has no times; its operations count as failed
    timed = [r for r in passes if "pipeline" in r.times]

    gap = None
    filled = []
    if tracer is None:
        mc = (cli_cfg if kind == "cli" else lib_cfg).raw["analysis"]["mc_samples"]
        values = end_to_end(kind, timed, setup, mc) if timed else {}
        units = END_TO_END
    else:
        traced = [r for r in timed if r.traced]
        untraced = [r for r in timed if not r.traced]
        values = per_layer(tracer.spans, traced)
        fill = per_layer(tracer.spans, extra_passes)
        for name in PER_LAYER:
            if values.get(name) is None and fill.get(name) is not None:
                values[name] = fill[name]
                filled.append(name)
        if traced and untraced:
            gap = max(abs(sum(self_times(tracer.spans, r.root).values())
                          - r.times["pipeline"]) for r in traced)
            untraced_s = statistics.median([r.times["pipeline"] for r in untraced])
            values["trace.untraced_pipeline_s"] = untraced_s
            values["trace.overhead_s"] = values["trace.pipeline_s"] - untraced_s
        units = PER_LAYER
    missing = [name for name in units if values.get(name) is None]
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items() if name not in missing}
    failures = [{"pass": r.pass_id, "op": op, "detail": detail}
                for r in every for op, ok, detail in r.ops if not ok]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "short": args.short,
        "passes": len(passes),
        "traced_passes": sum(r.traced for r in passes),
        "setup_samples_s": setup,
        "host_probe_ms": probes,
        "from_complement": filled,
        "pass_pipeline_s": [r.times.get("pipeline") for r in passes],
        "pass_stage_s": {k: [r.times.get(k) for r in passes] for k in passes[0].times},
        "predict_latency_ms": _latency_summary([t for r in timed for t in r.latencies]),
        "counters": passes[-1].counters,
        "values": {k: v for k, v in passes[-1].values.items() if k != "digest"},
        "gates": [{"op": op, "ok": ok, "detail": d} for op, ok, d in passes[-1].ops],
        "failures": failures,
        "missing_metrics": missing,
        "self_time_gap_s": gap,
        "environment": environment(steal_start, steal_end),
    }
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


if __name__ == "__main__":
    sys.exit(main())
