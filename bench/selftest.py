"""Self-tests of the benchmark. Run from the repository root:

    python3 bench/selftest.py

They use ``--short`` (n=12 problems) and take about two minutes, most of
it the CLI workload's fresh interpreters. The file is not named
``test_*.py`` so the package's own pytest run does not collect it.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (imports no numpy)

for _var in run.THREAD_VARS:  # before numpy is imported, as run.main does
    os.environ[_var] = "1"

from layers import PER_LAYER  # noqa: E402
from tracing import LAYERS, Tracer, self_times  # noqa: E402


def work_dir():
    """Scratch space inside the checkout (ignored by git), as run.py uses."""
    os.makedirs(run.WORK, exist_ok=True)
    return run.WORK


def tearDownModule():
    try:
        os.rmdir(run.WORK)
    except OSError:
        pass  # a benchmark run still uses it


def bench(workload, trace):
    """Run the benchmark in short mode; (exit code, details, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class EndToEnd(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in ("reference", "cli-analysis"):
            for trace in (0, 1):
                cls.runs[workload, trace] = bench(workload, trace)

    def check_result(self, workload, trace, names):
        code, details, result = self.runs[workload, trace]
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], details["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), list(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name], name)
            self.assertIsInstance(metric["value"], float, name)

    def test_every_end_to_end_metric_with_its_unit(self):
        for workload in ("reference", "cli-analysis"):
            self.check_result(workload, 0, run.END_TO_END)

    def test_every_per_layer_metric_with_its_unit(self):
        for workload in ("reference", "cli-analysis"):
            self.check_result(workload, 1, PER_LAYER)

    def test_traced_and_untraced_runs_give_identical_counters(self):
        for workload in ("reference", "cli-analysis"):
            plain = self.runs[workload, 0][1]["counters"]
            traced = self.runs[workload, 1][1]["counters"]
            shared = set(plain) & set(traced)
            self.assertGreaterEqual(len(shared), 5)
            self.assertEqual({k: plain[k] for k in shared}, {k: traced[k] for k in shared})

    def test_self_times_account_for_the_traced_pipeline(self):
        # the layers' self times add up to the pipeline span, which opens
        # and closes a few microseconds outside the pass's own clock reads
        details = self.runs["reference", 1][1]
        self.assertLess(details["self_time_gap_s"], 1e-3)

    def test_environment_is_recorded(self):
        env = self.runs["reference", 0][1]["environment"]
        for key in ("nproc", "thread_vars", "blas", "python", "numpy", "scipy"):
            self.assertIn(key, env)
        self.assertEqual(set(env["thread_vars"].values()), {"1"})


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from opemu.config import RunConfig

        with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
            cls.expected = json.load(fh)
        cls.cfg = RunConfig(run.SIZES["short"])
        cls.points = cls.cfg.space().from_unit([[0.5, 0.5, 0.5], [0.2, 0.7, 0.4]])
        cls.workdir = tempfile.mkdtemp(dir=work_dir())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def library_pass(self, exp, points=None, tracer=None):
        from passes import library_pass

        return library_pass(self.cfg, exp, self.expected["tolerances"],
                            self.points if points is None else points, tracer, self.workdir)

    def test_recorded_values_pass(self):
        result = self.library_pass(self.expected["short"])
        self.assertEqual(result.failed, 0, result.ops)
        self.assertEqual([op for op, _, _ in result.ops], list(run_ops()))

    def test_wrong_expected_value_counts_a_failed_operation(self):
        for key, op in (("min_distance", "design"), ("loglik", "calibrate"),
                        ("coverage_band", "validate"), ("uq_max_elevation", "analysis"),
                        ("probe_rel_rmse_max", "predict")):
            exp = copy.deepcopy(self.expected["short"])
            value = exp[key]
            if key == "coverage_band":
                exp[key] = [0.0, 0.5]
            elif key == "probe_rel_rmse_max":
                exp[key] = 1e-6
            elif isinstance(value, list):
                exp[key] = [v * (1 + 1e-6) for v in value]
            else:
                exp[key] = value * (1 + 1e-6)
            result = self.library_pass(exp)
            failed = [name for name, ok, _ in result.ops if not ok]
            self.assertEqual(failed, [op], key)

    def test_a_stage_that_raises_fails_every_remaining_operation(self):
        result = self.library_pass(self.expected["short"], points=[[0.0, 1.0]])
        self.assertEqual(result.failed, len(run_ops()))

    def test_tracer_restores_the_package(self):
        import opemu

        originals = (opemu.fit, opemu.emulator.OpeModel.predict, opemu.validation.fit)
        result = self.library_pass(self.expected["short"], tracer=Tracer())
        self.assertEqual(result.failed, 0, result.ops)
        self.assertEqual(originals,
                         (opemu.fit, opemu.emulator.OpeModel.predict, opemu.validation.fit))


class SelfTimes(unittest.TestCase):
    def test_layers_partition_the_root_span(self):
        spans = [
            ["bench.pipeline", 0.0, 10.0, -1, 1, None],
            ["validation.loo", 1.0, 6.0, 0, 1, None],
            ["emulator.fit", 1.5, 3.0, 1, 1, None],
            ["kernels.kernel_matrices", 2.0, 2.5, 2, 1, None],
            ["ioutil.atomic_write_text", 7.0, 8.0, 0, 1, None],
        ]
        out = self_times(spans, 0)
        self.assertEqual(set(out), set(LAYERS))
        self.assertAlmostEqual(sum(out.values()), 10.0)
        self.assertAlmostEqual(out["validation"], 3.5)
        self.assertAlmostEqual(out["emulator"], 1.0)
        self.assertAlmostEqual(out["cli"], 1.0)
        self.assertAlmostEqual(out["bench"], 4.0)


class Contract(unittest.TestCase):
    def test_without_the_package_it_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory(dir=work_dir()) as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "reference", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")

    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


def run_ops():
    from passes import LIBRARY_OPS

    return LIBRARY_OPS


if __name__ == "__main__":
    unittest.main()
