"""Per-layer metrics from the spans and counters of traced passes.

Each metric is computed per traced pass and reported as the median over
those passes, except the p99 predict latency, which pools the warm
predicts of all traced passes so that enough samples lie beyond it, and
the sweep rate, which is one over the median of the pooled sweep predicts.
A metric whose layer did no work in the workload's passes comes out as
``None``; the caller fills it from the complementary pass (see run.py).
"""

import statistics
from collections import defaultdict

import numpy as np

from passes import CLI_COMMANDS
from tracing import ATTRS, END, LAYERS, NAME, PARENT, PASS, START, self_times

# name -> unit, in output order
PER_LAYER = {
    "design.maximin_s": "s",
    "design.lhd_ms": "ms",
    "design.min_distance": "1",
    "simulator.toy_training_set_ms": "ms",
    "simulator.write_training_csv_ms": "ms",
    "simulator.ingest_runs_ms": "ms",
    "simulator.training_csv_bytes": "bytes",
    "basis.regressor_matrices_ms": "ms",
    "kernels.kernel_matrices_ms": "ms",
    "likelihood.estimate_hyperparams_ms": "ms",
    "likelihood.value_ms": "ms",
    "likelihood.gradient_ms": "ms",
    "likelihood.optimize_s": "s",
    "likelihood.iterations": "count",
    "likelihood.evaluations": "count",
    "likelihood.converged_ratio": "1",
    "likelihood.ms_per_evaluation": "ms",
    "likelihood.loglik": "nat",
    "emulator.fit_ms": "ms",
    "emulator.predict_first_ms": "ms",
    "emulator.predict_p99_ms": "ms",
    "emulator.predict_samples": "count",
    "emulator.predict_newtimes_ms": "ms",
    "emulator.save_model_ms": "ms",
    "emulator.load_model_ms": "ms",
    "emulator.model_json_bytes": "bytes",
    "emulator.clamped": "count",
    "validation.loo_s": "s",
    "validation.fold_ms": "ms",
    "validation.folds": "count",
    "validation.failed_folds": "count",
    "validation.pooled_coverage": "1",
    "validation.fit_self_s": "s",
    "validation.predict_self_s": "s",
    "analysis.sample_beta_ms": "ms",
    "analysis.uq_s": "s",
    "analysis.sweep_s": "s",
    "analysis.sweep_points_per_s": "1/s",
    "analysis.uq_extrapolated": "count",
    "analysis.predict_share": "1",
    "cli.import_s": "s",
    "cli.design_s": "s",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.validate_s": "s",
    "cli.sweep_s": "s",
    "cli.uq_s": "s",
    "cli.predict_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.exit_nonzero": "count",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({
    "trace.pipeline_s": "s",
    "trace.untraced_pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_pass": "count",
})

# exact counters copied from the pass results
COUNTERS = ("design.min_distance", "simulator.training_csv_bytes",
            "likelihood.iterations", "likelihood.evaluations",
            "emulator.model_json_bytes", "validation.folds", "validation.failed_folds",
            "analysis.uq_extrapolated", "cli.artifact_bytes", "cli.exit_nonzero")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def per_layer(spans, results) -> dict:
    """Per-layer metric values (None where the passes give no data).

    ``results`` are the traced PassResults; each carries ``pass_id``, the
    tracer pass id its spans were recorded under.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    by_pass = defaultdict(lambda: defaultdict(list))
    for i, s in enumerate(spans):
        by_pass[s[PASS]][s[NAME]].append(i)

    per_pass = defaultdict(list)
    warm, swept = [], []
    for r in results:
        named = by_pass[r.pass_id]

        def total(name):
            return sum(dur[i] for i in named[name]) if named[name] else None

        def med(name, scale=1e3, keep=lambda i: True):
            picked = [dur[i] for i in named[name] if keep(i)]
            return scale * statistics.median(picked) if picked else None

        def under(i, *parents):
            p = spans[i][PARENT]
            return p >= 0 and spans[p][NAME] in parents

        def ms(value):
            return None if value is None else 1e3 * value

        v = per_pass
        predicts = named["emulator.OpeModel.predict"]
        v["design.maximin_s"].append(total("design.maximin_lhd"))
        lhd = [dur[i] for i in named["design.lhd"] if under(i, "design.maximin_lhd")]
        v["design.lhd_ms"].append(1e3 * statistics.fmean(lhd) if lhd else None)
        v["simulator.toy_training_set_ms"].append(ms(total("simulator.toy_training_set")))
        v["simulator.write_training_csv_ms"].append(med("simulator.write_training_csv"))
        v["simulator.ingest_runs_ms"].append(med("simulator.ingest_runs"))
        v["basis.regressor_matrices_ms"].append(med("basis.regressor_matrices"))
        v["kernels.kernel_matrices_ms"].append(med("kernels.kernel_matrices"))
        v["likelihood.estimate_hyperparams_ms"].append(med("likelihood.estimate_hyperparams"))
        v["likelihood.value_ms"].append(med("likelihood.log_marginal_likelihood"))
        v["likelihood.gradient_ms"].append(med("likelihood.log_marginal_likelihood_gradient"))
        opt = total("likelihood.optimize_correlation_lengths")
        v["likelihood.optimize_s"].append(opt)
        evals = r.counters.get("likelihood.evaluations")
        v["likelihood.ms_per_evaluation"].append(
            1e3 * opt / evals if opt is not None and evals else None)
        v["emulator.fit_ms"].append(med("emulator.fit"))
        v["emulator.predict_first_ms"].append(
            med("emulator.OpeModel.predict", keep=lambda i: spans[i][ATTRS]["cold"]))
        v["emulator.predict_newtimes_ms"].append(
            med("emulator.OpeModel.predict", keep=lambda i: not spans[i][ATTRS]["grid"]))
        warm.extend(dur[i] for i in predicts
                    if spans[i][ATTRS]["grid"] and not spans[i][ATTRS]["cold"])
        v["emulator.clamped"].append(
            sum(spans[i][ATTRS].get("clamped", 0) for i in predicts) if predicts else None)
        v["emulator.save_model_ms"].append(med("emulator.save_model"))
        v["emulator.load_model_ms"].append(med("emulator.load_model"))
        loo_s = total("validation.loo")
        v["validation.loo_s"].append(loo_s)
        folds = r.counters.get("validation.folds")
        v["validation.fold_ms"].append(1e3 * loo_s / folds if loo_s and folds else None)
        for kind, name in (("fit", "emulator.fit"), ("predict", "emulator.OpeModel.predict")):
            own = [dur[i] - child[i] for i in named[name] if under(i, "validation.loo")]
            v[f"validation.{kind}_self_s"].append(sum(own) if own else None)
        v["analysis.sample_beta_ms"].append(ms(total("analysis.sample_beta")))
        uq_s, sweep_s = total("analysis.uq_monte_carlo"), total("analysis.sensitivity_sweep")
        v["analysis.uq_s"].append(uq_s)
        v["analysis.sweep_s"].append(sweep_s)
        swept.extend(dur[i] for i in predicts if under(i, "analysis.sensitivity_sweep"))
        inner = sum(dur[i] for i in predicts
                    if under(i, "analysis.sensitivity_sweep", "analysis.uq_monte_carlo"))
        busy = (uq_s or 0.0) + (sweep_s or 0.0)
        v["analysis.predict_share"].append(inner / busy if busy else None)
        v["cli.import_s"].append(med("cli.import", scale=1.0))
        for cmd in CLI_COMMANDS:
            v[f"cli.{cmd}_s"].append(med(f"cli.{cmd}", scale=1.0))
        if r.root >= 0:
            for layer, secs in self_times(spans, r.root).items():
                v[f"{layer}.self_s"].append(secs if secs > 0 else None)
        v["trace.spans_per_pass"].append(sum(len(ix) for ix in named.values()))
        v["trace.pipeline_s"].append(r.times.get("pipeline"))

    out = {name: _median(values) for name, values in per_pass.items()}
    out["emulator.predict_p99_ms"] = 1e3 * float(np.percentile(warm, 99)) if warm else None
    out["emulator.predict_samples"] = len(warm) if warm else None
    # per-point rate from the median sweep predict, pooled like the p99
    out["analysis.sweep_points_per_s"] = 1.0 / statistics.median(swept) if swept else None
    last = results[-1] if results else None
    if last is not None:
        for name in COUNTERS:
            out[name] = last.counters.get(name)
        conv, restarts = (last.counters.get("likelihood.converged"),
                          last.counters.get("likelihood.restarts"))
        out["likelihood.converged_ratio"] = conv / restarts if restarts else None
        out["likelihood.loglik"] = last.values.get("likelihood.loglik")
        out["validation.pooled_coverage"] = last.values.get("validation.pooled_coverage")
    return out
