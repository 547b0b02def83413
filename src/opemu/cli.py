"""Command-line pipeline: design, simulate, fit, validate, predict, sweep, uq.

Every command reads the run config (defaults if none given), writes its
artifacts atomically, and embeds the config hash, seed, and package version
in each output so results are traceable and reruns are byte-identical.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical error.
"""

import argparse
import math
import os
import sys

# One BLAS/OpenMP thread unless the caller set a count: predictions differ
# in their last bits between thread counts, and reruns are byte-identical
# only at a fixed one. This must run before the first import that loads
# numpy; the library modules leave the environment alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import __version__
from .analysis import (
    QUANTILE_LEVELS,
    save_histogram_csv,
    save_quantiles_csv,
    save_quantiles_json,
    save_sweep_csv,
    sensitivity_sweep,
    uq_monte_carlo,
)
from .config import RunConfig
from .design import load_design_csv, maximin_lhd, save_design_csv
from .emulator import NigPrior, credible_interval, fit, load_model, save_model
from .errors import ConfigError, DataError, NumericalDegeneracyError, OptimizationFailure
from .ioutil import fmt, interval_columns, percent, write_csv
from .likelihood import estimate_hyperparams, optimize_correlation_lengths
from .simulator import ingest_runs, toy_training_set, write_training_csv
from .validation import loo, save_fold_csv, save_report_json


def _parser() -> argparse.ArgumentParser:
    # --config is global: accepted both before and after the subcommand.
    # SUPPRESS keeps the subparser's copy from overwriting a value given in
    # the global position; main applies the default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="run-config JSON file")

    parser = argparse.ArgumentParser(
        prog="opemu",
        description="Outer-product emulator pipeline for expensive simulators",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"opemu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("design", parents=[common],
                   help="generate the maximin Latin Hypercube design CSV")
    sub.add_parser("simulate", parents=[common],
                   help="run the toy simulator over the design, write training CSV")
    p_fit = sub.add_parser("fit", parents=[common],
                           help="estimate hyperparameters, optimize lengths, fit the emulator")
    p_fit.add_argument("--trace", action="store_true",
                       help="write optimizer trace CSV next to the reports")
    sub.add_parser("validate", parents=[common],
                   help="leave-one-out diagnostics and summary report")
    p_pred = sub.add_parser("predict", parents=[common],
                            help="predictive series at one input point")
    p_pred.add_argument("--point", required=True,
                        help="comma-separated input coordinates, e.g. '-1.0,1.5,2.0'")
    p_pred.add_argument("--out", default=None, help="output CSV (default prediction.csv)")
    sub.add_parser("sweep", parents=[common],
                   help="sensitivity sweep curves from the analysis config")
    sub.add_parser("uq", parents=[common],
                   help="Monte-Carlo uncertainty quantification tables")
    return parser


def _load_model(cfg: RunConfig):
    """The config's model; one fitted over other ``design.names``, or in another
    order, is a data error, since the config's per-dimension lists follow them."""
    path = cfg.raw["paths"]["model"]
    model = load_model(path)
    names, fitted = list(cfg.space().names), list(model.design.space.names)
    if fitted != names:
        raise DataError(f"{path} was fitted over dimensions {fitted}, but the config "
                        f"lists {names}; rerun fit")
    return model


def cmd_design(cfg: RunConfig, args) -> int:
    d = cfg.raw["design"]
    design = maximin_lhd(d["n"], cfg.space(), d["seed"], d["candidates"])
    path = cfg.raw["paths"]["design"]
    save_design_csv(design, path, cfg.meta("design"))
    print(f"wrote {path}: {design.n} points, {design.space.k} dimensions")
    print(f"min pairwise distance: unit={design.min_distance(unit=True):.6f} "
          f"physical={design.min_distance(unit=False):.6f}")
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    space = cfg.space()
    if space.k < 3:
        # fit, validate and the analyses take any k >= 1 from an ingested
        # training CSV; only the toy needs its three inputs
        raise ConfigError(f"design.names lists {space.k} inputs {list(space.names)!r}, but "
                          f"the toy simulator needs at least 3: position, speed and "
                          f"spread ratio (the defaults x0, u0, c)")
    design = load_design_csv(cfg.raw["paths"]["design"], space)
    train = toy_training_set(design, cfg.time_grid(), cfg.toy_params())
    path = cfg.raw["paths"]["training"]
    write_training_csv(train, path, cfg.meta("design"))
    print(f"wrote {path}: {train.n} runs x {train.q} time points")
    return 0


def cmd_fit(cfg: RunConfig, args) -> int:
    train = ingest_runs(cfg.raw["paths"]["training"], cfg.space())
    ib, ob = cfg.input_basis(), cfg.output_basis()
    prior_cfg, kernel_cfg = cfg.raw["prior"], cfg.raw["kernel"]

    if prior_cfg["sigma2"] is not None:
        prior = NigPrior(prior_cfg["sigma2"], prior_cfg["dof"], prior_cfg["scale"])
        source = "user-override"
    else:
        est = estimate_hyperparams(train, ib, ob, prior_cfg["dof"], prior_cfg["split"])
        prior, source = est.to_prior(), "estimated"
    print(f"prior ({source}): sigma2={prior.sigma2:.6g} dof={prior.dof:g} "
          f"scale={prior.scale:.6g}")

    kernel = cfg.kernel_spec()
    if kernel is None:
        state = optimize_correlation_lengths(
            train, ib, ob, prior.sigma2, restarts=kernel_cfg["restarts"],
            seed=kernel_cfg["opt_seed"], exponent=kernel_cfg["exponent"],
            jitter=kernel_cfg["jitter"], collect_trace=args.trace,
        )
        kernel = state.kernel_spec()
        lengths = ", ".join(f"{v:.4g}" for v in kernel.lengths)
        print(f"optimized lengths: [{lengths}] log-likelihood={state.value:.4f}")
        if args.trace:
            trace_path = os.path.join(cfg.raw["paths"]["reports"], "fit_trace.csv")
            _write_trace(state.trace, train.design.space, trace_path, cfg.meta("design"))
            print(f"wrote {trace_path}")
    else:
        print(f"using configured lengths: {[float(v) for v in kernel.lengths]}")

    model = fit(prior, ib, ob, kernel, train, kernel_cfg["jitter"])
    path = cfg.raw["paths"]["model"]
    save_model(model, path, cfg.meta("design"))
    print(f"wrote {path}: posterior dof={model.dof:g} scale={model.scale:.6g}")
    return 0


def _write_trace(trace, space, path, meta):
    header = ["restart", "evaluation", "log_likelihood", "grad_norm",
              *space.names, "time", "tau"]
    write_csv(path, header, ((str(r[0]), str(r[1]), *r[2:]) for r in trace), meta)


def _statistic(value: float) -> str:
    """A LOO summary for stdout; the report writes ``null`` where it is undefined."""
    return f"{value:.4f}" if math.isfinite(value) else "undefined"


def cmd_validate(cfg: RunConfig, args) -> int:
    training_path, model_path = cfg.raw["paths"]["training"], cfg.raw["paths"]["model"]
    train = ingest_runs(training_path, cfg.space())
    if train.n < 3:
        raise DataError(f"{training_path}: leave-one-out needs at least 3 runs, "
                        f"got {train.n}")
    model = _load_model(cfg)
    if model.training_fingerprint != train.fingerprint():
        raise DataError(
            f"{training_path} is not the training set {model_path} was fitted to "
            f"(training fingerprints differ); rerun fit"
        )
    level = cfg.raw["validate"]["level"]
    report = loo(
        train,
        model.input_basis,
        model.output_basis,
        model.kernel,
        model.prior,
        jitter=model.jitter,
        level=level,
    )
    reports_dir = cfg.raw["paths"]["reports"]
    meta = cfg.meta("design")
    save_report_json(report, os.path.join(reports_dir, "loo_report.json"), meta)
    for diag in report.diagnostics:
        save_fold_csv(diag, os.path.join(reports_dir, f"loo_fold_{diag.index:02d}.csv"), meta)
    print(f"leave-one-out: {len(report.diagnostics)}/{train.n} folds completed")
    print(f"pooled {percent(level)}% coverage: {_statistic(report.pooled_coverage)}")
    print(f"corr(MED, RMSE)={_statistic(report.corr_med_rmse)} "
          f"corr(MED, MCIL)={_statistic(report.corr_med_mcil)}")
    if report.failures:
        print(f"failed folds: {[f['index'] for f in report.failures]}", file=sys.stderr)
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    model = _load_model(cfg)
    try:
        point = [float(v) for v in args.point.split(",")]
    except ValueError:
        raise ConfigError(f"--point must be comma-separated numbers, got {args.point!r}")
    if len(point) != model.design.space.k:
        raise ConfigError(
            f"--point needs {model.design.space.k} coordinates, got {len(point)}"
        )
    for i, v in enumerate(point):
        if not math.isfinite(v):
            raise ConfigError(
                f"--point coordinate {i + 1} is {v}; coordinates must be finite"
            )
    series = model.predict(point)
    if series.extrapolation:
        print("warning: input lies outside the design box; prediction is an "
              "extrapolation", file=sys.stderr)
    level = cfg.raw["validate"]["level"]
    lo, hi = credible_interval(series, level)
    out = args.out or "prediction.csv"
    meta = {**cfg.meta("design"), "point": args.point, "dof": fmt(series.dof)}
    write_csv(out, ("time", "location", "scale", *interval_columns(level)),
              zip(series.times, series.location, series.scale, lo, hi), meta)
    print(f"wrote {out}: {series.times.size} predictive marginals "
          f"(max location {series.location.max():.6g})")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    model = _load_model(cfg)
    reports_dir = cfg.raw["paths"]["reports"]
    total = 0
    for spec in cfg.sweep_specs():
        curve = sensitivity_sweep(model, spec, cfg.raw["validate"]["level"])
        name = model.design.space.names[spec.dim]
        path = os.path.join(reports_dir, f"sweep_{name}.csv")
        save_sweep_csv(curve, name, path, cfg.meta("design"))
        total += curve.n_evaluations
        print(f"wrote {path}: {curve.n_evaluations} evaluations, "
              f"max elevation range [{curve.max_elev.min():.4g}, "
              f"{curve.max_elev.max():.4g}]")
    print(f"total emulator evaluations: {total}")
    return 0


def cmd_uq(cfg: RunConfig, args) -> int:
    model = _load_model(cfg)
    result = uq_monte_carlo(
        model,
        cfg.beta_spec(),
        n=cfg.raw["analysis"]["mc_samples"],
        seed=cfg.raw["analysis"]["seed"],
        level=cfg.raw["validate"]["level"],
        bins=cfg.raw["analysis"]["bins"],
    )
    reports_dir = cfg.raw["paths"]["reports"]
    meta = cfg.meta("analysis")
    save_quantiles_csv(result, os.path.join(reports_dir, "uq_quantiles.csv"), meta)
    save_quantiles_json(result, os.path.join(reports_dir, "uq_quantiles.json"), meta)
    save_histogram_csv(result, os.path.join(reports_dir, "uq_histogram.csv"), meta)
    header = " ".join(f"p{v:g}" for v in QUANTILE_LEVELS)
    print(f"{len(result.samples)} samples, percentiles: {header}")
    for summary in (result.max_elevation, result.mean_ci_length):
        values = " ".join(f"{v:.4g}" for v in summary.values)
        print(f"{summary.statistic}: {values}")
    print(f"health: {result.extrapolated} samples outside the design box, "
          f"{result.clamped} variance entries clamped")
    print(f"wrote {reports_dir}/uq_quantiles.csv, uq_quantiles.json, uq_histogram.csv")
    return 0


_COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "validate": cmd_validate,
    "predict": cmd_predict,
    "sweep": cmd_sweep,
    "uq": cmd_uq,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = getattr(args, "config", None)  # SUPPRESS leaves it unset
    try:
        cfg = RunConfig.load(config) if config else RunConfig()
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalDegeneracyError, OptimizationFailure) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
