"""Leave-one-out diagnostics and accuracy metrics.

Each design point is held out in turn and predicted, over the full time
grid, by an emulator refitted to the remaining points. The correlation
lengths stay at the full-data values, as they do in the closed-form
leave-one-out of Dubrule (1983) and Rasmussen & Williams (2006, sec. 5.4.2).

Dropping a design point leaves the time side of the model unchanged: Gs,
Ks and its Cholesky factor, Ks^-1 Gs, the eigenbasis of Gs' Ks^-1 Gs and
the training-grid predict factors. :func:`loo` builds them once, before
the first fold, and every fold shares them. It also solves F Ks^-1 for the
full design once, and each fold's fit takes its rows, so a refit costs
O(n^2 q + n^3) and makes no q x q solve. LAPACK solves each right-hand
side on its own, so a fold's rows are bit for bit those its subset's own
F Ks^-1 has, and each fold equals a standalone fit of its subset.

Summary metrics per fold: RMSE against the held-out series, mean
credible-interval length (MCIL) at the report's level, and empirical CI
coverage. The report also carries each point's mean Euclidean distance to
the rest of the design (MED, physical units) and the Pearson correlations
of MED with RMSE and MCIL, which quantify how isolation in the design
degrades predictions.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import mcil
from .design import Design, pairwise_distances
from .emulator import NigPrior, Predictive, TrainingSet, _TimeFactor, credible_interval, fit
from .errors import NumericalDegeneracyError
from .ioutil import atomic_write_text, interval_columns, write_csv
from .kernels import DEFAULT_JITTER, KernelSpec, chol_solve


def rmse(observed, predicted) -> float:
    """Root mean square error between two equal-length series."""
    obs = np.asarray(observed, dtype=float).ravel()
    pred = np.asarray(predicted, dtype=float).ravel()
    if obs.size != pred.size:
        raise ValueError(f"length mismatch: {obs.size} observed vs {pred.size} predicted")
    if obs.size == 0:
        raise ValueError("series must contain at least one value")
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def med(design: Design) -> np.ndarray:
    """Mean Euclidean distance (physical units) from each point to the other n-1."""
    n = design.points.shape[0]
    if n < 2:
        raise ValueError("need at least two design points")
    return pairwise_distances(design.points).sum(axis=1) / (n - 1)


@dataclass
class LooDiagnostic:
    """One fold: held-out observations vs the refitted emulator's prediction,
    with its credible interval (``lower``, ``upper``) at ``level``, per time."""

    index: int
    observed: np.ndarray
    series: Predictive
    level: float
    lower: np.ndarray
    upper: np.ndarray
    rmse: float
    mcil: float
    coverage: float


@dataclass
class DiagnosticsReport:
    """All folds plus design-geometry context and summary correlations."""

    diagnostics: list
    med: np.ndarray
    corr_med_rmse: float
    corr_med_mcil: float
    level: float
    failures: list = field(default_factory=list)

    @property
    def pooled_coverage(self) -> float:
        """Fraction of all held-out values inside their credible interval."""
        inside = sum(d.coverage * d.observed.size for d in self.diagnostics)
        total = sum(d.observed.size for d in self.diagnostics)
        return inside / total if total else float("nan")


def _correlation(x, y) -> float:
    """Pearson correlation of two vectors, NaN where it is undefined: fewer
    than two pairs, or a vector with no spread (at a level so small that
    every interval is 0 wide, each fold's MCIL is 0)."""
    if len(x) < 2:
        return float("nan")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(x, y)[0, 1])


def _json_number(value: float) -> float | None:
    """``value`` for the report, or ``None`` (``null``) where it is undefined."""
    return value if math.isfinite(value) else None


def _drop_point(train: TrainingSet, i: int) -> TrainingSet:
    keep = np.arange(train.n) != i
    design = Design(
        points=train.design.points[keep],
        unit_points=train.design.unit_points[keep],
        space=train.design.space,
    )
    return TrainingSet(design, train.time_grid, train.outputs[keep])


def loo(
    train: TrainingSet,
    input_basis,
    output_basis,
    kernel: KernelSpec,
    prior: NigPrior,
    jitter: float = DEFAULT_JITTER,
    level: float = 0.95,
) -> DiagnosticsReport:
    """Leave-one-out validation over all n design points at ``kernel``.

    The folds share one time side (see the module docstring), factored
    from ``kernel`` before the first fold; if that factorization fails,
    :class:`NumericalDegeneracyError` is raised, since every fold would
    fail the same way. A fold whose own fit fails numerically is recorded
    and skipped.
    """
    if train.n < 3:
        raise ValueError(f"leave-one-out needs at least 3 points, got {train.n}")
    time = _TimeFactor(train.time_grid, output_basis, kernel, jitter,
                       output_basis.evaluate_many(train.time_grid))
    FKs = chol_solve(time.chol, train.outputs.T).T

    def run_fold(i: int):
        model = fit(prior, input_basis, output_basis, kernel, _drop_point(train, i),
                    jitter, time, np.delete(FKs, i, axis=0))
        series = model.predict(train.design.points[i])
        observed = train.outputs[i]
        lo, hi = credible_interval(series, level)
        inside = np.mean((observed >= lo) & (observed <= hi))
        return LooDiagnostic(
            index=i,
            observed=observed,
            series=series,
            level=level,
            lower=lo,
            upper=hi,
            rmse=rmse(observed, series.location),
            mcil=float(mcil(series, level)),
            coverage=float(inside),
        )

    diagnostics = []
    failures = []
    for i in range(train.n):
        try:
            diagnostics.append(run_fold(i))
        except NumericalDegeneracyError as exc:
            failures.append({"index": i, "error": str(exc)})

    distances = med(train.design)
    fold_med = distances[[d.index for d in diagnostics]]
    return DiagnosticsReport(
        diagnostics=diagnostics,
        med=distances,
        corr_med_rmse=_correlation(fold_med, [d.rmse for d in diagnostics]),
        corr_med_mcil=_correlation(fold_med, [d.mcil for d in diagnostics]),
        level=level,
        failures=failures,
    )


# -- exports -------------------------------------------------------------


def save_fold_csv(diag: LooDiagnostic, path: str, meta=None):
    """Per-fold series for external plotting: observed vs predictive band.

    The band's own level, ``diag.level``, names its columns (``lo95,hi95``
    at 0.95).
    """
    write_csv(path, ("time", "observed", "location", *interval_columns(diag.level)),
              zip(diag.series.times, diag.observed, diag.series.location,
                  diag.lower, diag.upper), meta)


def save_report_json(report: DiagnosticsReport, path: str, meta=None):
    doc = {
        "meta": meta or {},
        "level": report.level,
        "pooled_coverage": _json_number(report.pooled_coverage),
        "corr_med_rmse": _json_number(report.corr_med_rmse),
        "corr_med_mcil": _json_number(report.corr_med_mcil),
        "folds": [
            {
                "index": d.index,
                "rmse": d.rmse,
                "mcil": d.mcil,
                "coverage": d.coverage,
                "med": report.med[d.index],
            }
            for d in report.diagnostics
        ],
        "failures": report.failures,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")
