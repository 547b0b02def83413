"""Emulator-driven sensitivity sweeps and Monte-Carlo uncertainty analysis.

A sweep varies one input over a grid while the others stay fixed, tracking
the maximum predicted elevation (and interval width) along the curve. The
uncertainty analysis pushes Beta-distributed inputs through the emulator
and summarizes per-sample maximum elevation and mean CI length as
empirical quantiles. Both reduce a :class:`~opemu.emulator.Predictive`
over time, at one input or at a block of inputs, with the same two
functions, :func:`max_elevation` and :func:`mcil`.

Reproducibility: Beta draws use inverse-CDF transforms of a single seeded
uniform stream (one column per dimension, drawn in one block, so results
do not depend on dimension processing order), and quantiles use the
type-7 order-statistic convention (NumPy's default linear interpolation).
The inverse CDF is scipy's compiled ``betaincinv``, loaded without the
``scipy.special`` package, so ``uq`` pays ~40 ms instead of ~0.3 s for it
and draws the same bits as through the package.

The Monte-Carlo analysis predicts its draws in blocks of ``UQ_BLOCK`` rows
with :meth:`OpeModel.predict_many`; the block size bounds the memory of
the m x q intermediates (10k draws at the reference size peak at ~3.7 MiB
of numpy allocations in blocks, ~76 MiB in one batch).
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .design import DesignSpace
from .emulator import OpeModel, Predictive, credible_interval
from .ioutil import atomic_write_text, write_csv
from .kernels import _ufuncs

QUANTILE_LEVELS = (1.0, 5.0, 50.0, 95.0, 99.0)
UQ_BLOCK = 256


def max_elevation(pred: Predictive):
    """Largest predicted elevation over time (the predictive location).

    A number for one input, one per row for m inputs.
    """
    if pred.location.size == 0:
        raise ValueError("series is empty")
    return pred.location.max(axis=-1)


def mcil(pred: Predictive, level: float = 0.95):
    """Mean credible-interval length over time, shaped as :func:`max_elevation`."""
    lo, hi = credible_interval(pred, level)
    return np.mean(hi - lo, axis=-1)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: vary ``dim`` over [lower, upper], fix the rest.

    ``fixed`` holds values for every dimension (the swept entry is ignored);
    the restricted interval must sit inside the model's design box.
    """

    dim: int
    lower: float
    upper: float
    fixed: tuple
    resolution: int = 21

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if not self.lower < self.upper:
            raise ValueError("sweep interval must have lower < upper")


@dataclass
class SweepCurve:
    """Sweep result: the varied values and per-point summary statistics.

    One emulator evaluation per value, so :attr:`n_evaluations` is
    ``values.size``.
    """

    values: np.ndarray
    max_elev: np.ndarray
    mean_ci_length: np.ndarray

    @property
    def n_evaluations(self) -> int:
        return self.values.size


def check_sweep(spec: SweepSpec, space: DesignSpace) -> None:
    """Raise ValueError unless ``spec`` sweeps a dimension of ``space`` inside
    its box, with every other coordinate fixed inside it; the 1e-12 slack
    absorbs float noise at the box's ends."""
    if not (0 <= spec.dim < space.k):
        raise ValueError(f"sweep dimension {spec.dim} out of range for k={space.k}")
    if len(spec.fixed) != space.k:
        raise ValueError(f"fixed needs {space.k} values, got {len(spec.fixed)}")
    for j, (lo_b, hi_b) in enumerate(space.bounds):
        lo, hi = (spec.lower, spec.upper) if j == spec.dim else (spec.fixed[j],) * 2
        if not lo_b - 1e-12 <= lo <= hi <= hi_b + 1e-12:
            what = f"sweep interval [{lo}, {hi}]" if j == spec.dim else f"fixed value {lo}"
            raise ValueError(f"{what} leaves the design box [{lo_b}, {hi_b}] "
                             f"for {space.names[j]}")


def sensitivity_sweep(
    model: OpeModel, spec: SweepSpec, level: float = 0.95
) -> SweepCurve:
    """Evaluate the emulator along the sweep grid (training time grid)."""
    space = model.design.space
    check_sweep(spec, space)
    fixed = np.asarray(spec.fixed, dtype=float)
    values = np.linspace(spec.lower, spec.upper, spec.resolution)
    maxima = np.empty(spec.resolution)
    widths = np.empty(spec.resolution)
    for i, v in enumerate(values):
        point = fixed.copy()
        point[spec.dim] = v
        series = model.predict(point)
        maxima[i] = max_elevation(series)
        widths[i] = mcil(series, level)
    return SweepCurve(values, maxima, widths)


@dataclass(frozen=True)
class BetaInputSpec:
    """Per-dimension scaled Beta distributions: (alpha, beta, lower, upper)."""

    dims: tuple

    def __post_init__(self):
        dims = tuple((float(a), float(b), float(lo), float(hi)) for a, b, lo, hi in self.dims)
        for i, (a, b, lo, hi) in enumerate(dims):
            if a <= 0 or b <= 0:
                raise ValueError(f"dimension {i}: Beta shapes must be positive")
            if not lo < hi:
                raise ValueError(f"dimension {i}: need lower < upper")
        object.__setattr__(self, "dims", dims)

    @property
    def k(self) -> int:
        return len(self.dims)


def sample_beta(spec: BetaInputSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. input draws, Beta per dimension mapped onto [lower, upper].

    The inverse CDF is ``betaincinv`` from scipy's compiled
    special-function module (:func:`~opemu.kernels._ufuncs`), the object
    ``scipy.special.betaincinv`` names, loaded without that package.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    betaincinv = _ufuncs().betaincinv
    rng = np.random.default_rng(seed)
    uniforms = rng.random((n, spec.k))
    out = np.empty((n, spec.k))
    for j, (a, b, lo, hi) in enumerate(spec.dims):
        out[:, j] = lo + (hi - lo) * betaincinv(a, b, uniforms[:, j])
    return out


@dataclass
class QuantileSummary:
    """Empirical percentiles of one scalar statistic over the MC samples.

    ``values`` holds one entry per level of ``QUANTILE_LEVELS``.
    """

    statistic: str
    values: np.ndarray


@dataclass
class UqResult:
    """Monte-Carlo summaries plus two health counts.

    The summaries are at ``QUANTILE_LEVELS``, over the ``len(samples)``
    input draws made from ``seed``. ``extrapolated`` counts the draws
    outside the design box; ``clamped`` counts the predictive variance
    entries clipped up to zero.
    """

    max_elevation: QuantileSummary
    mean_ci_length: QuantileSummary
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    samples: np.ndarray
    seed: int
    extrapolated: int
    clamped: int


def uq_monte_carlo(
    model: OpeModel,
    spec: BetaInputSpec,
    n: int = 1000,
    seed: int = 0,
    level: float = 0.95,
    bins: int = 30,
) -> UqResult:
    """Monte-Carlo uncertainty propagation through the emulator.

    Draws n inputs, predicts them on the training time grid in blocks of
    ``UQ_BLOCK`` rows, reduces each block to (max elevation, mean CI
    length) per row with :func:`max_elevation` and :func:`mcil`, and
    reports their empirical percentiles plus histogram data for
    the maximum. Deterministic per (model, spec, n, seed).
    """
    if n < 100:
        warnings.warn(
            f"n={n} Monte-Carlo samples is low for stable tail quantiles",
            stacklevel=2,
        )
    inputs = sample_beta(spec, n, seed)

    max_vals = np.empty(n)
    mcil_vals = np.empty(n)
    extrapolated = clamped = 0
    for start in range(0, n, UQ_BLOCK):
        rows = slice(start, start + UQ_BLOCK)
        batch = model.predict_many(inputs[rows])
        max_vals[rows] = max_elevation(batch)
        mcil_vals[rows] = mcil(batch, level)
        extrapolated += int(np.sum(batch.extrapolation))
        clamped += int(np.sum(batch.clamped))

    probs = np.array(QUANTILE_LEVELS) / 100.0
    counts, edges = np.histogram(max_vals, bins=bins)
    return UqResult(
        max_elevation=QuantileSummary("max-elevation", np.quantile(max_vals, probs)),
        mean_ci_length=QuantileSummary("mean-CI-length", np.quantile(mcil_vals, probs)),
        histogram_edges=edges,
        histogram_counts=counts,
        samples=inputs,
        seed=seed,
        extrapolated=extrapolated,
        clamped=clamped,
    )


# -- exports -------------------------------------------------------------


def save_sweep_csv(curve: SweepCurve, name: str, path: str, meta=None):
    write_csv(path, (name, "max_elev", "mcil"),
              zip(curve.values, curve.max_elev, curve.mean_ci_length), meta)


def save_quantiles_csv(result: UqResult, path: str, meta=None):
    header = ["statistic"] + [f"p{v:g}" for v in QUANTILE_LEVELS]
    rows = [[summary.statistic, *summary.values]
            for summary in (result.max_elevation, result.mean_ci_length)]
    write_csv(path, header, rows, meta)


def save_quantiles_json(result: UqResult, path: str, meta=None):
    doc = {
        "meta": meta or {},
        "levels_percent": list(QUANTILE_LEVELS),
        "max_elevation": result.max_elevation.values.tolist(),
        "mean_ci_length": result.mean_ci_length.values.tolist(),
        "n_samples": len(result.samples),
        "seed": result.seed,
        "extrapolated": result.extrapolated,
        "clamped": result.clamped,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def save_histogram_csv(result: UqResult, path: str, meta=None):
    edges, counts = result.histogram_edges, result.histogram_counts
    rows = [(lo, hi, str(int(c))) for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    write_csv(path, ("bin_lo", "bin_hi", "count"), rows, meta)
