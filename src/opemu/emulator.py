"""Conjugate Bayesian fitting of the separable multi-output emulator.

Model
-----
Training outputs form an n x q matrix F (n design points, q time points).
Stacked row-major with the input index outermost, y = vec(F) follows

    y = Q beta + eps,     Q = G_input (x) G_output          (Kronecker)
    beta | tau  ~ Normal(0, tau sigma2 I)
    eps  | tau  ~ Normal(0, tau K),   K = K_input (x) K_output
    tau         ~ InverseGamma with density  tau^-(a/2 + 1) exp(-d / (2 tau))

The prior mean is zero, so this is the model whose marginal likelihood the
length search maximizes (:mod:`opemu.likelihood`). With that
parameterization ``a`` counts degrees of freedom directly and the posterior
is again of the same family with

    Vn^-1 = I / sigma2 + Q' K^-1 Q    an = a + n*q
    mn    = Vn Q' K^-1 y              dn = d + res' K^-1 res + mn' mn / sigma2

where res = y - Q mn. Predictions at a new input r over any times are
Student-t with an degrees of freedom. Every K^-1 application goes through
the per-factor Cholesky decompositions, and Vn through the eigenbasis of
Q' K^-1 Q (:class:`_KronEigen`); neither the n*q x n*q matrix nor the
nu x nu posterior precision is ever formed. :meth:`OpeModel.predict_many`
predicts m input points at once with matrix products over the m rows;
:meth:`OpeModel.predict` is its one-row case. Both return a
:class:`Predictive`.

Vectorization convention used throughout: for row-major vec,
(A (x) B) vec(X) = vec(A X B'); y = vec(F) and coefficient vectors reshape
to nu_r x nu_s matrices the same way.
"""

import hashlib
import json
import math
from functools import cached_property, lru_cache

import numpy as np

from . import __version__
from .basis import InputBasis, OutputBasis, regressor_matrices
from .design import Design, DesignSpace
from .errors import DataError, NumericalDegeneracyError
from .ioutil import atomic_write_text
from .kernels import (
    DEFAULT_JITTER,
    KernelSpec,
    _ufuncs,
    chol_solve,
    input_correlation_matrix,
    kernel_matrices,
    output_correlation_matrix,
    output_factor,
)

_PRECISION = "the posterior precision matrix"


class NigPrior:
    """Zero-mean Normal--Inverse-Gamma prior with coefficient scale V = sigma2 * I.

    The prior has no size of its own: V takes its dimension nu = nu_r * nu_s
    from the bases it is fitted with.

    Parameters
    ----------
    sigma2 : prior coefficient variance multiplier, V = sigma2 * I.
    dof : degrees of freedom a > 0.
    scale : tau scale d > 0.
    """

    def __init__(self, sigma2: float, dof: float, scale: float):
        self.sigma2 = float(sigma2)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be strictly positive")
        if dof <= 0 or scale <= 0:
            raise ValueError("dof and scale must be strictly positive")
        self.dof = float(dof)
        self.scale = float(scale)


class _TimeFactor:
    """The time side of the factorization for one grid and time kernel.

    Factors the jittered Ks and holds it with its Cholesky factor, Gs (the
    output regressors on the grid), Ks^-1 Gs and the eigenpairs of
    As = Gs' Ks^-1 Gs = Us diag(ls) Us'. It is the one holder of the grid,
    the output basis, the kernel and the jitter (the nugget of both
    factors) of every core and model built on it. None of it depends on
    the design, so fits on one grid with one output basis, jitter and time
    kernel can share one. The training-grid predict factors (:meth:`side`
    of the grid, the three variance products included) are built on first
    use and kept in ``grid_cache``.
    """

    def __init__(self, grid, output_basis, kernel, jitter, Gs):
        self.grid, self.output_basis, self.kernel, self.Gs = grid, output_basis, kernel, Gs
        self.jitter = float(jitter)
        self.Ks, self.chol = output_factor(grid, kernel, jitter)
        self.KsGs = chol_solve(self.chol, Gs)
        try:
            self.ls, self.Us = np.linalg.eigh(Gs.T @ self.KsGs)
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(_PRECISION, str(exc)) from exc
        self.grid_cache = None

    def side(self, times):
        """Precompute everything of a prediction that depends only on its times.

        Returns (Gs_new, Ks_cross, explained_out, products). With A =
        Gs_new Us and B = Ks_cross K_output^-1 G_output Us, the time halves
        of the regression-uncertainty term, and dA = A - B, ``products``
        is [(dA*dA)', 2 (dA*B)', (B*B)'], nu_s x 3q, the time half that
        :meth:`_KronEigen.variance_factor` weights by D. It does not
        depend on the inputs, so the grid cache keeps it ready.
        """
        t = np.asarray(times, dtype=float).ravel()
        Gs_new = self.output_basis.evaluate_many(t)
        Ks_cross = output_correlation_matrix(t, self.grid, self.kernel)
        Ks_solve = chol_solve(self.chol, Ks_cross.T)
        explained_out = np.einsum("ji,ij->j", Ks_cross, Ks_solve)
        A, B = Gs_new @ self.Us, Ks_solve.T @ (self.Gs @ self.Us)
        dA = A - B
        return Gs_new, Ks_cross, explained_out, np.concatenate([dA * dA, 2.0 * dA * B, B * B]).T

    def grid_side(self):
        """:meth:`side` of the training grid, built once."""
        if self.grid_cache is None:
            self.grid_cache = self.side(self.grid)
        return self.grid_cache


class _KronEigen:
    """Per-factor Cholesky factors plus the eigenbasis of the regression term.

    With Ar = Gr' Kr^-1 Gr = Ur diag(lr) Ur' and As = Gs' Ks^-1 Gs =
    Us diag(ls) Us', the posterior precision S = I/sigma2 + Ar (x) As is
    diagonal in Ur (x) Us with eigenvalues P = 1/sigma2 + lr ls' on the
    nu_r x nu_s grid. Solves, log|S|, trace terms and predictive variances
    are then elementwise work on that grid; S itself is never formed. The
    time half is ``time``, a :class:`_TimeFactor`, which also holds the
    kernel and jitter; only the input half is built here: the jittered Kr
    of ``design`` and its Cholesky factor ``chol``
    (:func:`~opemu.kernels.kernel_matrices`), and Gr.
    """

    def __init__(self, design: Design, Gr: np.ndarray, time: _TimeFactor, sigma2: float):
        self.Kr, self.chol = kernel_matrices(design, time.kernel, time.jitter)
        self.design, self.Gr, self.time = design, Gr, time
        self.KrGr = chol_solve(self.chol, Gr)
        try:
            self.lr, self.Ur = np.linalg.eigh(Gr.T @ self.KrGr)
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(_PRECISION, str(exc)) from exc
        P = 1.0 / sigma2 + np.outer(self.lr, time.ls)
        if not np.all(P > 0.0):
            raise NumericalDegeneracyError(_PRECISION, f"smallest eigenvalue {P.min():.3g}")
        self.D = 1.0 / P
        self.logdet = float(np.sum(np.log(P)))

    def whiten(self, F: np.ndarray) -> np.ndarray:
        """K^-1 vec(F) as an n x q matrix, K = Kr (x) Ks.

        Only the likelihood calls it now; :func:`fit` solves the time side
        first. Its Kr-first order is kept because the fitted-length UQ gate
        pins the likelihood's bits, until that gate checks results instead.
        """
        W = chol_solve(self.chol, F)
        return chol_solve(self.time.chol, W.T).T

    def solve(self, B: np.ndarray) -> np.ndarray:
        """S^-1 vec(B) as a nu_r x nu_s matrix."""
        return self.Ur @ (self.D * (self.Ur.T @ B @ self.time.Us)) @ self.time.Us.T

    def variance_factor(self, products) -> np.ndarray:
        """The time half V of :meth:`regression_variance`: 3 nu_r x q.

        ``products`` is a time side's [(dA*dA)', 2 (dA*B)', (B*B)']
        (:meth:`_TimeFactor.side`). One product weights all three by D,
        and row 3i + k of V is row i of the k-th of D (dA*dA)',
        2 D (dA*B)' and D (B*B)'. It depends on this core's D, so the core
        keeps the training grid's as :attr:`grid_factor`.
        """
        return (self.D @ products).reshape(3 * self.D.shape[0], products.shape[1] // 3)

    @cached_property
    def grid_factor(self) -> np.ndarray:
        """:meth:`variance_factor` of the training grid, built once."""
        return self.variance_factor(self.time.grid_side()[3])

    def regression_variance(self, Gr_new, U, V) -> np.ndarray:
        """rho_ij' S^-1 rho_ij for rho_ij = gr_i (x) gs_j - u_i (x) w_j: m x q.

        Gr_new holds the rows gr_i' and U the rows u_i' (m x nu_r). A holds
        the rows gs_j' Us and B the rows w_j' Us (q x nu_s), dA = A - B,
        and V is the time half :meth:`variance_factor` builds from them.
        In the eigenbasis rho = a (x) A - b (x) B with a = gr' Ur and
        b = u' Ur, which is rewritten as a (x) dA + da (x) B with
        da = a - b. Its square weighted by D is

            (a*a) D (dA*dA)' + 2 (a*da) D (dA*B)' + (da*da) D (B*B)'

        which is one matrix product of inner size 3 nu_r: column 3i + k of
        its left factor is column i of the k-th of a*a, a*da and da*da, to
        match V's rows. The result is a new m x q array the caller may
        overwrite.

        Expanding a (x) A - b (x) B itself would cancel badly where rho is
        close to zero: at a design point on the grid both products are
        O(1) and agree to O(jitter). In the factored form da and dA are
        both O(jitter) there, so every term is already small and nothing
        of size O(1) cancels.
        """
        a = Gr_new @ self.Ur
        da = a - U @ self.Ur
        left = np.stack([a * a, a * da, da * da], axis=2)
        return left.reshape(a.shape[0], 3 * a.shape[1]) @ V


class TrainingSet:
    """Design points, output time grid, and the n x q simulator outputs."""

    def __init__(self, design: Design, time_grid, outputs):
        self.design = design
        self.time_grid = np.asarray(time_grid, dtype=float).ravel()
        self.outputs = np.asarray(outputs, dtype=float)
        if self.outputs.shape != (design.n, self.time_grid.size):
            raise ValueError(
                f"outputs shape {self.outputs.shape} does not match "
                f"{design.n} design points x {self.time_grid.size} grid times"
            )
        if not np.all(np.isfinite(self.outputs)):
            i, j = np.argwhere(~np.isfinite(self.outputs))[0]
            raise DataError(
                f"non-finite output at row {i}, column t={float(self.time_grid[j])!r}"
            )
        if self.time_grid.size > 1 and not np.all(np.diff(self.time_grid) > 0):
            raise ValueError("time grid must be strictly increasing")

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def q(self) -> int:
        return self.time_grid.size

    def fingerprint(self) -> str:
        """SHA-256 over design points, grid, and outputs (provenance hash)."""
        h = hashlib.sha256()
        for arr in (self.design.points, self.time_grid, self.outputs):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return "sha256:" + h.hexdigest()


class Predictive:
    """Per-time Student-t predictive marginals at one or m input points.

    For one input ``location`` and ``scale`` are length-q arrays and the
    health fields are scalars; for m inputs they are m x q arrays and each
    health field holds one entry per row.
    """

    def __init__(self, times, location, scale, dof, extrapolation=False,
                 clamped=0, min_unit_variance=0.0):
        self.times = np.asarray(times, dtype=float)
        self.location = np.asarray(location, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.dof = float(dof)
        self.extrapolation = extrapolation
        #: number of variance entries clipped up to zero (float cancellation)
        self.clamped = clamped
        #: smallest pre-clamp unit variance; barely-negative values are
        #: cancellation noise, anything grossly negative is a bug signal
        self.min_unit_variance = min_unit_variance


def credible_interval(series, level: float = 0.95):
    """Symmetric Student-t interval per time point: (lower, upper) arrays.

    The arrays have the shape of ``series.location``. The t quantile is
    :func:`_t_quantile`, computed once per (dof, level); an infinite dof
    gives the normal quantile.
    """
    half = _interval_quantile(series.dof, level) * series.scale
    return series.location - half, series.location + half


def _interval_quantile(dof: float, level: float) -> float:
    """The t quantile that scales the half-width of a ``level`` interval.

    Raises ``ValueError`` unless 0 < level < 1 and dof > 0.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly between 0 and 1, got {level}")
    if not dof > 0:
        raise ValueError(f"dof must be positive, got {dof}")
    return _t_quantile(dof, 0.5 * (1.0 + level))


@lru_cache(maxsize=64)
def _t_quantile(dof: float, p: float) -> float:
    """The Student-t quantile with ``dof`` > 0 degrees of freedom at ``p`` >= 1/2.

    From dof 3000 on, and for an infinite dof, it is the Cornish-Fisher
    expansion about the normal quantile z, Abramowitz & Stegun 26.7.5, to
    the 1/dof^4 term; it agrees with 40-digit values to ~1e-15 relative
    there for levels up to 0.9999 and loads nothing from scipy. Below dof
    3000, where that expansion loses digits, it is ``stdtrit`` from
    scipy's compiled special-function module (:func:`~opemu.kernels._ufuncs`,
    ~40 ms to load), the object ``scipy.special.stdtrit`` names.
    """
    if dof < 3000.0:
        return float(_ufuncs().stdtrit(dof, p))
    if p >= 1.0:
        return math.inf
    # ~3 ms, so imported here: `import opemu.cli` does not load it
    from statistics import NormalDist

    z = NormalDist().inv_cdf(p)
    v, z2 = 1.0 / dof, z * z
    g = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    g = (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384 + v * g
    g = ((5 * z2 + 16) * z2 + 3) / 96 + v * g
    g = (z2 + 1) / 4 + v * g
    return z * (1.0 + v * g)


class OpeModel:
    """A fitted emulator: posterior state plus the shared solver factors.

    The model owns the prior and the posterior (coefficient mean, scale,
    residual weights) with the training fingerprint. The rest it reads
    from its core: ``design`` from the :class:`_KronEigen`, and
    ``output_basis``, ``kernel``, ``jitter`` and ``time_grid`` from the
    core's :class:`_TimeFactor`, all read-only, so the model cannot hold a
    kernel or grid its core did not compute with. ``input_basis`` (over the
    design's box) and the posterior ``dof`` a + n*q are derived, once;
    :func:`load_model` rejects a file whose stored dof differs from it.
    The posterior coefficient scale matrix Vn is never formed: solves and
    variances go through the core's eigenbasis. :meth:`predict` and
    :meth:`predict_many` are pure apart from caching the time-side factors
    of the training grid (``_grid_cache``, ``None`` until the first
    training-grid prediction): Gs and the grid's cross-correlations, the
    explained time variance and the three variance products of
    :meth:`_TimeFactor.side`, plus the core's D-weighted
    :attr:`_KronEigen.grid_factor`, so a training-grid predict computes
    only its input side. Models fitted with one shared time side share
    the time-side cache too.
    """

    def __init__(self, prior: NigPrior, core: _KronEigen, coeff_mean: np.ndarray,
                 scale: float, residual_weights: np.ndarray, training_fingerprint: str):
        self.prior = prior
        self._core = core
        self.coeff_mean = np.asarray(coeff_mean, dtype=float).ravel()
        # an attribute, not a property: every predict reads it
        self.dof = prior.dof + core.design.n * core.time.grid.size
        self.scale = float(scale)
        self.residual_weights = np.asarray(residual_weights, dtype=float)
        self.training_fingerprint = training_fingerprint

    # -- views of the core ---------------------------------------------

    @cached_property
    def input_basis(self) -> InputBasis:
        return InputBasis(self.design.space)

    @property
    def design(self) -> Design:
        return self._core.design

    @property
    def output_basis(self) -> OutputBasis:
        return self._core.time.output_basis

    @property
    def kernel(self) -> KernelSpec:
        return self._core.time.kernel

    @property
    def jitter(self) -> float:
        return self._core.time.jitter

    @property
    def time_grid(self) -> np.ndarray:
        return self._core.time.grid

    # -- derived shapes ------------------------------------------------

    @property
    def coeff_matrix(self) -> np.ndarray:
        """Posterior coefficient mean as a nu_r x nu_s matrix."""
        return self.coeff_mean.reshape(self.input_basis.size, self.output_basis.size)

    @property
    def tau_estimate(self) -> float:
        """Posterior point estimate of the common variance multiplier."""
        return self.scale / self.dof

    # -- prediction ----------------------------------------------------

    @property
    def _grid_cache(self):
        """The training grid's time-side predict factors; None until built."""
        return self._core.time.grid_cache

    def predict(self, r, times=None) -> Predictive:
        """Student-t predictive marginals at input ``r`` over ``times``.

        The one-row case of :meth:`predict_many`, with scalar health fields.
        """
        r = np.asarray(r, dtype=float).ravel()
        b = self.predict_many(r[None, :], times)
        return Predictive(b.times, b.location[0], b.scale[0], b.dof,
                          bool(b.extrapolation[0]), int(b.clamped[0]),
                          float(b.min_unit_variance[0]))

    def predict_many(self, R, times=None) -> Predictive:
        """Student-t predictive marginals at each row of ``R`` over ``times``.

        ``R`` is an m x k array of input points. ``times=None`` predicts on
        the training grid, whose time-side factors are computed once and
        cached. Rows outside the design box, or every row when ``times``
        reach beyond the training grid, are flagged as extrapolation.

        Past the input side, m rows cost two matrix products, the residual
        correction's (m x n by n x q) and the variance's (m x 3 nu_r by
        3 nu_r x q, :meth:`_KronEigen.regression_variance`), and a fixed
        number of in-place passes over the variance's m x q result. For
        m > n the correction multiplies the residual weights by Ks_cross'
        first, n x q, which costs n q^2 where the other order costs m q^2;
        for m <= n, a one-point predict included, it keeps the other order,
        so those locations do not depend on the other rows.
        """
        R = np.atleast_2d(np.asarray(R, dtype=float))
        core, time = self._core, self._core.time
        if times is None:
            t = time.grid
            Gs_new, Ks_cross, explained_out, _ = time.grid_side()
            V = core.grid_factor
        else:
            t = np.asarray(times, dtype=float).ravel()
            Gs_new, Ks_cross, explained_out, products = time.side(t)
            V = core.variance_factor(products)

        Gr_new = self.input_basis.evaluate_many(R)
        Kr_cross = input_correlation_matrix(R, core.design.points, time.kernel)
        kr_solve = chol_solve(core.chol, Kr_cross.T)
        explained_in = np.einsum("in,ni->i", Kr_cross, kr_solve)

        # location: regression surface + kernel-weighted residual correction
        location = (Gr_new @ self.coeff_matrix) @ Gs_new.T
        if R.shape[0] > core.design.n:
            location += Kr_cross @ (self.residual_weights @ Ks_cross.T)
        else:
            location += (Kr_cross @ self.residual_weights) @ Ks_cross.T

        # regression-uncertainty term rho' Vn rho with
        # rho_ij = gr_i (x) gs_j - u_i (x) w_j, then the prior correlation
        # of a point with itself, nugget included, less the explained part
        unit_var = core.regression_variance(Gr_new, kr_solve.T @ core.Gr, V)
        unit_var -= np.outer(explained_in, explained_out)
        unit_var += (1.0 + time.jitter) ** 2
        clamped = np.count_nonzero(unit_var < 0.0, axis=1)
        min_unit_var = unit_var.min(axis=1) if t.size else np.zeros(R.shape[0])
        scale = np.maximum(unit_var, 0.0, out=unit_var)
        scale *= self.tau_estimate
        np.sqrt(scale, out=scale)

        extrapolation = ~core.design.space.contains_rows(R)
        # the training grid cannot reach beyond itself
        if times is not None and t.size and (
                t.min() < time.grid[0] or t.max() > time.grid[-1]):
            extrapolation[:] = True
        return Predictive(t, location, scale, self.dof, extrapolation, clamped,
                          min_unit_var)


def fit(
    prior: NigPrior,
    input_basis: InputBasis,
    output_basis: OutputBasis,
    kernel: KernelSpec,
    train: TrainingSet,
    jitter: float = DEFAULT_JITTER,
    _time: _TimeFactor | None = None,
    _FKs: np.ndarray | None = None,
) -> OpeModel:
    """Conjugate posterior update from a training set.

    All solves go through the per-factor Cholesky decompositions and the
    eigenbasis of the regression term; cost is O(n^3 + q^3) rather than
    O((nq)^3). The time side is solved first: with W0 = Kr^-1 (F Ks^-1),
    the residual weights K^-1 vec(R) are W0 - Kr^-1 Gr mn Gs' Ks^-1, so
    past F Ks^-1 the fit makes one n x n solve and no q x q one.

    Two arguments are internal, and :func:`~opemu.validation.loo` is their
    one caller. ``_time`` is a :class:`_TimeFactor` already built for this
    training grid, which the fit then shares instead of building its own.
    The model reads its kernel, jitter and output basis from it, so it
    must match the ``kernel``, ``jitter`` and ``output_basis`` arguments.
    ``_FKs`` is F Ks^-1 of this training set (n x q), the rows a fold
    takes from the full design's product; without it the fit computes it.
    An input basis over another box than the design's, or a kernel with
    another input-length count than its dimension, raises ``ValueError``.
    """
    Gr, Gs = regressor_matrices(train.design, train.time_grid, input_basis, output_basis)
    time = _time or _TimeFactor(train.time_grid, output_basis, kernel, jitter, Gs)
    core = _KronEigen(train.design, Gr, time, prior.sigma2)
    F = train.outputs
    if _FKs is None:
        _FKs = chol_solve(time.chol, F.T).T

    # mn = Vn Q' K^-1 y, with Q' K^-1 y = vec(Gr' K^-1 F Gs)
    W0 = chol_solve(core.chol, _FKs)
    coeff = core.solve(Gr.T @ W0 @ Gs)

    # scale update in residual form: guaranteed to stay positive
    R = F - Gr @ coeff @ Gs.T
    W = W0 - core.KrGr @ coeff @ time.KsGs.T
    post_scale = float(prior.scale + np.sum(R * W) + np.sum(coeff * coeff) / prior.sigma2)
    return OpeModel(prior, core, coeff.ravel(), post_scale, W, train.fingerprint())


# -- serialization -----------------------------------------------------


def save_model(model: OpeModel, path: str, meta: dict | None = None) -> None:
    """Write a fitted model as JSON (full float precision, row-major arrays).

    The posterior coefficient scale matrix is not written: the model never
    forms it, and loading rebuilds the solver factors it comes from.
    """
    doc = {
        "format": "ope-model",
        "version": __version__,
        "meta": meta or {},
        "space": {
            "bounds": [list(b) for b in model.design.space.bounds],
            "names": list(model.design.space.names),
        },
        "output_basis": {"frequencies": list(model.output_basis.frequencies)},
        "kernel": {
            "input_lengths": list(model.kernel.input_lengths),
            "output_length": model.kernel.output_length,
            "exponent": model.kernel.exponent,
        },
        "jitter": model.jitter,
        "prior": {
            "dof": model.prior.dof,
            "scale": model.prior.scale,
            "sigma2": model.prior.sigma2,
        },
        "posterior": {
            "coeff_mean": model.coeff_mean.tolist(),
            "dof": model.dof,
            "scale": model.scale,
        },
        "design": {"points": model.design.points.tolist()},
        "time_grid": model.time_grid.tolist(),
        "residual_weights": model.residual_weights.tolist(),
        "training_fingerprint": model.training_fingerprint,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, allow_nan=False) + "\n")


def load_model(path: str) -> OpeModel:
    """Read a model written by :func:`save_model`; rebuilds solver factors.

    Raises :class:`DataError` naming the key when a required key is missing,
    a number is not finite (JSON's ``NaN`` and ``Infinity``), an array's
    shape does not match the design, the time grid and the bases, the time
    grid is not strictly increasing, or ``posterior.dof`` is not the
    a + n*q that the prior, design and grid imply, or
    ``training_fingerprint`` is not a non-empty string. A ``prior.cov`` or
    ``prior.mean`` (from builds before the zero-mean isotropic prior) asks
    for a refit; a ``posterior.coeff_cov`` or ``design.seed`` is ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "ope-model":
        raise DataError(f"{path}: not a fitted-model file")
    prior_doc = doc.get("prior")
    for key in ("cov", "mean"):
        if isinstance(prior_doc, dict) and key in prior_doc:
            raise DataError(f"{path}: 'prior.{key}' is from a build before the prior "
                            "became zero-mean and isotropic; rerun fit")

    def get(key, shape=()):
        """The finite number(s) at ``key``: a float for ``shape=()``, else an
        array of ``shape`` (None matches any length); ``shape=None`` returns
        the raw node."""
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise DataError(f"missing key {key!r}")
            node = node[part]
        if shape is None:
            return node
        try:
            arr = np.array(node, dtype=float)
        except (TypeError, ValueError):
            raise DataError(f"{key!r} is not numeric") from None
        if arr.ndim != len(shape) or any(
                s not in (None, n) for n, s in zip(arr.shape, shape)):
            want = "x".join("*" if s is None else str(s) for s in shape) or "a scalar"
            raise DataError(f"{key!r} has shape {arr.shape}, expected {want}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{key!r} holds a non-finite value")
        return arr if shape else float(arr)

    try:
        space = DesignSpace(bounds=get("space.bounds", (None, 2)).tolist(),
                            names=tuple(get("space.names", None)))
        points = get("design.points", (None, space.k))
        grid = get("time_grid", (None,))
        if not np.all(np.diff(grid) > 0):
            raise DataError("'time_grid' is not strictly increasing")
        design = Design(points=points, unit_points=space.to_unit(points), space=space)
        input_basis = InputBasis(space)
        output_basis = OutputBasis(tuple(get("output_basis.frequencies", (None,))))
        nu = (input_basis.size * output_basis.size,)
        fingerprint = get("training_fingerprint", None)
        if not (isinstance(fingerprint, str) and fingerprint):
            raise DataError("'training_fingerprint' is not a non-empty string")
        kernel = KernelSpec(input_lengths=tuple(get("kernel.input_lengths", (space.k,))),
                            output_length=get("kernel.output_length"),
                            exponent=get("kernel.exponent"))
        prior = NigPrior(get("prior.sigma2"), get("prior.dof"), get("prior.scale"))
        Gr, Gs = regressor_matrices(design, grid, input_basis, output_basis)
        time = _TimeFactor(grid, output_basis, kernel, get("jitter"), Gs)
        model = OpeModel(prior, _KronEigen(design, Gr, time, prior.sigma2),
                         get("posterior.coeff_mean", nu), get("posterior.scale"),
                         get("residual_weights", (points.shape[0], grid.size)),
                         fingerprint)
        if get("posterior.dof") != model.dof:
            raise DataError(f"'posterior.dof' is not {model.dof!r}, the prior dof + n*q")
        return model
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
