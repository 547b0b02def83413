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
:meth:`OpeModel.predict` is its one-row case.

Vectorization convention used throughout: for row-major vec,
(A (x) B) vec(X) = vec(A X B'); y = vec(F) and coefficient vectors reshape
to nu_r x nu_s matrices the same way.
"""

import hashlib
import json
from functools import cached_property

import numpy as np

from . import __version__
from .basis import InputBasis, OutputBasis, regressor_matrices
from .design import Design, DesignSpace
from .errors import DataError, NumericalDegeneracyError
from .ioutil import atomic_write_text
from .kernels import (
    DEFAULT_JITTER,
    KernelMatrices,
    KernelSpec,
    input_correlation_matrix,
    kernel_matrices,
    output_correlation_matrix,
)

_PRECISION = "the posterior precision matrix"


class NigPrior:
    """Zero-mean Normal--Inverse-Gamma prior with coefficient scale V = sigma2 * I.

    Parameters
    ----------
    size : number of coefficients nu.
    sigma2 : prior coefficient variance multiplier, V = sigma2 * I.
    dof : degrees of freedom a > 0.
    scale : tau scale d > 0.
    """

    def __init__(self, size: int, sigma2: float, dof: float, scale: float):
        self.size = int(size)
        self.sigma2 = float(sigma2)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be strictly positive")
        if dof <= 0 or scale <= 0:
            raise ValueError("dof and scale must be strictly positive")
        self.dof = float(dof)
        self.scale = float(scale)

    @property
    def cov(self) -> np.ndarray:
        """Dense prior coefficient scale matrix V = sigma2 * I."""
        return self.sigma2 * np.eye(self.size)


class _KronEigen:
    """Per-factor Cholesky factors plus the eigenbasis of the regression term.

    With Ar = Gr' Kr^-1 Gr = Ur diag(lr) Ur' and As = Gs' Ks^-1 Gs =
    Us diag(ls) Us', the posterior precision S = I/sigma2 + Ar (x) As is
    diagonal in Ur (x) Us with eigenvalues P = 1/sigma2 + lr ls' on the
    nu_r x nu_s grid. Solves, log|S|, trace terms and predictive variances
    are then elementwise work on that grid; S itself is never formed.
    """

    def __init__(self, km: KernelMatrices, Gr: np.ndarray, Gs: np.ndarray, sigma2: float):
        from scipy.linalg import cho_solve

        self.km, self.Gr, self.Gs = km, Gr, Gs
        self.KrGr = cho_solve(km.input_chol, Gr, check_finite=False)
        self.KsGs = cho_solve(km.output_chol, Gs, check_finite=False)
        try:
            self.lr, self.Ur = np.linalg.eigh(Gr.T @ self.KrGr)
            self.ls, self.Us = np.linalg.eigh(Gs.T @ self.KsGs)
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(_PRECISION, str(exc)) from exc
        P = 1.0 / sigma2 + np.outer(self.lr, self.ls)
        if not np.all(P > 0.0):
            raise NumericalDegeneracyError(_PRECISION, f"smallest eigenvalue {P.min():.3g}")
        self.D = 1.0 / P
        self.logdet = float(np.sum(np.log(P)))

    @classmethod
    def build(cls, design, grid, input_basis, output_basis, kernel, jitter, sigma2):
        """Factor the kernel and the regressors of a design and time grid."""
        Gr, Gs = regressor_matrices(design, grid, input_basis, output_basis)
        return cls(kernel_matrices(design, grid, kernel, jitter), Gr, Gs, sigma2)

    def whiten(self, F: np.ndarray) -> np.ndarray:
        """K^-1 vec(F) as an n x q matrix, K = Kr (x) Ks."""
        from scipy.linalg import cho_solve

        W = cho_solve(self.km.input_chol, F, check_finite=False)
        return cho_solve(self.km.output_chol, W.T, check_finite=False).T

    def solve(self, B: np.ndarray) -> np.ndarray:
        """S^-1 vec(B) as a nu_r x nu_s matrix."""
        return self.Ur @ (self.D * (self.Ur.T @ B @ self.Us)) @ self.Us.T

    def dense_inverse(self) -> np.ndarray:
        """S^-1 as a dense nu x nu matrix (for inspection and dense checks)."""
        E = np.einsum("ai,bj->abij", self.Ur, self.Us).reshape(self.D.size, self.D.size)
        return (E * self.D.ravel()) @ E.T

    def regression_variance(self, Gr_new, U, A, B) -> np.ndarray:
        """rho_ij' S^-1 rho_ij for rho_ij = gr_i (x) gs_j - u_i (x) w_j: m x q.

        Gr_new holds the rows gr_i' and U the rows u_i' (m x nu_r); A holds
        the rows gs_j' Us and B the rows w_j' Us (q x nu_s). In the
        eigenbasis rho = a (x) A - b (x) B with a = gr' Ur and b = u' Ur,
        which is rewritten as a (x) dA + da (x) B with da = a - b and
        dA = A - B. Its square weighted by D then takes three matrix
        products:

            ((a*a) D) (dA*dA)' + 2 ((a*da) D) (dA*B)' + ((da*da) D) (B*B)'

        Expanding a (x) A - b (x) B itself would cancel badly where rho is
        close to zero: at a design point on the grid both products are
        O(1) and agree to O(jitter). In the factored form da and dA are
        both O(jitter) there, so every term is already small and nothing
        of size O(1) cancels.
        """
        a = Gr_new @ self.Ur
        da = a - U @ self.Ur
        dA = A - B
        return (((a * a) @ self.D) @ (dA * dA).T
                + 2.0 * (((a * da) @ self.D) @ (dA * B).T)
                + ((da * da) @ self.D) @ (B * B).T)


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


class PredictiveSeries:
    """Per-time Student-t predictive marginals at one input point."""

    def __init__(self, times, location, scale, dof, extrapolation=False,
                 clamped=0, min_unit_variance=0.0):
        self.times = np.asarray(times, dtype=float).ravel()
        self.location = np.asarray(location, dtype=float).ravel()
        self.scale = np.asarray(scale, dtype=float).ravel()
        self.dof = float(dof)
        self.extrapolation = bool(extrapolation)
        #: number of variance entries clipped up to zero (float cancellation)
        self.clamped = int(clamped)
        #: smallest pre-clamp unit variance; barely-negative values are
        #: cancellation noise, anything grossly negative is a bug signal
        self.min_unit_variance = float(min_unit_variance)


class PredictiveBatch:
    """Student-t predictive marginals at m input points over shared times.

    ``location`` and ``scale`` are m x q arrays; ``extrapolation``,
    ``clamped`` and ``min_unit_variance`` hold one entry per input row
    (see :class:`PredictiveSeries` for their meaning).
    """

    def __init__(self, times, location, scale, dof, extrapolation, clamped,
                 min_unit_variance):
        self.times = times
        self.location = location
        self.scale = scale
        self.dof = float(dof)
        self.extrapolation = extrapolation
        self.clamped = clamped
        self.min_unit_variance = min_unit_variance

    def series(self, i: int) -> PredictiveSeries:
        """The predictive marginals of row ``i``."""
        return PredictiveSeries(self.times, self.location[i], self.scale[i], self.dof,
                                self.extrapolation[i], self.clamped[i],
                                self.min_unit_variance[i])


def credible_interval(series, level: float = 0.95):
    """Symmetric Student-t interval per time point: (lower, upper) arrays.

    Takes a :class:`PredictiveSeries` or a :class:`PredictiveBatch` (then
    the arrays are m x q); the t quantile is computed once per call.
    """
    from scipy.special import stdtrit

    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly between 0 and 1, got {level}")
    half = stdtrit(series.dof, 0.5 * (1.0 + level)) * series.scale
    return series.location - half, series.location + half


class OpeModel:
    """A fitted emulator: posterior state plus the shared solver factors.

    The posterior coefficient scale matrix is not stored: :attr:`coeff_cov`
    rebuilds it from the factors on first access. :meth:`predict` and
    :meth:`predict_many` are pure apart from caching the time-side factors
    of the training grid (``_grid_cache``, ``None`` until the first
    training-grid prediction).
    """

    def __init__(
        self,
        input_basis: InputBasis,
        output_basis: OutputBasis,
        kernel: KernelSpec,
        prior: NigPrior,
        jitter: float,
        design: Design,
        time_grid: np.ndarray,
        coeff_mean: np.ndarray,
        dof: float,
        scale: float,
        residual_weights: np.ndarray,
        training_fingerprint: str,
        core: _KronEigen | None = None,
    ):
        self.input_basis = input_basis
        self.output_basis = output_basis
        self.kernel = kernel
        self.prior = prior
        self.jitter = float(jitter)
        self.design = design
        self.time_grid = np.asarray(time_grid, dtype=float).ravel()
        self.coeff_mean = np.asarray(coeff_mean, dtype=float).ravel()
        self.dof = float(dof)
        self.scale = float(scale)
        self.residual_weights = np.asarray(residual_weights, dtype=float)
        self.training_fingerprint = training_fingerprint
        self._core = core or _KronEigen.build(design, self.time_grid, input_basis,
                                              output_basis, kernel, jitter, prior.sigma2)
        self._grid_cache = None

    # -- derived shapes ------------------------------------------------

    @property
    def coeff_matrix(self) -> np.ndarray:
        """Posterior coefficient mean as a nu_r x nu_s matrix."""
        return self.coeff_mean.reshape(self.input_basis.size, self.output_basis.size)

    @cached_property
    def coeff_cov(self) -> np.ndarray:
        """Posterior coefficient scale matrix Vn (nu x nu), built on first use."""
        return self._core.dense_inverse()

    @property
    def tau_estimate(self) -> float:
        """Posterior point estimate of the common variance multiplier."""
        return self.scale / self.dof

    # -- prediction ----------------------------------------------------

    def _output_side(self, times):
        """Precompute everything that depends only on the prediction times.

        Returns (Gs_new, Ks_cross, explained_out, A, B) where A = Gs_new Us
        and B = Ks_cross K_output^-1 G_output Us are the time halves of the
        regression-uncertainty term.
        """
        from scipy.linalg import cho_solve

        t = np.asarray(times, dtype=float).ravel()
        core = self._core
        Gs_new = self.output_basis.evaluate_many(t)
        Ks_cross = output_correlation_matrix(t, self.time_grid, self.kernel)
        Ks_solve = cho_solve(core.km.output_chol, Ks_cross.T, check_finite=False)
        explained_out = np.einsum("ji,ij->j", Ks_cross, Ks_solve)
        A, B = Gs_new @ core.Us, Ks_solve.T @ (core.Gs @ core.Us)
        return Gs_new, Ks_cross, explained_out, A, B

    def _grid_side(self):
        if self._grid_cache is None:
            self._grid_cache = self._output_side(self.time_grid)
        return self._grid_cache

    def predict(self, r, times=None) -> PredictiveSeries:
        """Student-t predictive marginals at input ``r`` over ``times``.

        The one-row case of :meth:`predict_many`.
        """
        r = np.asarray(r, dtype=float).ravel()
        return self.predict_many(r[None, :], times).series(0)

    def predict_many(self, R, times=None) -> PredictiveBatch:
        """Student-t predictive marginals at each row of ``R`` over ``times``.

        ``R`` is an m x k array of input points. ``times=None`` predicts on
        the training grid, whose time-side factors are computed once and
        cached. Rows outside the design box, or every row when ``times``
        reach beyond the training grid, are flagged as extrapolation.
        """
        from scipy.linalg import cho_solve

        R = np.atleast_2d(np.asarray(R, dtype=float))
        if times is None:
            t = self.time_grid
            Gs_new, Ks_cross, explained_out, A, B = self._grid_side()
        else:
            t = np.asarray(times, dtype=float).ravel()
            Gs_new, Ks_cross, explained_out, A, B = self._output_side(t)

        core = self._core
        Gr_new = self.input_basis.evaluate_many(R)
        Kr_cross = input_correlation_matrix(R, self.design.points, self.kernel)
        kr_solve = cho_solve(core.km.input_chol, Kr_cross.T, check_finite=False)
        explained_in = np.einsum("in,ni->i", Kr_cross, kr_solve)

        # location: regression surface + kernel-weighted residual correction
        location = (Gr_new @ self.coeff_matrix) @ Gs_new.T
        location += (Kr_cross @ self.residual_weights) @ Ks_cross.T

        # regression-uncertainty term rho' Vn rho with
        # rho_ij = gr_i (x) gs_j - u_i (x) w_j
        var_reg = core.regression_variance(Gr_new, kr_solve.T @ core.Gr, A, B)

        unit_var = core.km.diag_at_zero - np.outer(explained_in, explained_out) + var_reg
        clamped = np.sum(unit_var < 0.0, axis=1)
        min_unit_var = unit_var.min(axis=1) if t.size else np.zeros(R.shape[0])
        scale = np.sqrt(self.tau_estimate * np.maximum(unit_var, 0.0))

        extrapolation = ~self.design.space.contains_rows(R)
        if t.size and (t.min() < self.time_grid[0] or t.max() > self.time_grid[-1]):
            extrapolation[:] = True
        return PredictiveBatch(t, location, scale, self.dof, extrapolation,
                               clamped, min_unit_var)


def fit(
    prior: NigPrior,
    input_basis: InputBasis,
    output_basis: OutputBasis,
    kernel: KernelSpec,
    train: TrainingSet,
    jitter: float = DEFAULT_JITTER,
) -> OpeModel:
    """Conjugate posterior update from a training set.

    All solves go through the per-factor Cholesky decompositions and the
    eigenbasis of the regression term; cost is O(n^3 + q^3) rather than
    O((nq)^3).
    """
    nu = input_basis.size * output_basis.size
    if prior.size != nu:
        raise ValueError(f"prior has {prior.size} coefficients, bases imply {nu}")
    if train.design.space.k != input_basis.space.k:
        raise ValueError("training design dimension does not match the input basis")

    core = _KronEigen.build(train.design, train.time_grid, input_basis, output_basis,
                           kernel, jitter, prior.sigma2)
    Gr, Gs, F = core.Gr, core.Gs, train.outputs

    # mn = Vn Q' K^-1 y, with Q' K^-1 y = vec(Gr' K^-1 F Gs)
    coeff = core.solve(Gr.T @ core.whiten(F) @ Gs)

    # scale update in residual form: guaranteed to stay positive
    R = F - Gr @ coeff @ Gs.T
    W = core.whiten(R)
    post_scale = float(prior.scale + np.sum(R * W) + np.sum(coeff * coeff) / prior.sigma2)
    post_dof = prior.dof + train.n * train.q

    return OpeModel(
        input_basis=input_basis,
        output_basis=output_basis,
        kernel=kernel,
        prior=prior,
        jitter=jitter,
        design=train.design,
        time_grid=train.time_grid,
        coeff_mean=coeff.ravel(),
        dof=post_dof,
        scale=post_scale,
        residual_weights=W,
        training_fingerprint=train.fingerprint(),
        core=core,
    )


# -- serialization -----------------------------------------------------


def save_model(model: OpeModel, path: str, meta: dict | None = None) -> None:
    """Write a fitted model as JSON (full float precision, row-major arrays).

    The posterior coefficient scale matrix is not written; loading rebuilds
    it from the kernel and the bases.
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
        "design": {"points": model.design.points.tolist(), "seed": model.design.seed},
        "time_grid": model.time_grid.tolist(),
        "residual_weights": model.residual_weights.tolist(),
        "training_fingerprint": model.training_fingerprint,
    }
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path: str) -> OpeModel:
    """Read a model written by :func:`save_model`; rebuilds solver factors.

    Raises :class:`DataError` naming the key when a required key is missing
    or an array's shape does not match the design, the time grid and the
    bases. A ``posterior.coeff_cov`` stored by older versions is ignored,
    and so is their ``prior.mean`` when it is all zero; a non-zero one is
    rejected, since the prior is zero-mean.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "ope-model":
        raise DataError(f"{path}: not a fitted-model file")
    prior_doc = doc.get("prior")
    if isinstance(prior_doc, dict) and "cov" in prior_doc and "sigma2" not in prior_doc:
        raise DataError(f"{path}: prior has a dense 'cov' and no 'sigma2'; "
                        "only isotropic priors (V = sigma2 * I) are supported")

    def get(key, shape=None):
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
            raise DataError(f"{key!r} is not a numeric array") from None
        if arr.ndim != len(shape) or any(
                s not in (None, n) for n, s in zip(arr.shape, shape)):
            want = "x".join("*" if s is None else str(s) for s in shape)
            raise DataError(f"{key!r} has shape {arr.shape}, expected {want}")
        return arr

    try:
        space = DesignSpace(bounds=[tuple(b) for b in get("space.bounds")],
                            names=tuple(get("space.names")))
        points = get("design.points", (None, space.k))
        grid = get("time_grid", (None,))
        design = Design(points=points, unit_points=space.to_unit(points), space=space,
                        seed=int(doc["design"].get("seed", 0)))
        input_basis = InputBasis(space)
        output_basis = OutputBasis(tuple(get("output_basis.frequencies")))
        nu = (input_basis.size * output_basis.size,)
        if isinstance(prior_doc, dict) and "mean" in prior_doc and np.any(
                get("prior.mean", nu)):
            raise DataError("'prior.mean' is non-zero; only zero-mean priors are supported")
        return OpeModel(
            input_basis=input_basis,
            output_basis=output_basis,
            kernel=KernelSpec(
                input_lengths=tuple(get("kernel.input_lengths", (space.k,))),
                output_length=get("kernel.output_length"),
                exponent=get("kernel.exponent"),
            ),
            prior=NigPrior(nu[0], get("prior.sigma2"), get("prior.dof"),
                           get("prior.scale")),
            jitter=get("jitter"),
            design=design,
            time_grid=grid,
            coeff_mean=get("posterior.coeff_mean", nu),
            dof=get("posterior.dof"),
            scale=get("posterior.scale"),
            residual_weights=get("residual_weights", (points.shape[0], grid.size)),
            training_fingerprint=doc.get("training_fingerprint", ""),
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
