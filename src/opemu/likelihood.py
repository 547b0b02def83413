"""Marginal likelihood of the correlation lengths, and prior hyperparameters.

The stacked training vector y = vec(F) is marginally Gaussian,

    y ~ Normal(0, C),    C = tau * (K + sigma2 * Q Q'),

with K the Kronecker-structured residual correlation and Q the outer-product
regressor matrix. The log marginal likelihood

    L = -1/2 y' C^-1 y - 1/2 log|C| - (nq/2) log(2 pi)

and its analytic gradient over (input lengths..., output length, tau) are
evaluated through the per-factor Cholesky decompositions plus the
matrix-inversion and determinant lemmas for the rank-nu regression term;
the nq x nq matrix is never formed.

tau is profiled out of the search (the concentrated likelihood of Santner,
Williams & Notz 2003). Given the lengths, L is maximized in tau by
tau_hat = y' M^-1 y / (nq), with M = C / tau, and dL/dtau = 0 there, so
the profiled gradient is the length part of the partial gradient at
tau_hat. The ML tau_hat only conditions the length search: it is reported
but not used by the conjugate update.

Correlation lengths are estimated by multi-start quasi-Newton ascent
(L-BFGS-B on the negative profiled likelihood) over the k+1 log-lengths,
which both enforces positivity and makes the box bounds scale-free.
Starting points come from a seeded Latin Hypercube over the log bounds, so
results are deterministic given the seed.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import InputBasis, OutputBasis, regressor_matrices
from .design import DesignSpace, lhd
from .emulator import NigPrior, TrainingSet, _KronEigen, _TimeFactor
from .errors import DataError, NumericalDegeneracyError, OptimizationFailure
from .kernels import DEFAULT_JITTER, KernelSpec, chol_solve

_BARRIER = 1e25


@dataclass
class MarginalLikelihoodState:
    """Result of a likelihood maximization at one kernel exponent."""

    input_lengths: tuple
    output_length: float
    exponent: float
    tau: float
    value: float
    gradient: np.ndarray
    trace: list = field(default_factory=list)
    starts: list = field(default_factory=list)

    def kernel_spec(self, exponent: float | None = None) -> KernelSpec:
        """The kernel at these lengths and the exponent they were searched with.

        An ``exponent`` other than that one raises ``ValueError``: the
        lengths are optimal for their own exponent only.
        """
        if exponent is not None and exponent != self.exponent:
            raise ValueError(f"the lengths were searched with exponent {self.exponent}, "
                             f"not {exponent}")
        return KernelSpec(self.input_lengths, self.output_length, self.exponent)


@dataclass
class HyperparamEstimate:
    """Moment-matched NIG hyperparameters (or user-supplied overrides)."""

    sigma2: float
    dof: float
    scale: float
    provenance: str = "estimated"

    def to_prior(self) -> NigPrior:
        return NigPrior(self.sigma2, self.dof, self.scale)


class _Workspace:
    """Caches everything that does not depend on the correlation lengths.

    The outputs, design, grid and sizes are read from ``train`` and the
    factors where they are used.
    """

    def __init__(self, train, input_basis, output_basis, sigma2, exponent, jitter):
        self.train = train
        self.output_basis = output_basis
        self.Gr, self.Gs = regressor_matrices(train.design, train.time_grid,
                                              input_basis, output_basis)
        self.sigma2 = float(sigma2)
        self.exponent = float(exponent)
        self.jitter = float(jitter)

    @cached_property
    def gaps_p(self):
        """|gap|^p per input, then for time: the kernel derivatives' factors.

        Computed on the first gradient evaluation, so value-only callers
        never pay for them.
        """
        pts, grid = self.train.design.points, self.train.time_grid
        out = [np.abs(pts[:, j, None] - pts[None, :, j]) ** self.exponent
               for j in range(pts.shape[1])]
        out.append(np.abs(grid[:, None] - grid[None, :]) ** self.exponent)
        return out

    def evaluate(self, lengths, tau=None, want_grad=False):
        """(value, gradient or None, tau) at the given lengths.

        With ``tau`` None it is profiled out: tau_hat = quad_M / (nq).
        """
        lengths = np.asarray(lengths, dtype=float)
        p = self.exponent
        F = self.train.outputs
        n, q = F.shape

        spec = KernelSpec(tuple(lengths[:-1]), lengths[-1], p)
        time = _TimeFactor(self.train.time_grid, self.output_basis, spec, self.jitter, self.Gs)
        core = _KronEigen(self.train.design, self.Gr, time, self.sigma2)

        W0 = core.whiten(F)
        b = self.Gr.T @ W0 @ self.Gs
        Z = core.solve(b)
        quad_K = float(np.sum(F * W0))
        quad_M = quad_K - float(np.sum(b * Z))
        tau = quad_M / (n * q) if tau is None else float(tau)

        ld_r = 2.0 * np.sum(np.log(np.diag(core.chol[0])))
        ld_s = 2.0 * np.sum(np.log(np.diag(time.chol[0])))
        ld_M = q * ld_r + n * ld_s + core.D.size * math.log(self.sigma2) + core.logdet

        value = (
            -0.5 * quad_M / tau
            - 0.5 * (n * q * math.log(tau) + ld_M)
            - 0.5 * n * q * math.log(2.0 * math.pi)
        )
        if not want_grad:
            return value, None, tau

        # beta = M^-1 y reshaped to n x q
        B = W0 - core.KrGr @ Z @ time.KsGs.T
        Kr, Ks = core.Kr, time.Ks
        Kr_inv = chol_solve(core.chol, np.eye(n))
        Ks_inv = chol_solve(time.chol, np.eye(q))
        # tr(S^-1 (X (x) Y)) = diag(Ur' X Ur) D diag(Us' Y Us). dK is taken
        # from the jittered factors: the gaps, and so dK, vanish on the diagonal
        KrGrU, KsGsU = core.KrGr @ core.Ur, time.KsGs @ time.Us
        regr_s, regr_r = core.D @ time.ls, core.lr @ core.D

        gaps_p = self.gaps_p
        grad = np.empty(lengths.size + 1)
        for j in range(lengths.size - 1):
            dKr = Kr * (p * gaps_p[j] / lengths[j] ** (p + 1))
            term1 = float(np.sum(B * (dKr @ B @ Ks))) / (2.0 * tau)
            x = np.sum(KrGrU * (dKr @ KrGrU), axis=0)
            trace = q * float(np.sum(Kr_inv * dKr)) - float(x @ regr_s)
            grad[j] = term1 - 0.5 * trace
        dKs = Ks * (p * gaps_p[-1] / lengths[-1] ** (p + 1))
        term1 = float(np.sum(B * (Kr @ B @ dKs))) / (2.0 * tau)
        y = np.sum(KsGsU * (dKs @ KsGsU), axis=0)
        trace = n * float(np.sum(Ks_inv * dKs)) - float(regr_r @ y)
        grad[-2] = term1 - 0.5 * trace
        grad[-1] = 0.5 * quad_M / tau**2 - 0.5 * n * q / tau
        return value, grad, tau


def log_marginal_likelihood(
    train: TrainingSet,
    input_basis: InputBasis,
    output_basis: OutputBasis,
    lengths,
    tau: float,
    sigma2: float,
    exponent: float = 1.5,
    jitter: float = DEFAULT_JITTER,
) -> float:
    """Log marginal likelihood at correlation lengths (inputs..., time).

    ``lengths`` has k+1 entries: one per input dimension plus the output
    (time) length.
    """
    _check_positive(tau, sigma2)
    ws = _Workspace(train, input_basis, output_basis, sigma2, exponent, jitter)
    value, _, _ = ws.evaluate(lengths, tau)
    return value


def log_marginal_likelihood_gradient(
    train: TrainingSet,
    input_basis: InputBasis,
    output_basis: OutputBasis,
    lengths,
    tau: float,
    sigma2: float,
    exponent: float = 1.5,
    jitter: float = DEFAULT_JITTER,
) -> np.ndarray:
    """Analytic gradient over (input lengths..., output length, tau)."""
    _check_positive(tau, sigma2)
    ws = _Workspace(train, input_basis, output_basis, sigma2, exponent, jitter)
    _, grad, _ = ws.evaluate(lengths, tau, want_grad=True)
    return grad


def _check_positive(tau, sigma2):
    # the lengths are checked by KernelSpec, which also rejects NaN
    if tau <= 0 or sigma2 <= 0:
        raise ValueError("tau and sigma2 must be strictly positive")


def default_length_bounds(space: DesignSpace, t_span: float) -> list:
    """Per-parameter search box: [1e-2, 1e2] times the dimension's width."""
    bounds = [(1e-2 * w, 1e2 * w) for w in space.widths]
    bounds.append((1e-2 * t_span, 1e2 * t_span))
    return bounds


def optimize_correlation_lengths(
    train: TrainingSet,
    input_basis: InputBasis,
    output_basis: OutputBasis,
    sigma2: float,
    init=None,
    bounds=None,
    restarts: int = 5,
    seed: int = 0,
    exponent: float = 1.5,
    jitter: float = DEFAULT_JITTER,
    collect_trace: bool = False,
) -> MarginalLikelihoodState:
    """Maximize the marginal likelihood over the correlation lengths.

    tau is profiled out at each evaluation, and the returned state's ``tau``
    is tau_hat at the optimum. Multi-start L-BFGS-B over the log-lengths. If
    ``init`` is given (k+1 lengths, inputs then time) it seeds the first
    start; the rest come from a Latin Hypercube over the log bounds with the
    given seed. The best final value wins, ties broken by the lowest start
    index. Raises :class:`OptimizationFailure` if every start fails.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    space = train.design.space
    t_span = float(train.time_grid[-1] - train.time_grid[0]) or 1.0
    if bounds is None:
        bounds = default_length_bounds(space, t_span)
    if len(bounds) != space.k + 1:
        raise ValueError(f"need {space.k + 1} length bounds, got {len(bounds)}")
    if not np.any(train.outputs):
        # y' M^-1 y = 0, so tau_hat = 0 and the likelihood has no maximum
        raise DataError("training outputs are all zero; no tau maximizes the likelihood")
    log_bounds = [(math.log(lo), math.log(hi)) for lo, hi in bounds]

    ws = _Workspace(train, input_basis, output_basis, sigma2, exponent, jitter)
    trace: list = []

    def objective(theta, start_idx, counter):
        lengths = np.exp(theta)
        try:
            value, grad, tau = ws.evaluate(lengths, want_grad=True)
        except NumericalDegeneracyError:
            return _BARRIER, np.zeros_like(theta)
        if not np.isfinite(value):
            return _BARRIER, np.zeros_like(theta)
        # chain rule: d/d log(l) = l * d/dl; the tau entry is 0 at tau_hat
        grad_log = lengths * grad[:-1]
        if collect_trace:
            counter[0] += 1
            trace.append(
                (start_idx, counter[0], value, float(np.linalg.norm(grad_log)))
                + tuple(lengths) + (tau,)
            )
        return -value, -grad_log

    # package rule: scipy is imported in the functions that call it, never
    # at module level, so `import opemu.cli` loads no scipy and `opemu
    # design` and `opemu simulate` never do. Cholesky factors and solves
    # call LAPACK through `kernels._factor` and `kernels.chol_solve`, which
    # import scipy.linalg.lapack when called. scipy.optimize alone adds
    # ~0.1 s on top of scipy.linalg, and only the length search needs it
    from scipy.optimize import minimize

    starts = _starting_points(log_bounds, restarts, seed, init)
    results = []
    diagnostics = []
    for idx, theta0 in enumerate(starts):
        counter = [0]
        res = minimize(
            objective,
            theta0,
            args=(idx, counter),
            method="L-BFGS-B",
            jac=True,
            bounds=log_bounds,
            options={"maxiter": 200, "ftol": 1e-12, "gtol": 1e-8},
        )
        diagnostics.append(
            {
                "start": idx,
                "x0": np.exp(theta0).tolist(),
                "value": float(-res.fun),
                "iterations": int(res.nit),
                "converged": bool(res.success),
                "message": str(res.message),
            }
        )
        if np.isfinite(res.fun) and res.fun < _BARRIER / 2:
            results.append((idx, res))
    if not results:
        raise OptimizationFailure(
            "all optimizer restarts failed to produce a finite likelihood",
            diagnostics,
        )
    best_idx, best = min(results, key=lambda item: (item[1].fun, item[0]))
    lengths = np.exp(best.x)
    value, grad, tau = ws.evaluate(lengths, want_grad=True)
    return MarginalLikelihoodState(
        input_lengths=tuple(lengths[: space.k]),
        output_length=float(lengths[space.k]),
        exponent=exponent,
        tau=float(tau),
        value=float(value),
        gradient=grad,
        trace=trace,
        starts=diagnostics,
    )


def _starting_points(log_bounds, restarts, seed, init):
    """First start from ``init`` when given; the rest from a seeded LHD."""
    starts = []
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.size != len(log_bounds):
            raise ValueError(f"init needs {len(log_bounds)} entries, got {init.size}")
        for i, v in enumerate(init.ravel()):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"init[{i}] must be a finite length > 0, got {v}")
        starts.append(np.log(init))
    needed = restarts - len(starts)
    if needed > 0:
        space = DesignSpace(bounds=log_bounds)
        sample = lhd(max(needed, 2), space, seed).points[:needed]
        starts.extend(np.asarray(row) for row in sample)
    return starts


def estimate_hyperparams(
    train: TrainingSet,
    input_basis: InputBasis,
    output_basis: OutputBasis,
    dof: float = 3.0,
    split: float = 0.5,
) -> HyperparamEstimate:
    """Moment-match the NIG hyperparameters to the pooled training output.

    The pooled variance of all training outputs is apportioned between the
    regression term (fraction ``split``) and the residual process: with
    g2 the mean squared norm of the regressor rows,

        sigma2 = split * var * (dof - 2) / (dof * g2)
        scale  = (1 - split) * var * (dof - 2)

    so the implied prior predictive variance is of the order of the pooled
    variance (requires dof > 2). Values are overridable in the run config;
    the estimate is a starting point, not an inference.
    """
    if dof <= 2.0:
        raise ValueError(
            f"moment matching needs dof > 2 (prior variance undefined), got {dof}"
        )
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie strictly between 0 and 1, got {split}")
    pooled_var = float(np.var(train.outputs))
    if pooled_var <= 0.0:
        raise DataError("training outputs are constant; cannot match moments")
    Gr, Gs = regressor_matrices(train.design, train.time_grid, input_basis, output_basis)
    g2 = float(np.mean(np.sum(Gr**2, axis=1)) * np.mean(np.sum(Gs**2, axis=1)))
    sigma2 = split * pooled_var * (dof - 2.0) / (dof * g2)
    scale = (1.0 - split) * pooled_var * (dof - 2.0)
    return HyperparamEstimate(
        sigma2=sigma2,
        dof=float(dof),
        scale=scale,
        provenance="estimated",
    )
