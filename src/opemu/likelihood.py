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
results are deterministic given the seed. L-BFGS-B is scipy's compiled
reverse-communication routine ``setulb`` (Byrd, Lu, Nocedal & Zhu 1995;
Zhu, Byrd, Lu & Nocedal 1997), driven here as
``scipy.optimize.minimize`` drives it.

The starts are independent descents, so on Linux, with BLAS pinned to one
thread (as the CLI pins it) and no other thread running, they run in
forked worker processes, one per usable CPU, and the caller is worker 0
(DiceKriging's ``km`` runs its multistart descents in parallel for the
same reason; Roustant, Ginsbourger & Deville 2012). Each start takes the
same steps wherever it runs and the results are merged in start order, so
the winner, tau_hat, the per-start records and the trace do not depend on
the worker count, bit for bit. A worker sends back only the starts that
neither raised nor warned; the caller runs the others again, so their
exceptions and warnings arise in the caller as in one process.
"""

import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import InputBasis, OutputBasis, regressor_matrices
from .design import DesignSpace, lhd
from .emulator import NigPrior, TrainingSet, _KronEigen, _TimeFactor
from .errors import DataError, NumericalDegeneracyError, OptimizationFailure
from .kernels import DEFAULT_JITTER, KernelSpec, _compiled, chol_solve

_BARRIER = 1e25
_LBFGSB = "scipy.optimize._lbfgsb"
# the variables the CLI sets to pin BLAS to one thread; the search forks
# only under that pin, since two processes of multi-threaded BLAS
# oversubscribe the cores
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the signature of the C routine in scipy 1.17.1, the one version the
# direct loop is checked against; the Fortran routine of scipy < 1.15 takes
# other arguments, and 1.15 and 1.16 are unchecked
_SETULB = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


@dataclass
class MarginalLikelihoodState:
    """Result of a likelihood maximization at one kernel exponent; ``starts``
    holds one dict per start with its ``start`` index, final ``value``,
    ``iterations`` and whether it ``converged``."""

    input_lengths: tuple
    output_length: float
    exponent: float
    tau: float
    value: float
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
    """Moment-matched NIG hyperparameters, the result of :func:`estimate_hyperparams`."""

    sigma2: float
    dof: float
    scale: float

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

        # K^-1 vec(F) as an n x q matrix, K = Kr (x) Ks. `fit` solves the time
        # side first; this Kr-first order is kept because the fitted-length
        # UQ gate pins the likelihood's bits, until that gate checks results
        W0 = chol_solve(time.chol, chol_solve(core.chol, F).T).T
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
    restarts: int = 5,
    seed: int = 0,
    exponent: float = 1.5,
    jitter: float = DEFAULT_JITTER,
    collect_trace: bool = False,
) -> MarginalLikelihoodState:
    """Maximize the marginal likelihood over the correlation lengths.

    tau is profiled out at each evaluation, and the returned state's ``tau``
    is tau_hat at the optimum. Multi-start L-BFGS-B over the log-lengths in
    the box :func:`default_length_bounds`, from ``restarts`` starts drawn by a
    Latin Hypercube over the log box with the given seed. The best final
    value wins, ties broken by the lowest start index. Raises
    :class:`OptimizationFailure` if every start fails.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    space = train.design.space
    t_span = float(train.time_grid[-1] - train.time_grid[0]) or 1.0
    if not np.any(train.outputs):
        # y' M^-1 y = 0, so tau_hat = 0 and the likelihood has no maximum
        raise DataError("training outputs are all zero; no tau maximizes the likelihood")
    log_bounds = [(math.log(lo), math.log(hi))
                  for lo, hi in default_length_bounds(space, t_span)]

    ws = _Workspace(train, input_basis, output_basis, sigma2, exponent, jitter)

    def run_start(idx):
        """(x, f, iterations, converged, trace rows) of the descent from start ``idx``."""
        rows = []

        def objective(theta):
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
                rows.append(
                    (idx, len(rows) + 1, value, float(np.linalg.norm(grad_log)))
                    + tuple(lengths) + (tau,)
                )
            return -value, -grad_log

        return _lbfgsb(setulb, objective, starts[idx], log_bounds) + (rows,)

    # package rule: scipy is imported in the functions that call it, never
    # at module level, so `import opemu.cli` loads no scipy and `opemu
    # design` and `opemu simulate` never do. LAPACK (`_flapack`), this
    # search's `_lbfgsb` and, below dof 3000 and in `uq`, scipy.special's
    # `_ufuncs` are scipy's compiled modules, loaded by `kernels._compiled`,
    # so no default command loads a scipy package. The routine is chosen
    # before the first evaluation, so a trace never holds the rows of an
    # abandoned attempt, and the fallback's package is imported before any
    # worker forks, so the workers do not each import it
    setulb = _setulb()
    if setulb is None:
        import scipy.optimize  # noqa: F401
    starts = _starting_points(log_bounds, restarts, seed)
    outcomes = _run_starts(run_start, restarts)
    trace = [row for *_, rows in outcomes for row in rows]
    results = []
    diagnostics = []
    for idx, (x, f, nit, converged, _) in enumerate(outcomes):
        diagnostics.append(
            {
                "start": idx,
                "value": float(-f),
                "iterations": int(nit),
                "converged": bool(converged),
            }
        )
        if np.isfinite(f) and f < _BARRIER / 2:
            results.append((f, idx, x))
    if not results:
        raise OptimizationFailure(
            "all optimizer restarts failed to produce a finite likelihood"
        )
    _, _, best = min(results, key=lambda item: item[:2])
    lengths = np.exp(best)
    value, _, tau = ws.evaluate(lengths)
    return MarginalLikelihoodState(
        input_lengths=tuple(lengths[: space.k]),
        output_length=float(lengths[space.k]),
        exponent=exponent,
        tau=float(tau),
        value=float(value),
        trace=trace,
        starts=diagnostics,
    )


def _starting_points(log_bounds, restarts, seed):
    """``restarts`` starts from a seeded LHD over the log box (an LHD needs
    at least two points, so a single start is the first of two)."""
    sample = lhd(max(restarts, 2), DesignSpace(bounds=log_bounds), seed).points
    return list(sample[:restarts])


def _search_workers(restarts):
    """How many processes run a search's ``restarts`` starts: one per
    usable CPU, at most ``restarts``, where forking is known to be safe and
    to pay, and 1 elsewhere.

    That is on Linux, the one platform measured, with BLAS pinned to one
    thread by the variables the CLI sets, and with no other Python thread
    alive: a fork copies only the calling thread, so a lock another thread
    holds would never be released in the child.
    """
    if (sys.platform != "linux" or restarts < 2 or threading.active_count() != 1
            or any(os.environ.get(var) != "1" for var in _BLAS_THREAD_VARS)):
        return 1
    return min(len(os.sched_getaffinity(0)), restarts)


def _run_starts(run, count):
    """``[run(i) for i in range(count)]``, the starts dealt round-robin to
    :func:`_search_workers` processes, the caller running worker 0's.

    The caller runs its own share first, stopping at its first exception,
    then reads and reaps every forked worker (:func:`_fork`), taking a
    worker's clean outcomes only if it exited with status 0. In start
    order, a start with an outcome takes it, the caller's failed start
    raises its exception, and any other start runs again here: one that
    raised or warned in a worker, or whose worker was not forked or sent
    nothing. A start takes the same steps wherever it runs, so this raises
    and warns as the serial loop does, with the traceback and through the
    filters of this process. No worker outlives the call.
    """
    workers = _search_workers(count)
    outcomes, failed, sent, children = {}, {}, {}, []
    try:
        for w in range(1, workers):
            try:
                children.append(_fork(run, range(w, count, workers)))
            except OSError:  # no process to spare: this share runs again below
                pass
        for i in range(0, count, workers):
            try:
                outcomes[i] = run(i)
            except Exception as exc:
                failed[i] = exc
                break
        for pid, reader in children:
            with reader:
                sent[pid] = reader.read()
    finally:
        for pid, reader in children:
            if not reader.closed:  # abandoned: stop it
                import signal  # here only: `import opemu.cli` does not load it

                reader.close()
                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1] != 0:  # died, or sent nothing whole
                sent.pop(pid, None)
    for data in sent.values():
        outcomes.update(pickle.loads(data))
    result = []
    for i in range(count):
        if i in failed:
            raise failed[i]
        result.append(outcomes[i] if i in outcomes else run(i))
    return result


def _fork(run, indices):
    """(pid, reader): a forked child that sends ``{i: run(i)}`` down a pipe,
    pickled, for each start ``i`` of ``indices`` that neither raised an
    ``Exception`` nor warned (under the "always" filter), and leaves
    through ``os._exit`` whatever happens; and the read end of that pipe.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            clean = {}
            for i in indices:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        outcome = run(i)
                    except Exception:
                        continue
                if not caught:
                    clean[i] = outcome
            data = pickle.dumps(clean)  # all or nothing reaches the pipe
            with open(write_fd, "wb") as writer:
                writer.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _setulb():
    """scipy's compiled L-BFGS-B routine ``setulb``, or ``None`` where it
    cannot be driven directly.

    It is in ``scipy.optimize._lbfgsb`` from
    :func:`~opemu.kernels._compiled`, so the search pays for neither the
    ``scipy.optimize`` package import nor the scipy.linalg and
    scipy.special packages it brings: ~0.3 s and ~40 MB of a fresh
    ``opemu fit``. ``None`` where that gives no module, or where its
    ``setulb`` does not document the signature of scipy 1.17.1's: then
    ``scipy.optimize.minimize`` serves.
    """
    setulb = getattr(_compiled(_LBFGSB), "setulb", None)
    doc = getattr(setulb, "__doc__", None) or ""
    return setulb if doc.split("\n", 1)[0] == _SETULB else None


def _lbfgsb(setulb, fun, x0, bounds, maxiter=200, ftol=1e-12, gtol=1e-8):
    """Minimize ``fun`` (returning value and gradient) from ``x0`` in the box
    ``bounds`` with L-BFGS-B: (x, f, iterations, converged).

    With ``setulb`` (see :func:`_setulb`) this is the loop of scipy 1.17's
    ``minimize(method="L-BFGS-B", jac=True)``, so it takes the same steps
    bit for bit: m = 10 stored corrections, at most 20 line-search steps,
    factr = ftol / eps and both bounds set on every variable. ``setulb``
    asks through ``task[0]``: 3 to evaluate at x, 1 at each new iteration
    (the search then stops at ``maxiter`` with task (5, 504)); any other
    value ends the search, which converged iff it is 4. As with scipy's
    ``ScalarFunction``, ``fun`` runs once at x0 before the loop and again
    only when x changes. scipy's stop at 15000 evaluations is left out:
    200 iterations of at most two 20-step line searches stay below it.
    With ``setulb`` None, ``scipy.optimize.minimize`` runs the search.
    """
    if setulb is None:
        from scipy.optimize import minimize

        res = minimize(fun, x0, method="L-BFGS-B", jac=True, bounds=bounds,
                       options={"maxiter": maxiter, "ftol": ftol, "gtol": gtol})
        return res.x, res.fun, res.nit, res.success
    m, maxls = 10, 20
    lower, upper = np.array(bounds, dtype=float).T.copy()
    x = np.clip(x0, lower, upper)
    n = x.size
    x_eval = x.copy()
    f_eval, g_eval = fun(x.copy())
    f, g = 0.0, np.zeros(n)
    nbd = np.full(n, 2, dtype=np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    iterations = 0
    while True:
        setulb(m, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa, task,
               lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:
            if not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f_eval, g_eval = fun(x.copy())
            # scipy hands setulb a copy of its cached gradient
            f, g = f_eval, g_eval.copy()
        elif task[0] == 1:
            iterations += 1
            if iterations >= maxiter:
                task[:] = 5, 504
        else:
            return x, f, iterations, task[0] == 4


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
    )
