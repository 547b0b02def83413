import importlib.machinery
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

import opemu
import reference
from opemu import (
    InputBasis,
    KernelSpec,
    NigPrior,
    OutputBasis,
    TrainingSet,
    estimate_hyperparams,
    fit,
    lhd,
    log_marginal_likelihood,
    log_marginal_likelihood_gradient,
    optimize_correlation_lengths,
    toy_training_set,
)
from opemu.design import DesignSpace
from opemu.errors import DataError, NumericalDegeneracyError
from opemu import likelihood
from opemu.likelihood import _starting_points, _Workspace, default_length_bounds


def random_instance(n=3, q=4, seed=0):
    space = DesignSpace(bounds=[(-3, 1), (1, 2), (0.5, 3)])
    design = lhd(n, space, seed)
    grid = np.linspace(0.0, 2.5, q)
    rng = np.random.default_rng(seed + 50)
    F = rng.normal(size=(n, q))
    train = TrainingSet(design, grid, F)
    return train, InputBasis(space), OutputBasis((0.25, 0.5))


def dense_K_Q_and_derivs(train, ob, kern, jitter):
    pts, grid = train.design.points, train.time_grid
    K, Q = reference.dense_matrices(
        pts, grid, train.design.space.bounds, ob.frequencies,
        kern.input_lengths, kern.output_length, kern.exponent, jitter,
    )
    # dK/d(length) = d(Kr)/dl kron Ks (and Kr kron dKs/dl for time)
    n, q = len(pts), len(grid)
    p = kern.exponent
    Kr = np.empty((n, n))
    for i in range(n):
        for a in range(n):
            Kr[i, a] = math.exp(-sum(
                (abs(pts[i][dd] - pts[a][dd]) / kern.input_lengths[dd]) ** p
                for dd in range(len(kern.input_lengths))
            ))
    Ks = np.empty((q, q))
    for j in range(q):
        for b in range(q):
            Ks[j, b] = math.exp(-((abs(grid[j] - grid[b]) / kern.output_length) ** p))
    Kr_j = Kr + jitter * np.eye(n)
    Ks_j = Ks + jitter * np.eye(q)
    dK_list = []
    for dd, lam in enumerate(kern.input_lengths):
        gaps = np.abs(pts[:, dd, None] - pts[None, :, dd])
        dKr = Kr * (p * gaps ** p / lam ** (p + 1))
        dK_list.append(np.kron(dKr, Ks_j))
    gaps = np.abs(grid[:, None] - grid[None, :])
    dKs = Ks * (p * gaps ** p / kern.output_length ** (p + 1))
    dK_list.append(np.kron(Kr_j, dKs))
    return K, Q, dK_list


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_value_matches_dense(self, seed):
        train, ib, ob = random_instance(seed=seed)
        kern = KernelSpec((1.2, 0.6, 0.9), 1.1)
        jitter, tau, sigma2 = 1e-8, 0.12, 0.3
        K, Q = reference.dense_matrices(
            train.design.points, train.time_grid, train.design.space.bounds,
            ob.frequencies, kern.input_lengths, kern.output_length,
            kern.exponent, jitter,
        )
        dense = reference.dense_log_marginal_likelihood(train.outputs, K, Q, tau, sigma2)
        structured = log_marginal_likelihood(
            train, ib, ob, kern.lengths, tau, sigma2, jitter=jitter
        )
        assert abs(structured - dense) / abs(dense) < 1e-8

    def test_gradient_matches_dense_path(self):
        train, ib, ob = random_instance(seed=4)
        kern = KernelSpec((1.2, 0.6, 0.9), 1.1)
        jitter, tau, sigma2 = 1e-8, 0.12, 0.3
        K, Q, dKs = dense_K_Q_and_derivs(train, ob, kern, jitter)
        dense = reference.dense_likelihood_gradient(
            train.outputs, K, Q, dKs, tau, sigma2
        )
        structured = log_marginal_likelihood_gradient(
            train, ib, ob, kern.lengths, tau, sigma2, jitter=jitter
        )
        assert np.abs(structured - dense).max() / np.abs(dense).max() < 1e-8

    def test_zero_data_reduces_to_logdet(self):
        train, ib, ob = random_instance(seed=1)
        train = TrainingSet(train.design, train.time_grid,
                            np.zeros_like(train.outputs))
        kern = KernelSpec((1.0, 0.5, 0.8), 1.0)
        tau, sigma2, jitter = 0.2, 0.3, 1e-8
        value = log_marginal_likelihood(train, ib, ob, kern.lengths, tau, sigma2,
                                        jitter=jitter)
        K, Q = reference.dense_matrices(
            train.design.points, train.time_grid, train.design.space.bounds,
            ob.frequencies, kern.input_lengths, kern.output_length,
            kern.exponent, jitter,
        )
        C = tau * (K + sigma2 * Q @ Q.T)
        _, logdet = np.linalg.slogdet(C)
        nq = train.n * train.q
        assert abs(value - (-0.5 * logdet - 0.5 * nq * math.log(2 * math.pi))) < 1e-9

    def test_diverges_as_tau_vanishes(self):
        train, ib, ob = random_instance(seed=2)
        lengths = (1.0, 0.5, 0.8, 1.0)
        values = [
            log_marginal_likelihood(train, ib, ob, lengths, tau, 0.3)
            for tau in (1e-1, 1e-3, 1e-5, 1e-7)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


    @pytest.mark.parametrize("lengths,tau,sigma2,message", [
        ((0.0, 0.5, 0.8, 1.0), 0.1, 0.3, "lengths"),
        ((1.0, -0.5, 0.8, 1.0), 0.1, 0.3, "lengths"),
        ((1.0, 0.5, 0.8, math.nan), 0.1, 0.3, "lengths"),
        ((1.0, 0.5, 0.8, 1.0), 0.0, 0.3, "tau and sigma2"),
        ((1.0, 0.5, 0.8, 1.0), -0.1, 0.3, "tau and sigma2"),
        ((1.0, 0.5, 0.8, 1.0), 0.1, 0.0, "tau and sigma2"),
        ((1.0, 0.5, 0.8, 1.0), 0.1, -0.3, "tau and sigma2"),
    ])
    @pytest.mark.parametrize("func", [log_marginal_likelihood,
                                      log_marginal_likelihood_gradient])
    def test_rejects_non_positive_parameters(self, func, lengths, tau, sigma2, message):
        train, ib, ob = random_instance(seed=0)
        with pytest.raises(ValueError, match=f"{message} must be strictly positive"):
            func(train, ib, ob, lengths, tau, sigma2)


class TestGradientFiniteDifferences:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 5))
        q = int(rng.integers(3, 6))
        train, ib, ob = random_instance(n=n, q=q, seed=seed)
        theta = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=5))
        sigma2 = float(np.exp(rng.uniform(np.log(0.05), np.log(0.5))))

        analytic = log_marginal_likelihood_gradient(
            train, ib, ob, theta[:4], theta[4], sigma2
        )
        fd = np.empty(5)
        for i in range(5):
            h = 1e-5 * theta[i]
            hi, lo = theta.copy(), theta.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (
                log_marginal_likelihood(train, ib, ob, hi[:4], hi[4], sigma2)
                - log_marginal_likelihood(train, ib, ob, lo[:4], lo[4], sigma2)
            ) / (2 * h)
        # components near a zero crossing sit at the FD cancellation noise
        # floor, so tiny entries are compared at a floor tied to the
        # gradient's overall magnitude
        floor = 1e-3 * (1.0 + np.abs(fd).max())
        rel = np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.full(5, floor)]
        )
        assert rel.max() < 1e-5


def synthetic_from_kernel(n, q, lengths, tau, sigma2, seed, space=None):
    """Draw y = Q beta + eps exactly from the model at known lengths."""
    space = space or DesignSpace(bounds=[(0.0, 1.0)] * 3)
    design = lhd(n, space, seed)
    grid = np.linspace(0.0, float(q - 1) * 0.5, q)
    ib, ob = InputBasis(space), OutputBasis((0.25, 0.5))
    kern = KernelSpec(tuple(lengths[:-1]), lengths[-1])
    rng = np.random.default_rng(seed + 1000)
    from opemu.kernels import input_correlation_matrix, output_correlation_matrix

    Kr = input_correlation_matrix(design.points, design.points, kern)
    Ks = output_correlation_matrix(grid, grid, kern)
    Lr = np.linalg.cholesky(Kr + 1e-10 * np.eye(n))
    Ls = np.linalg.cholesky(Ks + 1e-10 * np.eye(q))
    eps = Lr @ rng.standard_normal((n, q)) @ Ls.T * math.sqrt(tau)
    Gr, Gs = ib.evaluate_many(design.points), ob.evaluate_many(grid)
    beta = rng.standard_normal(Gr.shape[1] * Gs.shape[1]) * math.sqrt(tau * sigma2)
    mean = Gr @ beta.reshape(Gr.shape[1], Gs.shape[1]) @ Gs.T
    train = TrainingSet(design, grid, mean + eps)
    return train, ib, ob


def length_box(train):
    """The optimizer's search box: default_length_bounds over the design and grid."""
    t_span = float(train.time_grid[-1] - train.time_grid[0])
    return default_length_bounds(train.design.space, t_span)


def first_start(train, seed):
    """The optimizer's first start: the first row of its seeded LHD over the log box."""
    log_box = [(math.log(lo), math.log(hi)) for lo, hi in length_box(train)]
    return np.exp(_starting_points(log_box, 1, seed)[0])


class TestOptimizer:
    def test_ascends_from_given_start(self):
        # the start is the first row of the seeded LHD; the trace's first
        # evaluation is there, at tau_hat
        train, ib, ob = synthetic_from_kernel(
            8, 10, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=3
        )
        start = first_start(train, seed=0)
        state = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=1, seed=0,
                                             collect_trace=True)
        first = state.trace[0]
        np.testing.assert_allclose(first[4:8], start, rtol=1e-15)
        initial = log_marginal_likelihood(train, ib, ob, start, first[8], 0.1)
        assert state.value >= initial

    def test_deterministic(self):
        train, ib, ob = synthetic_from_kernel(
            6, 8, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=9
        )
        s1 = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=3, seed=5)
        s2 = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=3, seed=5)
        assert s1.input_lengths == s2.input_lengths
        assert s1.output_length == s2.output_length
        assert s1.tau == s2.tau

    def test_recovers_known_lengths(self):
        truth = np.array([0.5, 0.5, 0.5, 1.2])
        train, ib, ob = synthetic_from_kernel(
            10, 20, truth, tau=1.0, sigma2=0.1, seed=12
        )
        state = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=5, seed=0)
        value_truth = log_marginal_likelihood(train, ib, ob, truth, state.tau, 0.1)
        assert state.value >= value_truth - 1e-6
        recovered = np.array(state.input_lengths + (state.output_length,))
        # the time length is well identified at q=20; input lengths are
        # checked loosely here (the acceptance suite runs the full protocol)
        assert 0.5 <= recovered[-1] / truth[-1] <= 2.0

    def test_log_and_linear_space_agree(self):
        # reparameterization invariance: same box, same start, tight
        # tolerances; the achieved maxima must agree. The reference searches
        # (lengths, tau) jointly, so this also checks that profiling tau
        # out reaches the joint optimum
        from scipy.optimize import minimize

        train, ib, ob = synthetic_from_kernel(
            6, 8, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=21
        )
        init = np.append(first_start(train, seed=0), 0.5)
        box = [*length_box(train), (0.05, 20.0)]
        state = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=1, seed=0)

        def negative(theta):
            value = log_marginal_likelihood(train, ib, ob, theta[:4], theta[4], 0.1)
            grad = log_marginal_likelihood_gradient(
                train, ib, ob, theta[:4], theta[4], 0.1
            )
            return -value, -grad

        res = minimize(
            negative, init, jac=True, method="L-BFGS-B",
            bounds=box,
            options={"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-10},
        )
        assert abs(-res.fun - state.value) < 1e-6 * max(1.0, abs(state.value))

    def test_tau_is_profiled_out(self):
        # dL/dtau = nq/(2 tau) (quad_M/(nq tau) - 1) vanishes at tau_hat; its
        # two terms, each of size nq/(2 tau), cancel up to a few ulps
        train, ib, ob = synthetic_from_kernel(
            6, 8, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=21
        )
        state = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=2, seed=0)
        grad = log_marginal_likelihood_gradient(
            train, ib, ob, state.kernel_spec().lengths, state.tau, 0.1
        )
        assert grad.shape == (5,)
        scale = train.n * train.q / (2.0 * state.tau)
        assert abs(grad[-1]) <= 1e-12 * scale

    def test_kernel_spec_keeps_the_searched_exponent(self):
        train, ib, ob = synthetic_from_kernel(
            6, 8, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=9
        )
        state = optimize_correlation_lengths(train, ib, ob, 0.1, restarts=1, seed=0,
                                             exponent=2.0)
        assert state.kernel_spec().exponent == 2.0
        assert state.kernel_spec(2.0) == state.kernel_spec()
        with pytest.raises(ValueError, match="exponent 2.0, not 1.5"):
            state.kernel_spec(1.5)

    def test_zero_outputs_rejected(self):
        # tau_hat would be 0: the profiled likelihood has no maximum
        train, ib, ob = random_instance(n=4, q=5, seed=3)
        train = TrainingSet(train.design, train.time_grid, np.zeros_like(train.outputs))
        with pytest.raises(DataError, match="all zero"):
            optimize_correlation_lengths(train, ib, ob, 0.1, restarts=1)

    def test_trace_collection(self):
        train, ib, ob = synthetic_from_kernel(
            6, 8, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=2
        )
        state = optimize_correlation_lengths(
            train, ib, ob, 0.1, restarts=2, seed=1, collect_trace=True
        )
        assert len(state.trace) > 0
        assert len(state.trace[0]) == 4 + 5  # ids, value, grad norm, 5 params
        assert len(state.starts) == 2

    def test_every_restart_ascends(self):
        # each restart's final value must not fall below its first
        # evaluation, and the returned best must dominate all of them
        train, ib, ob = synthetic_from_kernel(
            6, 8, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=14
        )
        state = optimize_correlation_lengths(
            train, ib, ob, 0.1, restarts=3, seed=2, collect_trace=True
        )
        for diag in state.starts:
            first = next(row[2] for row in state.trace if row[0] == diag["start"])
            assert diag["value"] >= first - 1e-9
            assert state.value >= diag["value"] - 1e-9


class TestFitSharesTheSearchModel:
    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("lengths", [(2.0, 0.5, 0.8, 1.5), (25.75, 4.75, 0.54, 1.58)])
    def test_posterior_scale_is_profiled_quadratic_form(self, wave_space, wave_bases,
                                                        n, lengths):
        # with a zero-mean prior, dn - d = res' K^-1 res + mn' mn / sigma2
        # = y' M^-1 y = nq tau_hat: two summation orders of one quadratic
        # form, which agree to a few ulps (<= 4e-16 measured); a prior mean
        # in only one of the two paths breaks the equality
        ib, ob = wave_bases
        train = toy_training_set(lhd(n, wave_space, 3), np.round(0.2 * np.arange(176), 12))
        sigma2, jitter = 0.05, 1e-8
        prior = NigPrior(sigma2, 3.0, 0.1)
        model = fit(prior, ib, ob, KernelSpec(lengths[:-1], lengths[-1]), train, jitter)
        _, _, tau_hat = _Workspace(train, ib, ob, sigma2, 1.5, jitter).evaluate(lengths)
        nq = train.n * train.q
        assert model.scale - prior.scale == pytest.approx(nq * tau_hat, rel=1e-10)


class TestHyperparamEstimation:
    def test_override_is_echoed(self):
        from opemu.likelihood import HyperparamEstimate

        est = HyperparamEstimate(sigma2=0.257, dof=3.0, scale=0.208)
        prior = est.to_prior()
        assert prior.sigma2 == 0.257
        assert prior.scale == 0.208
        assert prior.dof == 3.0

    def test_constant_output_rejected(self, wave_space, wave_bases):
        ib, ob = wave_bases
        design = lhd(4, wave_space, 0)
        train = TrainingSet(design, [0.0, 0.5], np.zeros((4, 2)))
        with pytest.raises(DataError, match="constant"):
            estimate_hyperparams(train, ib, ob)

    def test_low_dof_rejected(self, wave_space, wave_bases):
        ib, ob = wave_bases
        design = lhd(4, wave_space, 0)
        rng = np.random.default_rng(0)
        train = TrainingSet(design, [0.0, 0.5], rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="dof"):
            estimate_hyperparams(train, ib, ob, dof=2.0)

    def test_prior_predictive_variance_near_pooled(self, wave_space, wave_bases):
        # analytic prior predictive variance, cross-checked by simulation
        ib, ob = wave_bases
        design = lhd(30, wave_space, 8)
        grid = np.round(0.5 * np.arange(12), 12)
        rng = np.random.default_rng(3)
        F = rng.normal(size=(30, 12))  # pooled variance ~ 1
        train = TrainingSet(design, grid, F)
        pooled = float(np.var(F))
        est = estimate_hyperparams(train, ib, ob, dof=3.0, split=0.5)

        r = design.points[5]
        t = grid[4]
        g = np.kron(ib.evaluate(r), ob.evaluate_many([t])[0])
        tau_mean = est.scale / (est.dof - 2.0)
        analytic = tau_mean * (est.sigma2 * float(g @ g) + 1.0)
        assert 0.5 * pooled <= analytic <= 2.0 * pooled

        draws = np.random.default_rng(11)
        taus = est.scale / draws.chisquare(est.dof, size=200_000)
        betas = draws.standard_normal(200_000) * np.sqrt(
            taus * est.sigma2 * float(g @ g)
        )
        eps = draws.standard_normal(200_000) * np.sqrt(taus)
        simulated = float(np.var(betas + eps))
        assert 0.6 < simulated / analytic < 1.6


TESTS = os.path.dirname(os.path.abspath(__file__))


class TestDirectLbfgsb:
    """The search drives scipy's compiled L-BFGS-B routine as
    scipy.optimize.minimize drives it, bit for bit, and falls back to
    minimize where the routine cannot be driven directly."""

    def test_direct_and_fallback_searches_give_the_same_bits(self):
        # the default search and one with an unconverged start, each run
        # through the directly driven routine, with its starts in worker
        # processes and again at one CPU in one process, and through
        # minimize, in one child process: value, tau_hat, lengths, per-start
        # records and trace rows all equal. The child is pinned to one BLAS thread, as
        # the benchmark is. (make_search_bits.py --check compares with the
        # recording, which holds only on the host that made it)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opemu.__file__)),
                   PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        argv = [sys.executable, os.path.join(TESTS, "make_search_bits.py"), "--paths"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        expected = ["2 searches compared across the two paths and at one CPU, 0 differ"]
        if len(os.sched_getaffinity(0)) < 2:
            expected.append("  only one CPU is usable: every search ran in one process")
        assert proc.stdout.splitlines() == expected

    def test_recorded_case_has_an_unconverged_start(self):
        with open(os.path.join(TESTS, "data", "search_bits.json"), encoding="utf-8") as fh:
            cases = json.load(fh)["cases"]
        start = cases["unconverged"]["starts"][0]
        assert (start["converged"], start["iterations"]) == (False, 28)
        assert cases["unconverged"]["evaluations"] == 73
        assert cases["default"]["evaluations"] == 143
        assert all(start["converged"] for start in cases["default"]["starts"])

    @pytest.mark.parametrize("maxiter", [4, 200], ids=["stopped", "converged"])
    def test_direct_loop_takes_the_steps_of_minimize(self, maxiter):
        from scipy.optimize import minimize, rosen, rosen_der

        def fun(x, points):
            points.append(x.copy())
            return rosen(x), rosen_der(x)

        x0, bounds = np.array([-1.2, 1.0, 2.5]), [(-2.0, 2.0), (-0.5, 1.5), (0.0, 2.0)]
        options = {"maxiter": maxiter, "ftol": 1e-12, "gtol": 1e-8}
        seen, direct = [], []
        res = minimize(fun, x0, args=(seen,), method="L-BFGS-B", jac=True, bounds=bounds,
                       options=options)
        setulb = likelihood._setulb()
        assert setulb is not None
        x, f, nit, converged = likelihood._lbfgsb(setulb, lambda x: fun(x, direct), x0, bounds,
                                                  **options)
        assert np.array_equal(x, res.x) and f == res.fun
        assert (nit, converged) == (res.nit, res.success)
        assert converged == (nit < maxiter) == (maxiter == 200)
        assert len(direct) == len(seen) == res.nfev
        assert all(np.array_equal(a, b) for a, b in zip(direct, seen))

    @pytest.mark.parametrize("fault", ["absent", "unloadable", "other interface"])
    def test_routine_that_cannot_be_driven_falls_back(self, monkeypatch, tmp_path, fault):
        if fault == "other interface":  # the Fortran routine of scipy < 1.15, as f2py documents it
            def setulb():
                pass

            setulb.__doc__ = ("x,f,g,... = setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,"
                              "iprint,csave,lsave,isave,dsave,maxls,[n])")
            monkeypatch.setitem(sys.modules, likelihood._LBFGSB,
                                types.SimpleNamespace(setulb=setulb))
            assert likelihood._setulb() is None
            return
        # in a fresh process, since a session that has imported
        # scipy.optimize already holds the compiled module
        if fault == "unloadable":  # a file that is there but does not load as an extension
            (tmp_path / ("_lbfgsb" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"")
        code = (f"import sys; from opemu import kernels, likelihood; "
                f"kernels._scipy_dirs = lambda subpackage: [{str(tmp_path)!r}]; "
                f"print(likelihood._setulb(), likelihood._LBFGSB in sys.modules, "
                f"'scipy.optimize' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opemu.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.split() == ["None", "False", "False"]


# Run as a child process pinned to the CPUs named in argv[2:]: a search at
# n=8 with 3 restarts, with the fault named in argv[1] ("fork fails":
# os.fork raises EAGAIN), first with its starts in worker processes, then
# at one CPU in one process. Prints
# whether the two outcomes (value, per-start records and trace, or the
# exception's type, message, cause's type and innermost traceback frame,
# then the warnings' messages) are equal, the outcome's kind ("found" or
# the exception's type), whether a child process is left after either
# run, and the forks of each run; for "start 1 raises from a cause", a
# second line with the forked run's cause and innermost frame. Asserts
# that each search leaves as many open file descriptors as it found.
SEARCH_CHILD = """
import errno, os, sys, warnings
os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[2:]})
caller = os.getpid()
import opemu
from opemu import likelihood
from opemu.config import RunConfig
from opemu.errors import NumericalDegeneracyError

cfg = RunConfig()
design = opemu.maximin_lhd(8, cfg.space(), 0, 10)
train = opemu.toy_training_set(design, cfg.time_grid(), cfg.toy_params())
ib, ob = cfg.input_basis(), cfg.output_basis()
sigma2 = opemu.estimate_hyperparams(train, ib, ob).sigma2

if sys.argv[1] in ("starts 1 and 2 raise", "start 1 warns", "starts 0 and 1 warn",
                   "start 0 is interrupted", "start 1 raises from a cause",
                   "start 1's worker dies"):
    picked, real_points, real_lbfgsb = [], likelihood._starting_points, likelihood._lbfgsb

    def points(*args):
        picked[:] = real_points(*args)
        return picked

    def lbfgsb(setulb, fun, x0, bounds):
        if x0 is picked[1] and sys.argv[1] == "start 1 warns":
            warnings.warn("start 1 warns", RuntimeWarning)
        if (x0 is picked[0] or x0 is picked[1]) and sys.argv[1] == "starts 0 and 1 warn":
            warnings.warn("starts 0 and 1 warn", RuntimeWarning)
        if x0 is picked[0] and sys.argv[1] == "start 0 is interrupted":
            raise KeyboardInterrupt("start 0 is interrupted")
        for idx in (1, 2):
            if x0 is picked[idx] and sys.argv[1] == "starts 1 and 2 raise":
                raise ValueError(f"start {idx} cannot descend")
        if x0 is picked[1] and sys.argv[1] == "start 1 raises from a cause":
            raise ValueError("start 1 cannot descend") from KeyError("start 1")
        if x0 is picked[1] and sys.argv[1] == "start 1's worker dies" and os.getpid() != caller:
            os._exit(1)
        return real_lbfgsb(setulb, fun, x0, bounds)

    likelihood._starting_points, likelihood._lbfgsb = points, lbfgsb
elif sys.argv[1] == "every start fails":
    def degenerate(self, lengths, tau=None, want_grad=False):
        raise NumericalDegeneracyError("K")

    likelihood._Workspace.evaluate = degenerate

forks, real_fork = [], os.fork


def fork():
    if sys.argv[1] == "fork fails":
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = fork


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def outcome():
    del forks[:]
    fds = open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            state = opemu.optimize_correlation_lengths(train, ib, ob, sigma2, restarts=3,
                                                       collect_trace=True)
        except (Exception, KeyboardInterrupt) as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            result = (type(exc).__name__, str(exc), type(exc.__cause__).__name__,
                      tb.tb_frame.f_code.co_name)
        else:
            result = "found", state.value.hex(), state.starts, state.trace
    assert open_fds() == fds, (fds, open_fds())
    return result + tuple(str(w.message) for w in caught), len(forks)


def child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


if sys.argv[1] == "starts 0 and 1 warn":
    # one search under the default filters, at the CPUs given: its
    # warnings go to stderr as they would outside this test
    workers, fds = likelihood._search_workers(3), open_fds()
    opemu.optimize_correlation_lengths(train, ib, ob, sigma2, restarts=3)
    assert open_fds() == fds, (fds, open_fds())
    print(workers, child_left(), len(forks))
else:
    assert likelihood._search_workers(3) == 2
    parallel, parallel_forks = outcome()
    left = child_left()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    serial, serial_forks = outcome()
    print(parallel == serial, parallel[0], left or child_left(), parallel_forks, serial_forks)
    if sys.argv[1] == "start 1 raises from a cause":
        print(*parallel[2:4])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux and two usable CPUs")
class TestForkedStarts:
    """With BLAS pinned and two usable CPUs the search runs its starts in a
    forked worker; no worker or file descriptor outlives it, no worker
    writes anything, and the caller gets the serial run's result or
    exception, and its warnings."""

    @staticmethod
    def search(fault, cpus):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opemu.__file__)),
                   PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        argv = [sys.executable, "-c", SEARCH_CHILD, fault] + [str(cpu) for cpu in cpus]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc

    @pytest.mark.parametrize("fault, kind", [
        ("none", "found"),
        ("start 1 warns", "found"),
        ("starts 1 and 2 raise", "ValueError"),
        ("every start fails", "OptimizationFailure"),
        ("start 0 is interrupted", "KeyboardInterrupt"),
        ("start 1's worker dies", "found"),
    ])
    def test_no_process_outlives_a_search(self, fault, kind):
        # the lowest failing start's exception wins, as in the serial loop,
        # which stops at start 1: here start 2 fails in the caller's own
        # share and start 1 in the worker's. An interrupt in the caller's
        # share stops the worker mid-descent, which is then killed. A
        # worker that ends without sending anything fails nothing: its
        # start runs again in the caller
        proc = self.search(fault, sorted(os.sched_getaffinity(0))[:2])
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [f"True {kind} False 1 0"]

    def test_a_share_whose_fork_fails_runs_in_the_caller(self):
        # with no process to spare, the worker's starts run in the caller
        # and the search still finds the one-CPU run's result
        proc = self.search("fork fails", sorted(os.sched_getaffinity(0))[:2])
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == ["True found False 0 0"]

    def test_a_workers_exception_keeps_its_traceback_and_cause(self):
        # start 1 raises in the worker and again in the caller, which
        # raises it as the one-process run does: from its KeyError, with
        # the descent's own frame innermost
        proc = self.search("start 1 raises from a cause", sorted(os.sched_getaffinity(0))[:2])
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == ["True ValueError False 1 0", "KeyError lbfgsb"]

    def test_a_warning_two_starts_raise_is_shown_once(self):
        # under the default filters a warning is shown once per location,
        # so start 1's, raised in the worker and again in the caller, is
        # not shown after start 0's: stderr is the one-process run's
        cpus = sorted(os.sched_getaffinity(0))[:2]
        forked, serial = self.search("starts 0 and 1 warn", cpus), \
            self.search("starts 0 and 1 warn", cpus[:1])
        assert forked.stdout.splitlines() == ["2 False 1"]
        assert serial.stdout.splitlines() == ["1 False 0"]
        assert forked.stderr == serial.stderr
        assert serial.stderr.count("RuntimeWarning: starts 0 and 1 warn") == 1


class TestPortable:
    """The package's exceptions come back from pickling with their type and message."""

    def test_numerical_degeneracy_survives_pickling(self):
        exc = NumericalDegeneracyError("Kr", "leading minor 3")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is NumericalDegeneracyError
        assert str(back) == str(exc) == "factorization failed for Kr: leading minor 3"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux's usable CPUs")
class TestSearchWorkers:
    @pytest.fixture
    def pinned(self, monkeypatch):
        for var in likelihood._BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(likelihood.sys, "platform", "linux")

    def test_one_per_usable_cpu_up_to_the_restarts(self, pinned):
        cpus = len(os.sched_getaffinity(0))
        assert likelihood._search_workers(5) == min(cpus, 5)
        assert likelihood._search_workers(1) == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"])
    def test_serial_unless_blas_is_pinned(self, pinned, monkeypatch, var):
        monkeypatch.delenv(var)
        assert likelihood._search_workers(5) == 1
        monkeypatch.setenv(var, "2")
        assert likelihood._search_workers(5) == 1

    def test_serial_off_linux(self, pinned, monkeypatch):
        monkeypatch.setattr(likelihood.sys, "platform", "darwin")
        assert likelihood._search_workers(5) == 1

    def test_serial_while_another_thread_is_alive(self, pinned):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert likelihood._search_workers(5) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
