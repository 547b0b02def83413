import math

import numpy as np
import pytest

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
from opemu.errors import DataError
from opemu.likelihood import _Workspace


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


class TestOptimizer:
    def test_ascends_from_given_start(self):
        train, ib, ob = synthetic_from_kernel(
            8, 10, (0.4, 0.4, 0.4, 1.0), tau=1.0, sigma2=0.1, seed=3
        )
        init = np.array([0.2, 0.7, 0.3, 2.0, 0.5])
        initial = log_marginal_likelihood(train, ib, ob, init[:4], init[4], 0.1)
        state = optimize_correlation_lengths(
            train, ib, ob, 0.1, init=init[:4], restarts=1, seed=0
        )
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
        init = np.array([0.3, 0.3, 0.3, 0.8, 0.5])
        box = [(0.05, 20.0)] * 5
        state = optimize_correlation_lengths(
            train, ib, ob, 0.1, init=init[:4], restarts=1, seed=0, bounds=box[:4],
        )

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
        assert state.gradient.shape == (5,)
        scale = train.n * train.q / (2.0 * state.tau)
        assert abs(state.gradient[-1]) <= 1e-12 * scale

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_init(self, bad):
        # the start is the log of ``init``, so an entry must be finite and > 0
        train, ib, ob = random_instance(n=4, q=5, seed=3)
        with pytest.raises(ValueError, match=r"init\[0\] must be a finite length > 0"):
            optimize_correlation_lengths(train, ib, ob, 0.1, init=[bad, 1.0, 1.0, 1.0],
                                         restarts=1)

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

        est = HyperparamEstimate(sigma2=0.257, dof=3.0, scale=0.208, provenance="user-override")
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
        g = np.kron(ib.evaluate(r), ob.evaluate(t))
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
