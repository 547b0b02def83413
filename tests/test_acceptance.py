"""Acceptance suite: one test per exit criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they are also captured in the test log). The expensive paper-scale
pipeline (40-point maximin design, 176-point time grid, optimized
correlation lengths) is built once and shared.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import reference
from opemu import (
    BetaInputSpec,
    DesignSpace,
    InputBasis,
    KernelSpec,
    NigPrior,
    OutputBasis,
    SweepSpec,
    TrainingSet,
    estimate_hyperparams,
    fit,
    lhd,
    log_marginal_likelihood,
    log_marginal_likelihood_gradient,
    maximin_lhd,
    optimize_correlation_lengths,
    sample_beta,
    sensitivity_sweep,
    toy_training_set,
    uq_monte_carlo,
)
from opemu.analysis import QUANTILE_LEVELS
from opemu.config import RunConfig
from opemu.kernels import input_correlation_matrix, output_correlation_matrix
from opemu.validation import loo

JITTER = 1e-8


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def paper_pipeline():
    """Default-configuration pipeline at the reference scale."""
    cfg = RunConfig()
    space = cfg.space()
    t0 = time.perf_counter()
    design = maximin_lhd(
        cfg.raw["design"]["n"], space, cfg.raw["design"]["seed"],
        cfg.raw["design"]["candidates"],
    )
    grid = cfg.time_grid()
    train = toy_training_set(design, grid, cfg.toy_params())
    ib, ob = cfg.input_basis(), cfg.output_basis()
    estimate = estimate_hyperparams(train, ib, ob, cfg.raw["prior"]["dof"],
                                    cfg.raw["prior"]["split"])
    state = optimize_correlation_lengths(
        train, ib, ob, estimate.sigma2,
        restarts=cfg.raw["kernel"]["restarts"], seed=cfg.raw["kernel"]["opt_seed"],
        jitter=JITTER,
    )
    kernel = state.kernel_spec()
    t_setup = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = fit(estimate.to_prior(), ib, ob, kernel, train, JITTER)
    t_fit = time.perf_counter() - t0
    return {
        "train": train,
        "model": model,
        "input_basis": ib,
        "output_basis": ob,
        "kernel": kernel,
        "prior": estimate.to_prior(),
        "t_setup": t_setup,
        "t_fit": t_fit,
    }


def test_criterion_01_basis_fidelity():
    t0 = time.perf_counter()
    p1 = lambda u: math.sqrt(3.0) * u
    p2 = lambda u: math.sqrt(5.0) * (4 * u * u - 3 * u)
    norm1 = quad(lambda u: p1(u) ** 2, 0, 1)[0]
    norm2 = quad(lambda u: p2(u) ** 2, 0, 1)[0]
    cross = quad(lambda u: p1(u) * p2(u), 0, 1)[0]
    cfg = RunConfig()
    nu_r = cfg.input_basis().size
    nu_s = cfg.output_basis().size
    elapsed = time.perf_counter() - t0
    ok = (
        abs(norm1 - 1) < 1e-10
        and abs(norm2 - 1) < 1e-10
        and abs(cross) < 1e-10
        and (nu_r, nu_s, nu_r * nu_s) == (7, 11, 77)
        and elapsed < 1.0
    )
    report(1, ok, f"quadrature norms ({norm1:.12f}, {norm2:.12f}), cross "
                  f"{cross:.2e}, counts ({nu_r}, {nu_s}, {nu_r * nu_s}), "
                  f"{elapsed:.2f}s")


def _random_small_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    q = int(rng.integers(3, 6))
    space = DesignSpace(bounds=[(-3, 1), (1, 2), (0.5, 3)])
    design = lhd(n, space, seed)
    grid = np.linspace(0.0, 2.5, q)
    F = np.random.default_rng(seed + 50).normal(size=(n, q))
    train = TrainingSet(design, grid, F)
    theta = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=5))
    sigma2 = float(np.exp(rng.uniform(np.log(0.05), np.log(0.5))))
    return train, InputBasis(space), OutputBasis((0.25, 0.5)), theta, sigma2


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        train, ib, ob, theta, sigma2 = _random_small_instance(seed)
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
        floor = 1e-3 * (1.0 + np.abs(fd).max())
        rel = np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.full(5, floor)]
        )
        worst = max(worst, rel.max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report(2, ok, f"20 instances, worst relative gradient error {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_structured_vs_dense():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n, q in ((2, 2), (3, 4), (4, 5)):
        for seed in (0, 1, 2):
            space = DesignSpace(bounds=[(-3, 1), (1, 2), (0.5, 3)])
            design = lhd(n, space, seed)
            grid = np.linspace(0.0, 2.0, q)
            F = np.random.default_rng(seed + 30).normal(size=(n, q))
            train = TrainingSet(design, grid, F)
            ib, ob = InputBasis(space), OutputBasis((0.25, 0.5))
            kern = KernelSpec((1.1, 0.6, 0.9), 1.0)
            sigma2, tau, a, d = 0.25, 0.15, 3.0, 0.5
            nu = ib.size * ob.size
            prior = NigPrior(sigma2, a, d)

            K, Q = reference.dense_matrices(
                design.points, grid, space.bounds, ob.frequencies,
                kern.input_lengths, kern.output_length, kern.exponent, JITTER,
            )
            # likelihood + gradient
            dense_val = reference.dense_log_marginal_likelihood(F, K, Q, tau, sigma2)
            struct_val = log_marginal_likelihood(
                train, ib, ob, kern.lengths, tau, sigma2, jitter=JITTER
            )
            worst = max(worst, abs(struct_val - dense_val) / abs(dense_val))
            p = kern.exponent
            dK_list = []
            for dd, lam in enumerate(kern.input_lengths):
                gaps = np.abs(design.points[:, dd, None] - design.points[None, :, dd])
                Kr = input_correlation_matrix(design.points, design.points, kern)
                Ks = output_correlation_matrix(grid, grid, kern)
                dK_list.append(np.kron(Kr * (p * gaps ** p / lam ** (p + 1)),
                                       Ks + JITTER * np.eye(q)))
            gaps = np.abs(grid[:, None] - grid[None, :])
            Kr = input_correlation_matrix(design.points, design.points, kern)
            Ks = output_correlation_matrix(grid, grid, kern)
            dK_list.append(np.kron(Kr + JITTER * np.eye(n),
                                   Ks * (p * gaps ** p / kern.output_length ** (p + 1))))
            dense_grad = reference.dense_likelihood_gradient(F, K, Q, dK_list, tau, sigma2)
            struct_grad = log_marginal_likelihood_gradient(
                train, ib, ob, kern.lengths, tau, sigma2, jitter=JITTER
            )
            worst = max(worst, np.abs(struct_grad - dense_grad).max()
                        / np.abs(dense_grad).max())

            # fit + predict
            mn, Vn, an, dn = reference.dense_fit(F, K, Q, np.zeros(nu),
                                                 prior.sigma2 * np.eye(nu), a, d)
            model = fit(prior, ib, ob, kern, train, JITTER)
            worst = max(worst, np.abs(model.coeff_mean - mn).max() / (1 + np.abs(mn).max()))
            worst = max(worst, np.abs(reference.coeff_cov(model) - Vn).max())
            worst = max(worst, abs(model.scale - dn) / dn)
            rng = np.random.default_rng(seed + 60)
            r = space.from_unit(rng.random(3))[0]
            tnew = rng.uniform(0.0, 2.0, size=2)
            series = model.predict(r, tnew)
            gr = reference.input_regressors(r, space.bounds)
            krv = np.array([
                reference.correlation(r, 0, pt, 0, kern.input_lengths, 1.0, p)
                for pt in design.points
            ])
            for jj, t in enumerate(tnew):
                gs = reference.output_regressors(t, ob.frequencies)
                ksv = np.array([
                    reference.correlation([0], t, [0], tg, (1.0,),
                                          kern.output_length, p)
                    for tg in grid
                ])
                loc, scale = reference.dense_predict(
                    F, K, Q, mn, Vn, an, dn, np.kron(gr, gs), np.kron(krv, ksv),
                    (1 + JITTER) ** 2,
                )
                worst = max(worst, abs(series.location[jj] - loc) / (1 + abs(loc)))
                worst = max(worst, abs(series.scale[jj] - scale) / (1 + abs(scale)))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(3, ok, f"{cases} instances (n<=4, q<=5): fit/predict/likelihood/"
                  f"gradient worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_interpolation(paper_pipeline):
    train = paper_pipeline["train"]
    model = paper_pipeline["model"]
    t0 = time.perf_counter()
    std = float(train.outputs.std())
    worst_loc = worst_scale = 0.0
    for i in range(train.n):
        series = model.predict(train.design.points[i])
        worst_loc = max(worst_loc, np.abs(series.location - train.outputs[i]).max())
        worst_scale = max(worst_scale, float(series.scale.max()))
    elapsed = time.perf_counter() - t0 + paper_pipeline["t_fit"]
    loc_tol = 100 * math.sqrt(JITTER) * std
    scale_tol = 10 * math.sqrt(JITTER) * std
    ok = worst_loc <= loc_tol and worst_scale <= scale_tol and elapsed < 60.0
    report(4, ok, f"n=40 q=176: worst |location-data| {worst_loc:.2e} "
                  f"(tol {loc_tol:.2e}), worst scale {worst_scale:.2e} "
                  f"(tol {scale_tol:.2e}), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def paper_loo(paper_pipeline):
    t0 = time.perf_counter()
    rep = loo(
        paper_pipeline["train"],
        paper_pipeline["input_basis"],
        paper_pipeline["output_basis"],
        paper_pipeline["kernel"],
        paper_pipeline["prior"],
        jitter=JITTER,
    )
    return rep, time.perf_counter() - t0


def test_criterion_05_loo_calibration(paper_pipeline, paper_loo):
    rep, t_loo = paper_loo
    elapsed = t_loo + paper_pipeline["t_setup"]
    coverage = rep.pooled_coverage
    ok = (
        len(rep.diagnostics) == 40
        and all(d.series.location.size == 176 for d in rep.diagnostics)
        and not rep.failures
        and 0.85 <= coverage <= 1.0
        and elapsed < 300.0
    )
    report(5, ok, f"40/40 folds, pooled 95% coverage {coverage:.4f} "
                  f"(band [0.85, 1.0]), {elapsed:.0f}s incl. length optimization")


def test_default_configuration_distance_correlations(paper_loo):
    # isolation in the design should degrade accuracy on the default
    # configuration (an expectation there, not a universal law)
    rep, _ = paper_loo
    assert rep.corr_med_rmse > 0.0
    assert rep.corr_med_mcil > 0.0


def test_emulator_tracks_simulator_maxima(paper_pipeline):
    # at random inputs the emulated maximum should sit within 3 predictive
    # scales of the simulator's maximum in at least 90% of cases
    from opemu import toy_simulate

    model = paper_pipeline["model"]
    train = paper_pipeline["train"]
    space = train.design.space
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(20):
        r = space.from_unit(rng.random(3))[0]
        series = model.predict(r)
        truth = toy_simulate(r, train.time_grid)
        j = int(np.argmax(series.location))
        if abs(series.location.max() - truth.max()) <= 3.0 * series.scale[j]:
            hits += 1
    assert hits >= 18


def test_criterion_06_maximin_dominates():
    t0 = time.perf_counter()
    space = RunConfig().space()
    margins = []
    for seed in range(1, 11):
        refined = maximin_lhd(40, space, seed, candidates=100)
        plain = lhd(40, space, seed)
        margins.append((refined.min_distance(unit=True), plain.min_distance(unit=True)))
    elapsed = time.perf_counter() - t0
    ok = all(r >= p for r, p in margins) and elapsed < 30.0
    worst = min(r - p for r, p in margins)
    report(6, ok, f"10 seeds, min(refined - plain) distance margin {worst:.4f} "
                  f">= 0, {elapsed:.1f}s")


def test_criterion_07_beta_sampling():
    t0 = time.perf_counter()
    x = sample_beta(BetaInputSpec(dims=((5.0, 2.0, -2.0, 0.0),)), 1000, seed=6)[:, 0]
    se_x = 2.0 * math.sqrt(10.0 / (49.0 * 8.0)) / math.sqrt(1000)
    ok_x = abs(x.mean() - (-4.0 / 7.0)) < 3 * se_x

    u = sample_beta(BetaInputSpec(dims=((2.0, 5.0, 1.0, 2.0),)), 1000, seed=6)[:, 0]
    se_u = math.sqrt(10.0 / (49.0 * 8.0)) / math.sqrt(1000)
    ok_u = abs(u.mean() - 9.0 / 7.0) < 3 * se_u

    flat = sample_beta(BetaInputSpec(dims=((1.0, 1.0, 0.0, 1.0),)), 1000, seed=5)[:, 0]
    p = kstest(flat, "uniform").pvalue
    elapsed = time.perf_counter() - t0
    ok = ok_x and ok_u and p >= 0.01 and elapsed < 5.0
    report(7, ok, f"means {x.mean():.4f} (target -4/7) and {u.mean():.4f} "
                  f"(target 9/7) within 3 SE; KS p={p:.3f}; {elapsed:.1f}s")


def test_criterion_08_uq_pipeline_shape(paper_pipeline):
    model = paper_pipeline["model"]
    spec = RunConfig().beta_spec()
    t0 = time.perf_counter()
    result = uq_monte_carlo(model, spec, n=1000, seed=7)
    elapsed = time.perf_counter() - t0
    repeat = uq_monte_carlo(model, spec, n=1000, seed=7)
    ok = (
        QUANTILE_LEVELS == (1.0, 5.0, 50.0, 95.0, 99.0)
        and len(result.samples) == 1000
        and result.max_elevation.values.size == 5
        and result.mean_ci_length.values.size == 5
        and np.all(np.diff(result.max_elevation.values) >= 0)
        and np.all(np.diff(result.mean_ci_length.values) >= 0)
        and np.array_equal(result.max_elevation.values, repeat.max_elevation.values)
        and np.array_equal(result.mean_ci_length.values, repeat.mean_ci_length.values)
        and elapsed < 120.0
    )
    q50 = result.max_elevation.values[2]
    report(8, ok, f"1000 predictions in {elapsed:.1f}s (< 120s); two monotone "
                  f"5-level tables, median max elevation {q50:.3f}; repeat run "
                  f"bit-identical")


def test_criterion_09_sensitivity_qualitative(paper_pipeline):
    t0 = time.perf_counter()
    model = paper_pipeline["model"]
    # maximum elevation must grow with the speed input at all four corners
    # of the restricted analysis box
    monotone_ok = True
    for x0 in (-2.0, 0.0):
        for c in (0.5, 2.5):
            spec = SweepSpec(dim=1, lower=1.0, upper=2.0, fixed=(x0, 0.0, c),
                             resolution=21)
            curve = sensitivity_sweep(model, spec)
            if not np.all(np.diff(curve.max_elev) >= -1e-9):
                monotone_ok = False

    # a configured input the simulator ignores must sweep flat
    space4 = DesignSpace(bounds=[(-3, 1), (1, 2), (0.5, 3), (0.0, 1.0)],
                         names=("x0", "u0", "c", "s0"))
    design4 = maximin_lhd(40, space4, seed=7, candidates=50)
    grid = RunConfig().time_grid()
    train4 = toy_training_set(design4, grid)
    ib4, ob4 = InputBasis(space4), OutputBasis()
    est4 = estimate_hyperparams(train4, ib4, ob4)
    state4 = optimize_correlation_lengths(train4, ib4, ob4, est4.sigma2,
                                          restarts=3, seed=0, jitter=JITTER)
    model4 = fit(est4.to_prior(), ib4, ob4, state4.kernel_spec(), train4, JITTER)
    spec4 = SweepSpec(dim=3, lower=0.0, upper=1.0, fixed=(-1.0, 1.5, 1.5, 0.0),
                      resolution=21)
    curve4 = sensitivity_sweep(model4, spec4)
    spread = float(curve4.max_elev.max() - curve4.max_elev.min())
    # the predictive scale along the sweep, averaged over time, then points
    scales = []
    for v in curve4.values:
        point = np.asarray(spec4.fixed, dtype=float)
        point[spec4.dim] = v
        scales.append(float(np.mean(model4.predict(point).scale)))
    mean_scale = float(np.mean(scales))
    flat_ok = spread < 3.0 * mean_scale
    elapsed = time.perf_counter() - t0
    ok = monotone_ok and flat_ok and elapsed < 120.0
    report(9, ok, f"speed sweeps monotone at 4 corners: {monotone_ok}; inert-"
                  f"dimension spread {spread:.2e} < 3x mean scale "
                  f"{3 * mean_scale:.2e}: {flat_ok}; {elapsed:.0f}s")


def test_criterion_10_hyperparameter_self_consistency():
    t0 = time.perf_counter()
    truth = np.array([0.5, 0.5, 0.5, 1.2])
    sigma2 = 0.1
    space = DesignSpace(bounds=[(0.0, 1.0)] * 3)
    wins = 0
    for seed in range(10):
        design = lhd(10, space, seed)
        grid = np.linspace(0.0, 9.5, 20)
        ib, ob = InputBasis(space), OutputBasis((0.25, 0.5))
        kern = KernelSpec(tuple(truth[:3]), truth[3])
        rng = np.random.default_rng(seed + 1000)
        Kr = input_correlation_matrix(design.points, design.points, kern)
        Ks = output_correlation_matrix(grid, grid, kern)
        Lr = np.linalg.cholesky(Kr + 1e-10 * np.eye(10))
        Ls = np.linalg.cholesky(Ks + 1e-10 * np.eye(20))
        eps = Lr @ rng.standard_normal((10, 20)) @ Ls.T
        Gr, Gs = ib.evaluate_many(design.points), ob.evaluate_many(grid)
        beta = rng.standard_normal(Gr.shape[1] * Gs.shape[1]) * math.sqrt(sigma2)
        mean = Gr @ beta.reshape(Gr.shape[1], Gs.shape[1]) @ Gs.T
        train = TrainingSet(design, grid, mean + eps)

        state = optimize_correlation_lengths(train, ib, ob, sigma2,
                                             restarts=8, seed=0)
        recovered = np.array(state.input_lengths + (state.output_length,))
        value_truth = log_marginal_likelihood(train, ib, ob, truth, state.tau, sigma2)
        ratio = recovered / truth
        if (state.value >= value_truth - 1e-6
                and np.all(ratio >= 0.5) and np.all(ratio <= 2.0)):
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and elapsed < 300.0
    report(10, ok, f"recovered lengths within factor 2 with non-inferior "
                   f"likelihood in {wins}/10 seeds (need >= 8), {elapsed:.0f}s")
