import json
import math
import os

import numpy as np
import pytest
from scipy.stats import t as student_t

import reference
from opemu import (
    InputBasis,
    KernelSpec,
    NigPrior,
    OutputBasis,
    Predictive,
    TrainingSet,
    credible_interval,
    fit,
    lhd,
    load_model,
    save_model,
    toy_training_set,
)
from opemu.basis import regressor_matrices
from opemu.design import DesignSpace
from opemu.emulator import OpeModel, _KronEigen, _TimeFactor
from opemu.kernels import input_correlation_matrix, output_correlation_matrix


def small_problem(n=2, q=3, seed=0, k=3, freqs=(0.25, 0.5)):
    space = DesignSpace(bounds=[(-3, 1), (1, 2), (0.5, 3)][:k])
    design = lhd(n, space, seed)
    grid = np.linspace(0.0, 2.0, q)
    rng = np.random.default_rng(seed + 100)
    F = rng.normal(size=(n, q))
    train = TrainingSet(design, grid, F)
    ib, ob = InputBasis(space), OutputBasis(freqs)
    kern = KernelSpec((1.0, 0.5, 0.8)[:k], 0.9)
    return train, ib, ob, kern


class TestFitAgainstDenseOracle:
    def test_toy_instance_posterior(self):
        train, ib, ob, kern = small_problem(n=2, q=3, seed=1)
        jitter = 1e-8
        sigma2, a, d = 0.3, 3.0, 0.4
        nu = ib.size * ob.size
        prior = NigPrior(sigma2, a, d)
        model = fit(prior, ib, ob, kern, train, jitter)

        K, Q = reference.dense_problem(train, ib, ob, kern, jitter)
        mn, Vn, an, dn = reference.dense_fit(
            train.outputs, K, Q, np.zeros(nu), sigma2 * np.eye(nu), a, d
        )
        assert np.abs(model.coeff_mean - mn).max() < 1e-8
        assert np.abs(reference.coeff_cov(model) - Vn).max() < 1e-8
        assert model.dof == an
        assert abs(model.scale - dn) / dn < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,q", [(2, 3), (4, 5), (3, 2)])
    def test_posterior_and_predictive_random_instances(self, n, q, seed):
        train, ib, ob, kern = small_problem(n=n, q=q, seed=seed)
        jitter = 1e-8
        nu = ib.size * ob.size
        prior = NigPrior(0.25, 3.0, 0.5)
        model = fit(prior, ib, ob, kern, train, jitter)

        K, Q = reference.dense_problem(train, ib, ob, kern, jitter)
        mn, Vn, an, dn = reference.dense_fit(
            train.outputs, K, Q, np.zeros(nu), prior.sigma2 * np.eye(nu), prior.dof,
            prior.scale
        )
        assert np.abs(model.coeff_mean - mn).max() < 1e-8 * (1 + np.abs(mn).max())
        assert np.abs(reference.coeff_cov(model) - Vn).max() < 1e-8

        rng = np.random.default_rng(seed + 7)
        r = train.design.space.from_unit(rng.random(3))[0]
        # the second case sits at a design point on the training grid, where
        # rho is close to zero and the regression variance cancels the most
        for r, times in ((r, np.array([0.3, 1.7])), (train.design.points[0], None)):
            series = model.predict(r, times)
            loc, scale = reference.dense_series(train, ob, kern, jitter,
                                                (K, Q, mn, Vn, an, dn), r, times)
            assert np.all(np.abs(series.location - loc) < 1e-8 * (1 + np.abs(loc)))
            assert np.all(np.abs(series.scale - scale) < 1e-8 * (1 + np.abs(scale)))

    def test_positive_posterior_scalars(self):
        train, ib, ob, kern = small_problem(n=3, q=4, seed=5)
        prior = NigPrior(0.1, 3.0, 0.2)
        model = fit(prior, ib, ob, kern, train)
        assert model.dof > 0
        assert model.scale > 0

    def test_zero_data_zero_posterior_mean(self):
        train, ib, ob, kern = small_problem(n=3, q=4, seed=2)
        train = TrainingSet(train.design, train.time_grid, np.zeros_like(train.outputs))
        prior = NigPrior(0.1, 3.0, 0.2)
        model = fit(prior, ib, ob, kern, train)
        assert np.abs(model.coeff_mean).max() == 0.0


class TestFitRejectsMismatch:
    @pytest.mark.parametrize("bounds", [
        [(-4, 2), (0, 3), (0, 4)],  # same k, another box
        [(-3, 1), (1, 2)],  # another k
    ])
    def test_input_basis_over_another_box(self, bounds):
        # a model keeps only the design's box, so a basis over another one
        # would load back as a different emulator
        train, _, ob, kern = small_problem(n=12, q=4, seed=3)
        basis = InputBasis(DesignSpace(bounds=bounds))
        with pytest.raises(ValueError, match="another design space"):
            fit(NigPrior(0.1, 3.0, 0.2), basis, ob, kern, train)

    @pytest.mark.parametrize("lengths", [(1.0, 0.5, 0.8, 0.7), (1.0, 0.5)])
    def test_kernel_input_length_count(self, lengths):
        train, ib, ob, _ = small_problem(n=3, q=4, seed=3)
        with pytest.raises(ValueError, match=f"{len(lengths)} input lengths.*3 coordinates"):
            fit(NigPrior(0.1, 3.0, 0.2), ib, ob, KernelSpec(lengths, 0.9), train)


def _input_first_fit(prior, ib, ob, kern, train, jitter):
    """The input-first fit, the reference the time-first ``fit`` is checked
    against: Kr^-1 then Ks^-1 on F for the coefficients, and the residual
    weights solved from the residual R itself.

    Returns the model and R."""
    Gr, Gs = regressor_matrices(train.design, train.time_grid, ib, ob)
    core = _KronEigen(train.design, Gr, _TimeFactor(train.time_grid, ob, kern, jitter, Gs),
                      prior.sigma2)
    F = train.outputs
    coeff = core.solve(Gr.T @ core.whiten(F) @ Gs)
    R = F - Gr @ coeff @ Gs.T
    W = core.whiten(R)
    scale = prior.scale + np.sum(R * W) + np.sum(coeff * coeff) / prior.sigma2
    return OpeModel(prior, core, coeff.ravel(), scale, W, train.fingerprint()), R


def _equation_residual(model, R):
    """||Kr W Ks - R|| / ||R|| for the model's residual weights W, with the
    jittered factors the fit solved with."""
    core = model._core
    error = core.Kr @ model.residual_weights @ core.time.Ks - R
    return np.linalg.norm(error) / np.linalg.norm(R)


def _cond_K(model):
    """2-norm condition number of K = Kr (x) Ks, the product of the factors'."""
    return np.linalg.cond(model._core.Kr) * np.linalg.cond(model._core.time.Ks)


class TestTimeFirstFit:
    """``fit`` solves F Ks^-1 first and takes the residual weights from it;
    the input-first path is the reference."""

    def test_matches_input_first_path(self, wave_space):
        design = lhd(8, wave_space, 3)
        train = toy_training_set(design, np.round(0.5 * np.arange(13), 12))
        ib, ob = InputBasis(wave_space), OutputBasis()
        prior, kern, jitter = NigPrior(0.05, 3.0, 0.1), KernelSpec((1.0, 0.5, 0.8), 1.0), 1e-8
        model = fit(prior, ib, ob, kern, train, jitter)
        old, _ = _input_first_fit(prior, ib, ob, kern, train, jitter)
        cond = _cond_K(model)
        assert cond < 1e4
        # Both paths solve with the same Cholesky factors and differ only
        # in the order of the two factor solves and in how the residual
        # weights are formed. To first order each computed K^-1 x carries a
        # relative error of at most gamma cond(K), gamma = (n + q) eps, the
        # dimension factor of the two triangular-solve pairs (Higham 2002,
        # sec. 10.1), so the paths differ by at most twice that. predict
        # multiplies the weights by the cross-correlations and Ks again,
        # which undoes K^-1's amplification, so the bound holds relative to
        # each time column's largest magnitude. Measured at cond(K) = 91:
        # 3.4e-15 in location and 1.5e-16 in scale, against 8.5e-13.
        tol = 2.0 * (train.n + train.q) * np.finfo(float).eps * cond
        points = np.vstack([design.points, lhd(6, wave_space, 17).points])
        a, b = model.predict_many(points), old.predict_many(points)
        for got, want in ((a.location, b.location), (a.scale, b.scale)):
            assert np.all(np.abs(got - want) <= tol * np.abs(want).max(axis=0))
        assert abs(model.scale - old.scale) <= tol * old.scale

    def test_ill_conditioned_equation_residual(self, wave_space):
        # the exponent-2 row of the extended-precision oracle's table in
        # ROADMAP.md (n=5, q=10, time length 1.5, jitter 1e-8, step 0.2),
        # at the design seed whose cond(K) is closest to its 1.2e9
        design = lhd(5, wave_space, 1)
        train = toy_training_set(design, np.round(0.2 * np.arange(10), 12))
        ib, ob = InputBasis(wave_space), OutputBasis()
        prior, kern, jitter = NigPrior(0.05, 3.0, 0.1), KernelSpec((1.0, 0.5, 0.8), 1.5, 2.0), 1e-8
        model = fit(prior, ib, ob, kern, train, jitter)
        old, R_old = _input_first_fit(prior, ib, ob, kern, train, jitter)
        assert 1e8 < _cond_K(model) < 1e10
        R = train.outputs - model.input_basis.evaluate_many(design.points) @ (
            model.coeff_matrix @ ob.evaluate_many(train.time_grid).T)
        # solving F Ks^-1 before subtracting the regression surface costs
        # digits where F is much larger than R; the bound is 4x the
        # input-first path's own residual
        assert _equation_residual(model, R) <= 4.0 * _equation_residual(old, R_old)


class TestPredictionBehavior:
    def test_interpolates_training_data(self, wave_space):
        design = lhd(8, wave_space, 3)
        grid = np.round(0.5 * np.arange(9), 12)
        train = toy_training_set(design, grid)
        ib, ob = InputBasis(wave_space), OutputBasis()
        prior = NigPrior(0.05, 3.0, 0.1)
        jitter = 1e-8
        model = fit(prior, ib, ob, KernelSpec((1.0, 0.5, 0.8), 1.0), train, jitter)
        std = train.outputs.std()
        for i in range(train.n):
            series = model.predict(design.points[i])
            gap = np.abs(series.location - train.outputs[i]).max()
            assert gap <= 100 * np.sqrt(jitter) * std
            assert series.scale.max() <= 10 * np.sqrt(jitter) * std
            # jitter-limited absolute bounds
            assert gap <= 1e-4
            assert series.scale.max() <= 1e-3

    def test_far_point_falls_back_to_regression(self, wave_space):
        # vanishing kernel weights leave the regression mean and prior scale
        design = lhd(6, wave_space, 4)
        grid = np.round(0.5 * np.arange(7), 12)
        train = toy_training_set(design, grid)
        ib, ob = InputBasis(wave_space), OutputBasis()
        prior = NigPrior(0.05, 3.0, 0.1)
        kern = KernelSpec((1e-3, 1e-3, 1e-3), 1.0)
        model = fit(prior, ib, ob, kern, train)
        r = np.array([-0.987, 1.456, 2.345])  # not close to any design point
        series = model.predict(r)
        regression = ib.evaluate(r) @ model.coeff_matrix @ ob.evaluate_many(grid).T
        assert np.abs(series.location - regression).max() < 1e-6
        floor = np.sqrt(model.tau_estimate)  # at least the residual prior level
        assert np.all(series.scale >= 0.99 * floor)

    def test_extrapolation_flag(self, wave_space):
        design = lhd(5, wave_space, 6)
        grid = np.round(0.5 * np.arange(5), 12)
        train = toy_training_set(design, grid)
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.0, 0.5, 0.8), 1.0), train,
        )
        assert not model.predict([-1.0, 1.5, 1.7]).extrapolation
        assert model.predict([5.0, 1.5, 1.7]).extrapolation
        assert model.predict([-1.0, 1.5, 1.7], times=[10.0]).extrapolation

    def test_posterior_contraction_at_added_point(self, wave_space):
        # adding a training run at the prediction site shrinks its scale
        grid = np.round(0.5 * np.arange(7), 12)
        ib, ob = InputBasis(wave_space), OutputBasis()
        prior = NigPrior(0.05, 3.0, 0.1)
        kern = KernelSpec((1.0, 0.5, 0.8), 1.0)
        design = lhd(5, wave_space, 7)
        train = toy_training_set(design, grid)
        r_new = np.array([-1.3, 1.6, 2.2])
        before = fit(prior, ib, ob, kern, train).predict(r_new)

        from opemu.design import Design
        from opemu.simulator import toy_simulate

        pts = np.vstack([design.points, r_new])
        bigger = Design(pts, wave_space.to_unit(pts), wave_space)
        train2 = TrainingSet(bigger, grid,
                             np.vstack([train.outputs, toy_simulate(r_new, grid)]))
        after = fit(prior, ib, ob, kern, train2).predict(r_new)
        assert np.all(after.scale <= before.scale * (1 + 1e-9) + 1e-12)

    def test_dof_grows_by_q_per_point(self, wave_space):
        grid = np.round(0.5 * np.arange(7), 12)
        ib, ob = InputBasis(wave_space), OutputBasis()
        prior = NigPrior(0.05, 3.0, 0.1)
        kern = KernelSpec((1.0, 0.5, 0.8), 1.0)
        m5 = fit(prior, ib, ob, kern, toy_training_set(lhd(5, wave_space, 1), grid))
        m6 = fit(prior, ib, ob, kern, toy_training_set(lhd(6, wave_space, 1), grid))
        assert m6.dof - m5.dof == len(grid)

    def test_scale_nonnegative_and_clamp_counted(self, wave_space):
        design = lhd(10, wave_space, 9)
        grid = np.round(0.2 * np.arange(30), 12)
        train = toy_training_set(design, grid)
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.5, 0.8, 1.2), 1.5), train,
        )
        for i in range(train.n):
            series = model.predict(design.points[i])
            assert np.all(series.scale >= 0.0)
            assert series.clamped >= 0
            assert series.min_unit_variance >= -1e-12


class TestPredictMany:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n,q", [(2, 3), (4, 5)])
    def test_against_dense_oracle(self, n, q, seed):
        train, ib, ob, kern = small_problem(n=n, q=q, seed=seed)
        jitter = 1e-8
        nu = ib.size * ob.size
        prior = NigPrior(0.25, 3.0, 0.5)
        model = fit(prior, ib, ob, kern, train, jitter)
        K, Q = reference.dense_problem(train, ib, ob, kern, jitter)
        mn, Vn, an, dn = reference.dense_fit(
            train.outputs, K, Q, np.zeros(nu), prior.sigma2 * np.eye(nu), prior.dof,
            prior.scale
        )
        space = train.design.space
        rng = np.random.default_rng(seed + 11)
        # in the box, a design point, and a point beyond the box's upper corner
        R = np.vstack([space.from_unit(rng.random(3)), train.design.points[:1],
                       space.upper + 0.5 * space.widths])
        for times, beyond in ((None, False), (np.array([0.3, 1.7]), False),
                              (np.array([0.5, 2.5]), True)):
            batch = model.predict_many(R, times)
            assert batch.location.shape == batch.scale.shape == (3, batch.times.size)
            for i, r in enumerate(R):
                loc, scale = reference.dense_series(train, ob, kern, jitter,
                                                    (K, Q, mn, Vn, an, dn), r, times)
                assert np.all(np.abs(batch.location[i] - loc) < 1e-8 * (1 + np.abs(loc)))
                assert np.all(np.abs(batch.scale[i] - scale) < 1e-8 * (1 + np.abs(scale)))
            assert batch.extrapolation.tolist() == [beyond, beyond, True]

    @pytest.mark.parametrize("seed", range(2))
    def test_row_counts_around_n(self, seed):
        # predict_many associates the residual correction one way for
        # m <= n rows and the other way for m > n; both match the oracle
        n = 4
        train, ib, ob, kern = small_problem(n=n, q=5, seed=seed)
        jitter = 1e-8
        nu = ib.size * ob.size
        prior = NigPrior(0.25, 3.0, 0.5)
        model = fit(prior, ib, ob, kern, train, jitter)
        K, Q = reference.dense_problem(train, ib, ob, kern, jitter)
        dense = (K, Q, *reference.dense_fit(train.outputs, K, Q, np.zeros(nu),
                                            prior.sigma2 * np.eye(nu), prior.dof,
                                            prior.scale))
        space = train.design.space
        rng = np.random.default_rng(seed + 21)
        # design points, points in the box and points beyond it
        R = np.vstack([train.design.points, space.from_unit(rng.random((5, space.k))),
                       space.from_unit(rng.uniform(1.1, 1.5, (3, space.k)))])
        for m in (n - 1, n, n + 1, 3 * n):
            for times in (None, np.array([0.3, 1.7, 2.5])):
                batch = model.predict_many(R[:m], times)
                assert batch.location.shape == (m, batch.times.size)
                for i, r in enumerate(R[:m]):
                    loc, scale = reference.dense_series(train, ob, kern, jitter, dense, r,
                                                        times)
                    assert np.all(np.abs(batch.location[i] - loc) < 1e-8 * (1 + np.abs(loc)))
                    assert np.all(np.abs(batch.scale[i] - scale)
                                  < 1e-8 * (1 + np.abs(scale)))
                    one = model.predict(r, times)
                    assert batch.clamped[i] == one.clamped
                    assert batch.extrapolation[i] == one.extrapolation

    def test_matches_row_by_row_predict(self, wave_space):
        design = lhd(10, wave_space, 9)
        grid = np.round(0.2 * np.arange(30), 12)
        train = toy_training_set(design, grid)
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.5, 0.8, 1.2), 1.5), train,
        )
        rng = np.random.default_rng(5)
        R = np.vstack([design.points,
                       wave_space.from_unit(rng.random((20, 3))),
                       wave_space.from_unit(rng.uniform(-0.5, 1.5, (10, 3)))])
        inside = [wave_space.contains(r) for r in R]
        assert not all(inside)
        for times in (None, 0.03 + 0.35 * np.arange(15), np.array([1.0, 7.5])):
            batch = model.predict_many(R, times)
            assert batch.location.shape == (R.shape[0], batch.times.size)
            for i, r in enumerate(R):
                series = model.predict(r, times)
                assert np.array_equal(batch.times, series.times)
                assert np.allclose(batch.location[i], series.location, rtol=1e-12, atol=1e-14)
                assert np.allclose(batch.scale[i], series.scale, rtol=1e-12, atol=1e-14)
                assert batch.extrapolation[i] == series.extrapolation
                assert batch.clamped[i] == series.clamped
                assert batch.dof == series.dof
                # one input: health fields are plain Python scalars
                assert type(series.extrapolation) is bool and type(series.clamped) is int
                assert type(series.min_unit_variance) is float
            past_grid = times is not None and times.max() > grid[-1]
            assert batch.extrapolation.tolist() == [past_grid or not ok for ok in inside]

    def test_cached_grid_side_matches_explicit_grid_times(self, wave_space):
        # times=None reads the cached training-grid factors and skips the
        # time-range test; naming the grid's times builds them afresh
        design = lhd(10, wave_space, 4)
        grid = np.round(0.2 * np.arange(30), 12)
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.5, 0.8, 1.2), 1.5), toy_training_set(design, grid),
        )
        rng = np.random.default_rng(8)
        R = np.vstack([design.points[:3],
                       wave_space.from_unit(rng.random((4, 3))),
                       wave_space.from_unit(rng.uniform(1.1, 1.5, (3, 3)))])
        assert model._grid_cache is None
        cached = model.predict_many(R)
        assert model._grid_cache is not None
        pairs = [(cached, model.predict_many(R, times=model.time_grid))]
        pairs += [(model.predict(r), model.predict(r, times=model.time_grid)) for r in R]
        for got, fresh in pairs:
            assert np.array_equal(got.times, fresh.times)
            assert np.array_equal(got.location, fresh.location)
            assert np.array_equal(got.scale, fresh.scale)
            assert np.array_equal(got.extrapolation, fresh.extrapolation)
            assert np.array_equal(got.clamped, fresh.clamped)
        assert cached.extrapolation.tolist() == [False] * 7 + [True] * 3

    def test_clamp_counts_per_row(self, wave_space):
        # without jitter the unit variance at a design point on the grid is
        # zero up to rounding, so some of its entries clip to zero
        design = lhd(8, wave_space, 2)
        grid = np.round(0.25 * np.arange(24), 12)
        train = toy_training_set(design, grid)
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.5, 0.8, 1.2), 1.5), train, jitter=0.0,
        )
        R = np.vstack([design.points, wave_space.from_unit([[0.5, 0.5, 0.5]])])
        batch = model.predict_many(R)
        assert batch.clamped.sum() > 0
        assert batch.clamped[-1] == 0 and batch.min_unit_variance[-1] > 0
        for i in range(R.shape[0]):
            # a clipped entry has zero scale; rounding can also give exactly zero
            assert batch.clamped[i] <= np.count_nonzero(batch.scale[i] == 0.0)
            assert (batch.clamped[i] > 0) == (batch.min_unit_variance[i] < 0)
            assert batch.min_unit_variance[i] >= -1e-12


class TestCredibleInterval:
    def test_zero_scale_degenerates(self):
        series = Predictive([0.0, 1.0], [1.5, -2.0], [0.0, 0.0], dof=10.0)
        lo, hi = credible_interval(series, 0.95)
        assert np.array_equal(lo, series.location)
        assert np.array_equal(hi, series.location)

    def test_normal_limit(self):
        series = Predictive([0.0], [0.0], [1.0], dof=1e9)
        lo, hi = credible_interval(series, 0.95)
        assert abs(hi[0] - 1.959964) < 1e-4

    def test_dof_three_quantile(self):
        # Student-t table value at 97.5%, 3 dof
        series = Predictive([0.0], [0.0], [1.0], dof=3.0)
        lo, hi = credible_interval(series, 0.95)
        oracle = student_t.ppf(0.975, 3.0)
        assert abs(hi[0] - oracle) < 1e-12
        assert abs(hi[0] - 3.18245) < 5e-5
        assert lo[0] == -hi[0]

    def test_rejects_bad_level(self):
        series = Predictive([0.0], [0.0], [1.0], dof=3.0)
        with pytest.raises(ValueError):
            credible_interval(series, 1.5)

    # 6867 and 7043 are the reference problem's LOO and full-fit dof; the
    # quantile switches from stdtrit to Cornish-Fisher at 3000
    @pytest.mark.parametrize("dof", [1.0, 3.0, 7043.0, 1e6, 6867.0, 2999.0, 3000.0, 1e12,
                                     math.inf] + [10.0 ** (k + 0.5) for k in range(12)])
    def test_matches_scipy_stats_t(self, dof):
        series = Predictive([0.0, 1.0], [0.25, -1.0], [1.0, 0.3], dof=dof)
        for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            _, hi = credible_interval(series, level)
            half = student_t.ppf(0.5 * (1.0 + level), dof) * series.scale
            np.testing.assert_allclose(hi, series.location + half, rtol=1e-12, atol=0)

    @staticmethod
    def quantile(dof, level):
        return credible_interval(Predictive([0.0], [0.0], [1.0], dof=dof), level)[1][0]

    @pytest.mark.parametrize("dof", [0.0, -2.0, float("nan")])
    def test_rejects_nonpositive_dof(self, dof):
        with pytest.raises(ValueError, match="dof"):
            self.quantile(dof, 0.95)

    def test_levels_at_the_ends_of_float_resolution(self):
        # 0.5 * (1 + level) rounds to 1/2 or to 1, as in scipy.special.stdtrit
        for dof in (5.0, 7043.0):
            assert self.quantile(dof, 1e-17) == 0.0
            assert self.quantile(dof, math.nextafter(1.0, 0.0)) == math.inf

    def test_infinite_dof_is_normal(self):
        from scipy.special import ndtri

        for level in (0.5, 0.95, 0.999):
            assert math.isclose(self.quantile(math.inf, level), ndtri(0.5 * (1.0 + level)),
                                rel_tol=1e-15)

    def test_below_3000_dof_is_stdtrit_bit_for_bit(self):
        from scipy.special import stdtrit

        for dof in (3.0, 28.0, 2999.0):
            assert self.quantile(dof, 0.95) == stdtrit(dof, 0.975)

    @pytest.mark.parametrize("level", [0.1, 0.5, 0.9, 0.95, 0.99, 0.999])
    def test_closed_forms(self, level):
        p = 0.5 * (1.0 + level)
        assert math.isclose(self.quantile(1.0, level), math.tan(math.pi * (p - 0.5)),
                            rel_tol=1e-12)
        assert math.isclose(self.quantile(2.0, level),
                            (2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel_tol=1e-12)

    def test_matches_recorded_40_digit_values(self):
        # written by tests/make_t_quantiles.py with mpmath
        path = os.path.join(os.path.dirname(__file__), "data", "t_quantiles.json")
        with open(path) as fh:
            cases = json.load(fh)["cases"]
        assert len(cases) >= 12
        for case in cases:
            assert math.isclose(self.quantile(case["dof"], case["level"]),
                                float(case["quantile"]), rel_tol=1e-12), case


class TestSerialization:
    @pytest.mark.parametrize("exponent, jitter", [(1.5, 1e-8), (2.0, 1e-6)])
    def test_round_trip_preserves_predictions(self, wave_space, tmp_path, exponent, jitter):
        design = lhd(6, wave_space, 11)
        grid = np.round(0.5 * np.arange(8), 12)
        train = toy_training_set(design, grid)
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.0, 0.5, 0.8), 1.0, exponent), train, jitter,
        )
        path = tmp_path / "model.json"
        save_model(model, str(path), meta={"seed": 11})
        loaded = load_model(str(path))
        assert loaded.training_fingerprint == model.training_fingerprint
        assert loaded.kernel == model.kernel
        assert loaded.jitter == model.jitter
        # load_model builds the same factors as fit, so predictions agree bit for bit
        r = [-0.5, 1.2, 2.7]
        a, b = model.predict(r), loaded.predict(r)
        assert np.array_equal(a.location, b.location)
        assert np.array_equal(a.scale, b.scale)
        assert a.dof == b.dof
        R = np.array([r, [0.5, 1.8, 0.9], [-2.9, 1.1, 2.9]])
        for times in (None, [0.3, 1.7, 3.0]):
            a, b = model.predict_many(R, times), loaded.predict_many(R, times)
            assert np.array_equal(a.location, b.location)
            assert np.array_equal(a.scale, b.scale)

    @pytest.mark.parametrize("source", ["fit", "load_model"])
    def test_core_is_the_one_holder(self, wave_space, tmp_path, source):
        design = lhd(5, wave_space, 3)
        train = toy_training_set(design, np.round(0.5 * np.arange(6), 12))
        model = fit(NigPrior(0.05, 3.0, 0.1), InputBasis(wave_space), OutputBasis(),
                    KernelSpec((1.0, 0.5, 0.8), 1.0, 2.0), train, 1e-6)
        if source == "load_model":
            save_model(model, str(tmp_path / "model.json"))
            model = load_model(str(tmp_path / "model.json"))
        for name in ("kernel", "jitter", "time_grid", "output_basis", "design"):
            with pytest.raises(AttributeError):
                setattr(model, name, getattr(model, name))
        core, time = model._core, model._core.time
        assert core.design is model.design
        assert time.kernel is model.kernel and time.jitter == model.jitter
        assert time.grid is model.time_grid and time.output_basis is model.output_basis
        assert model.dof == model.prior.dof + model.design.n * model.time_grid.size
        assert model.input_basis == InputBasis(model.design.space)
        # the factors were computed from exactly these facts
        pts, grid = model.design.points, model.time_grid
        assert np.array_equal(core.Kr, input_correlation_matrix(pts, pts, model.kernel)
                              + model.jitter * np.eye(len(pts)))
        assert np.array_equal(time.Ks, output_correlation_matrix(grid, grid, model.kernel)
                              + model.jitter * np.eye(grid.size))
        assert np.array_equal(time.Gs, model.output_basis.evaluate_many(grid))

    def _saved_doc(self, wave_space, tmp_path):
        design = lhd(5, wave_space, 12)
        train = toy_training_set(design, np.round(0.5 * np.arange(6), 12))
        model = fit(
            NigPrior(0.05, 3.0, 0.1),
            InputBasis(wave_space), OutputBasis(),
            KernelSpec((1.0, 0.5, 0.8), 1.0), train,
        )
        path = tmp_path / "model.json"
        save_model(model, str(path))
        return model, path, json.loads(path.read_text())

    def test_older_file_with_stored_coeff_cov_loads(self, wave_space, tmp_path):
        model, path, doc = self._saved_doc(wave_space, tmp_path)
        assert "coeff_cov" not in doc["posterior"]
        doc["posterior"]["coeff_cov"] = reference.coeff_cov(model).tolist()
        path.write_text(json.dumps(doc))
        loaded = load_model(str(path))
        r = [-0.5, 1.2, 2.7]
        a, b = model.predict(r), loaded.predict(r)
        assert np.abs(a.location - b.location).max() < 1e-12
        assert np.abs(a.scale - b.scale).max() < 1e-12
        assert np.abs(reference.coeff_cov(loaded) - reference.coeff_cov(model)).max() < 1e-12

    def test_missing_key_names_it(self, wave_space, tmp_path):
        from opemu.errors import DataError

        _, path, doc = self._saved_doc(wave_space, tmp_path)
        del doc["posterior"]["scale"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="posterior.scale"):
            load_model(str(path))

    @pytest.mark.parametrize("key, value", [
        ("residual_weights", float("nan")),
        ("posterior.scale", float("inf")),
        ("posterior.dof", float("nan")),
        ("posterior.coeff_mean", float("-inf")),
        ("kernel.output_length", float("nan")),
        ("kernel.input_lengths", float("inf")),
        ("jitter", float("nan")),
        ("time_grid", float("nan")),
        ("space.bounds", float("inf")),
        ("output_basis.frequencies", float("nan")),
        ("prior.sigma2", float("inf")),
    ])
    def test_non_finite_value_names_key(self, wave_space, tmp_path, key, value):
        from opemu.errors import DataError

        _, path, doc = self._saved_doc(wave_space, tmp_path)
        *parents, last = key.split(".")
        node = doc
        for part in parents:
            node = node[part]
        if isinstance(node[last], list):  # replace the first number of the array
            inner = node[last]
            while isinstance(inner[0], list):
                inner = inner[0]
            inner[0] = value
        else:
            node[last] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=key.replace(".", r"\.") + ".*non-finite"):
            load_model(str(path))

    @pytest.mark.parametrize("key, edit", [
        ("posterior.dof", lambda doc: doc["posterior"].update(dof=3.0)),  # not a + n*q
        ("time_grid", lambda doc: doc["time_grid"].reverse()),
    ], ids=["posterior.dof", "time_grid"])
    def test_inconsistent_value_names_key(self, wave_space, tmp_path, key, edit):
        from opemu.cli import main
        from opemu.errors import DataError

        _, path, doc = self._saved_doc(wave_space, tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"'{key}'"):
            load_model(str(path))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": {"model": str(path)}}))
        assert main(["predict", "--config", str(cfg), "--point=-0.5,1.2,2.7",
                     "--out", str(tmp_path / "p.csv")]) == 3
        assert not (tmp_path / "p.csv").exists()

    def test_wrong_shape_names_key(self, wave_space, tmp_path):
        from opemu.errors import DataError

        _, path, doc = self._saved_doc(wave_space, tmp_path)
        doc["residual_weights"] = doc["residual_weights"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="residual_weights"):
            load_model(str(path))

    def test_stored_design_seed_loads_identically(self, wave_space, tmp_path):
        # files written before designs dropped their seed store design.seed
        model, path, doc = self._saved_doc(wave_space, tmp_path)
        assert set(doc["design"]) == {"points"}
        loaded = load_model(str(path))
        doc["design"]["seed"] = 7
        path.write_text(json.dumps(doc))
        older = load_model(str(path))
        R = [[-0.5, 1.2, 2.7], [-2.0, 0.8, 1.1]]
        for times in (None, [0.25, 1.75]):
            a, b = loaded.predict_many(R, times), older.predict_many(R, times)
            assert np.array_equal(a.location, b.location)
            assert np.array_equal(a.scale, b.scale)

    def test_slash_in_stored_name_rejected(self, wave_space, tmp_path):
        from opemu.errors import DataError

        _, path, doc = self._saved_doc(wave_space, tmp_path)
        doc["space"]["names"][2] = "../c"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="slashes"):
            load_model(str(path))

    @pytest.mark.parametrize("key, value", [
        ("cov", np.eye(77).tolist()),
        ("mean", [0.0] * 77),
        ("mean", [0.0] * 76 + [0.5]),
    ], ids=["cov", "zero-mean", "nonzero-mean"])
    def test_legacy_prior_key_rejected(self, wave_space, tmp_path, key, value):
        # builds before the zero-mean isotropic prior stored prior.cov or prior.mean
        from opemu.cli import main
        from opemu.errors import DataError

        _, path, doc = self._saved_doc(wave_space, tmp_path)
        doc["prior"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"'prior\.{key}'.*rerun fit"):
            load_model(str(path))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": {"model": str(path)}}))
        assert main(["predict", "--config", str(cfg), "--point=-0.5,1.2,2.7",
                     "--out", str(tmp_path / "p.csv")]) == 3
        assert not (tmp_path / "p.csv").exists()

    def test_rejects_non_model_json(self, tmp_path):
        from opemu.errors import DataError

        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            load_model(str(path))


class TestTrainingSet:
    def test_rejects_non_finite(self, wave_space):
        design = lhd(3, wave_space, 0)
        F = np.zeros((3, 4))
        F[1, 2] = np.nan
        from opemu.errors import DataError

        with pytest.raises(DataError, match="row 1"):
            TrainingSet(design, [0.0, 0.5, 1.0, 1.5], F)

    def test_rejects_decreasing_grid(self, wave_space):
        design = lhd(3, wave_space, 0)
        with pytest.raises(ValueError, match="increasing"):
            TrainingSet(design, [0.0, 1.0, 0.5], np.zeros((3, 3)))
