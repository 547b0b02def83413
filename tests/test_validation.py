import numpy as np
import pytest

import opemu.validation
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
    loo,
    mcil,
    med,
    rmse,
    toy_training_set,
)
from opemu.design import Design, DesignSpace
from opemu.errors import NumericalDegeneracyError
from opemu.validation import save_fold_csv, save_report_json


class TestRmse:
    def test_identical_series(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        obs = np.array([0.0, 1.0, -2.0])
        assert abs(rmse(obs, obs + 0.75) - 0.75) < 1e-15

    def test_three_four_example(self):
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-12
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - 3.5355) < 1e-4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 20))
        assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12


class TestMed:
    def test_two_points(self):
        space = DesignSpace(bounds=[(0.0, 2.0)])
        pts = np.array([[0.5], [1.5]])
        d = Design(pts, space.to_unit(pts), space)
        assert np.allclose(med(d), [1.0, 1.0])

    def test_collinear_three(self):
        space = DesignSpace(bounds=[(0.0, 2.0)])
        pts = np.array([[0.0], [1.0], [2.0]])
        d = Design(pts, space.to_unit(pts), space)
        assert np.allclose(med(d), [1.5, 1.0, 1.5])

    def test_denominator_is_n_minus_one(self, wave_space):
        d = lhd(40, wave_space, 2)
        values = med(d)
        # recompute with an explicit 39 denominator
        diff = d.points[:, None, :] - d.points[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        assert np.allclose(values, dist.sum(axis=1) / 39.0)

    def test_permutation_equivariance(self, wave_space):
        d = lhd(10, wave_space, 5)
        perm = np.random.default_rng(1).permutation(10)
        shuffled = Design(d.points[perm], d.unit_points[perm], wave_space)
        assert np.allclose(med(shuffled), med(d)[perm])


class TestMcil:
    def test_zero_scale(self):
        series = Predictive([0, 1], [0.5, 0.5], [0.0, 0.0], dof=5.0)
        assert mcil(series) == 0.0

    def test_normal_limit_width(self):
        series = Predictive([0, 1, 2], [0.0] * 3, [2.0] * 3, dof=1e9)
        assert abs(mcil(series, 0.95) - 2 * 1.959964 * 2.0) < 1e-3

    def test_linear_in_scale(self):
        s = np.array([0.5, 1.0, 2.0])
        a = Predictive([0, 1, 2], [0.0] * 3, s, dof=7.0)
        b = Predictive([0, 1, 2], [0.0] * 3, s / 2, dof=7.0)
        assert abs(mcil(a) - 2 * mcil(b)) < 1e-12

    @pytest.mark.parametrize("q", [1, 7, 176, 701])
    def test_rows_reduce_as_one_input_each(self, q):
        rng = np.random.default_rng(q)
        times = np.arange(float(q))
        loc, scale = rng.normal(size=(2, q)), rng.random((2, q))
        both = mcil(Predictive(times, loc, scale, dof=7.0), 0.9)
        assert both.shape == (2,)
        for i in range(2):
            assert both[i] == mcil(Predictive(times, loc[i], scale[i], dof=7.0), 0.9)


def _fit_inputs(space, n=8, seed=3, q=13):
    design = lhd(n, space, seed)
    grid = np.round(0.5 * np.arange(q), 12)
    train = toy_training_set(design, grid)
    ib, ob = InputBasis(space), OutputBasis()
    prior = NigPrior(0.05, 3.0, 0.1)
    kern = KernelSpec((1.0, 0.5, 0.8), 1.0)
    return train, ib, ob, kern, prior


def _without(train, i):
    """The training set without design point i, built apart from loo."""
    keep = np.arange(train.n) != i
    d = train.design
    return TrainingSet(Design(d.points[keep], d.unit_points[keep], d.space),
                       train.time_grid, train.outputs[keep])


class TestLoo:
    def test_minimal_three_folds(self, wave_space):
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=3)
        report = loo(train, ib, ob, kern, prior)
        assert len(report.diagnostics) == 3
        assert [d.index for d in report.diagnostics] == [0, 1, 2]

    def test_fold_shapes_and_metrics(self, wave_space):
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=6)
        report = loo(train, ib, ob, kern, prior)
        for d in report.diagnostics:
            assert d.observed.size == train.q
            assert d.series.location.size == train.q
            assert d.rmse >= 0
            assert d.mcil >= 0
            assert 0.0 <= d.coverage <= 1.0
        assert report.med.size == train.n
        assert np.isfinite(report.corr_med_rmse)
        assert np.isfinite(report.corr_med_mcil)

    def test_duplicated_point_predicts_itself(self, wave_space):
        # duplicate retained in training: held-out fold keeps the info
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=6)
        pts = np.vstack([train.design.points, train.design.points[2]])
        design = Design(pts, wave_space.to_unit(pts), wave_space)
        full = TrainingSet(design, train.time_grid,
                           np.vstack([train.outputs, train.outputs[2]]))
        report = loo(full, ib, ob, kern, prior)
        dup_fold = next(d for d in report.diagnostics if d.index == 6)
        std = full.outputs.std()
        assert dup_fold.rmse <= 1e-2 * std

    def test_fold_failure_recorded(self, wave_space, monkeypatch):
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=5)

        def fit_without_point_0_fails(prior, ib, ob, kernel, subset, *args):
            if subset.design.points[0, 0] != train.design.points[0, 0]:
                raise NumericalDegeneracyError("the input correlation matrix")
            return fit(prior, ib, ob, kernel, subset, *args)

        monkeypatch.setattr(opemu.validation, "fit", fit_without_point_0_fails)
        report = loo(train, ib, ob, kern, prior)
        assert len(report.failures) == 1
        assert report.failures[0]["index"] == 0
        assert len(report.diagnostics) == 4

    def test_folds_equal_independent_fits(self, wave_space):
        # the folds share one time side; each predicts as a standalone fit does
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=6)
        report = loo(train, ib, ob, kern, prior, level=0.9)
        assert [d.index for d in report.diagnostics] == list(range(train.n))
        for d in report.diagnostics:
            subset = _without(train, d.index)
            series = fit(prior, ib, ob, kern, subset).predict(train.design.points[d.index])
            lo, hi = credible_interval(series, 0.9)
            for got, want in ((d.series.location, series.location),
                              (d.series.scale, series.scale), (d.lower, lo), (d.upper, hi)):
                assert np.array_equal(got, want)

    def test_fold_matches_dense_oracle(self, wave_space):
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=5, q=6)
        i = 2
        fold = loo(train, ib, ob, kern, prior).diagnostics[i]
        subset = _without(train, i)
        jitter = 1e-8
        K, Q = reference.dense_problem(subset, ib, ob, kern, jitter)
        nu = ib.size * ob.size
        posterior = reference.dense_fit(subset.outputs, K, Q, np.zeros(nu),
                                        prior.sigma2 * np.eye(nu), prior.dof,
                                        prior.scale)
        loc, scale = reference.dense_series(subset, ob, kern, jitter, (K, Q, *posterior),
                                            train.design.points[i], None)
        assert np.all(np.abs(fold.series.location - loc) <= 1e-10 * np.abs(loc))
        assert np.all(np.abs(fold.series.scale - scale) <= 1e-10 * np.abs(scale))

    def test_unfactorable_time_kernel_raises(self, wave_space):
        # the folds share one time side, so its failure is the call's, not n folds'
        train, ib, ob, _, prior = _fit_inputs(wave_space)
        flat = KernelSpec((1.0, 0.5, 0.8), 1e4, 2.0)
        with pytest.raises(NumericalDegeneracyError, match="output correlation"):
            loo(train, ib, ob, flat, prior, jitter=0.0)

    def test_rejects_tiny_design(self, wave_space):
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=3)
        two = TrainingSet(
            Design(train.design.points[:2], train.design.unit_points[:2], wave_space),
            train.time_grid,
            train.outputs[:2],
        )
        with pytest.raises(ValueError):
            loo(two, ib, ob, kern, prior)


class TestExports:
    def test_fold_csv(self, wave_space, tmp_path):
        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=4)
        report = loo(train, ib, ob, kern, prior)
        path = tmp_path / "fold.csv"
        save_fold_csv(report.diagnostics[0], str(path), meta={"seed": 1})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "time,observed,location,lo95,hi95"
        assert len(lines) == 2 + train.q
        # the columns name the level the band was computed at
        report = loo(train, ib, ob, kern, prior, level=0.9)
        save_fold_csv(report.diagnostics[0], str(path))
        assert path.read_text().splitlines()[0] == "time,observed,location,lo90,hi90"

    def test_report_json(self, wave_space, tmp_path):
        import json

        train, ib, ob, kern, prior = _fit_inputs(wave_space, n=4)
        report = loo(train, ib, ob, kern, prior)
        path = tmp_path / "report.json"
        save_report_json(report, str(path))
        doc = json.loads(path.read_text())
        assert len(doc["folds"]) == 4
        assert 0.0 <= doc["pooled_coverage"] <= 1.0
