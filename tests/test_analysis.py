import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from opemu import (
    BetaInputSpec,
    DesignSpace,
    InputBasis,
    KernelSpec,
    NigPrior,
    OutputBasis,
    Predictive,
    SweepSpec,
    credible_interval,
    fit,
    max_elevation,
    mcil,
    maximin_lhd,
    sample_beta,
    sensitivity_sweep,
    toy_simulate,
    toy_training_set,
    uq_monte_carlo,
)
from opemu.analysis import (
    QUANTILE_LEVELS,
    UQ_BLOCK,
    check_sweep,
    save_histogram_csv,
    save_quantiles_csv,
    save_quantiles_json,
)


class TestMaxElevation:
    def test_picks_largest_location(self):
        series = Predictive([0, 1, 2], [0.1, 0.9, 0.3], [0.0] * 3, dof=5.0)
        assert max_elevation(series) == 0.9

    def test_all_negative(self):
        series = Predictive([0, 1, 2], [-0.5, -0.1, -0.9], [0.0] * 3, dof=5.0)
        assert max_elevation(series) == -0.1

    def test_rows_reduce_as_one_input_each(self):
        rng = np.random.default_rng(4)
        times = np.arange(176.0)
        loc, scale = rng.normal(size=(2, 176)), rng.random((2, 176))
        both = max_elevation(Predictive(times, loc, scale, dof=5.0))
        assert both.shape == (2,)
        for i in range(2):
            assert both[i] == max_elevation(Predictive(times, loc[i], scale[i], dof=5.0))

    def test_toy_grid_max_near_continuous_max(self):
        # oracle: continuous maximization of the closed-form toy series
        r = [-1.0, 1.5, 2.0]
        dt = 0.2
        grid = np.round(dt * np.arange(176), 12)
        values = toy_simulate(r, grid)
        grid_argmax = grid[np.argmax(values)]
        res = minimize_scalar(
            lambda t: -toy_simulate(r, [t])[0],
            bounds=(max(grid_argmax - dt, 0.0), grid_argmax + dt),
            method="bounded",
            options={"xatol": 1e-10},
        )
        true_max, true_argmax = -res.fun, res.x
        assert values.max() <= true_max + 1e-12
        assert abs(true_argmax - grid_argmax) <= dt


@pytest.fixture(scope="module")
def toy_model():
    space = DesignSpace(bounds=[(-3.0, 1.0), (1.0, 2.0), (0.5, 3.0)],
                        names=("x0", "u0", "c"))
    design = maximin_lhd(16, space, seed=4, candidates=20)
    grid = np.round(0.25 * np.arange(61), 12)
    train = toy_training_set(design, grid)
    ib, ob = InputBasis(space), OutputBasis()
    prior = NigPrior(0.01, 3.0, 0.1)
    kern = KernelSpec((2.0, 1.0, 0.6), 1.5)
    return fit(prior, ib, ob, kern, train)


class TestMcil:
    @pytest.mark.parametrize("rows", [1, 300])
    def test_is_the_credible_intervals_mean_length(self, toy_model, rows):
        space = toy_model.design.space
        R = space.from_unit(np.random.default_rng(rows).random((rows, space.k)))
        pred = toy_model.predict(R[0]) if rows == 1 else toy_model.predict_many(R)
        lo, hi = credible_interval(pred, 0.95)
        width = np.mean(hi - lo, axis=-1)
        # With u = eps/2 and h the half-width t*s that credible_interval
        # adds to and subtracts from the location x: x - h and x + h each
        # round by at most u (|x| + h), and their difference, about 2h,
        # rounds by at most 2u h more, so every length is 2h within
        # 2 eps (|x| + h), and so is the lengths' mean. Then the floats of
        # the two means: q nonnegative terms sum within (q - 1) u of their
        # total in any order and the division rounds once more, so the
        # lengths' mean, about 2 mean(h), is within q eps mean(h) of its
        # exact value; mcil = 2t * mean(s) is within (q + 1) eps mean(h)
        # of 2t times the exact mean(s) (the mean and one product); and
        # h = fl(t*s) is within u h of t*s, which moves 2 mean(h) by at
        # most eps mean(h).
        half = 0.5 * (hi - lo)
        q = pred.times.size
        tol = (2 * np.finfo(float).eps * np.max(np.abs(pred.location) + half, axis=-1)
               + 2 * (q + 1) * np.finfo(float).eps * np.mean(half, axis=-1))
        got = mcil(pred, 0.95)
        assert np.shape(got) == np.shape(width) == (() if rows == 1 else (rows,))
        assert np.all(np.abs(got - width) <= tol)

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_rejects_levels_zero_and_one(self, toy_model, level):
        pred = toy_model.predict(toy_model.design.points[0])
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            mcil(pred, level)


class TestSweep:
    def test_two_point_resolution(self, toy_model):
        spec = SweepSpec(dim=1, lower=1.0, upper=2.0, fixed=(-1.0, 0.0, 1.5),
                         resolution=2)
        curve = sensitivity_sweep(toy_model, spec)
        assert curve.values.size == 2
        assert curve.n_evaluations == 2

    def test_monotone_in_speed(self, toy_model):
        # the toy's amplitude is linear in the speed input
        spec = SweepSpec(dim=1, lower=1.0, upper=2.0, fixed=(-1.0, 0.0, 1.5),
                         resolution=11)
        curve = sensitivity_sweep(toy_model, spec)
        assert np.all(np.diff(curve.max_elev) > -1e-9)

    def test_deterministic(self, toy_model):
        spec = SweepSpec(dim=0, lower=-2.0, upper=0.0, fixed=(0.0, 1.5, 1.5),
                         resolution=7)
        a = sensitivity_sweep(toy_model, spec)
        b = sensitivity_sweep(toy_model, spec)
        assert np.array_equal(a.max_elev, b.max_elev)

    def test_rejects_outside_box(self, toy_model):
        with pytest.raises(ValueError, match="design box"):
            sensitivity_sweep(
                toy_model,
                SweepSpec(dim=0, lower=-5.0, upper=0.0, fixed=(0.0, 1.5, 1.5)),
            )

    @pytest.mark.parametrize("lower, upper, fixed, message", [
        (-3.0 - 1e-13, 1.0 + 1e-13, (0.0, 1.5), None),  # float noise at the ends
        (-3.0 - 1e-11, 0.0, (0.0, 1.5), r"design box \[-3.0, 1.0\] for x0"),
        (-2.0, 1.0 + 1e-11, (0.0, 1.5), r"design box \[-3.0, 1.0\] for x0"),
        (-2.0, 0.0, (0.0, 2.0 + 1e-13), None),
        (-2.0, 0.0, (99.0, 1.5), None),  # the swept dimension's entry is not read
        (-2.0, 0.0, (0.0, 2.0 + 1e-11), r"fixed value 2.00000000001 leaves the design box"),
        (-2.0, 0.0, (0.0, 1.0 - 1e-11), r"fixed value 0.99999999999 leaves the design box"),
        (-2.0, 0.0, (0.0, float("nan")), r"fixed value nan leaves .* \[1.0, 2.0\] for u0"),
        (-2.0, 0.0, (0.0,), "fixed needs 2 values, got 1"),
        (-2.0, 0.0, (0.0, 1.5, 1.5), "fixed needs 2 values, got 3"),
    ], ids=["within-slack", "below", "above", "fixed-within-slack", "fixed-swept-entry",
            "fixed-above", "fixed-below", "fixed-nan", "fixed-short", "fixed-long"])
    def test_check_sweep_box_and_slack(self, lower, upper, fixed, message):
        space = DesignSpace(bounds=[(-3.0, 1.0), (1.0, 2.0)], names=("x0", "u0"))
        spec = SweepSpec(dim=0, lower=lower, upper=upper, fixed=fixed)
        if message is None:
            check_sweep(spec, space)
        else:
            with pytest.raises(ValueError, match=message):
                check_sweep(spec, space)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            SweepSpec(dim=0, lower=0.0, upper=1.0, fixed=(0.0,), resolution=1)


class TestSampleBeta:
    def test_uniform_special_case_ks(self):
        spec = BetaInputSpec(dims=((1.0, 1.0, 0.0, 1.0),))
        samples = sample_beta(spec, 1000, seed=5)[:, 0]
        assert kstest(samples, "uniform").pvalue >= 0.01

    def test_skewed_mean_on_shifted_interval(self):
        # Be(5,2) on [-2,0]: mean -2 + 2*(5/7) = -4/7
        spec = BetaInputSpec(dims=((5.0, 2.0, -2.0, 0.0),))
        x = sample_beta(spec, 1000, seed=6)[:, 0]
        se = 2.0 * np.sqrt(10.0 / (49.0 * 8.0)) / np.sqrt(1000)
        assert abs(x.mean() - (-4.0 / 7.0)) < 3 * se

    def test_left_skewed_mean(self):
        # Be(2,5) on [1,2]: mean 1 + 2/7 = 9/7
        spec = BetaInputSpec(dims=((2.0, 5.0, 1.0, 2.0),))
        x = sample_beta(spec, 1000, seed=6)[:, 0]
        se = np.sqrt(10.0 / (49.0 * 8.0)) / np.sqrt(1000)
        assert abs(x.mean() - 9.0 / 7.0) < 3 * se

    def test_reproducible(self):
        spec = BetaInputSpec(dims=((5.0, 2.0, -2.0, 0.0), (2.0, 5.0, 1.0, 2.0)))
        assert np.array_equal(sample_beta(spec, 50, 3), sample_beta(spec, 50, 3))

    def test_respects_bounds(self):
        spec = BetaInputSpec(dims=((0.5, 0.5, 2.0, 3.0),))
        x = sample_beta(spec, 500, seed=1)
        assert x.min() >= 2.0 and x.max() <= 3.0

    def test_matches_scipy_stats_beta_ppf(self):
        spec = BetaInputSpec(dims=((5.0, 2.0, -2.0, 0.0), (2.0, 5.0, 1.0, 2.0),
                                   (0.7, 0.4, 0.5, 2.5)))
        draws = sample_beta(spec, 2000, 13)
        uniforms = np.random.default_rng(13).random((2000, 3))
        for j, (a, b, lo, hi) in enumerate(spec.dims):
            assert np.array_equal(draws[:, j], lo + (hi - lo) * beta_dist.ppf(uniforms[:, j], a, b))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BetaInputSpec(dims=((0.0, 1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            BetaInputSpec(dims=((1.0, 1.0, 1.0, 0.5),))
        with pytest.raises(ValueError):
            sample_beta(BetaInputSpec(dims=((1.0, 1.0, 0.0, 1.0),)), 0, 1)


def default_beta():
    return BetaInputSpec(
        dims=((5.0, 2.0, -2.0, 0.0), (2.0, 5.0, 1.0, 2.0), (2.0, 5.0, 0.5, 2.5))
    )


class TestUqMonteCarlo:
    def test_table_shape_and_monotonicity(self, toy_model):
        result = uq_monte_carlo(toy_model, default_beta(), n=300, seed=9)
        assert QUANTILE_LEVELS == (1.0, 5.0, 50.0, 95.0, 99.0)
        for summary in (result.max_elevation, result.mean_ci_length):
            assert summary.values.size == 5
            assert np.all(np.diff(summary.values) >= 0)

    def test_bitwise_reproducible(self, toy_model):
        a = uq_monte_carlo(toy_model, default_beta(), n=200, seed=4)
        b = uq_monte_carlo(toy_model, default_beta(), n=200, seed=4)
        assert np.array_equal(a.max_elevation.values, b.max_elevation.values)
        assert np.array_equal(a.histogram_counts, b.histogram_counts)

    def test_point_mass_limit_shrinks_spread(self, toy_model):
        concentrated = BetaInputSpec(
            dims=((5000.0, 5000.0, -2.0, 0.0), (5000.0, 5000.0, 1.0, 2.0),
                  (5000.0, 5000.0, 0.5, 2.5))
        )
        wide = uq_monte_carlo(toy_model, default_beta(), n=300, seed=3)
        narrow = uq_monte_carlo(toy_model, concentrated, n=300, seed=3)
        spread = lambda s: s.values[-1] - s.values[0]
        assert spread(narrow.max_elevation) < 0.1 * spread(wide.max_elevation)

    def test_warns_on_small_sample(self, toy_model):
        with pytest.warns(UserWarning, match="low"):
            uq_monte_carlo(toy_model, default_beta(), n=50, seed=1)

    def test_histogram_accounts_all_samples(self, toy_model):
        result = uq_monte_carlo(toy_model, default_beta(), n=250, seed=8)
        assert result.histogram_counts.sum() == 250

    @pytest.mark.filterwarnings("ignore:n=")
    @pytest.mark.parametrize("n", [1, UQ_BLOCK - 1, UQ_BLOCK, UQ_BLOCK + 1, 1000])
    def test_blocks_match_per_point_loop(self, toy_model, n, monkeypatch):
        # record each block's per-draw values as uq_monte_carlo reduces them
        blocks = {"max_elevation": [], "mcil": []}

        def recording(name, func):
            def wrapped(*args):
                blocks[name].append(func(*args))
                return blocks[name][-1]
            return wrapped

        for name, func in (("max_elevation", max_elevation), ("mcil", mcil)):
            monkeypatch.setattr(f"opemu.analysis.{name}", recording(name, func))
        result = uq_monte_carlo(toy_model, default_beta(), n=n, seed=6, level=0.9)
        series = [toy_model.predict(row) for row in sample_beta(default_beta(), n, 6)]
        max_vals = np.array([max_elevation(s) for s in series])
        mcil_vals = np.array([mcil(s, 0.9) for s in series])
        assert np.allclose(np.concatenate(blocks["max_elevation"]), max_vals,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(np.concatenate(blocks["mcil"]), mcil_vals, rtol=1e-12, atol=0.0)
        for summary, values in ((result.max_elevation, max_vals),
                                (result.mean_ci_length, mcil_vals)):
            expected = np.quantile(values, np.array(QUANTILE_LEVELS) / 100.0)
            assert np.allclose(summary.values, expected, rtol=1e-12, atol=0.0)
        assert result.clamped == sum(s.clamped for s in series)
        assert result.extrapolated == 0

    def test_health_counts(self, toy_model, tmp_path):
        # x0 spread over [-4, 0] leaves the [-3, 1] box for about 5% of draws
        spec = BetaInputSpec(dims=((5.0, 2.0, -4.0, 0.0), (2.0, 5.0, 1.0, 2.0),
                                   (2.0, 5.0, 0.5, 2.5)))
        result = uq_monte_carlo(toy_model, spec, n=400, seed=2)
        space = toy_model.design.space
        outside = sum(not space.contains(row) for row in result.samples)
        assert outside > 0
        assert result.extrapolated == outside
        assert result.clamped == sum(toy_model.predict(r).clamped for r in result.samples)
        path = tmp_path / "quantiles.json"
        save_quantiles_json(result, str(path))
        doc = json.loads(path.read_text())
        assert doc["extrapolated"] == outside
        assert doc["clamped"] == result.clamped
        assert (doc["levels_percent"], doc["n_samples"], doc["seed"]) == (
            list(QUANTILE_LEVELS), 400, 2)

    def test_exports(self, toy_model, tmp_path):
        result = uq_monte_carlo(toy_model, default_beta(), n=150, seed=8)
        qpath = tmp_path / "quantiles.csv"
        hpath = tmp_path / "hist.csv"
        save_quantiles_csv(result, str(qpath), meta={"seed": 8})
        save_histogram_csv(result, str(hpath))
        qlines = qpath.read_text().splitlines()
        assert qlines[0] == "# seed=8"
        assert qlines[1].startswith("statistic,p1,p5,p50,p95,p99")
        assert qlines[2].startswith("max-elevation,")
        assert qlines[3].startswith("mean-CI-length,")
        hlines = hpath.read_text().splitlines()
        assert hlines[0] == "bin_lo,bin_hi,count"
