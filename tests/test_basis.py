import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from opemu import DesignSpace, InputBasis, OutputBasis, lhd, regressor_matrices

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)


class TestInputBasis:
    def test_counts(self, wave_bases):
        ib, ob = wave_bases
        assert ib.size == 7
        assert ob.size == 11
        assert ib.size * ob.size == 77

    def test_vanishes_at_lower_corner(self, wave_bases):
        ib, _ = wave_bases
        g = ib.evaluate([-3.0, 1.0, 0.5])  # u = 0 in every dimension
        assert g[0] == 1.0
        assert np.abs(g[1:]).max() == 0.0

    def test_upper_end_values(self, wave_bases):
        # substituting u=1: linear -> sqrt(3), quadratic -> sqrt(5)*(4-3)
        ib, _ = wave_bases
        g = ib.evaluate([1.0, 2.0, 3.0])
        assert np.allclose(g[1::2], SQRT3, atol=1e-14)
        assert np.allclose(g[2::2], SQRT5, atol=1e-14)

    def test_quadrature_orthonormality(self):
        # independent quadrature oracle over the unit interval
        p1 = lambda u: SQRT3 * u
        p2 = lambda u: SQRT5 * (4 * u * u - 3 * u)
        assert abs(quad(lambda u: p1(u) ** 2, 0, 1)[0] - 1.0) < 1e-10
        assert abs(quad(lambda u: p2(u) ** 2, 0, 1)[0] - 1.0) < 1e-10
        assert abs(quad(lambda u: p1(u) * p2(u), 0, 1)[0]) < 1e-10

    def test_pair_not_orthogonal_to_constant(self):
        # the printed basis is used verbatim: the linear term integrates
        # to sqrt(3)/2, it must NOT be recentred into a Legendre form
        val = quad(lambda u: SQRT3 * u, 0, 1)[0]
        assert abs(val - SQRT3 / 2) < 1e-12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_evaluate_many_matches_per_column_form(self, k):
        space = DesignSpace(bounds=[(-1.0 - j, 0.5 * j + 1.0) for j in range(k)])
        rng = np.random.default_rng(k)
        # in-box and out-of-box rows
        points = space.from_unit(rng.uniform(-0.5, 1.5, (25, k)))
        u = space.to_unit(points)
        expected = np.empty((25, 1 + 2 * k))
        expected[:, 0] = 1.0
        for j in range(k):
            uj = u[:, j]
            expected[:, 1 + 2 * j] = SQRT3 * uj
            expected[:, 2 + 2 * j] = SQRT5 * (4.0 * uj * uj - 3.0 * uj)
        assert np.array_equal(InputBasis(space).evaluate_many(points), expected)

    def test_matches_quadrature_on_mapped_domain(self, wave_space):
        # <p, p> under the uniform weight on the physical interval
        ib = InputBasis(wave_space)
        lo, hi = wave_space.bounds[0]
        f = lambda x: ib.evaluate([x, 1.0, 0.5])[1] ** 2
        val = quad(f, lo, hi)[0] / (hi - lo)
        assert abs(val - 1.0) < 1e-10


class TestOutputBasis:
    def test_at_time_zero(self):
        ob = OutputBasis()
        expected = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        assert np.allclose(ob.evaluate_many([0.0])[0], expected, atol=1e-15)

    def test_full_period(self):
        # t=6 completes one period of the 1/6 frequency term
        ob = OutputBasis()
        g = ob.evaluate_many([6.0])[0]
        assert abs(g[1]) < 1e-12
        assert abs(g[2] - 1.0) < 1e-12

    def test_quarter_period(self):
        ob = OutputBasis()
        assert abs(ob.evaluate_many([1.5])[0][1] - 1.0) < 1e-12  # sin(pi/2)

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            OutputBasis((0.25, -0.5))
        with pytest.raises(ValueError):
            OutputBasis((0.25, 0.25))
        with pytest.raises(ValueError, match="strictly positive"):
            OutputBasis((0.25, float("nan")))

    @given(t=st.floats(0.0, 1000.0))
    @settings(max_examples=100, deadline=None)
    def test_entries_bounded(self, t):
        g = OutputBasis().evaluate_many([t])[0]
        assert np.all(np.abs(g[1:]) <= 1.0 + 1e-15)


class TestRegressorMatrices:
    def test_paper_scale_shapes(self, wave_space, wave_bases):
        ib, ob = wave_bases
        design = lhd(40, wave_space, 0)
        grid = np.round(0.2 * np.arange(176), 12)
        Gr, Gs = regressor_matrices(design, grid, ib, ob)
        assert Gr.shape == (40, 7)
        assert Gs.shape == (176, 11)

    def test_constant_column(self, wave_space, wave_bases):
        ib, ob = wave_bases
        design = lhd(5, wave_space, 1)
        Gr, _ = regressor_matrices(design, [0.0, 1.0], ib, ob)
        assert np.all(Gr[:, 0] == 1.0)

    def test_rejects_empty_grid(self, wave_space, wave_bases):
        ib, ob = wave_bases
        design = lhd(3, wave_space, 5)
        with pytest.raises(ValueError):
            regressor_matrices(design, [], ib, ob)
