import hashlib
import importlib.machinery
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opemu import KernelSpec, kernel_matrices, kernels, lhd
from opemu.design import Design, DesignSpace
from opemu.errors import NumericalDegeneracyError
from opemu.kernels import (
    DEFAULT_JITTER,
    _factor,
    chol_solve,
    input_correlation_matrix,
    output_correlation_matrix,
    output_factor,
)
from reference import correlation as reference_correlation


def spec3(lx=1.0, lu=0.5, lc=0.8, lt=1.0, p=1.5):
    return KernelSpec((lx, lu, lc), lt, p)


class TestPointwise:
    def test_zero_distance(self):
        r = [0.3, 1.5, 2.0]
        assert input_correlation_matrix([r], [r], spec3())[0, 0] == 1.0
        assert output_correlation_matrix([4.2], [4.2], spec3())[0, 0] == 1.0

    def test_one_length_gap(self):
        # moving exactly one correlation length in one dimension
        value = input_correlation_matrix([[1.0, 1.5, 2.0]], [[0.0, 1.5, 2.0]],
                                         spec3(lx=1.0))[0, 0]
        assert abs(value - math.exp(-1.0)) < 1e-15
        assert abs(value - 0.3679) < 1e-4

    def test_one_length_gap_time(self):
        value = output_correlation_matrix([0.0], [1.0], spec3(lt=1.0))[0, 0]
        assert abs(value - math.exp(-1.0)) < 1e-15

    def test_two_lengths_gap_time(self):
        value = output_correlation_matrix([0.0], [2.0], spec3(lt=1.0))[0, 0]
        assert abs(value - math.exp(-(2.0 ** 1.5))) < 1e-15
        assert abs(value - 0.0591) < 1e-4

    def test_infinite_length_limit(self):
        value = input_correlation_matrix([[1.0, 2.0, 3.0]], [[0.0, 1.0, 2.5]],
                                         KernelSpec((np.inf, np.inf, np.inf), 1.0))[0, 0]
        assert value == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec((1.0, -1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            KernelSpec((1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            KernelSpec((1.0, 1.0, 1.0), 1.0, exponent=2.5)
        with pytest.raises(ValueError, match="strictly positive"):
            KernelSpec((np.nan, 1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="strictly positive"):
            KernelSpec((1.0, 1.0, 1.0), np.nan)

    @pytest.mark.parametrize("lengths", [(1.0, 0.5, 0.8, 2.0), (1.0, 0.5)])
    def test_rejects_input_length_count(self, lengths):
        points = [[0.3, 1.5, 2.0], [0.1, 1.2, 1.0]]
        with pytest.raises(ValueError, match=f"{len(lengths)} input lengths.*3 coordinates"):
            input_correlation_matrix(points, points, KernelSpec(lengths, 1.0))

    @given(
        d1=st.floats(0.01, 5.0),
        d2=st.floats(0.01, 5.0),
        lam=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_gap(self, d1, d2, lam):
        spec = KernelSpec((lam,), lam)
        lo, hi = sorted((d1, d2))
        if lo == hi:
            return
        rho_hi, rho_lo = output_correlation_matrix([0.0], [hi, lo], spec)[0]
        # gaps a few ulps apart can round to the same float64 correlation
        assert rho_hi <= rho_lo
        if hi > lo * (1 + 1e-9):
            assert rho_hi < rho_lo


class TestMatrices:
    def test_single_point(self):
        space = DesignSpace(bounds=[(0, 1)])
        design = Design(np.array([[0.5]]), np.array([[0.5]]), space)
        Kr, _ = kernel_matrices(design, KernelSpec((1.0,), 1.0), jitter=1e-8)
        assert Kr.shape == (1, 1)
        assert abs(Kr[0, 0] - (1.0 + 1e-8)) < 1e-15

    def test_duplicate_points_without_jitter(self):
        space = DesignSpace(bounds=[(0, 1)])
        pts = np.array([[0.5], [0.5], [0.2]])
        design = Design(pts, pts, space)
        with pytest.raises(NumericalDegeneracyError, match="input correlation"):
            kernel_matrices(design, KernelSpec((1.0,), 1.0), jitter=0.0)

    def test_symmetry(self, wave_space):
        design = lhd(3, wave_space, 8)
        Kr, _ = kernel_matrices(design, spec3())
        Ks, _ = output_factor([0.0, 0.5, 1.0], spec3(), DEFAULT_JITTER)
        assert np.abs(Kr - Kr.T).max() < 1e-15
        assert np.abs(Ks - Ks.T).max() < 1e-15

    def test_unit_diagonal_before_jitter(self, wave_space):
        design = lhd(4, wave_space, 8)
        Kr, _ = kernel_matrices(design, spec3(), jitter=0.0)
        assert np.abs(np.diag(Kr) - 1.0).max() == 0.0

    def test_separability_against_direct_form(self, wave_space):
        # kron of the factors must equal the four-argument correlation,
        # entrywise, on a small instance (jitter-free comparison)
        design = lhd(4, wave_space, 2)
        grid = np.array([0.0, 0.4, 1.1, 2.2, 3.0])
        spec = spec3()
        Kr, _ = kernel_matrices(design, spec, jitter=0.0)
        Ks, _ = output_factor(grid, spec, 0.0)
        full = np.kron(Kr, Ks)
        for i in range(4):
            for j in range(5):
                for a in range(4):
                    for b in range(5):
                        direct = reference_correlation(
                            design.points[i], grid[j], design.points[a], grid[b],
                            spec.input_lengths, spec.output_length, spec.exponent,
                        )
                        assert abs(full[i * 5 + j, a * 5 + b] - direct) < 1e-14

    def test_rejects_negative_jitter(self, wave_space):
        design = lhd(3, wave_space, 1)
        with pytest.raises(ValueError):
            kernel_matrices(design, spec3(), jitter=-1e-9)


def _run_fresh(*pieces: str) -> list:
    """Run the dedented ``pieces`` in turn in a fresh interpreter on this
    checkout; the words it printed."""
    code = "\n".join(textwrap.dedent(piece) for piece in pieces)
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


class TestCholSolve:
    """The direct LAPACK calls against scipy's wrappers, bit for bit, with
    LAPACK loaded from scipy's compiled module or from scipy.linalg.lapack."""

    @pytest.fixture
    def factored(self):
        # the reference time grid: q=176, where Ks is near-singular
        grid = np.round(0.2 * np.arange(176), 12)
        Ks = output_correlation_matrix(grid, grid, spec3(lt=1.582))
        chol = _factor(Ks.copy(), 1e-8, "Ks")
        Ks[np.diag_indices_from(Ks)] += 1e-8
        return Ks, chol

    def test_factor_matches_cho_factor(self, factored):
        from scipy.linalg import cho_factor

        Ks, (c, lower) = factored
        ref, ref_lower = cho_factor(Ks, lower=True, check_finite=False)
        assert lower is ref_lower is True
        assert np.array_equal(c, ref)

    @pytest.mark.parametrize("shape", ["1d", "2d", "empty", "transposed"])
    def test_solve_matches_cho_solve(self, factored, shape):
        from scipy.linalg import cho_solve

        Ks, chol = factored
        rng = np.random.default_rng(3)
        B = {"1d": rng.standard_normal(176),
             "2d": rng.standard_normal((176, 11)),
             "empty": np.empty((176, 0)),
             "transposed": rng.standard_normal((40, 176)).T}[shape]
        before = B.copy()
        x = chol_solve(chol, B)
        assert x.shape == B.shape
        assert np.array_equal(x, cho_solve(chol, B, check_finite=False))
        assert np.array_equal(B, before)

    FACTOR = """
        import hashlib
        import numpy as np
        grid = np.round(0.2 * np.arange(176), 12)
        Ks = kernels.output_correlation_matrix(grid, grid, kernels.KernelSpec((1.0,), 1.582))
        chol = kernels._factor(Ks, 1e-8, "Ks")
        B = np.random.default_rng(5).standard_normal((176, 11))
        print(kernels._lapack().__name__, hashlib.sha256(chol[0].tobytes()).hexdigest(),
              hashlib.sha256(kernels.chol_solve(chol, B).tobytes()).hexdigest())
    """

    @pytest.mark.parametrize("missing", [True, False], ids=["absent", "unloadable"])
    def test_fallback_module_gives_the_same_bits(self, tmp_path, missing):
        # without a loadable compiled file, scipy.linalg.lapack serves; in
        # fresh processes, since a session that has imported scipy.linalg
        # already holds the compiled module, and both under one environment,
        # since the BLAS thread count changes a factor's last bits
        if not missing:  # a file that is there but does not load as an extension
            (tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"")
        fallback = _run_fresh(f"""
            from opemu import kernels
            kernels._scipy_dirs = lambda subpackage: [{str(tmp_path)!r}]
        """, self.FACTOR)
        direct = _run_fresh("from opemu import kernels", self.FACTOR)
        assert fallback[0] == "scipy.linalg.lapack"
        assert direct[0] == kernels._FLAPACK
        assert fallback[1:] == direct[1:]

    def test_scipy_linalg_imports_after_a_direct_load(self):
        out = _run_fresh("""
            import sys
            import numpy as np
            from opemu.kernels import (KernelSpec, _factor, _lapack, chol_solve,
                                       output_correlation_matrix)
            grid = np.round(0.2 * np.arange(176), 12)
            Ks = output_correlation_matrix(grid, grid, KernelSpec((1.0,), 1.582))
            chol = _factor(Ks, 1e-8, "Ks")
            B = np.random.default_rng(5).standard_normal((176, 11))
            x = chol_solve(chol, B)
            assert "scipy.linalg" not in sys.modules
            import scipy.linalg
            ref = scipy.linalg.cho_factor(Ks, lower=True, check_finite=False)
            print(scipy.linalg.lapack.dpotrf is _lapack().dpotrf,
                  np.array_equal(ref[0], chol[0]),
                  np.array_equal(scipy.linalg.cho_solve(ref, B), x))
        """)
        assert out == ["True", "True", "True"]

    def test_degenerate_matrix_names_factor_and_minor(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalDegeneracyError, match="the test matrix") as info:
            _factor(m, 0.0, "the test matrix")
        assert "2-th leading minor of the array is not positive definite" in str(info.value)


class TestCompiled:
    """Where scipy's compiled module cannot load on its own, the direct
    load leaves neither it nor a placeholder package in ``sys.modules``,
    and the real package then imports and serves it."""

    @pytest.mark.parametrize("missing", [True, False], ids=["absent", "unloadable"])
    @pytest.mark.parametrize("name", ["scipy.linalg._flapack", "scipy.special._ufuncs",
                                      "scipy.optimize._lbfgsb"])
    def test_failed_load_leaves_nothing_behind(self, tmp_path, name, missing):
        package, _, module = name.rpartition(".")
        if not missing:  # a file that is there but does not load as an extension
            (tmp_path / (module + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"")
        out = _run_fresh(f"""
            import importlib, sys
            from opemu import kernels
            kernels._scipy_dirs = lambda subpackage: [{str(tmp_path)!r}]
            print(kernels._compiled({name!r}), {name!r} in sys.modules,
                  {package!r} in sys.modules)
            real = importlib.import_module({package!r})
            print(real.__file__.endswith("__init__.py"),
                  sys.modules[{name!r}].__file__.startswith(real.__path__[0]),
                  kernels._compiled({name!r}) is sys.modules[{name!r}])
        """)
        assert out == ["None", "False", "False", "True", "True", "True"]


class TestUfuncs:
    """scipy's compiled special-function module, loaded without the
    scipy.special package or from it, gives the package's objects and bits."""

    # the default config's Beta rows, and the t quantiles at the dof of a
    # five-run fit (28) and of the CI's small config (855)
    BETA_ROWS = ((5.0, 2.0, -2.0, 0.0), (2.0, 5.0, 1.0, 2.0), (2.0, 5.0, 0.5, 2.5))
    DRAWS = f"""
        from opemu.analysis import BetaInputSpec, sample_beta
        from opemu.emulator import _t_quantile
        spec = BetaInputSpec({BETA_ROWS!r})
        draws = sample_beta(spec, 2000, 7)
        quantiles = [_t_quantile(dof, 0.975) for dof in (28.0, 855.0)]
    """

    def test_scipy_special_imports_after_a_direct_load(self):
        out = _run_fresh("import sys", self.DRAWS, """
            import numpy as np
            from opemu import kernels
            direct = kernels._ufuncs()
            assert "scipy.special" not in sys.modules
            import scipy.special, scipy.stats, scipy.optimize
            kernels._ufuncs.cache_clear()
            again = sample_beta(spec, 2000, 7)
            print(scipy.special.betaincinv is direct.betaincinv,
                  scipy.special.stdtrit is direct.stdtrit,
                  kernels._ufuncs() is direct,
                  np.array_equal(again, draws),
                  [scipy.special.stdtrit(dof, 0.975) for dof in (28.0, 855.0)] == quantiles)
        """)
        assert out == ["True"] * 5

    @pytest.mark.parametrize("missing", [True, False], ids=["absent", "unloadable"])
    def test_fallback_module_gives_the_same_bits(self, tmp_path, missing):
        # without a loadable compiled file, the scipy.special package serves
        from scipy.special import stdtrit

        from opemu.analysis import BetaInputSpec, sample_beta

        if not missing:  # a file that is there but does not load as an extension
            (tmp_path / ("_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"")
        out = _run_fresh(f"""
            import hashlib, sys
            from opemu import kernels
            kernels._scipy_dirs = lambda subpackage: [{str(tmp_path)!r}]
        """, self.DRAWS, """
            print(kernels._ufuncs().__name__, "scipy.special" in sys.modules,
                  hashlib.sha256(draws.tobytes()).hexdigest(), *map(float.hex, quantiles))
        """)
        draws = sample_beta(BetaInputSpec(self.BETA_ROWS), 2000, 7)
        assert out == ["scipy.special._ufuncs", "True", hashlib.sha256(draws.tobytes()).hexdigest(),
                       *(float(stdtrit(dof, 0.975)).hex() for dof in (28.0, 855.0))]
