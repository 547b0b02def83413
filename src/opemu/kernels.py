"""Separable power-exponential residual correlation.

The input kernel is a product of one-dimensional power-exponential terms
exp(-(|dx|/length)^p), one per input dimension; the output (time) kernel is
a single such term. The full residual correlation over (input, time) pairs
is their product, so the training correlation matrix is the Kronecker
product of an n x n input matrix and a q x q output matrix and is never
assembled densely.

The default exponent is 3/2: smooth, but not the infinitely smooth p=2
squared-exponential. A small jitter is added to each factor's diagonal
before factorization; dense time grids make the output factor nearly
singular without it.

LAPACK, and the special functions of the analysis, come from scipy's
compiled modules, which :func:`_compiled` loads without their packages.
"""

import _imp
import importlib
import importlib.util
import os
import sys
import types
from dataclasses import dataclass
from functools import cache

import numpy as np

from .design import Design
from .errors import NumericalDegeneracyError

DEFAULT_JITTER = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Correlation lengths (one per input dimension, one for time) and exponent."""

    input_lengths: tuple
    output_length: float
    exponent: float = 1.5

    def __post_init__(self):
        lengths = tuple(float(v) for v in np.atleast_1d(self.input_lengths))
        # `not v > 0` also rejects NaN; an infinite length is the limit of no
        # decay along that axis
        if not all(v > 0 for v in lengths + (float(self.output_length),)):
            raise ValueError("correlation lengths must be strictly positive")
        if not 0.0 < self.exponent <= 2.0:
            raise ValueError(f"exponent must lie in (0, 2], got {self.exponent}")
        object.__setattr__(self, "input_lengths", lengths)
        object.__setattr__(self, "output_length", float(self.output_length))

    @property
    def lengths(self) -> np.ndarray:
        """All lengths as one vector, inputs first, time last."""
        return np.array(self.input_lengths + (self.output_length,))


def input_correlation_matrix(points_a, points_b, spec: KernelSpec) -> np.ndarray:
    """Cross-correlation matrix between two input point sets (no jitter)."""
    a = np.atleast_2d(np.asarray(points_a, dtype=float))
    b = np.atleast_2d(np.asarray(points_b, dtype=float))
    if len(spec.input_lengths) != a.shape[1]:
        raise ValueError(f"the kernel has {len(spec.input_lengths)} input lengths, "
                         f"the points have {a.shape[1]} coordinates")
    out = np.zeros((a.shape[0], b.shape[0]))
    for j, length in enumerate(spec.input_lengths):
        out += (np.abs(a[:, j, None] - b[None, :, j]) / length) ** spec.exponent
    return np.exp(-out)


def output_correlation_matrix(times_a, times_b, spec: KernelSpec) -> np.ndarray:
    """Cross-correlation matrix between two time sets (no jitter)."""
    ta = np.asarray(times_a, dtype=float).ravel()
    tb = np.asarray(times_b, dtype=float).ravel()
    d = np.abs(ta[:, None] - tb[None, :]) / spec.output_length
    return np.exp(-(d ** spec.exponent))


_FLAPACK = "scipy.linalg._flapack"
_UFUNCS = "scipy.special._ufuncs"


def _scipy_dirs(subpackage: str) -> list:
    """The directories of scipy's ``subpackage``, found without importing
    scipy (``find_spec`` of a top-level package runs no ``__init__``);
    empty if scipy is not installed."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return []
    return [os.path.join(root, subpackage) for root in scipy.submodule_search_locations]


def _compiled(name: str):
    """scipy's compiled module ``name`` (``scipy.<subpackage>.<module>``),
    loaded from its file without running the subpackage's ``__init__``, or
    ``None`` where the subpackage serves instead.

    A module already in ``sys.modules`` is returned as it is. Where its
    package is imported, or the file is absent or does not load on its
    own, the result is ``None``. Otherwise, under CPython's global import
    lock, so that no other thread imports meanwhile, a bare placeholder
    package whose path is the subpackage's directory (:func:`_scipy_dirs`)
    stands in for the package while the module loads, so that relative
    imports of its siblings resolve, and is removed after, whether or not
    the load succeeded. The module stays in ``sys.modules``, and a later
    import of its package runs the real ``__init__`` and reuses it; the
    one trace of the direct load is that the package lacks the module as
    an attribute, which scipy reads only by ``from <package> import
    <module>`` (that falls back to ``sys.modules``). A module whose
    extensions import ``scipy`` needs that package imported before this
    is called, so that the lock is never held while another thread's
    ``import scipy`` holds that package's lock and waits for the global
    one.
    """
    package = name.rpartition(".")[0]
    _imp.acquire_lock()
    try:
        if name in sys.modules or package in sys.modules:
            return sys.modules.get(name)
        placeholder = sys.modules[package] = types.ModuleType(package)
        placeholder.__path__ = _scipy_dirs(package.partition(".")[2])
        try:
            return importlib.import_module(name)
        except (ImportError, OSError):
            return None
        finally:
            del sys.modules[package]
    finally:
        _imp.release_lock()


@cache
def _lapack():
    """The module holding the compiled ``dpotrf`` and ``dpotrs``, bound once.

    It is ``scipy.linalg._flapack`` from :func:`_compiled`, so that a
    serving command does not pay for the ``scipy`` and ``scipy.linalg``
    package imports, or else ``scipy.linalg.lapack``, which wraps the same
    module, so factors and solves keep their bits.
    """
    return _compiled(_FLAPACK) or importlib.import_module("scipy.linalg.lapack")


@cache
def _ufuncs():
    """scipy's compiled special-function module, holding ``betaincinv`` and
    ``stdtrit``, bound once.

    It is ``scipy.special._ufuncs`` from :func:`_compiled`, which skips
    ``scipy/special/__init__.py``, whose array-API set-up costs a command
    ~0.25 s; the extension modules, with scipy's top-level package, load
    in ~40 ms (2-core x86 host). Their init imports ``scipy`` and its
    siblings (``._special_ufuncs``, ``._ufuncs_cxx``), so ``scipy`` is
    imported first. A later ``import scipy.special`` reuses the loaded
    extensions: its ``betaincinv`` and ``stdtrit`` are this module's
    objects, so draws and quantiles keep their bits. Where
    :func:`_compiled` gives ``None``, the package serves.
    """
    try:
        import scipy  # noqa: F401
    except ImportError:
        pass
    return _compiled(_UFUNCS) or importlib.import_module(_UFUNCS)


def _factor(matrix: np.ndarray, jitter: float, name: str) -> tuple:
    """Add ``jitter`` to the diagonal of ``matrix`` in place, then factor it.

    Returns the (factor, lower) pair :func:`chol_solve` takes. ``matrix``
    keeps its jittered values; the factor is a new array. This is LAPACK
    ``potrf`` from :func:`_lapack`, the call ``scipy.linalg.cho_factor``
    makes, without its wrapper or the ``scipy.linalg`` import.
    """
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    matrix[np.diag_indices_from(matrix)] += jitter
    c, info = _lapack().dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise NumericalDegeneracyError(
            name, f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    return c, True


def chol_solve(chol: tuple, B) -> np.ndarray:
    """K^-1 B for ``chol``, the (factor, lower) pair :func:`_factor` returns.

    ``B`` is 1-D or 2-D and is not modified. This is LAPACK ``potrs`` from
    :func:`_lapack`, the solve ``scipy.linalg.cho_solve`` makes after its
    per-call batch and shape handling, so the result is the same bit for
    bit at a fraction of the overhead.
    """
    c, lower = chol
    x, info = _lapack().dpotrs(c, B, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


def output_factor(time_grid, spec: KernelSpec, jitter: float) -> tuple:
    """The jittered time correlation matrix Ks and its Cholesky factor.

    The time side of K = Kr (x) Ks; :func:`kernel_matrices` builds the input
    side. It does not depend on the design, so fits on one grid can share
    it.
    """
    grid = np.asarray(time_grid, dtype=float).ravel()
    Ks = output_correlation_matrix(grid, grid, spec)
    return Ks, _factor(Ks, jitter, "the output correlation matrix")


def kernel_matrices(design: Design, spec: KernelSpec, jitter: float = DEFAULT_JITTER) -> tuple:
    """The jittered input correlation matrix Kr and its Cholesky factor.

    The input side of K = Kr (x) Ks, over the design points; the time side
    is :func:`output_factor`. Raises :class:`NumericalDegeneracyError`
    naming the input factor if Cholesky fails even after jitter (e.g.
    duplicated design points with jitter=0).
    """
    Kr = input_correlation_matrix(design.points, design.points, spec)
    return Kr, _factor(Kr, jitter, "the input correlation matrix")
