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
"""

import _imp
import importlib
import importlib.machinery
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


def _compiled_spec(name: str, subpackage: str):
    """Import spec of scipy's compiled module ``name``, which lives in
    ``subpackage``, or ``None`` if its file is not there.

    The path finder on scipy's ``subpackage`` directory locates it without
    running a package ``__init__``.
    """
    return importlib.machinery.PathFinder.find_spec(name, _scipy_dirs(subpackage))


def _flapack_spec():
    """Import spec of scipy's compiled LAPACK module, or ``None`` if it is not there."""
    return _compiled_spec(_FLAPACK, "linalg")


def _load_compiled(name: str, spec):
    """The compiled module ``name`` run from ``spec`` and entered in
    ``sys.modules``, so that a later import of its package reuses it.

    ``None`` where ``spec`` is ``None`` or the file does not load on its
    own (say, before scipy's ``__init__`` has set up its bundled
    libraries).
    """
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    sys.modules[name] = module
    return module


@cache
def _lapack():
    """The module holding the compiled ``dpotrf`` and ``dpotrs``, bound once.

    It is ``scipy.linalg._flapack``, loaded from its file so that a
    serving command does not pay for the ``scipy`` and ``scipy.linalg``
    package imports. It is the module ``scipy.linalg.lapack`` wraps, so
    factors and solves keep their bits. A later ``import scipy.linalg``
    reuses it from ``sys.modules``; the one trace of the direct load is
    that the package lacks the attribute ``scipy.linalg._flapack``, which
    scipy reads only by ``from scipy.linalg import _flapack`` (that falls
    back to ``sys.modules``). Where :func:`_load_compiled` cannot load it,
    ``scipy.linalg.lapack`` serves.
    """
    if _FLAPACK not in sys.modules and _load_compiled(_FLAPACK, _flapack_spec()) is None:
        from scipy.linalg import lapack

        return lapack
    return sys.modules[_FLAPACK]


@cache
def _ufuncs():
    """scipy's compiled special-function module, holding ``betaincinv`` and
    ``stdtrit``, bound once.

    It is ``scipy.special._ufuncs``, loaded without running
    ``scipy/special/__init__.py``, whose array-API set-up costs a command
    ~0.25 s; the extension modules, with scipy's top-level package, load
    in ~40 ms (2-core x86 host). Their init imports its siblings
    relatively (``._special_ufuncs``, ``._ufuncs_cxx``), so under the
    import lock a bare placeholder package named ``scipy.special``, whose
    path is scipy's ``special`` directory, stands in for the package while
    they load, and is removed after. A later ``import scipy.special`` runs
    the real ``__init__`` and reuses the loaded extensions from
    ``sys.modules``: its ``betaincinv`` and ``stdtrit`` are this module's
    objects, so draws and quantiles keep their bits. If the package is already imported, or the file is absent
    or does not load on its own, the package serves, as
    ``scipy.linalg.lapack`` does for :func:`_lapack`.

    The placeholder relies on CPython's global import lock: no other
    thread imports while it is registered. ``scipy`` itself is imported
    before the lock is taken, so the lock is held only while the
    extensions load, never while another thread's ``import scipy`` holds
    that package's module lock and waits for the global one.
    """
    package = "scipy.special"
    try:
        import scipy  # noqa: F401
    except ImportError:
        pass
    _imp.acquire_lock()
    try:
        if package not in sys.modules:
            placeholder = types.ModuleType(package)
            placeholder.__path__ = _scipy_dirs("special")
            sys.modules[package] = placeholder
            try:
                return importlib.import_module(_UFUNCS)
            except (ImportError, OSError):
                pass
            finally:
                del sys.modules[package]
    finally:
        _imp.release_lock()
    from scipy.special import _ufuncs

    return _ufuncs


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
