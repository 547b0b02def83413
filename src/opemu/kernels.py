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

from dataclasses import dataclass

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


def _factor(matrix: np.ndarray, jitter: float, name: str) -> tuple:
    """Add ``jitter`` to the diagonal of ``matrix`` in place, then factor it.

    Returns the (factor, lower) pair :func:`chol_solve` takes. ``matrix``
    keeps its jittered values; the factor is a new array.
    """
    from scipy.linalg.lapack import dpotrf

    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    matrix[np.diag_indices_from(matrix)] += jitter
    # the LAPACK call scipy.linalg.cho_factor makes, without its wrapper
    c, info = dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise NumericalDegeneracyError(
            name, f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    return c, True


def chol_solve(chol: tuple, B) -> np.ndarray:
    """K^-1 B for ``chol``, the (factor, lower) pair :func:`_factor` returns.

    ``B`` is 1-D or 2-D and is not modified. This is LAPACK ``potrs``, the
    solve ``scipy.linalg.cho_solve`` makes after its per-call batch and
    shape handling, so the result is the same bit for bit at a fraction of
    the overhead.
    """
    from scipy.linalg.lapack import dpotrs

    c, lower = chol
    x, info = dpotrs(c, B, lower=lower)
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
