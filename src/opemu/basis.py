"""Regression bases: shifted polynomials over inputs, Fourier terms over time.

The input set holds one shared constant plus a (linear, quadratic) pair per
dimension, each pair built on the coordinate mapped to [0, 1] and scaled so
the pair is orthonormal under the uniform weight on the unit interval:

    sqrt(3)*u      and      sqrt(5)*(4*u^2 - 3*u)

Note the pair is deliberately *not* orthogonal to the constant term; the
printed form is used as is, not re-derived as Legendre polynomials.

The output set holds a constant plus sin/cos pairs at a configurable list
of frequencies. The full regressor set is the outer product of the two
(nu_r * nu_s columns); only its two factors are ever built.
"""

from dataclasses import dataclass

import numpy as np

from .design import Design, DesignSpace

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)

#: Oscillation frequencies used by the reference wave-elevation setup.
DEFAULT_FREQUENCIES = (1.0 / 6.0, 1.0 / 5.0, 1.0 / 4.0, 1.0 / 3.0, 1.0 / 2.0)


@dataclass(frozen=True)
class InputBasis:
    """Constant + per-dimension (linear, quadratic) polynomial pairs."""

    space: DesignSpace

    @property
    def size(self) -> int:
        return 1 + 2 * self.space.k

    def evaluate(self, r) -> np.ndarray:
        """Regressor vector at a single input point (physical units).

        Points outside the box are evaluated with the same polynomials
        (no clamping); extrapolation is flagged by the caller.
        """
        return self.evaluate_many(np.atleast_2d(np.asarray(r, dtype=float)))[0]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Regressor matrix, one row per input point: shape (n, size)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.space.k:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, space has {self.space.k}"
            )
        u = self.space.to_unit(pts)
        out = np.empty((pts.shape[0], self.size))
        out[:, 0] = 1.0
        # columns 1, 3, ... are the linear terms and 2, 4, ... the quadratics
        out[:, 1::2] = SQRT3 * u
        out[:, 2::2] = SQRT5 * (4.0 * u * u - 3.0 * u)
        return out


@dataclass(frozen=True)
class OutputBasis:
    """Constant + sin/cos pair per frequency, evaluated on the time axis."""

    frequencies: tuple = DEFAULT_FREQUENCIES

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        # `not f > 0` also rejects NaN
        if not all(f > 0 for f in freqs):
            raise ValueError("frequencies must be strictly positive")
        if len(set(freqs)) != len(freqs):
            raise ValueError("frequencies must be distinct")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def size(self) -> int:
        return 1 + 2 * len(self.frequencies)

    def evaluate_many(self, times) -> np.ndarray:
        """Regressor matrix, one row per time point: shape (q, size)."""
        t = np.asarray(times, dtype=float).ravel()
        out = np.empty((t.size, self.size))
        out[:, 0] = 1.0
        for j, f in enumerate(self.frequencies):
            phase = 2.0 * np.pi * f * t
            out[:, 1 + 2 * j] = np.sin(phase)
            out[:, 2 + 2 * j] = np.cos(phase)
        return out


def regressor_matrices(
    design: Design, time_grid, input_basis: InputBasis, output_basis: OutputBasis
) -> tuple:
    """(Gr, Gs): the input basis at the n design points (n x nu_r) and the
    output basis on the time grid (q x nu_s), the factors of the full set.

    An input basis over another box than the design's raises ``ValueError``:
    a fitted model keeps only the design's box, so it would not load back.
    """
    if input_basis.space != design.space:
        raise ValueError("the input basis is over another design space than the design")
    grid = np.asarray(time_grid, dtype=float).ravel()
    if design.points.shape[0] == 0:
        raise ValueError("design has no points")
    if grid.size == 0:
        raise ValueError("time grid is empty")
    return input_basis.evaluate_many(design.points), output_basis.evaluate_many(grid)
