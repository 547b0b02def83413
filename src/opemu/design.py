"""Space-filling experimental designs over a bounded box.

Three constructions are provided: plain Latin Hypercube designs (each
column stratified into n equal-probability bins), maximin Latin Hypercubes
(best of N random candidates refined by coordinate swaps), and full
factorial regular grids for comparison.

All randomness comes from NumPy's PCG64 generator
(``numpy.random.default_rng(seed)``), so designs are bit-reproducible
across platforms for a given seed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .ioutil import atomic_write_text, fmt, meta_lines, read_table
from .errors import DataError


@dataclass(frozen=True)
class DesignSpace:
    """A k-dimensional box with named axes.

    Parameters
    ----------
    bounds : sequence of (lower, upper) pairs, one per dimension.
    names : axis identifiers; defaults to x1..xk.
    """

    bounds: tuple
    names: tuple = ()

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) < 1:
            raise ValueError("a design space needs at least one dimension")
        for i, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                raise ValueError(
                    f"dimension {self._name(i, len(bounds))}: lower bound {lo} "
                    f"must be strictly below upper bound {hi}"
                )
        names = tuple(self.names) if self.names else tuple(
            f"x{i + 1}" for i in range(len(bounds))
        )
        if len(names) != len(bounds):
            raise ValueError("number of names must match number of dimensions")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "names", names)

    def _name(self, i, k):
        return self.names[i] if self.names and len(self.names) == k else f"x{i + 1}"

    @property
    def k(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def to_unit(self, points: np.ndarray) -> np.ndarray:
        """Affine map from physical coordinates onto [0, 1]^k."""
        return (np.atleast_2d(points) - self.lower) / self.widths

    def from_unit(self, unit_points: np.ndarray) -> np.ndarray:
        """Affine map from [0, 1]^k back to physical coordinates."""
        return self.lower + np.atleast_2d(unit_points) * self.widths

    def contains(self, point, rtol: float = 1e-9) -> bool:
        return bool(self.contains_rows(point, rtol).all())

    def contains_rows(self, points, rtol: float = 1e-9) -> np.ndarray:
        """Per-row flags: which of the points (one per row) lie in the box."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        slack = rtol * self.widths
        return np.all((p >= self.lower - slack) & (p <= self.upper + slack), axis=1)


@dataclass(frozen=True)
class Design:
    """A set of input points, stored in physical and unit coordinates."""

    points: np.ndarray
    unit_points: np.ndarray
    space: DesignSpace
    seed: int = 0

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def min_distance(self, unit: bool = True) -> float:
        """Smallest pairwise Euclidean distance (unit scale by default)."""
        pts = self.unit_points if unit else self.points
        return float(pdist(pts).min())


def _from_unit(unit: np.ndarray, space: DesignSpace, seed: int) -> Design:
    unit = np.asarray(unit, dtype=float)
    return Design(points=space.from_unit(unit), unit_points=unit, space=space, seed=seed)


def lhd(n: int, space: DesignSpace, seed: int) -> Design:
    """Latin Hypercube design with n points.

    Each column partitions [0, 1] into n equal strata and places one
    uniform draw in each; the strata are assigned to rows by an
    independent random permutation per column.
    """
    if n < 2:
        raise ValueError(f"a Latin Hypercube needs n >= 2 points, got {n}")
    rng = np.random.default_rng(seed)
    unit = np.empty((n, space.k))
    for j in range(space.k):
        perm = rng.permutation(n)
        unit[:, j] = (perm + rng.random(n)) / n
    return _from_unit(unit, space, seed)


def _refresh_row(unit: np.ndarray, dist2: np.ndarray, idx: int) -> None:
    d = unit - unit[idx]
    row = np.einsum("ij,ij->i", d, d)
    row[idx] = np.inf
    dist2[idx, :] = row
    dist2[:, idx] = row


def _swap_refine(unit: np.ndarray) -> np.ndarray:
    """Greedy coordinate-swap hill climbing on the minimum pairwise distance.

    Swapping two entries within a column preserves the Latin property.
    Scans (column, i, j) in lexicographic order and keeps any strictly
    improving swap; repeats until a full pass finds none. Deterministic.
    The squared-distance matrix is updated incrementally (a swap only
    touches two rows), so each candidate swap costs O(nk + n^2) not a full
    pairwise recomputation.
    """
    unit = unit.copy()
    n, k = unit.shape
    diff = unit[:, None, :] - unit[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(dist2, np.inf)
    best = dist2.min()
    improved = True
    while improved:
        improved = False
        for col in range(k):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    unit[i, col], unit[j, col] = unit[j, col], unit[i, col]
                    saved_i = dist2[i, :].copy()
                    saved_j = dist2[j, :].copy()
                    _refresh_row(unit, dist2, i)
                    _refresh_row(unit, dist2, j)
                    d = dist2.min()
                    if d > best:
                        best = d
                        improved = True
                    else:
                        unit[i, col], unit[j, col] = unit[j, col], unit[i, col]
                        dist2[i, :] = saved_i
                        dist2[:, i] = saved_i
                        dist2[j, :] = saved_j
                        dist2[:, j] = saved_j
    return unit


def candidate_seed(seed: int, index: int) -> int:
    """Seed for the index-th maximin candidate.

    Candidate 0 uses ``seed`` itself (so a 1-candidate search reproduces
    ``lhd(n, space, seed)``); later candidates derive disjoint streams from
    (seed, index) so different base seeds give unrelated candidate pools.
    """
    if index == 0:
        return seed
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def maximin_lhd(n: int, space: DesignSpace, seed: int, candidates: int = 100) -> Design:
    """Latin Hypercube chosen to maximize the minimum pairwise distance.

    Draws ``candidates`` plain LHDs (seeded via :func:`candidate_seed`, so
    candidate 0 is exactly ``lhd(n, space, seed)``), keeps the one with
    the largest minimum unit-scale distance (ties go to the lowest
    candidate index), then refines it by coordinate-swap hill climbing.
    With ``candidates=1`` the single LHD is returned unrefined, so the
    result coincides with ``lhd(n, space, seed)``.
    """
    if n < 2:
        raise ValueError(f"a Latin Hypercube needs n >= 2 points, got {n}")
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")
    best_unit = None
    best_d = -np.inf
    for idx in range(candidates):
        cand = lhd(n, space, candidate_seed(seed, idx))
        d = cand.min_distance(unit=True)
        if d > best_d:
            best_d = d
            best_unit = cand.unit_points
    if candidates > 1:
        best_unit = _swap_refine(best_unit)
    return _from_unit(best_unit, space, seed)


def regular_grid(levels_per_dim, space: DesignSpace) -> Design:
    """Full factorial grid with the given number of levels per dimension.

    Levels are equally spaced and include both endpoints. Kept for
    design comparison: a grid with L levels projects onto only L distinct
    values per axis, whereas an n-point LHD projects onto n.
    """
    levels = [int(v) for v in levels_per_dim]
    if len(levels) != space.k:
        raise ValueError(
            f"got {len(levels)} level counts for a {space.k}-dimensional space"
        )
    for i, lv in enumerate(levels):
        if lv < 2:
            raise ValueError(
                f"dimension {space.names[i]}: need at least 2 levels, got {lv}"
            )
    axes = [np.linspace(0.0, 1.0, lv) for lv in levels]
    mesh = np.meshgrid(*axes, indexing="ij")
    unit = np.column_stack([m.ravel() for m in mesh])
    return _from_unit(unit, space, seed=0)


def save_design_csv(design: Design, path: str, meta: dict | None = None) -> None:
    """Write a design as CSV: named header row, physical units, full precision."""
    lines = meta_lines(meta)
    lines.append(",".join(design.space.names))
    for row in design.points:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_design_csv(path: str, space: DesignSpace) -> Design:
    """Read a design CSV written by :func:`save_design_csv`.

    The header must name exactly the space's dimensions, in order; every
    point must lie inside the box.
    """
    header, rows, meta = read_table(path)
    if tuple(header) != space.names:
        raise DataError(
            f"{path}: header {header!r} does not match design space "
            f"dimensions {list(space.names)!r}"
        )
    if not rows:
        raise DataError(f"{path}: no design points found")
    try:
        points = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric design entry ({exc})") from exc
    if points.shape[1] != space.k:
        raise DataError(f"{path}: expected {space.k} columns, got {points.shape[1]}")
    for i, p in enumerate(points):
        if not space.contains(p):
            raise DataError(f"{path}: design point at row {i} lies outside the bounds")
    seed = int(meta.get("seed", 0)) if str(meta.get("seed", "0")).isdigit() else 0
    return Design(points=points, unit_points=space.to_unit(points), space=space, seed=seed)
