"""Space-filling experimental designs over a bounded box.

Two constructions are provided: plain Latin Hypercube designs (each
column stratified into n equal-probability bins) and maximin Latin
Hypercubes (best of N random candidates refined by coordinate swaps).

All randomness comes from NumPy's PCG64 generator
(``numpy.random.default_rng(seed)``), so designs are bit-reproducible
across platforms for a given seed.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ioutil import parse_rows, read_table, write_csv
from .errors import DataError


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DesignSpace:
    """A k-dimensional box with named axes.

    Parameters
    ----------
    bounds : sequence of finite (lower, upper) pairs, one per dimension.
    names : axis identifiers, distinct non-empty strings without commas or
        leading or trailing spaces (they head CSV columns); defaults to x1..xk.

    :attr:`lower`, :attr:`upper` and :attr:`widths` are read-only arrays
    built on first use.
    """

    bounds: tuple
    names: tuple = ()

    def __post_init__(self):
        k = len(self.bounds)
        if k < 1:
            raise ValueError("a design space needs at least one dimension")
        names = tuple(self.names) if self.names else tuple(f"x{i + 1}" for i in range(k))
        if len(names) != k:
            raise ValueError("number of names must match number of dimensions")
        if not all(isinstance(n, str) and n and n == n.strip() and "," not in n
                   for n in names) or len(set(names)) != k:
            raise ValueError(f"names must be distinct, non-empty strings without commas or "
                             f"leading or trailing spaces, got {list(names)!r}")
        bounds = []
        for name, pair in zip(names, self.bounds):
            try:
                lo, hi = pair
                if any(isinstance(v, (str, bool)) for v in pair):
                    raise TypeError
                lo, hi = float(lo), float(hi)
            except (TypeError, ValueError):
                raise ValueError(f"dimension {name}: bounds must be a (lower, upper) pair "
                                 f"of numbers, got {pair!r}") from None
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"dimension {name}: bounds must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"dimension {name}: lower bound {lo} "
                                 f"must be strictly below upper bound {hi}")
            bounds.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(bounds))
        object.__setattr__(self, "names", names)

    @property
    def k(self) -> int:
        return len(self.bounds)

    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(np.array([lo for lo, _ in self.bounds]))

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(np.array([hi for _, hi in self.bounds]))

    @cached_property
    def widths(self) -> np.ndarray:
        return _read_only(self.upper - self.lower)

    def to_unit(self, points: np.ndarray) -> np.ndarray:
        """Affine map from physical coordinates onto [0, 1]^k."""
        return (np.atleast_2d(points) - self.lower) / self.widths

    def from_unit(self, unit_points: np.ndarray) -> np.ndarray:
        """Affine map from [0, 1]^k back to physical coordinates."""
        return self.lower + np.atleast_2d(unit_points) * self.widths

    def contains(self, point) -> bool:
        return bool(self.contains_rows(point).all())

    def contains_rows(self, points) -> np.ndarray:
        """Per-row flags: which points lie in the box (widened by 1e-9 of each width)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        slack = 1e-9 * self.widths
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
        dist = pairwise_distances(self.unit_points if unit else self.points)
        return float(dist[np.triu_indices(self.n, 1)].min())


def pairwise_distances(points) -> np.ndarray:
    """n x n Euclidean distances between the rows of ``points``.

    Matches ``scipy.spatial.distance.pdist`` bit for bit (the maximin
    designs depend on it); the expanded |a|^2 + |b|^2 - 2a.b form does not.
    """
    p = np.asarray(points, dtype=float)
    return np.linalg.norm(p[:, None] - p[None], axis=-1)


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


def _closest_pairs(dist2: np.ndarray, best: float) -> list:
    """Index pairs (a, b), a < b, whose squared distance equals ``best``."""
    rows, cols = np.nonzero(dist2 == best)
    return [(int(a), int(b)) for a, b in zip(rows, cols) if a < b]


def _next_partner(pairs: list, i: int, after: int, n: int):
    """Smallest row j > ``after`` whose swap with row i could raise the minimum.

    A swap of rows i and j rewrites only the distances in rows i and j, so
    every closest pair that does not contain i must contain j. Returns
    None when no such j remains.
    """
    others = [p for p in pairs if i not in p]
    if not others:
        return after + 1 if after + 1 < n else None
    later = [j for j in set(others[0]).intersection(*others[1:]) if j > after]
    return min(later) if later else None


def _swap_refine(unit: np.ndarray) -> np.ndarray:
    """Greedy coordinate-swap hill climbing on the minimum pairwise distance.

    Swapping two entries within a column preserves the Latin property.
    Scans (column, i, j) in lexicographic order and keeps any strictly
    improving swap; repeats until a full pass finds none. Deterministic.

    The scan is pruned exactly. A swap of rows i and j changes only the
    distances in rows i and j, so while some pair at the current minimum
    contains neither i nor j the new minimum cannot exceed the old one and
    the swap would be rejected. Such swaps are skipped: for each (column,
    i) only the j common to every closest pair that does not contain i are
    tried, or every j > i when all closest pairs contain i. The closest
    pairs are recomputed after each accepted swap, also within a row. A
    rejected swap restores its two rows exactly, so the accepted swaps,
    and the design, are those of the unpruned scan bit for bit.
    """
    unit = unit.copy()
    n, k = unit.shape
    diff = unit[:, None, :] - unit[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(dist2, np.inf)
    best = dist2.min()
    pairs = _closest_pairs(dist2, best)
    improved = True
    while improved:
        improved = False
        for col in range(k):
            for i in range(n - 1):
                j = _next_partner(pairs, i, i, n)
                while j is not None:
                    unit[i, col], unit[j, col] = unit[j, col], unit[i, col]
                    saved_i = dist2[i, :].copy()
                    saved_j = dist2[j, :].copy()
                    _refresh_row(unit, dist2, i)
                    _refresh_row(unit, dist2, j)
                    d = dist2.min()
                    if d > best:
                        best = d
                        improved = True
                        pairs = _closest_pairs(dist2, best)
                    else:
                        unit[i, col], unit[j, col] = unit[j, col], unit[i, col]
                        dist2[i, :] = saved_i
                        dist2[:, i] = saved_i
                        dist2[j, :] = saved_j
                        dist2[:, j] = saved_j
                    j = _next_partner(pairs, i, j, n)
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


def save_design_csv(design: Design, path: str, meta: dict | None = None) -> None:
    """Write a design as CSV: named header row, physical units, full precision."""
    write_csv(path, design.space.names, design.points, meta)


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
    points = parse_rows(path, header, rows)
    outside = np.flatnonzero(~space.contains_rows(points))
    if outside.size:
        raise DataError(f"{path}: design point at row {outside[0]} lies outside the bounds")
    seed = int(meta.get("seed", 0)) if str(meta.get("seed", "0")).isdigit() else 0
    return Design(points=points, unit_points=space.to_unit(points), space=space, seed=seed)
