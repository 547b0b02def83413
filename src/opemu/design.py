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
    names : distinct non-empty strings without edge spaces, commas or
        slashes (CSV headers and file names); defaults to x1..xk.

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
        if not all(isinstance(n, str) and n and n == n.strip()
                   and not set(n) & {",", "/", "\\"} for n in names) or len(set(names)) != k:
            raise ValueError(f"names must be distinct, non-empty strings without leading or "
                             f"trailing spaces, commas (they head CSV columns) or slashes "
                             f"(they name sweep files), got {list(names)!r}")
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
    """Input points in physical and unit coordinates; the seed is in artifacts' meta."""

    points: np.ndarray
    unit_points: np.ndarray
    space: DesignSpace

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def min_distance(self, unit: bool = True) -> float:
        """Smallest pairwise Euclidean distance (unit scale by default).

        Equals the smallest off-diagonal entry of :func:`pairwise_distances`
        bit for bit, without its n x n square roots: the squared distances
        are summed as ``np.linalg.norm`` sums them, and IEEE ``sqrt`` is
        correctly rounded and monotone, so the root of the smallest squared
        distance is the smallest distance. A single point gives inf.
        """
        p = self.unit_points if unit else self.points
        diff = np.repeat(p, self.n, axis=0) - np.tile(p, (self.n, 1))  # row a*n+b: p[a] - p[b]
        dist2 = np.add.reduce(diff * diff, axis=-1)
        dist2[::self.n + 1] = np.inf
        return float(np.sqrt(dist2.min()))


def pairwise_distances(points) -> np.ndarray:
    """n x n Euclidean distances between the rows of ``points``.

    Matches ``scipy.spatial.distance.pdist`` bit for bit, and so does
    :meth:`Design.min_distance` on the smallest entry (the maximin designs
    depend on it); the expanded |a|^2 + |b|^2 - 2a.b form does not.
    """
    p = np.asarray(points, dtype=float)
    return np.linalg.norm(p[:, None] - p[None], axis=-1)


def _from_unit(unit: np.ndarray, space: DesignSpace) -> Design:
    unit = np.asarray(unit, dtype=float)
    return Design(points=space.from_unit(unit), unit_points=unit, space=space)


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
    return _from_unit(unit, space)


def _row(unit: np.ndarray, idx: int) -> np.ndarray:
    """Squared distances from row ``idx`` to every row, inf at ``idx`` itself."""
    d = unit - unit[idx]
    row = np.einsum("ij,ij->i", d, d)
    row[idx] = np.inf
    return row


def _closest_pairs(dist2: np.ndarray, near: np.ndarray, best: float) -> list:
    """Index pairs (a, b), a < b, whose squared distance equals ``best``.

    ``near`` holds each row's minimum, so only the rows at ``best`` are read.
    """
    return [(int(a), int(b)) for a in np.flatnonzero(near == best)
            for b in a + 1 + np.flatnonzero(dist2[a, a + 1:] == best)]


def _partners(pairs: list, n: int) -> tuple:
    """The swaps (i, j), i < j, that could raise the minimum, in scan order.

    A swap of rows i and j rewrites only the distances in rows i and j, so
    it can raise the minimum only if every closest pair contains i or j:
    j must lie in every closest pair that does not contain i, or, when all
    of them contain i, j is any row after i. A row i in no closest pair
    thus pairs only with the rows in every pair (at most two). Returns the
    rows i and partners j as two index arrays sorted by (i, j), in
    O(n + len(pairs)) work.
    """
    deg = np.bincount(np.ravel(pairs), minlength=n)
    rows, partners = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for hub in np.flatnonzero(deg == len(pairs)):
        free = np.flatnonzero(deg[:hub] == 0)
        rows += [np.full(n - 1 - hub, hub), free]
        partners += [np.arange(hub + 1, n), np.full(free.size, hub)]
    closest = set(pairs)
    for i in map(int, np.flatnonzero((deg > 0) & (deg < len(pairs)))):
        # the rows in every pair without i lie in any one such pair; a row v
        # is in all of them when it is in as many pairs without i as there are
        rest = len(pairs) - deg[i]
        for v in next(p for p in pairs if i not in p):
            if v > i and deg[v] - ((min(i, v), max(i, v)) in closest) == rest:
                rows.append([i])
                partners.append([v])
    rows, partners = np.concatenate(rows), np.concatenate(partners)
    order = np.lexsort((partners, rows))
    return rows[order], partners[order]


# A block of candidate swaps starts at _FIRST_BLOCK swaps and doubles up to
# _BLOCK_BYTES of (swaps, 2, n, k) float64 row differences, at least one swap.
_FIRST_BLOCK = 8
_BLOCK_BYTES = 1 << 20


def _first_rise(unit: np.ndarray, best: float, col: np.ndarray, i: np.ndarray,
                j: np.ndarray):
    """The first swap s, of the entries of column col[s] in rows i[s] and
    j[s], after which both rows' squared distances exceed ``best``.

    Every swap is tried on ``unit`` as it is. Returns s and the two rows of
    the swapped design, as :func:`_row` gives them, or None. The swaps are
    scored in blocks of _FIRST_BLOCK, then twice as many each time, up to
    _BLOCK_BYTES; a block costs a few numpy calls, whatever its size.
    """
    n, k = unit.shape
    s = np.arange(col.size)
    new = unit[np.stack((i, j), axis=1)]  # each swap's rows i and j, swapped
    new[s, :, col] = new[s, ::-1, col]
    # row (2 * swap + r) * n + m of a block's differences is design row m
    # minus the swap's new row r (0: row i, 1: row j). Four of them are
    # patched: in the swapped design, row j (for r = 0) or i (r = 1) is the
    # other new row, and a row's own entry is inf, as in _row
    where = np.stack((j, n + i, i, n + j), axis=1) + 2 * n * s[:, None]
    what = np.full((col.size, 4, k), np.inf)
    what[:, 0] = new[:, 1] - new[:, 0]
    what[:, 1] = new[:, 0] - new[:, 1]
    unit_t = unit.T.copy()
    cap = max(1, _BLOCK_BYTES // (16 * n * k))
    lo, size = 0, min(_FIRST_BLOCK, cap)
    while lo < col.size:
        hi = min(lo + size, col.size)
        # each element as in _row; written through a transposed view, so
        # numpy's inner loop runs over the n rows, not the k columns
        diff = np.empty((hi - lo, 2, n, k))
        np.subtract(unit_t, new[lo:hi, :, :, None], out=diff.transpose(0, 1, 3, 2))
        diff.reshape(-1, k)[where[lo:hi].ravel() - 2 * n * lo] = what[lo:hi].reshape(-1, k)
        dist = np.einsum("abij,abij->abi", diff, diff)
        up = np.flatnonzero(dist.reshape(hi - lo, -1).min(axis=1) > best)
        if up.size:
            return lo + up[0], dist[up[0]]
        lo, size = hi, min(2 * size, cap)
    return None


def _swap_refine(unit: np.ndarray) -> np.ndarray:
    """Greedy coordinate-swap hill climbing on the minimum pairwise distance.

    Swapping two entries within a column preserves the Latin property.
    Scans (column, i, j) in lexicographic order and keeps any strictly
    improving swap; repeats until a full pass finds none. Deterministic.

    The scan is pruned exactly. A swap of rows i and j changes only the
    distances in rows i and j, so while some pair at the current minimum
    contains neither i nor j the new minimum cannot exceed the old one and
    the swap would be rejected. Such swaps are skipped (see
    :func:`_partners`). The closest pairs are recomputed after each
    accepted swap, also within a row. So every pair without i or j stays
    strictly above the minimum, and a swap raises it exactly when its two
    new rows do; testing only them accepts the unpruned scan's swaps, and
    gives its design, bit for bit.

    The swaps are tried in batches. Between two accepted swaps the design
    and the closest pairs do not change, so the rest of the pass's pruned
    swaps is fixed: the same (i, j) list in each remaining column. A batch
    is a block of the next swaps of that list (see :func:`_first_rise`):
    each swap's two new rows of squared distances are built in one numpy
    call with :func:`_row`'s arithmetic, the design minus the row summed
    over the contiguous last axis (the old distances are not updated, so
    every bit is the serial scan's). The first swap in the block whose rows
    exceed the minimum is the swap the serial scan accepts next: the serial
    scan tries the swaps before it on the same design and rejects them.
    It is accepted, the list is rebuilt from the new closest pairs, and
    the scan goes on after it. Each accepted swap costs O(n) bookkeeping:
    only the rows whose minimum lay in one of the two changed columns are
    searched again.
    """
    unit = unit.copy()
    n, k = unit.shape
    dist2 = np.array([_row(unit, i) for i in range(n)])
    near = dist2.min(axis=1)
    best = near.min()
    rows, partners = _partners(_closest_pairs(dist2, near, best), n)
    improved, start = False, 0
    while True:
        # the pass's swaps from ``start`` on: column g // rows.size, pair g % rows.size
        col, at = np.divmod(np.arange(start, k * rows.size), rows.size)
        found = _first_rise(unit, best, col, rows[at], partners[at])
        if found is None:
            if not improved:
                return unit
            improved, start = False, 0
            continue
        s, new_rows = found
        c, a, z = int(col[s]), int(rows[at[s]]), int(partners[at[s]])
        unit[[a, z], c] = unit[[z, a], c]
        # a row whose minimum lay in column a or z may rise: search it again
        stale = np.flatnonzero((dist2[:, a] == near) | (dist2[:, z] == near))
        dist2[[a, z]] = new_rows
        dist2[:, [a, z]] = new_rows.T
        near = np.minimum(near, new_rows.min(axis=0))
        near[stale] = dist2[stale].min(axis=1)
        near[[a, z]] = new_rows.min(axis=1)
        best = near.min()
        improved = True
        rows, partners = _partners(_closest_pairs(dist2, near, best), n)
        start = c * rows.size + int(np.searchsorted(rows * n + partners, a * n + z, "right"))


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

    Each candidate is scored by :meth:`Design.min_distance`: one square
    root of its smallest squared distance, not n x n of them. The
    refinement tries its swaps in batches, a block of swaps per numpy call,
    and accepts exactly the swaps of the one-at-a-time scan in the same
    order (:func:`_swap_refine`), so the design does not depend on how
    the swaps are batched.
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
    return _from_unit(best_unit, space)


def save_design_csv(design: Design, path: str, meta: dict | None = None) -> None:
    """Write a design as CSV: named header row, physical units, full precision."""
    write_csv(path, design.space.names, design.points, meta)


def load_design_csv(path: str, space: DesignSpace) -> Design:
    """Read a design CSV written by :func:`save_design_csv`.

    The header must name exactly the space's dimensions, in order; every
    point must lie inside the box.
    """
    header, rows, _ = read_table(path)
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
    return Design(points=points, unit_points=space.to_unit(points), space=space)
