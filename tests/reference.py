"""Dense brute-force reference implementations used only by the tests.

Everything here materializes the full nq x nq covariance and nq x nu
regressor matrices and works with plain dense linear algebra, written
independently of the package's Kronecker-structured code paths (bases and
kernels are re-derived from their defining formulas). Feasible only for
tiny instances; that is the point.
"""

import math

import numpy as np


def input_regressors(point, bounds):
    """[1, sqrt(3) u_i, sqrt(5)(4 u_i^2 - 3 u_i), ...] with u_i in [0,1]."""
    out = [1.0]
    for x, (lo, hi) in zip(point, bounds):
        u = (x - lo) / (hi - lo)
        out.append(math.sqrt(3.0) * u)
        out.append(math.sqrt(5.0) * (4.0 * u * u - 3.0 * u))
    return np.array(out)


def output_regressors(t, frequencies):
    out = [1.0]
    for f in frequencies:
        out.append(math.sin(2.0 * math.pi * f * t))
        out.append(math.cos(2.0 * math.pi * f * t))
    return np.array(out)


def correlation(r1, t1, r2, t2, input_lengths, output_length, exponent):
    """Four-argument separable residual correlation, evaluated directly."""
    total = 0.0
    for a, b, lam in zip(r1, r2, input_lengths):
        total += (abs(a - b) / lam) ** exponent
    total += (abs(t1 - t2) / output_length) ** exponent
    return math.exp(-total)


def dense_matrices(points, grid, bounds, frequencies, input_lengths,
                   output_length, exponent, jitter):
    """Full covariance K (with per-factor jitter) and regressor matrix Q."""
    n, q = len(points), len(grid)
    K = np.empty((n * q, n * q))
    for i in range(n):
        for j in range(q):
            for a in range(n):
                for b in range(q):
                    # per-factor jitter: (Kr + eI) kron (Ks + eI)
                    kr = math.exp(-sum(
                        (abs(points[i][d] - points[a][d]) / input_lengths[d]) ** exponent
                        for d in range(len(input_lengths))
                    ))
                    ks = math.exp(-((abs(grid[j] - grid[b]) / output_length) ** exponent))
                    K[i * q + j, a * q + b] = (kr + (jitter if i == a else 0.0)) * (
                        ks + (jitter if j == b else 0.0)
                    )
    Q = np.empty((n * q, (1 + 2 * len(bounds)) * (1 + 2 * len(frequencies))))
    for i in range(n):
        gi = input_regressors(points[i], bounds)
        for j in range(q):
            Q[i * q + j] = np.kron(gi, output_regressors(grid[j], frequencies))
    return K, Q


def dense_log_marginal_likelihood(F, K, Q, tau, sigma2):
    y = np.asarray(F, dtype=float).ravel()
    C = tau * (K + sigma2 * (Q @ Q.T))
    sign, logdet = np.linalg.slogdet(C)
    assert sign > 0
    return float(
        -0.5 * y @ np.linalg.solve(C, y)
        - 0.5 * logdet
        - 0.5 * y.size * math.log(2.0 * math.pi)
    )


def dense_likelihood_gradient(F, K, Q, dK_list, tau, sigma2):
    """Gradient over (lengths..., tau) via the trace identity, densely.

    ``dK_list`` holds dK/d(length) for each length parameter; the tau
    derivative uses dC/dtau = C / tau.
    """
    y = np.asarray(F, dtype=float).ravel()
    M = K + sigma2 * (Q @ Q.T)
    C = tau * M
    Cinv = np.linalg.inv(C)
    alpha = Cinv @ y
    grad = []
    for dK in dK_list:
        dC = tau * dK
        grad.append(0.5 * alpha @ dC @ alpha - 0.5 * np.trace(Cinv @ dC))
    grad.append(0.5 * alpha @ M @ alpha - 0.5 * np.trace(Cinv @ M))
    return np.array(grad)


def dense_fit(F, K, Q, m, V, a, d):
    """Conjugate posterior (mn, Vn, an, dn) with dense solves."""
    y = np.asarray(F, dtype=float).ravel()
    Vinv = np.linalg.inv(V)
    Kinv = np.linalg.inv(K)
    A = Vinv + Q.T @ Kinv @ Q
    Vn = np.linalg.inv(A)
    mn = Vn @ (Vinv @ m + Q.T @ Kinv @ y)
    an = a + y.size
    dn = d + m @ Vinv @ m + y @ Kinv @ y - mn @ A @ mn
    return mn, Vn, an, dn


def dense_predict(F, K, Q, mn, Vn, an, dn, q_star, k_star, kappa0):
    """Student-t (location, scale) at one prediction site, densely."""
    y = np.asarray(F, dtype=float).ravel()
    Kinv = np.linalg.inv(K)
    loc = q_star @ mn + k_star @ Kinv @ (y - Q @ mn)
    rho = q_star - Q.T @ Kinv @ k_star
    unit_var = kappa0 - k_star @ Kinv @ k_star + rho @ Vn @ rho
    return float(loc), float(math.sqrt(max(dn / an * unit_var, 0.0)))


def dense_problem(train, ib, ob, kern, jitter):
    """:func:`dense_matrices` of a training set, bases and kernel spec."""
    return dense_matrices(
        train.design.points,
        train.time_grid,
        train.design.space.bounds,
        ob.frequencies,
        kern.input_lengths,
        kern.output_length,
        kern.exponent,
        jitter,
    )


def dense_series(train, ob, kern, jitter, dense, r, times):
    """Dense-oracle (location, scale) arrays at input r over times (None: grid)."""
    K, Q, mn, Vn, an, dn = dense
    gr = input_regressors(r, train.design.space.bounds)
    kr = np.array([
        correlation(r, 0, p, 0, kern.input_lengths, 1.0, kern.exponent)
        for p in train.design.points
    ])
    out = []
    for t in train.time_grid if times is None else times:
        gs = output_regressors(t, ob.frequencies)
        ks = np.array([
            correlation([0], t, [0], tg, (1.0,), kern.output_length, kern.exponent)
            for tg in train.time_grid
        ])
        out.append(dense_predict(
            train.outputs, K, Q, mn, Vn, an, dn,
            np.kron(gr, gs), np.kron(kr, ks), (1 + jitter) ** 2,
        ))
    return np.array(out).T


def coeff_cov(model) -> np.ndarray:
    """The posterior coefficient scale matrix Vn = S^-1 (nu x nu), built densely
    from a fitted model's core: E diag(D) E' with E = Ur (x) Us."""
    core = model._core
    E = np.kron(core.Ur, core.time.Us)
    return (E * core.D.ravel()) @ E.T


def _refresh_row(unit: np.ndarray, dist2: np.ndarray, idx: int) -> None:
    d = unit - unit[idx]
    row = np.einsum("ij,ij->i", d, d)
    row[idx] = np.inf
    dist2[idx, :] = row
    dist2[:, idx] = row


def full_swap_refine(unit: np.ndarray) -> np.ndarray:
    """Greedy coordinate-swap hill climbing on the minimum pairwise distance.

    The unpruned scan: every (column, i, j) swap is tried. Oracle for the
    pruned ``opemu.design._swap_refine``, which must match it bit for bit.

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
