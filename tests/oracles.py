"""Slow reference implementations the tests compare against.

Everything here is written straight from definitions (explicit loops,
finite differences, textbook quadrature) and avoids the closed forms
and vectorized paths used by the package, so agreement between the two
is evidence rather than tautology.
"""

import math
from itertools import combinations

import numpy as np
from scipy.special import roots_jacobi


def alr_inverse_ref(y):
    z = np.concatenate([np.exp(np.asarray(y, dtype=float)), [1.0]])
    return z / z.sum()


def packed_stat_ref(u):
    """Sufficient statistic built entry by entry from its definition."""
    u = np.asarray(u, dtype=float)
    d = u.size - 1
    parts = [u[i] ** 2 for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            parts.append(2.0 * u[i] * u[j])
    parts.extend(math.log(u[i]) for i in range(d))
    return np.array(parts)


def fd_stat_jacobian(u, h=1e-6):
    """d t(u(y)) / d y by central differences in log-ratio coordinates."""
    u = np.asarray(u, dtype=float)
    d = u.size - 1
    y0 = np.log(u[:d] / u[-1])
    cols = []
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        hi = packed_stat_ref(alr_inverse_ref(y0 + step))
        lo = packed_stat_ref(alr_inverse_ref(y0 - step))
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def fd_stat_second(u, h=1e-4):
    """Pure second derivatives d^2 t / d y_j^2, one column per j."""
    u = np.asarray(u, dtype=float)
    d = u.size - 1
    y0 = np.log(u[:d] / u[-1])
    mid = packed_stat_ref(alr_inverse_ref(y0))
    cols = []
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        hi = packed_stat_ref(alr_inverse_ref(y0 + step))
        lo = packed_stat_ref(alr_inverse_ref(y0 - step))
        cols.append((hi - 2.0 * mid + lo) / (h * h))
    return np.column_stack(cols)


def quadrature_nodes(params, order=80):
    """Tensor Gauss-Jacobi rule for the p=3 model density.

    Substituting u = (x, (1-x) y, (1-x)(1-y)) maps the simplex onto the
    unit square with Jacobian (1-x); folding the Dirichlet factor into
    Jacobi weights leaves only the quadratic tilt to evaluate.  Returns
    (points, weights) with the weights unnormalized, so expectations
    are weight-ratio sums and every constant cancels.
    """
    if params.p != 3:
        raise ValueError("quadrature oracle is written for p=3 only")
    b = params.beta
    xs, wx = roots_jacobi(order, b[1] + b[2] + 1.0, b[0])
    ys, wy = roots_jacobi(order, b[2], b[1])
    x = (xs + 1.0) / 2.0
    y = (ys + 1.0) / 2.0
    X, Y = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack([
        X.ravel(),
        ((1.0 - X) * Y).ravel(),
        ((1.0 - X) * (1.0 - Y)).ravel(),
    ])
    quad = np.einsum("ni,ij,nj->n", pts[:, :2], params.a_l, pts[:, :2])
    w = np.outer(wx, wy).ravel() * np.exp(quad - quad.max())
    return pts, w


def quadrature_expectation(params, f, order=80):
    pts, w = quadrature_nodes(params, order)
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 1:
        return float(np.dot(w, vals) / w.sum())
    return np.tensordot(w, vals, axes=(0, 0)) / w.sum()


def brute_ks(x, y):
    """Two-sample KS statistic straight from the ECDF definition."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def naive_blocks(U, weights=None, beta_p=0.0):
    """Accumulate the estimating-equation blocks one row at a time.

    Uses the package's per-observation matrices but plain Python sums,
    exercising none of the chunked or compensated machinery.
    """
    from rppi.suffstats import r_matrix_batch, s_matrix_batch

    U = np.asarray(U, dtype=float)
    n = U.shape[0]
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    q = r_matrix_batch(U[:1]).shape[1]
    W = np.zeros((q, q))
    dvec = np.zeros(q)
    for i in range(n):
        R = r_matrix_batch(U[i:i + 1])[0]
        S = s_matrix_batch(U[i:i + 1])[0]
        W += w[i] * (R @ R.T)
        dvec += w[i] * ((1.0 + beta_p) * (R @ U[i, :-1]) - S.sum(axis=1))
    return (W + W.T) / 2.0, dvec


def closed_simplex_grid_ref(p, resolution):
    """All lattice compositions k/resolution, boundary included."""
    pts = []
    for cut in combinations(range(resolution + p - 1), p - 1):
        prev = -1
        row = []
        for c in cut:
            row.append(c - prev - 1)
            prev = c
        row.append(resolution + p - 2 - prev)
        pts.append(row)
    return np.asarray(pts, dtype=float) / resolution


def quad_max_grid(a_l, resolution=120):
    """Brute-force envelope check value over a simplex lattice."""
    a_l = np.asarray(a_l, dtype=float)
    d = a_l.shape[0]
    V = closed_simplex_grid_ref(d + 1, resolution)[:, :d]
    return float(np.einsum("ni,ij,nj->n", V, a_l, V).max())
