"""Slow reference implementations the tests compare against.

Everything here is written straight from definitions (explicit loops,
finite differences, textbook quadrature) and avoids the closed forms
and vectorized paths used by the package, so agreement between the two
is evidence rather than tautology.  It also holds the scenario-file
writer, which only tests need: the program reads scenario files but
never writes one.
"""

import math
from dataclasses import asdict
from itertools import combinations

import numpy as np


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


def rs_blocks_ref(u):
    """R and S of one row in three row blocks, entry by entry in the
    packed order: the a_ii rows 2 u_i^2 (delta - u_j) and
    4 u_i^2 (delta - u_j)^2 - 2 u_i^2 u_j (1 - u_j), the a_ik rows
    2 u_i u_k (delta_ij + delta_kj - 2 u_j) and its square form, then the
    log rows delta - u_j and -u_j (1 - u_j).  Python floats, so every
    product and sum is one IEEE operation in the order written."""
    u = [float(x) for x in u]
    d = len(u) - 1
    R, S = [], []
    for i in range(d):
        sq = u[i] * u[i]
        R.append([2.0 * sq * ((i == j) - u[j]) for j in range(d)])
        S.append([4.0 * sq * (((i == j) - u[j]) * ((i == j) - u[j]))
                  - 2.0 * sq * (u[j] * (1.0 - u[j])) for j in range(d)])
    for i, k in combinations(range(d), 2):
        prod = u[i] * u[k]
        step = [((i == j) + (k == j)) - 2.0 * u[j] for j in range(d)]
        R.append([2.0 * prod * step[j] for j in range(d)])
        S.append([2.0 * prod * (step[j] * step[j]) - 4.0 * prod * (u[j] * (1.0 - u[j]))
                  for j in range(d)])
    for i in range(d):
        R.append([(i == j) - u[j] for j in range(d)])
        S.append([-(u[j] * (1.0 - u[j])) for j in range(d)])
    return np.array(R), np.array(S)


def quadrature_nodes(params, order=80):
    """Tensor Gauss-Jacobi rule for the p=3 model density.

    Substituting u = (x, (1-x) y, (1-x)(1-y)) maps the simplex onto the
    unit square with Jacobian (1-x); folding the Dirichlet factor into
    Jacobi weights leaves only the quadratic tilt to evaluate.  Returns
    (points, weights) with the weights unnormalized, so expectations
    are weight-ratio sums and every constant cancels.
    """
    from scipy.special import roots_jacobi

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


def naive_blocks(U, weights=None, beta_p=0.0):
    """Accumulate the estimating-equation blocks one row at a time.

    Uses the package's per-observation matrices but plain Python sums,
    exercising none of the chunked machinery or the cached score blocks.
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


def quadratic_ref(v, a_l):
    """v' A v of one row in Python floats: 0 + sum_i sum_j (v_i a_ij) v_j,
    added in that order (IEEE products and sums, no numpy arithmetic)."""
    v = [float(x) for x in v]
    a = np.asarray(a_l, dtype=float).tolist()
    total = 0.0
    for i, row in enumerate(a):
        for j, a_ij in enumerate(row):
            total += (v[i] * a_ij) * v[j]
    return total


def quad_max_faces_ref(a_l, feas_tol=1e-9, origin=True):
    """Envelope maximum by one small solve per face, in a plain loop;
    with ``origin=False``, the maximum on the face sum(v) = 1 alone."""
    a = np.asarray(a_l, dtype=float)
    d = a.shape[0]
    best = 0.0 if origin else -math.inf
    best = max(best, float(np.max(np.diag(a))))
    ones_cache = [np.ones(k) for k in range(d + 1)]
    for size in range(2, d + 1):
        for subset in combinations(range(d), size):
            idx = np.asarray(subset)
            att = a[np.ix_(idx, idx)]
            try:
                z = np.linalg.solve(att, ones_cache[size])
            except np.linalg.LinAlgError:
                continue
            s = z.sum()
            if s == 0.0 or not np.all(np.isfinite(z)):
                continue
            x = z / s
            if np.all(x >= -feas_tol):
                best = max(best, 1.0 / s)
    return best


def plain_rejection(params, n, seed, max_proposals=10_000_000):
    """Exact draws by the plain rejection loop: whole Dirichlet(beta + 1)
    proposals, accepted with probability exp(u_L' A u_L - M) by one
    whole-batch einsum, then the interior mask.

    This is the package's sampler as it was before the radial split, with
    its batch rule, so tests that only need model draws as input keep
    their rows byte for byte.  Returns (U, proposals, acceptance rate, M).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = params.p - 1
    envelope = quad_max_faces_ref(params.a_l)
    kept, n_acc, n_prop = [], 0, 0
    batch = int(min(max(1024, 2 * n), 65536))
    while n_acc < n:
        P = rng.dirichlet(params.beta + 1.0, size=batch)
        logq = np.einsum("ni,ij,nj->n", P[:, :d], params.a_l, P[:, :d]) - envelope
        accept = np.log(rng.random(batch)) < logq
        accept &= (P > 0.0).all(axis=1)
        got = P[accept]
        kept.append(got)
        n_acc += got.shape[0]
        n_prop += batch
        if n_prop >= max_proposals and n_acc < n and n_acc / n_prop < 1e-6:
            raise RuntimeError("plain loop gave up")
        rate_so_far = max(n_acc, 1) / n_prop
        batch = int(np.clip(1.2 * (n - n_acc) / rate_so_far, 1024, 2_000_000))
    return np.concatenate(kept)[:n], n_prop, n_acc / n_prop, envelope


def plain_draws(params, n, seed):
    """n model draws from ``plain_rejection``."""
    return plain_rejection(params, n, seed)[0]


def plain_counts(params, m, seed, n=None):
    """Counts as ``sample_counts`` makes them, latent rows from
    ``plain_rejection``: the seed spawns a latent and a count child,
    and ``m`` is a vector of totals or a scalar total for n rows."""
    from rppi.model import CountDataset
    from rppi.sampling import spawn_seeds

    totals = np.full(n, m) if np.ndim(m) == 0 else np.asarray(m)
    latent_seed, count_seed = spawn_seeds(seed, 2)
    U = plain_draws(params, totals.size, latent_seed)
    x = np.random.default_rng(count_seed).multinomial(totals.astype(np.int64), U)
    return CountDataset(x=x)


def influence_ref(z, pi0, reference, c, kstar, beta_p=0.0):
    """Influence function at each row of z, one observation at a time.

    Straight from the definitions: W1 = R R' and d1 per row, the
    unshifted weight exp(c u_K' A_KK u_K), H = diag(1 + c on the A_KK
    entries, 1 elsewhere), the sensitivity matrix as the plain mean
    G = (1/n) sum_i w_i (W1_i H + c e_i t_a,i') with e = W1 H pi - d1,
    and IF(z) = -G^{-1} w(z) e(z).  Uses the package's per-row R and S
    (checked against finite differences elsewhere) and nothing else.
    """
    from rppi.suffstats import r_matrix_batch, s_matrix_batch

    pi0 = np.asarray(pi0, dtype=float)
    reference = np.asarray(reference, dtype=float)
    p = reference.shape[1]
    d = p - 1
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    in_kk = [i < kstar for i in range(d)] + [j < kstar for _, j in pairs] + [False] * d
    h = np.array([1.0 + c if live else 1.0 for live in in_kk])

    def t_a(u):
        parts = [u[i] ** 2 if i < kstar else 0.0 for i in range(d)]
        parts += [2.0 * u[i] * u[j] if j < kstar else 0.0 for i, j in pairs]
        return np.array(parts + [0.0] * d)

    def pieces(u):
        row = np.asarray(u, dtype=float)[None, :]
        R = r_matrix_batch(row)[0]
        S = s_matrix_batch(row)[0]
        W1 = R @ R.T
        d1 = (1.0 + beta_p) * (R @ row[0, :-1]) - S.sum(axis=1)
        ta = t_a(row[0])
        return W1, W1 @ (h * pi0) - d1, ta, math.exp(c * float(ta @ pi0))

    q = pi0.size
    G = np.zeros((q, q))
    for u in reference:
        W1, e, ta, w = pieces(u)
        G += w * (W1 * h[None, :] + c * np.outer(e, ta))
    G /= reference.shape[0]
    out = []
    for u in np.atleast_2d(np.asarray(z, dtype=float)):
        _, e, _, w = pieces(u)
        out.append(-np.linalg.solve(G, w * e))
    return np.array(out)


def equilibrated_ref(w_hat):
    """(matrix, scale, kept rows) of a score matching system: W_hat
    without its rows and columns of zero diagonal, scaled to a unit
    diagonal as scale * W * scale."""
    diag = np.diag(w_hat)
    keep = diag > 0.0
    wk = w_hat[np.ix_(keep, keep)]
    scale = 1.0 / np.sqrt(np.diag(wk))
    return wk * scale[:, None] * scale[None, :], scale, keep


def eigh_solve_ref(w_hat, d_hat):
    """(pi, condition number) of W_hat pi = d_hat by one eigendecomposition
    of the equilibrated matrix, as every iteration solved before pivot
    checks: a condition number over COND_MAX (inf when the matrix is not
    positive definite) raises SingularSystemError."""
    from rppi.errors import SingularSystemError
    from rppi.estimator import COND_MAX

    a, scale, keep = equilibrated_ref(w_hat)
    lam, vec = np.linalg.eigh(a)
    cond = float(lam[-1] / lam[0]) if lam.size and lam[0] > 0.0 else math.inf
    if not cond <= COND_MAX:
        raise SingularSystemError("singular")
    pi = np.zeros(keep.size)
    pi[keep] = scale * (vec @ ((vec.T @ (scale * d_hat[keep])) / lam))
    return pi, cond


def study_rows(name, seed, replicate, replicates=25):
    """(scenario, rows) of one replicate of a study preset: the rows
    study._replicate fits, drawn by the package's sampler."""
    from rppi.sampling import contaminate, rng_from, sample_rppi, spawn_seeds
    from rppi.study import preset_scenario

    scenario = preset_scenario(name, seed=seed, replicates=replicates)
    latent, counts, contam = spawn_seeds(seed, replicates)[replicate].spawn(3)
    u, _ = sample_rppi(scenario.truth, scenario.n, seed=latent)
    if scenario.data_mode == "multinomial":
        u = rng_from(counts).multinomial(np.full(scenario.n, scenario.m), u) / float(scenario.m)
    if scenario.contamination > 0.0:
        u = contaminate(u, scenario.contamination, np.asarray(scenario.outlier), seed=contam)
    return scenario, u


def averaged_map_fit(data, cfg, ridge=0.0):
    """(pi, iterations, restarts) of a fit by the reweighting loop with
    the averaged map that the package took before its step became
    pi_tilde / h: pi_new = (pi_tilde + c x_out) / (1 + c), where x_out is
    x with its A_KK entries zeroed.  Both maps have the fixed points
    H pi = pi_tilde, but this one moves the entries outside A_KK, which
    no weight reads, only part of the way.  ``data`` is a PreparedData;
    the weights, sums, solves, restart ladder, damping, Anderson steps
    and stop rule are the package's, so only the map differs: on presets
    sim5 to sim8 at seeds 3 and 4 its 1,400 fits were those of the
    package's loop before the change, bit for bit.  Raises the last
    start's SingularSystemError or NonConvergenceError."""
    from rppi import robust
    from rppi.errors import NonConvergenceError, SingularSystemError
    from rppi.estimator import assemble, condition_number, solve_system

    c, d = cfg.c, data.rows.shape[1] - 1
    outside = np.array([i >= cfg.kstar for i in range(d)]
                       + [j >= cfg.kstar for _, j in combinations(range(d), 2)] + [True] * d)
    h = np.where(outside, 1.0, 1.0 + c)
    ta = robust.kk_statistic(data.rows, cfg.kstar)
    for restarts, x in enumerate([None] + list(robust._failover_inits(data, cfg))):
        try:
            if x is None:
                x = data._start(ridge)[2]
                if c == 0.0:
                    return x, 1, restarts
            trace, non_monotone, switch, history, source = [], 0, None, [], None
            for iteration in range(1, cfg.max_iter + 1):
                w_hat, d_hat = assemble(data.stats, robust.normalized_weights(ta, x, c)[0])
                g = (solve_system(w_hat, d_hat, ridge=ridge) + c * np.where(outside, x, 0.0)) / (1.0 + c)
                if non_monotone >= robust.PATIENCE:
                    g = x + robust.DAMPING * (g - x)
                f = g - x
                res = float(np.abs(f).max())
                rel = res / max(float(np.abs(x).max()), 1e-300)
                if trace and rel > trace[-1]:
                    non_monotone += 1
                trace.append(rel)
                hx = h * x
                if rel <= cfg.tol and (switch is None or np.abs(w_hat @ hx + ridge * hx - d_hat).max()
                                       < robust.RESIDUAL * np.abs(d_hat).max()):
                    break
                if switch is None and rel < robust.SWITCH:
                    switch = iteration
                if source is not None and res > source[1]:
                    x, source, history = source[0], None, []
                    continue
                kept = history[-robust.DEPTH:] if history and res <= history[-1][2] else []
                history = kept + [(f, g, res)]
                if switch is None or len(history) < 2:
                    x, source = g, None
                    continue
                df = np.diff([step[0] for step in history], axis=0).T
                dg = np.diff([step[1] for step in history], axis=0).T
                x, source = g - dg @ np.linalg.lstsq(df, f, rcond=None)[0], (g, res)
            else:
                raise NonConvergenceError("no convergence")
            condition_number(w_hat, ridge)
            return x, iteration, restarts
        except (SingularSystemError, NonConvergenceError) as exc:
            error = exc
    raise error


def scenario_to_dict(scenario):
    """A scenario file's payload, as rppi.dataio.scenario_from_dict reads it."""
    from rppi.dataio import params_to_dict, report_to_dict

    return report_to_dict(
        "scenario", scenario, truth=params_to_dict(scenario.truth),
        estimators=[{"label": label, "config": asdict(cfg)}
                    for label, cfg in scenario.estimators])
