"""Exact rejection sampler for the model, plus data perturbations.

Rejection sampling is exact: proposals come from Dirichlet(alpha) with
alpha = beta + 1, so the target/proposal ratio is exp(Q(u)) with
Q(u) = u_L' A_L u_L, up to a constant, and an envelope only needs the
maximum M+ of that quadratic over the closed unit simplex slice
{v >= 0, sum v <= 1}.  The maximum of a quadratic form over a polytope
is attained at a critical point of one of its faces; enumerating subsets
T of active coordinates and solving the stationarity condition A_TT x
proportional to 1 on each sum-one face gives the maximum M_face on the
face {sum v = 1} exactly (up to roundoff in the small solves), and
M+ = max(0, M_face) adds the origin.  There are 2^(p-1) faces, so the
faces of one size are solved in stacks of ``FACE_CHUNK``
(k*k*8*FACE_CHUNK bytes each); a stack with a singular face falls back
to one solve per face, and the maximum equals a face-by-face loop bit
for bit.

Each proposal is split radially, u = (s*v, 1 - s) with s = sum(u_L).
Under Dirichlet(alpha), s ~ Beta(sum alpha_L, alpha_p) and
v ~ Dirichlet(alpha_L) are independent (the aggregation property;
Devroye, Non-Uniform Random Variate Generation, 1986, ch. XI), and
Q(u) = s^2 * v' A_L v <= s^2 * M_face.  Stage one draws only s and keeps
it with probability exp(M_face s^2 - M+); stage two draws v for the
survivors alone and keeps u with probability exp(s^2 (v' A_L v - M_face)).
Both are at most one, and their product is exp(Q(u) - M+), the plain
sampler's acceptance, so the draws follow the model's law exactly and
every stage-one draw counts as one Dirichlet(alpha) proposal.  When
alpha_p = 1 (beta_p = 0, the default) s is drawn by inversion,
s = exp(t) with t = log(U) / sum(alpha_L), U uniform on (0, 1], and
1 - s = -expm1(t);
otherwise from two gamma draws, s = g/(g + h) and 1 - s = h/(g + h).
Both keep s and 1 - s to full relative precision.

Each stage draws its whole batch at once, the radial draws and then one
uniform per row, so the random stream depends only on the batch sizes.
The quadratic is taken by columns on ``QUAD_CHUNK``-row blocks that stay
in cache, adding the terms in the order ``np.einsum`` adds them, and the
interior test runs only on the rows that pass both stages; the draws
equal those of a whole-batch einsum and interior mask byte for byte
(except where a stage-two batch has one or two rows at p = 3, see
``_quadratic``), and no BLAS call is involved, so they do not depend on
the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import DimensionError, LowAcceptanceError
from .model import CountDataset, RPPIParams, as_matrix

ACCEPT_FLOOR = 1e-6
# sample_rppi gives up once this many proposals accept below ACCEPT_FLOOR
MAX_PROPOSALS = 10_000_000
FEAS_TOL = 1e-9
FACE_CHUNK = 4096
QUAD_CHUNK = 16384


def rng_from(seed) -> np.random.Generator:
    """Build a Generator from anything reasonable (int, SeedSequence, ...)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """n independent child seeds, reproducible for a fixed parent seed."""
    if isinstance(seed, np.random.SeedSequence):
        parent = seed
    else:
        parent = np.random.SeedSequence(seed)
    return parent.spawn(n)


def quad_max_simplex(a_l, *, face: bool = False) -> float:
    """Exact maximum of v' A v over {v >= 0, sum(v) <= 1}.

    With ``face=True``, the maximum M_face over the face {v >= 0,
    sum(v) = 1} alone, which may be negative; the default is
    max(0, M_face), the origin's value 0 included.  ``sample_rppi`` asks
    for M_face and takes M+ from it, so the faces are enumerated once per
    sampler run.
    """
    a = np.asarray(a_l, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise DimensionError(f"interaction matrix must be square, got {a.shape}")
    m_face = _face_max(a)
    return m_face if face else max(0.0, m_face)


def _face_max(a: np.ndarray) -> float:
    """Exact maximum of v' A v over {v >= 0, sum(v) = 1}.

    For every nonempty subset T, the critical point of the quadratic on
    the face {sum_T v = 1, v_T > 0} solves A_TT z = 1 up to scale.
    Vertices are covered by singletons, whose value is the diagonal
    entry.  Marginally infeasible critical points are kept (tolerance on
    the inclusive side), which can only enlarge the maximum, never
    undercut it.

    Faces of one size k are taken ``FACE_CHUNK`` at a time and their
    A_TT solved as one stack, which holds k*k*8*FACE_CHUNK bytes (8 MB at
    k = 16).  A stack with a singular member is solved again one face at
    a time, skipping the singular ones.  Each face still gets its own
    LAPACK solve and the maximum does not depend on order, so the result
    equals a face-by-face loop bit for bit.
    """
    d = a.shape[0]
    best = float(np.max(np.diag(a)))
    for size in range(2, d + 1):
        ones = np.ones((1, size, 1))
        faces = combinations(range(d), size)
        while chunk := list(islice(faces, FACE_CHUNK)):
            idx = np.array(chunk)
            z = _solve_faces(a[idx[:, :, None], idx[:, None, :]], ones)
            s = z.sum(axis=1)
            ok = (s != 0.0) & np.isfinite(z).all(axis=1)
            z, s = z[ok], s[ok]
            feasible = (z / s[:, None] >= -FEAS_TOL).all(axis=1)
            if feasible.any():
                best = max(best, float(np.max(1.0 / s[feasible])))
    return best


def _solve_faces(stack: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Solutions of stack[i] z = 1, one row each; NaN rows where singular.

    ``ones`` has shape (1, k, 1), the rank of ``stack``, so every numpy
    version reads it as one right-hand-side matrix broadcast over the
    stack (numpy 1.x would read a (k, 1) array as a stack of vectors).
    """
    try:
        return np.linalg.solve(stack, ones)[..., 0]
    except np.linalg.LinAlgError:
        z = np.full(stack.shape[:2], np.nan)
        for i, att in enumerate(stack):
            try:
                z[i] = np.linalg.solve(att, ones[0])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return z


@dataclass(frozen=True)
class SamplerReport:
    """Bookkeeping from one rejection run.

    ``n_proposals`` counts Dirichlet(beta + 1) proposals and
    ``acceptance_rate`` is the share of them kept; ``envelope_constant``
    is M+ = max(0, face_max).  ``face_max`` is M_face, the maximum of the
    quadratic on the face sum(v) = 1, and ``n_stage_two`` counts the
    proposals that passed the radial test and drew their full Dirichlet.
    """

    n_requested: int
    n_proposals: int
    acceptance_rate: float
    envelope_constant: float
    face_max: float
    n_stage_two: int


def _quadratic(V: np.ndarray, a_l: np.ndarray) -> np.ndarray:
    """Q[r] = sum_i sum_j (V[r, i] * a_ij) * V[r, j], one column term at a time.

    The terms are added to a zero start, i outer and j inner, which is
    the order in which ``np.einsum("ni,ij,nj->n", V, a_l, V)`` adds them,
    so the two agree bit for bit except on one- or two-row inputs at
    d = 2, where einsum takes another order.  Rows are
    taken ``QUAD_CHUNK`` at a time as a contiguous transposed copy, whose
    columns stay in cache across the block's d*d terms; over whole 2M-row
    batches the same column form is slower than the einsum.
    """
    n, d = V.shape
    rows = np.asarray(a_l, dtype=float).tolist()
    out = np.zeros(n)
    cols = np.empty((d, min(n, QUAD_CHUNK)))
    term = np.empty(cols.shape[1])
    for start in range(0, n, QUAD_CHUNK):
        stop = min(start + QUAD_CHUNK, n)
        c = cols[:, :stop - start]
        np.copyto(c, V[start:stop].T)
        acc, t = out[start:stop], term[:stop - start]
        for i, row in enumerate(rows):
            for j, a_ij in enumerate(row):
                np.multiply(c[i], a_ij, out=t)
                np.multiply(t, c[j], out=t)
                np.add(acc, t, out=acc)
    return out


def sample_rppi(params: RPPIParams, n: int, seed=None) -> tuple[np.ndarray, SamplerReport]:
    """Draw n exact samples by rejection; returns (U, report).

    Each proposal is split radially (see the module docstring): stage one
    draws s = sum(u_L) ~ Beta(sum alpha_L, alpha_p) for the whole batch
    and keeps it with probability exp(M_face s^2 - M+); stage two draws
    v ~ Dirichlet(alpha_L) for the survivors only and keeps
    u = (s v, 1 - s) with probability exp(s^2 (v' A_L v - M_face)).  The
    report counts stage-one draws as proposals and the survivors as
    stage-two draws.

    Each batch asks for 1.2 times the proposals still needed at the rate
    so far, counting an empty start as one acceptance.  Raises
    LowAcceptanceError once ``MAX_PROPOSALS`` proposals have been spent
    at an acceptance rate below 1e-6.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1 draws, got {n}")
    rng = rng_from(seed)
    d = params.p - 1
    alpha = params.beta + 1.0
    alpha_l, alpha_p = alpha[:d], float(alpha[d])
    a_sum = float(alpha_l.sum())
    by_inversion = alpha_p == 1.0  # s ~ Beta(a_sum, 1) has CDF s^a_sum
    face = quad_max_simplex(params.a_l, face=True)
    envelope = max(0.0, face)
    kept: list[np.ndarray] = []
    n_acc = 0
    n_prop = 0
    n_full = 0
    batch = int(min(max(1024, 2 * n), 65536))
    while n_acc < n:
        if by_inversion:
            t = rng.random(batch)
            np.subtract(1.0, t, out=t)
            np.log(t, out=t)
            t /= a_sum
            s = np.exp(t)
        else:
            g = rng.standard_gamma(a_sum, batch)
            h = rng.standard_gamma(alpha_p, batch)
            g_h = g + h
            s = g / g_h
        logu = rng.random(batch)
        np.log(logu, out=logu)
        live = np.flatnonzero(logu < face * s * s - envelope)
        s = s[live]
        rest = -np.expm1(t[live]) if by_inversion else h[live] / g_h[live]
        V = rng.dirichlet(alpha_l, size=live.size)
        logw = np.log(rng.random(live.size))
        ok = logw < s * s * (_quadratic(V, params.a_l) - face)
        got = np.concatenate([V[ok] * s[ok, None], rest[ok, None]], axis=1)
        got = got[(got > 0.0).all(axis=1)]  # keep draws interior
        if got.shape[0]:
            kept.append(got)
            n_acc += got.shape[0]
        n_prop += batch
        n_full += live.size
        if n_prop >= MAX_PROPOSALS and n_acc < n:
            rate = n_acc / n_prop
            if rate < ACCEPT_FLOOR:
                raise LowAcceptanceError(
                    f"acceptance rate {rate:.2e} after {n_prop} proposals, below "
                    f"{ACCEPT_FLOOR:g}; M_face = {face:.6g}, M+ = {envelope:.6g}"
                )
        rate_so_far = max(n_acc, 1) / n_prop
        batch = int(np.clip(1.2 * (n - n_acc) / rate_so_far, 1024, 2_000_000))
    U = np.concatenate(kept, axis=0)[:n]
    report = SamplerReport(
        n_requested=n,
        n_proposals=n_prop,
        acceptance_rate=n_acc / n_prop,
        envelope_constant=envelope,
        face_max=face,
        n_stage_two=n_full,
    )
    return U, report


def sample_counts(params: RPPIParams, m, seed=None) -> tuple[CountDataset, SamplerReport]:
    """Latent compositions by rejection, then multinomial counts.

    ``m`` is the vector of per-row totals.  Returns the counts and the
    report of the rejection sampler that drew the compositions.
    """
    m_arr = np.asarray(m)
    if m_arr.ndim != 1:
        raise DimensionError(f"m must be a vector of totals, got shape {m_arr.shape}")
    if np.any(m_arr < 1):
        raise ValueError("multinomial totals must be >= 1")
    if not np.all(np.isfinite(m_arr) & (m_arr == np.floor(m_arr))):
        raise ValueError("multinomial totals must be whole numbers")
    m_arr = m_arr.astype(np.int64)
    latent_seed, count_seed = spawn_seeds(seed, 2)
    U, report = sample_rppi(params, m_arr.size, seed=latent_seed)
    rng = rng_from(count_seed)
    x = rng.multinomial(m_arr, U)
    return CountDataset(x=x), report


def round_proportions(u, m) -> np.ndarray:
    """Snap proportions onto the grid of multiples of 1/m.

    Mimics what observing u through m multinomial trials does to the
    resolution of the data.  The result is a plain array: rows usually
    miss exact sum one by O(p/m), and deliberately stay unnormalized so
    the marginal distortion matches the rounding model.  Ties round
    half-to-even.
    """
    arr = np.asarray(u, dtype=float)
    m_arr = np.asarray(m, dtype=float)
    if arr.ndim == 2 and m_arr.ndim == 1:
        m_arr = m_arr[:, None]
    if np.any(m_arr < 1):
        raise ValueError("resolution m must be >= 1")
    return np.rint(arr * m_arr) / m_arr


def contaminate(data, fraction: float, outlier, seed=None) -> np.ndarray:
    """Replace round(fraction * n) randomly chosen rows by ``outlier``.

    Rows of ``data`` are copied as given; ``outlier`` is validated here.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    out = np.array(data, dtype=float)
    n, p = out.shape
    z = as_matrix(outlier)
    if z.shape != (1, p):
        raise DimensionError("outlier length does not match the data")
    k = int(np.rint(fraction * n))
    if k:
        idx = rng_from(seed).choice(n, size=k, replace=False)
        out[idx] = z[0]
    return out
