"""Exact and approximate samplers for the model, plus data perturbations.

Rejection sampling is exact: proposals come from Dirichlet(beta + 1),
so the target/proposal ratio is exp(u_L' A_L u_L) up to a constant, and
an envelope only needs the maximum M of that quadratic over the closed
unit simplex slice {v >= 0, sum v <= 1}.  The maximum of a quadratic
form over a polytope is attained at a critical point of one of its
faces; enumerating subsets T of active coordinates and solving the
stationarity condition A_TT x proportional to 1 on each sum-one face
gives M exactly (up to roundoff in the small solves), so acceptance
exp(Q - M) never exceeds one.  There are 2^(p-1) faces, so the faces of
one size are solved in stacks of ``FACE_CHUNK`` (k*k*8*FACE_CHUNK
bytes each); a stack with a singular face falls back to one solve per
face, and the maximum equals a face-by-face loop bit for bit.

Each rejection batch is drawn whole, Dirichlet rows first and then one
uniform per row, so the random stream depends only on the batch sizes.
The quadratic is taken by columns on ``QUAD_CHUNK``-row blocks that stay
in cache, adding the terms in the order ``np.einsum`` adds them, and the
interior test runs only on the rows that pass the acceptance test; the
draws equal those of a whole-batch einsum and interior mask byte for
byte, and no BLAS call is involved, so they do not depend on the BLAS
thread count.

When the acceptance rate makes rejection impractical, an independence
Metropolis-Hastings chain with the same proposal has acceptance ratio
exp(Q' - Q), which sidesteps the envelope at the price of approximate,
autocorrelated draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import DimensionError, LowAcceptanceError
from .model import CountDataset, RPPIParams, as_matrix

ACCEPT_FLOOR = 1e-6
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


def quad_max_simplex(a_l) -> float:
    """Exact maximum of v' A v over {v >= 0, sum(v) <= 1}.

    Enumerate faces: the origin (value 0), and for every nonempty subset
    T the critical point of the quadratic on the face {sum_T v = 1,
    v_T > 0}, which solves A_TT z = 1 up to scale.  Vertices are covered
    by singletons, whose value is the diagonal entry.  Marginally
    infeasible critical points are kept (tolerance on the inclusive
    side), which can only enlarge the envelope, never undercut it.

    Faces of one size k are taken ``FACE_CHUNK`` at a time and their
    A_TT solved as one stack, which holds k*k*8*FACE_CHUNK bytes (8 MB at
    k = 16).  A stack with a singular member is solved again one face at
    a time, skipping the singular ones.  Each face still gets its own
    LAPACK solve and the maximum does not depend on order, so the result
    equals a face-by-face loop bit for bit.
    """
    a = np.asarray(a_l, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise DimensionError(f"interaction matrix must be square, got {a.shape}")
    best = max(0.0, float(np.max(np.diag(a))))
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
    """Bookkeeping from one sampler run."""

    method: str
    n_requested: int
    n_proposals: int
    acceptance_rate: float
    envelope_constant: float


def _quadratic(V: np.ndarray, a_l: np.ndarray) -> np.ndarray:
    """Q[r] = sum_i sum_j (V[r, i] * a_ij) * V[r, j], one column term at a time.

    The terms are added to a zero start, i outer and j inner, which is
    the order in which ``np.einsum("ni,ij,nj->n", V, a_l, V)`` adds them
    on the sampler's batches, so the two agree bit for bit (einsum takes
    another order only on one- or two-row inputs at d = 2).  Rows are
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


def sample_rppi(params: RPPIParams, n: int, seed=None,
                max_proposals: int = 10_000_000) -> tuple[np.ndarray, SamplerReport]:
    """Draw n exact samples by rejection; returns (U, report).

    Each batch asks for 1.2 times the proposals still needed at the rate
    so far, counting an empty start as one acceptance.  Raises
    LowAcceptanceError once ``max_proposals`` proposals have been spent
    at an acceptance rate below 1e-6.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1 draws, got {n}")
    rng = rng_from(seed)
    p = params.p
    d = p - 1
    alpha = params.beta + 1.0
    envelope = quad_max_simplex(params.a_l)
    kept: list[np.ndarray] = []
    n_acc = 0
    n_prop = 0
    batch = int(min(max(1024, 2 * n), 65536))
    while n_acc < n:
        P = rng.dirichlet(alpha, size=batch)
        logq = _quadratic(P[:, :d], params.a_l)
        logq -= envelope
        logu = rng.random(batch)
        np.log(logu, out=logu)
        got = P[logu < logq]
        got = got[(got > 0.0).all(axis=1)]  # keep draws interior
        if got.shape[0]:
            kept.append(got)
            n_acc += got.shape[0]
        n_prop += batch
        if n_prop >= max_proposals and n_acc < n:
            rate = n_acc / n_prop
            if rate < ACCEPT_FLOOR:
                raise LowAcceptanceError(
                    f"acceptance rate {rate:.2e} after {n_prop} proposals; "
                    "consider the MCMC sampler"
                )
        rate_so_far = max(n_acc, 1) / n_prop
        batch = int(np.clip(1.2 * (n - n_acc) / rate_so_far, 1024, 2_000_000))
    U = np.concatenate(kept, axis=0)[:n]
    report = SamplerReport(
        method="rejection",
        n_requested=n,
        n_proposals=n_prop,
        acceptance_rate=n_acc / n_prop,
        envelope_constant=envelope,
    )
    return U, report


def sample_rppi_mcmc(params: RPPIParams, n: int, seed=None, burn_in: int = 10_000,
                     thin: int = 10) -> tuple[np.ndarray, SamplerReport]:
    """Independence Metropolis-Hastings draws; approximate but unstoppable.

    The chain proposes from Dirichlet(beta + 1) and accepts with
    probability min(1, exp(Q(proposal) - Q(current))).  Returns every
    ``thin``-th state after ``burn_in`` steps.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1 draws, got {n}")
    if burn_in < 0 or thin < 1:
        raise ValueError("burn_in must be >= 0 and thin >= 1")
    rng = rng_from(seed)
    d = params.p - 1
    total = burn_in + n * thin
    P = rng.dirichlet(params.beta + 1.0, size=total)
    Q = _quadratic(P[:, :d], params.a_l)
    logu = np.log(rng.random(total))
    out = np.empty(n, dtype=np.intp)
    cur = 0
    accepted = 0
    filled = 0
    for t in range(total):
        if t > 0 and logu[t] < Q[t] - Q[cur]:
            cur = t
            accepted += 1
        if t >= burn_in and (t - burn_in) % thin == 0:
            out[filled] = cur
            filled += 1
    report = SamplerReport(
        method="independence-mh",
        n_requested=n,
        n_proposals=total,
        acceptance_rate=accepted / max(total - 1, 1),
        envelope_constant=float("nan"),
    )
    return P[out].copy(), report


def sample_counts(params: RPPIParams, m, seed=None,
                  n: int | None = None) -> tuple[CountDataset, SamplerReport]:
    """Latent compositions by rejection, then multinomial counts.

    ``m`` is either a vector of per-row totals or a scalar total (then
    ``n`` must say how many rows).  Returns the counts and the report of
    the rejection sampler that drew the compositions.
    """
    m_arr = np.asarray(m)
    if m_arr.ndim == 0:
        if n is None:
            raise DimensionError("scalar m needs an explicit n")
        m_arr = np.full(n, m_arr)
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
