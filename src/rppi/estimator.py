"""Additive log-ratio score matching estimator.

After the log-ratio chart, score matching for this family reduces to a
linear system: with per-observation blocks W1(u) and d1(u) from
:mod:`rppi.suffstats`, the (weighted) sample averages

    W_hat = sum_i w_i W1(u_i),    d_hat = sum_i w_i d1(u_i)

give the estimator as the solution of W_hat pi = d_hat.  No iteration,
no tuning; the only numerical care needed is conditioning, because the
statistics mix scales like u^6 against O(1) when compositions sit near
a vertex.

The blocks depend only on the rows, so :func:`score_stats` evaluates
R and d1 once per dataset and :func:`assemble` reduces any weights over
them; a reweighting loop pays for the kernels once, not per iteration.
:func:`residuals` gives the per-row residual W1 x - d1 from the same
cache.  The fits and :func:`rppi.inference.influence` use these three,
so :func:`score_stats` is the only caller of the kernels.

Accumulation detail: fixed-size chunks are reduced with Neumaier
compensated summation in a fixed order, and each chunk's contraction
is one einsum over the cached R, without BLAS dispatch, so W_hat and
d_hat are bit-reproducible whatever the BLAS thread count (a threaded
GEMM splits its output columns by thread count and rounds their edges
differently).  The solve equilibrates the system symmetrically by its
diagonal and diagonalizes it with one symmetric eigendecomposition;
the condition number reported (and checked against the rejection
threshold) is that of the equilibrated matrix, which is the meaningful
one at these scales.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyWarning, SingularSystemError, WeightError
from .model import (
    ParamVector,
    RPPIParams,
    as_matrix,
    dim_from_q,
    param_labels,
    q_dim,
    unpack,
)
from .suffstats import d1_batch, r_matrix_batch, s_matrix_batch

CHUNK = 4096
COND_MAX = 1e12


def _normalized_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise WeightError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise WeightError("weights have non-finite entries")
    if np.any(w < 0.0):
        raise WeightError("weights must be nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise WeightError("weights sum to zero")
    return w / total


def _neumaier_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One compensated accumulation step; mutates comp, returns new total."""
    t = total + x
    big = np.abs(total) >= np.abs(x)
    comp += np.where(big, (total - t) + x, (x - t) + total)
    return t


@dataclass(frozen=True)
class ScoreStats:
    """The per-row score statistics of one composition matrix.

    ``r`` holds R of every row side by side: columns i (p-1) to
    i (p-1) + p - 2 are the columns of R(u_i), shape (q, n (p-1)).
    ``d1`` holds the per-row d1(u_i), shape (n, q).  Both depend only on
    the rows, so one object serves every weighting of the same data.
    Resident cost: 8 n q p bytes (24 MB for 200,000 rows at p = 3).
    """

    r: np.ndarray
    d1: np.ndarray

    def __len__(self) -> int:
        return self.d1.shape[0]


def score_stats(U: np.ndarray, beta_p: float = 0.0) -> ScoreStats:
    """Evaluate R and d1 for every row of ``U``, in CHUNK-row blocks.

    ``U`` is a validated (n, p) composition matrix, as
    :func:`rppi.model.as_matrix` returns; its rows are used as given.
    """
    n, p = U.shape
    d = p - 1
    q = q_dim(p)
    r = np.empty((q, n * d))
    d1 = np.empty((n, q))
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        Uc = U[start:stop]
        R = r_matrix_batch(Uc)
        r[:, start * d:stop * d] = R.transpose(1, 0, 2).reshape(q, -1)
        d1[start:stop] = d1_batch(Uc, R, s_matrix_batch(Uc), beta_p)
    return ScoreStats(r=r, d1=d1)


def assemble(stats: ScoreStats, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted averages (W_hat, d_hat) of the per-row blocks in ``stats``.

    ``weights`` are normalized to sum to one; omitted means uniform.
    """
    n = len(stats)
    q, nd = stats.r.shape
    d = nd // n
    w = _normalized_weights(weights, n)

    w_tot = np.zeros((q, q))
    w_comp = np.zeros((q, q))
    d_tot = np.zeros(q)
    d_comp = np.zeros(q)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        r = stats.r[:, start * d:stop * d]
        wc = w[start:stop]
        w_chunk = np.einsum("qk,rk->qr", r, r * np.repeat(wc, d))
        d_chunk = np.einsum("n,nq->q", wc, stats.d1[start:stop])
        w_tot = _neumaier_add(w_tot, w_comp, w_chunk)
        d_tot = _neumaier_add(d_tot, d_comp, d_chunk)
    w_hat = w_tot + w_comp
    w_hat = 0.5 * (w_hat + w_hat.T)
    return w_hat, d_tot + d_comp


def residuals(stats: ScoreStats, x: np.ndarray, start: int = 0,
              stop: int | None = None) -> np.ndarray:
    """Residuals W1(u_i) x - d1(u_i) of rows start:stop (start >= 0), shape (rows, q).

    Formed as R (R' x) - d1 from the cached R, so no per-row W1 exists.
    """
    d = stats.r.shape[1] // len(stats)
    d1 = stats.d1[start:stop]
    m, q = d1.shape
    r = stats.r[:, start * d:(start + m) * d].reshape(q, m, d)
    return np.einsum("qnj,nj->nq", r, np.einsum("qnj,q->nj", r, x)) - d1


def solve_system(w_hat: np.ndarray, d_hat: np.ndarray, ridge: float = 0.0,
                 ) -> tuple[np.ndarray, float, float, tuple[int, ...]]:
    """Solve W_hat pi = d_hat with diagonal equilibration.

    Returns (pi, condition number of the equilibrated system, relative
    residual, indices of structurally degenerate parameters).  Rows with
    an exactly zero diagonal (which only arise from exact zeros in the
    data, e.g. an all-zero component column) are dropped from the solve
    and their parameters pinned to zero, with a DegeneracyWarning.
    A ``ridge`` that is negative or not finite raises ValueError.
    """
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    q = w_hat.shape[0]
    if w_hat.shape != (q, q) or d_hat.shape != (q,):
        raise SingularSystemError("system blocks have inconsistent shapes")
    if ridge > 0.0:
        w_hat = w_hat + ridge * np.eye(q)
    diag = np.diag(w_hat)
    degenerate = np.nonzero(diag <= 0.0)[0]
    if degenerate.size:
        labels = param_labels(dim_from_q(q))
        names = ", ".join(labels[i] for i in degenerate)
        warnings.warn(
            f"statistics for {names} vanish on this data; pinning them to zero",
            DegeneracyWarning,
            stacklevel=2,
        )
    keep = diag > 0.0
    wk = w_hat[np.ix_(keep, keep)]
    dk = d_hat[keep]
    scale = 1.0 / np.sqrt(np.diag(wk))
    w_eq = wk * scale[:, None] * scale[None, :]
    try:
        lam, vec = np.linalg.eigh(w_eq)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("eigendecomposition of the equilibrated system failed") from exc
    # the 2-norm condition number of a positive definite matrix; any
    # other matrix (or none left to solve) is not a usable system
    cond = float(lam[-1] / lam[0]) if lam.size and lam[0] > 0.0 else float("inf")
    if not np.isfinite(cond) or cond > COND_MAX:
        raise SingularSystemError(
            f"equilibrated system condition number {cond:.3e} exceeds {COND_MAX:.0e}",
            condition_number=cond,
        )
    z = vec @ ((vec.T @ (scale * dk)) / lam)
    pi = np.zeros(q)
    pi[keep] = scale * z
    denom = max(float(np.max(np.abs(d_hat))), 1e-300)
    residual = float(np.max(np.abs(w_hat @ pi - d_hat))) / denom
    return pi, cond, residual, tuple(int(i) for i in degenerate)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one score matching fit.

    ``params`` is None when the point estimate is not a valid model
    (non-integrable exponents); the packed vector is always available.
    """

    pi_hat: ParamVector
    params: RPPIParams | None
    w_hat: np.ndarray
    d_hat: np.ndarray
    condition_number: float
    residual: float
    n_obs: int
    beta_p: float
    degenerate: tuple[int, ...] = ()

    @property
    def labels(self) -> list[str]:
        return self.pi_hat.labels


def fit_alr_sme(data, weights=None, kstar: int | None = None,
                beta_p: float = 0.0, ridge: float = 0.0) -> FitResult:
    """Fit the model to compositions (rows of ``data``) in one solve.

    Rows are validated and normalized here, once, by
    :func:`rppi.model.as_matrix`.

    ``kstar`` only annotates the returned parameters (block bookkeeping
    for downstream weighting); it does not affect the estimate.
    """
    U = as_matrix(data)
    w_hat, d_hat = assemble(score_stats(U, beta_p), weights)
    pi, cond, residual, degenerate = solve_system(w_hat, d_hat, ridge=ridge)
    try:
        params = unpack(pi, kstar=kstar, beta_p=beta_p)
    except ValueError:
        # grossly disturbed data can push the point estimate outside the
        # parameter space (some 1 + beta <= 0); keep the vector, drop the
        # structured view
        params = None
    return FitResult(
        pi_hat=ParamVector(pi),
        params=params,
        w_hat=w_hat,
        d_hat=d_hat,
        condition_number=cond,
        residual=residual,
        n_obs=U.shape[0],
        beta_p=beta_p,
        degenerate=degenerate,
    )

