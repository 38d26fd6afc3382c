"""Additive log-ratio score matching estimator.

After the log-ratio chart, score matching for this family reduces to a
linear system: with per-observation blocks W1(u) and d1(u) from
:mod:`rppi.suffstats`, the (weighted) sample averages

    W_hat = sum_i w_i W1(u_i),    d_hat = sum_i w_i d1(u_i)

give the plain estimator as the solution of W_hat pi = d_hat.  No
iteration, no tuning; the only numerical care needed is conditioning,
because the statistics mix scales like u^6 against O(1) when
compositions sit near a vertex.  This module holds the pieces; the one
fit entry point is :func:`rppi.robust.fit_robust`, whose c = 0 case is
exactly this solve.

The blocks depend only on the rows, so :func:`score_stats` evaluates
R and d1 once per dataset and :func:`assemble` reduces any weights over
them; a reweighting loop pays for the kernels once, not per iteration.
:func:`residuals` gives the per-row residual W1 x - d1 from the same
cache.  The fit and :func:`rppi.inference.influence` use these three,
so :func:`score_stats` is the only caller of the kernels.

Accumulation detail: fixed-size chunks are added to zero in a fixed
order, and each chunk's contraction is one einsum over the cached R,
without BLAS dispatch, so W_hat and d_hat are bit-reproducible whatever
the BLAS thread count (a threaded GEMM splits its output columns by
thread count and rounds their edges differently).  The rounding error
sits in each chunk's einsum over up to CHUNK rows, not in the sum of a
few dozen chunk partials, so the chunks are summed plainly.
The solve equilibrates the system symmetrically by its diagonal and
diagonalizes it with one symmetric eigendecomposition; the condition
number reported (and checked against the rejection threshold) is that
of the equilibrated matrix, which is the meaningful one at these
scales.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegeneracyWarning, SingularSystemError
from .model import dim_from_q, param_labels, q_dim
from .suffstats import d1_batch, r_matrix_batch, s_matrix_batch

CHUNK = 4096
COND_MAX = 1e12


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

    ``weights`` sum to one, as :func:`rppi.robust.normalized_weights`
    gives them, and are used as given; omitted means uniform.
    """
    n = len(stats)
    q, nd = stats.r.shape
    d = nd // n
    w = np.full(n, 1.0 / n) if weights is None else weights
    w_hat = np.zeros((q, q))
    d_hat = np.zeros(q)
    for start in range(0, n, CHUNK):
        r = stats.r[:, start * d:(start + CHUNK) * d]
        wc = w[start:start + CHUNK]
        w_hat += np.einsum("qk,rk->qr", r, r * wc.repeat(d))
        d_hat += np.einsum("n,nq->q", wc, stats.d1[start:start + CHUNK])
    return 0.5 * (w_hat + w_hat.T), d_hat


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
                 ) -> tuple[np.ndarray, float]:
    """Solve W_hat pi = d_hat with diagonal equilibration.

    Returns (pi, condition number of the equilibrated system).  Rows with
    an exactly zero diagonal (where each row of the data is zero in that
    statistic or has zero weight: an all-zero component column, or
    weights of the reweighting loop that underflow on the rows carrying
    it) are dropped from the solve and their parameters pinned to zero,
    with a DegeneracyWarning; otherwise the full matrix is equilibrated
    as it is.  A ``ridge`` that is negative or not finite raises
    ValueError.
    """
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    q = w_hat.shape[0]
    if ridge > 0.0:
        w_hat = w_hat + ridge * np.eye(q)
    diag = w_hat.diagonal()
    full = diag.min() > 0.0
    if not full:
        keep = diag > 0.0
        degenerate = np.nonzero(diag <= 0.0)[0]
        if degenerate.size:
            labels = param_labels(dim_from_q(q))
            names = ", ".join(labels[i] for i in degenerate)
            warnings.warn(
                f"statistics for {names} vanish: each row is zero in them or has "
                "zero weight; pinning them to zero",
                DegeneracyWarning,
                stacklevel=2,
            )
        w_hat = w_hat[np.ix_(keep, keep)]
        d_hat = d_hat[keep]
        diag = diag[keep]
    scale = 1.0 / np.sqrt(diag)
    # np.linalg.eigh's own gufunc, without its wrapper: the matrix is a
    # float64 square, and a failed decomposition (numpy warns of an invalid
    # value) or a NaN entry leaves NaN eigenvalues, which the check rejects
    lam, vec = _umath_linalg.eigh_lo(w_hat * scale[:, None] * scale[None, :],
                                     signature="d->dd")
    # the 2-norm condition number of a positive definite matrix; any
    # other matrix (or none left to solve) is not a usable system
    cond = float(lam[-1] / lam[0]) if lam.size and lam[0] > 0.0 else float("inf")
    if not cond <= COND_MAX:  # also catches inf and nan
        raise SingularSystemError(
            f"equilibrated system condition number {cond:.3e} exceeds {COND_MAX:.0e}",
            condition_number=cond,
        )
    z = scale * (vec @ ((vec.T @ (scale * d_hat)) / lam))
    if full:
        return z, cond
    pi = np.zeros(q)
    pi[keep] = z
    return pi, cond
