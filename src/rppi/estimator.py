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
them once per dataset, each W1 kept as its packed upper triangle beside
d1, and :func:`assemble` reduces any weights over them; a reweighting
loop pays for the kernels once, and each of its reductions is one
weighted sum of the packed rows, n q(q+3)/2 multiply-adds.
:func:`residuals` gives the per-row residual W1 x - d1 from the same
cache.  The fit and :func:`rppi.inference.influence` use these three,
so :func:`score_stats` is the only caller of the kernels.

Accumulation detail: no sum goes through BLAS, so W_hat and d_hat are
bit-reproducible whatever the BLAS thread count (a threaded GEMM splits
its output columns by thread count and rounds their edges differently,
even R_i R_i' of one row at p >= 21).  Each W1 adds its p - 1 terms in
turn in one einsum per triangle row; each chunk of CHUNK rows is one
einsum that adds its weighted rows one after another, and the chunk
sums are added to zero in a fixed order.  W_hat is read from the summed
triangle through a slot matrix, so it is symmetric by construction.
The solve equilibrates the system symmetrically to a unit diagonal and
checks it by its Cholesky pivots before an LU solve;
:func:`condition_number` takes the eigenvalues of the same equilibrated
matrix, whose condition number is the one that matters at these scales,
once per fit: for the system that the fit returns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegeneracyWarning, SingularSystemError
from .model import dim_from_q, param_labels, q_dim
from .suffstats import d1_batch, r_matrix_batch, s_matrix_batch

CHUNK = 4096
BLOCK_BYTES = 1 << 21
COND_MAX = 1e12


@lru_cache(maxsize=None)
def _packed(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed upper triangle of a symmetric q x q matrix: (starts, slot).

    Row a of the matrix, from its diagonal on, fills the q - a entries
    from starts[a], so the triangle runs row by row as
    ``np.triu_indices(q)`` orders it, and ``slot`` is the (q, q) matrix of
    the entry that holds each position: T[slot] is the full matrix,
    symmetric by construction.  Cached and read-only, as every call
    shares the arrays.
    """
    row, col = np.triu_indices(q)
    slot = np.empty((q, q), dtype=np.intp)
    slot[row, col] = slot[col, row] = np.arange(row.size)
    starts = slot.diagonal().copy()
    for a in (starts, slot):
        a.flags.writeable = False
    return starts, slot


def _rows(width: int) -> int:
    """Rows per block whose (rows, width) float temporaries stay within
    BLOCK_BYTES: at most CHUNK, at least one."""
    return max(1, min(CHUNK, BLOCK_BYTES // (8 * width)))


@dataclass(frozen=True)
class ScoreStats:
    """The per-row score statistics of one composition matrix.

    ``block`` has one row per composition: the upper triangle of
    W1(u_i) = R_i R_i', row by row (Q = q(q+1)/2 entries, see
    :func:`_packed`), then d1(u_i), so its shape is (n, q(q+3)/2).  It
    depends only on the rows, so one object serves every weighting of the
    same data.  Resident cost: 8 n q(q+3)/2 bytes (32 MB for 200,000 rows
    at p = 3, 94 MB for 1,000 at p = 17).
    """

    block: np.ndarray

    def __len__(self) -> int:
        return self.block.shape[0]

    @property
    def q(self) -> int:
        return (isqrt(9 + 8 * self.block.shape[1]) - 3) // 2


def score_stats(U: np.ndarray, beta_p: float = 0.0) -> ScoreStats:
    """Evaluate W1 and d1 for every row of ``U``.

    ``U`` is a validated (n, p) composition matrix, as
    :func:`rppi.model.as_matrix` returns; its rows are used as given.
    The kernels see blocks of at most CHUNK rows whose R stays within
    BLOCK_BYTES.  Row a of each W1 is one einsum over the block, which
    adds R[a, j] R[a:, j] for j = 0, ..., p - 2 in turn, without BLAS:
    W1 = sum_j R[:, j] R[:, j]' term by term, whatever the block.
    """
    n, p = U.shape
    q = q_dim(p)
    starts, _ = _packed(q)
    block = np.empty((n, q * (q + 3) // 2))
    step = _rows(q * (p - 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        Uc = U[start:stop]
        R = r_matrix_batch(Uc)
        Rt = R.transpose(0, 2, 1).copy()  # (rows, p - 1, q): each R[:, j] contiguous
        for a in range(q):
            np.einsum("nj,njr->nr", Rt[:, :, a], Rt[:, :, a:],
                      out=block[start:stop, starts[a]:starts[a] + q - a])
        block[start:stop, -q:] = d1_batch(Uc, R, s_matrix_batch(Uc), beta_p)
    return ScoreStats(block)


def assemble(stats: ScoreStats, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted averages (W_hat, d_hat) of the per-row blocks in ``stats``.

    ``weights`` sum to one, as :func:`rppi.robust.normalized_weights`
    gives them, and are used as given; omitted means uniform.
    """
    n = len(stats)
    w = np.full(n, 1.0 / n) if weights is None else weights
    total = np.zeros(stats.block.shape[1])
    for start in range(0, n, CHUNK):
        total += np.einsum("n,nk->k", w[start:start + CHUNK], stats.block[start:start + CHUNK])
    q = stats.q
    return total[_packed(q)[1]], total[-q:]


def residuals(stats: ScoreStats, x: np.ndarray, start: int = 0,
              stop: int | None = None) -> np.ndarray:
    """Residuals W1(u_i) x - d1(u_i) of rows start:stop (start >= 0), shape (rows, q).

    Each block of rows unpacks its triangles to full W1 through the slot
    matrix of :func:`_packed` and multiplies them by x: O(q^2) work per
    row, in blocks whose temporaries stay within BLOCK_BYTES.
    """
    q = stats.q
    slot = _packed(q)[1]
    block = stats.block[start:stop]
    out = np.empty((block.shape[0], q))
    step = _rows(q * q)
    for first in range(0, block.shape[0], step):
        part = block[first:first + step]
        out[first:first + step] = np.einsum("nqr,r->nq", part[:, slot], x) - part[:, -q:]
    return out


def _equilibrated(w_hat: np.ndarray, ridge: float):
    """(matrix, scale, keep): the ridged W_hat without its rows and
    columns of zero diagonal, scaled by ``scale`` on both sides to a unit
    diagonal.  ``keep`` marks the rows kept, None when every row is.
    A ``ridge`` that is negative or not finite raises ValueError.
    """
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    if ridge > 0.0:
        w_hat = w_hat + ridge * np.eye(w_hat.shape[0])
    diag = w_hat.diagonal()
    keep = None
    if not diag.min() > 0.0:
        keep = diag > 0.0
        w_hat = w_hat[np.ix_(keep, keep)]
        diag = diag[keep]
    scale = 1.0 / np.sqrt(diag)
    return w_hat * scale[:, None] * scale[None, :], scale, keep


def solve_system(w_hat: np.ndarray, d_hat: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve (W_hat + ridge I) pi = d_hat with diagonal equilibration.

    Rows with an exactly zero diagonal (where each row of the data is
    zero in that statistic or has zero weight: an all-zero component
    column, or weights of the reweighting loop that underflow on the
    rows carrying it) are dropped from the solve and their parameters
    pinned to zero, with a DegeneracyWarning; otherwise the full matrix
    is equilibrated as it is.  A Cholesky pivot L_ii^2 of the
    equilibrated matrix under 1 / COND_MAX, or NaN (the matrix is not
    positive definite), raises SingularSystemError: the matrix has a
    unit diagonal, so its largest eigenvalue is at least 1 and its
    smallest at most any pivot, and its condition number exceeds
    COND_MAX.  A matrix whose pivots pass may still exceed it;
    :func:`condition_number` tells.
    """
    a, scale, keep = _equilibrated(w_hat, ridge)
    if keep is not None:
        d_hat = d_hat[keep]
        labels = param_labels(dim_from_q(keep.size))
        names = ", ".join(labels[i] for i in np.nonzero(~keep)[0])
        warnings.warn(
            f"statistics for {names} vanish: each row is zero in them or has "
            "zero weight; pinning them to zero",
            DegeneracyWarning,
            stacklevel=2,
        )
    # np.linalg's own gufuncs, without their wrappers: the matrix is a
    # float64 square, and a failed factorization leaves NaN, not an error
    with np.errstate(invalid="ignore"):
        low = _umath_linalg.cholesky_lo(a, signature="d->d")
    pivot = float(low.diagonal().min()) ** 2 if low.size else 0.0
    if not pivot >= 1.0 / COND_MAX:  # also catches nan
        raise SingularSystemError(
            f"equilibrated system's smallest Cholesky pivot {pivot:.3e} puts its "
            f"condition number over {COND_MAX:.0e}")
    z = scale * _umath_linalg.solve1(a, scale * d_hat, signature="dd->d")
    if keep is None:
        return z
    pi = np.zeros(keep.size)
    pi[keep] = z
    return pi


def condition_number(w_hat: np.ndarray, ridge: float = 0.0) -> float:
    """The 2-norm condition number of the system :func:`solve_system`
    solves, from the eigenvalues of its equilibrated matrix; over
    COND_MAX (inf when that matrix is not positive definite or empty, nan
    when its eigendecomposition fails) raises SingularSystemError.
    """
    a = _equilibrated(w_hat, ridge)[0]
    # eigh's gufunc, not eigvalsh's, whose eigenvalues differ in their
    # last bits: the condition numbers reported and checked stay eigh's
    lam = _umath_linalg.eigh_lo(a, signature="d->dd")[0]
    cond = float(lam[-1] / lam[0]) if lam.size and lam[0] > 0.0 else float("inf")
    if not cond <= COND_MAX:  # also catches nan
        raise SingularSystemError(
            f"equilibrated system condition number {cond:.3e} exceeds {COND_MAX:.0e}",
            condition_number=cond,
        )
    return cond
