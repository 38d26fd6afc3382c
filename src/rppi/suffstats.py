"""Sufficient statistics and their log-ratio derivatives.

The model is an exponential family in the packed parameter vector pi,
with sufficient statistic

    t(u) = (u_1^2, ..., u_{p-1}^2,
            2 u_1 u_2, 2 u_1 u_3, ..., 2 u_{p-2} u_{p-1},
            log u_1, ..., log u_{p-1}),

so that pi' t(u) = u_L' A_L u_L + sum_j (1 + beta_j) log u_j.

Score matching under the additive log-ratio chart y = alr(u) needs the
first and second partial derivatives of t with respect to each y_j.
Using du_i/dy_j = u_i (delta_ij - u_j), both collapse to short closed
forms in u.  R stacks the gradients (one column per y_j) and S the
pure second derivatives; all entries are polynomials in u, so both stay
finite on the closed simplex (zeros included).

Per observation the estimating equations use

    W1(u) = sum_j R[:, j] R[:, j]'      (q x q, positive semidefinite)
    d1(u) = (1 + beta_p) R u_L - sum_j S[:, j].

Each piece is written once:

* R and S are defined in :func:`r_matrix_batch` and
  :func:`s_matrix_batch`;
* d1 is formed from them in :func:`d1_batch`;
* :func:`rppi.estimator.score_stats` is their only caller: it
  evaluates them once per dataset and keeps R and d1;
* :func:`rppi.estimator.assemble` is the weighted reduction over that
  cache (the fit and the influence function), and
  :func:`rppi.estimator.residuals` the per-row residual W1(u) x - d1(u)
  (the influence function).

Both contract R directly, so the n (q x q) per-row W1 never exist.
Every function here evaluates exactly the (n, p) rows it is given, as
validated once by :func:`rppi.model.as_matrix` where data enters.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import pair_indices


@lru_cache(maxsize=None)
def _pair_arrays(p: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = pair_indices(p)
    i = np.array([a for a, _ in pairs], dtype=np.intp)
    j = np.array([b for _, b in pairs], dtype=np.intp)
    return i, j


def r_matrix_batch(U) -> np.ndarray:
    """First log-ratio derivatives of t: shape (n, q, p-1).

    Row blocks follow the packed layout.  With delta the Kronecker
    symbol against the column index:

        diagonal a_ii rows:   2 u_i^2 (delta_i. - u_.)
        pair a_ij rows:       2 u_i u_j (delta_i. + delta_j. - 2 u_.)
        log rows:             delta_i. - u_.
    """
    n, p = U.shape
    d = p - 1
    I, J = _pair_arrays(p)
    V = U[:, :d]
    eye = np.eye(d)
    d_diag = eye[None, :, :] - V[:, None, :]
    d_pair = (eye[I] + eye[J])[None, :, :] - 2.0 * V[:, None, :]
    P = V[:, I] * V[:, J]
    r_a = 2.0 * (V * V)[:, :, None] * d_diag
    r_b = 2.0 * P[:, :, None] * d_pair
    r_c = np.broadcast_to(d_diag, (n, d, d))
    return np.concatenate([r_a, r_b, r_c], axis=1)


def s_matrix_batch(U) -> np.ndarray:
    """Second log-ratio derivatives of t: shape (n, q, p-1).

    Per block, with delta the Kronecker symbol against the column index:

        diagonal a_ii rows: 4 u_i^2 (delta_i. - u_.)^2 - 2 u_i^2 u_.(1 - u_.)
        pair a_ij rows:     2 u_i u_j (delta_i. + delta_j. - 2 u_.)^2
                            - 4 u_i u_j u_.(1 - u_.)
        log rows:           -u_.(1 - u_.)

    The quadratic-in-delta forms expand to the same polynomials case by
    case (column equal to i, equal to j, or neither).
    """
    n, p = U.shape
    d = p - 1
    I, J = _pair_arrays(p)
    V = U[:, :d]
    eye = np.eye(d)
    curv = (V * (1.0 - V))[:, None, :]
    d_diag = eye[None, :, :] - V[:, None, :]
    d_pair = (eye[I] + eye[J])[None, :, :] - 2.0 * V[:, None, :]
    P = V[:, I] * V[:, J]
    s_a = 4.0 * (V * V)[:, :, None] * d_diag ** 2 - 2.0 * (V * V)[:, :, None] * curv
    s_b = 2.0 * P[:, :, None] * d_pair ** 2 - 4.0 * P[:, :, None] * curv
    s_c = np.broadcast_to(-curv, (n, d, d))
    return np.concatenate([s_a, s_b, s_c], axis=1)


def d1_batch(U: np.ndarray, R: np.ndarray, S: np.ndarray,
             beta_p: float = 0.0) -> np.ndarray:
    """Per-row d1(u) = (1 + beta_p) R u_L - sum_j S[:, j]: shape (n, q)."""
    return (1.0 + beta_p) * np.einsum("nqj,nj->nq", R, U[:, :-1]) - S.sum(axis=2)

