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
finite on the closed simplex (zeros included).  Every A_L entry of t,
u_i^2 and 2 u_i u_j alike, is t_ij = m_ij u_i u_j with
dt_ij/dy = t_ij (delta_i + delta_j - 2 u), so R and S each have two row
blocks: one formula over the A_L slots of
:func:`rppi.model.a_slots`, the layout's one owner, and the log rows.

Per observation the estimating equations use

    W1(u) = sum_j R[:, j] R[:, j]'      (q x q, positive semidefinite)
    d1(u) = (1 + beta_p) R u_L - sum_j S[:, j].

Each piece is written once:

* the A_L part of t is :func:`a_statistic`;
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

import numpy as np

from .model import a_slots


def a_statistic(U) -> np.ndarray:
    """The A_L part of t(u) for every row of U: shape (n, d(d+1)/2), d = p - 1.

    Entry s of a row is t_ij = m_ij u_i u_j at the slot of a_ij, with
    m_ij = 1 on the diagonal and 2 on the pairs, so that t' pi_A is
    u_L' A_L u_L.  The product u_i u_j is rounded before the exact
    doubling.
    """
    row, col, _ = a_slots(U.shape[1])
    return U[:, row] * U[:, col] * np.where(row == col, 1.0, 2.0)


def r_matrix_batch(U) -> np.ndarray:
    """First log-ratio derivatives of t: shape (n, q, p-1).

    Two row blocks, in the packed layout.  With t_ij from
    :func:`a_statistic` and delta the Kronecker symbol against the
    column index:

        A_L rows (slot of a_ij):  t_ij (delta_i. + delta_j. - 2 u_.)
        log rows:                 delta_i. - u_.
    """
    n, p = U.shape
    row, col, _ = a_slots(p)
    V = U[:, :-1]
    eye = np.eye(p - 1)
    step = (eye[row] + eye[col])[None, :, :] - 2.0 * V[:, None, :]
    return np.concatenate([a_statistic(U)[:, :, None] * step,
                           eye[None, :, :] - V[:, None, :]], axis=1)


def s_matrix_batch(U) -> np.ndarray:
    """Second log-ratio derivatives of t: shape (n, q, p-1).

    Two row blocks, in the packed layout, with t_ij and delta as in
    :func:`r_matrix_batch` and D = delta_i. + delta_j. - 2 u_.:

        A_L rows (slot of a_ij):  t_ij D^2 - 2 t_ij u_.(1 - u_.)
        log rows:                 -u_.(1 - u_.)

    Differentiating t_ij D once more in y gives t_ij D^2 from t_ij and
    -2 t_ij u_.(1 - u_.) from D, since du_./dy_. = u_.(1 - u_.).
    """
    n, p = U.shape
    row, col, _ = a_slots(p)
    V = U[:, :-1]
    eye = np.eye(p - 1)
    curv = (V * (1.0 - V))[:, None, :]
    step = (eye[row] + eye[col])[None, :, :] - 2.0 * V[:, None, :]
    t = a_statistic(U)[:, :, None]
    return np.concatenate([t * step ** 2 - 2.0 * t * curv,
                           np.broadcast_to(-curv, (n, p - 1, p - 1))], axis=1)


def d1_batch(U: np.ndarray, R: np.ndarray, S: np.ndarray,
             beta_p: float = 0.0) -> np.ndarray:
    """Per-row d1(u) = (1 + beta_p) R u_L - sum_j S[:, j]: shape (n, q)."""
    return (1.0 + beta_p) * np.einsum("nqj,nj->nq", R, U[:, :-1]) - S.sum(axis=2)

