"""Additive log-ratio score matching estimator.

After the log-ratio chart, score matching for this family reduces to a
linear system: with per-observation blocks W1(u) and d1(u) from
:mod:`rppi.suffstats`, the (weighted) sample averages

    W_hat = sum_i w_i W1(u_i),    d_hat = sum_i w_i d1(u_i)

give the estimator as the solution of W_hat pi = d_hat.  No iteration,
no tuning; the only numerical care needed is conditioning, because the
statistics mix scales like u^6 against O(1) when compositions sit near
a vertex.

Accumulation detail: chunks of fixed size are reduced with Neumaier
compensated summation in a fixed order, and the contractions use
einsum without BLAS dispatch, so W_hat and d_hat are bit-reproducible
regardless of thread counts.  The solve equilibrates the system
symmetrically by its diagonal before factorizing; the condition number
reported (and checked against the rejection threshold) is that of the
equilibrated matrix, which is the meaningful one at these scales.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
from .suffstats import r_matrix_batch, s_matrix_batch

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


def assemble(U: np.ndarray, weights=None, beta_p: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Weighted averages (W_hat, d_hat) of the per-observation blocks.

    ``U`` is a validated (n, p) composition matrix, as
    :func:`rppi.model.as_matrix` returns; its rows are used as given.
    ``weights`` are normalized to sum to one; omitted means uniform.
    """
    n, p = U.shape
    d = p - 1
    q = q_dim(p)
    w = _normalized_weights(weights, n)

    w_tot = np.zeros((q, q))
    w_comp = np.zeros((q, q))
    d_tot = np.zeros(q)
    d_comp = np.zeros(q)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        Uc = U[start:stop]
        wc = w[start:stop]
        R = r_matrix_batch(Uc)
        S = s_matrix_batch(Uc)
        Rw = R * wc[:, None, None]
        w_chunk = np.einsum("nqj,nrj->qr", Rw, R)
        d_chunk = (1.0 + beta_p) * np.einsum("nqj,nj->q", Rw, Uc[:, :d]) \
            - np.einsum("nqj,n->q", S, wc)
        w_tot = _neumaier_add(w_tot, w_comp, w_chunk)
        d_tot = _neumaier_add(d_tot, d_comp, d_chunk)
    w_hat = w_tot + w_comp
    w_hat = 0.5 * (w_hat + w_hat.T)
    return w_hat, d_tot + d_comp


def solve_system(w_hat: np.ndarray, d_hat: np.ndarray, ridge: float = 0.0,
                 ) -> tuple[np.ndarray, float, float, tuple[int, ...]]:
    """Solve W_hat pi = d_hat with diagonal equilibration.

    Returns (pi, condition number of the equilibrated system, relative
    residual, indices of structurally degenerate parameters).  Rows with
    an exactly zero diagonal (which only arise from exact zeros in the
    data, e.g. an all-zero component column) are dropped from the solve
    and their parameters pinned to zero, with a DegeneracyWarning.
    """
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
    cond = float(np.linalg.cond(w_eq))
    if not np.isfinite(cond) or cond > COND_MAX:
        raise SingularSystemError(
            f"equilibrated system condition number {cond:.3e} exceeds {COND_MAX:.0e}",
            condition_number=cond,
        )
    try:
        factor = scipy.linalg.cho_factor(w_eq, lower=True)
        z = scipy.linalg.cho_solve(factor, scale * dk)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"factorization failed despite condition number {cond:.3e}",
            condition_number=cond,
        ) from exc
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
    w_hat, d_hat = assemble(U, weights=weights, beta_p=beta_p)
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

