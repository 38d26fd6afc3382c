"""Outlier-resistant fitting by density power weighting.

The weighted estimator downweights observations that sit in the tails
of the fitted interaction kernel: each observation gets weight
proportional to exp(c * u_K' A_KK u_K), where K is the block of the
first ``kstar`` components and c >= 0 tunes the tradeoff (c = 0 is the
plain estimator).  Because the weight uses the polynomial part of the
model density restricted to K, weighting a member of this family tilts
it to another member with A_KK scaled by (1 + c); solving the weighted
score matching system and undoing that tilt yields a fixed-point
iteration:

    1. weights from the current A_KK,
    2. weighted linear fit  ->  pi_tilde,
    3. undo the tilt:  pi_new = (pi_tilde + c * pi_prev_outside_KK)
                                / (1 + c),
       where "outside KK" zeroes the entries of the A_KK block.

Step 3 is algebraically the blockwise correction (divide the KK block
by 1 + c, shift the remaining blocks by c times their previous values
and divide), written directly on the packed vector so that c = 0
reduces bit-for-bit to the unweighted estimator.

At a fixed point, H pi_hat = pi_tilde with H = diag(1 + c on the A_KK
entries, 1 elsewhere), so the weighted estimating equation

    sum_i w_i (W1(u_i) H pi_hat - d1(u_i)) = 0

holds; its residual is reported for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonConvergenceError, SingularSystemError
from .estimator import assemble, solve_system
from .model import (
    ParamVector,
    RPPIParams,
    as_matrix,
    pair_indices,
    q_dim,
    unpack,
)

_TINY = 1e-300


@dataclass(frozen=True)
class RobustConfig:
    """Settings for the reweighting iteration.

    ``damping`` scales the step once ``patience`` non-monotone relative
    changes have accumulated (a cheap guard against oscillation; the
    fixed point is unaffected).
    """

    c: float
    kstar: int
    tol: float = 1e-8
    max_iter: int = 500
    damping: float = 0.5
    patience: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        if self.kstar < 1:
            raise ValueError(f"kstar must be >= 1, got {self.kstar}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def kk_mask(p: int, kstar: int) -> np.ndarray:
    """Boolean mask over the packed vector selecting the A_KK entries."""
    d = p - 1
    if not 1 <= kstar <= d:
        raise DimensionError(f"kstar must be in [1, {d}], got {kstar}")
    mask = np.zeros(q_dim(p), dtype=bool)
    mask[:kstar] = True
    for slot, (i, j) in enumerate(pair_indices(p)):
        mask[d + slot] = j < kstar
    return mask


def _akk_from_pi(pi: np.ndarray, p: int, kstar: int) -> np.ndarray:
    """Extract A_KK from a packed vector without full validation.

    Mid-iteration vectors may be outside the parameter space (for
    example 1 + beta <= 0), so this must not construct RPPIParams.
    """
    d = p - 1
    akk = np.zeros((kstar, kstar))
    akk[np.diag_indices(kstar)] = pi[:kstar]
    for slot, (i, j) in enumerate(pair_indices(p)):
        if j < kstar:
            akk[i, j] = akk[j, i] = pi[d + slot]
    return akk


def _raw_weight_factors(U: np.ndarray, akk: np.ndarray, c: float) -> np.ndarray:
    """Unnormalized weight factors exp(c u_K' A_KK u_K), max-shifted.

    The shift cancels in the normalized weighted averages and keeps the
    exponentials in (0, 1].  At c = 0 every factor is exactly 1.0.
    """
    uk = U[:, : akk.shape[0]]
    expo = c * np.einsum("nk,kl,nl->n", uk, akk, uk)
    return np.exp(expo - expo.max())


def windham_weights(data, akk: np.ndarray, c: float) -> np.ndarray:
    """Normalized exponential-tilt weights for the given A_KK block."""
    U = as_matrix(data)
    if akk.shape[0] > U.shape[1] - 1:
        raise DimensionError("A_KK block larger than the non-reference part")
    raw = _raw_weight_factors(U, np.asarray(akk, dtype=float), c)
    return raw / raw.sum()


@dataclass(frozen=True)
class RobustFitResult:
    """Converged weighted fit, with the diagnostics needed downstream."""

    pi_hat: ParamVector
    params: RPPIParams | None
    config: RobustConfig
    iterations: int
    converged: bool
    final_weights: np.ndarray
    weight_cv: float
    residual: float
    condition_number: float
    d_hat: np.ndarray
    n_obs: int
    beta_p: float
    restarts: int = 0

    @property
    def labels(self) -> list[str]:
        return self.pi_hat.labels


def _iterate(U: np.ndarray, config: RobustConfig, base, pi_init, beta_p: float,
             ridge: float, restarts: int) -> RobustFitResult:
    """One run of the reweighting iteration from a given start."""
    n, p = U.shape
    c = config.c
    mask = kk_mask(p, config.kstar)
    outside = ~mask

    if pi_init is None:
        w_hat, d_hat = assemble(U, weights=base, beta_p=beta_p)
        pi_prev, cond, _, _ = solve_system(w_hat, d_hat, ridge=ridge)
    else:
        pi_prev = np.array(pi_init, dtype=float)
        cond = float("nan")

    trace: list[float] = []
    non_monotone = 0
    damped = False
    for iteration in range(1, config.max_iter + 1):
        akk = _akk_from_pi(pi_prev, p, config.kstar)
        factors = _raw_weight_factors(U, akk, c)
        eff = factors if base is None else base * factors
        w_hat, d_hat = assemble(U, weights=eff, beta_p=beta_p)
        pi_tilde, cond, _, _ = solve_system(w_hat, d_hat, ridge=ridge)
        pi_new = (pi_tilde + c * np.where(outside, pi_prev, 0.0)) / (1.0 + c)
        if damped:
            pi_new = pi_prev + config.damping * (pi_new - pi_prev)
        rel = float(np.max(np.abs(pi_new - pi_prev))) / max(float(np.max(np.abs(pi_prev))), _TINY)
        if trace and rel > trace[-1]:
            non_monotone += 1
            if non_monotone >= config.patience:
                damped = True
        trace.append(rel)
        pi_prev = pi_new
        if rel <= config.tol:
            break
    else:
        raise NonConvergenceError(
            f"no convergence after {config.max_iter} iterations "
            f"(last relative change {trace[-1]:.3e})",
            trace=trace,
        )

    pi_hat = pi_prev
    akk = _akk_from_pi(pi_hat, p, config.kstar)
    factors = _raw_weight_factors(U, akk, c)
    eff = factors if base is None else base * factors
    weights = eff / eff.sum()
    w_fin, d_fin = assemble(U, weights=eff, beta_p=beta_p)
    h = np.where(mask, 1.0 + c, 1.0)
    residual = float(np.max(np.abs(w_fin @ (h * pi_hat) - d_fin)))
    try:
        params = unpack(pi_hat, kstar=config.kstar, beta_p=beta_p)
    except ValueError:
        params = None
    return RobustFitResult(
        pi_hat=ParamVector(pi_hat),
        params=params,
        config=config,
        iterations=iteration,
        converged=True,
        final_weights=weights,
        weight_cv=float(np.std(weights) / np.mean(weights)),
        residual=residual,
        condition_number=cond,
        d_hat=d_fin,
        n_obs=n,
        beta_p=beta_p,
        restarts=restarts,
    )


def _failover_inits(U: np.ndarray, config: RobustConfig) -> list[np.ndarray]:
    """Conservative restart vectors for when the default start fails.

    Gross contamination can corrupt the unweighted initializer so badly
    that the first weight evaluation concentrates all mass on the
    offending rows (their fitted quadratic is the maximum), after which
    the weighted system is degenerate.  An isotropic A_KK = -kappa I
    start instead downweights by distance from the origin of the K
    block; the ladder of kappa values is scaled so that the top rung
    effectively trims the largest 2% of |u_K|^2 on the first pass.
    Only the starting point changes; the fixed-point equation being
    solved stays the same.
    """
    c = config.c
    if c == 0.0:
        return []
    p = U.shape[1]
    d = p - 1
    s = np.sum(U[:, :config.kstar] ** 2, axis=1)
    scale = float(np.quantile(s, 0.98)) + 1e-12
    inits = []
    for strength in (4.0, 64.0, 1024.0):
        kappa = strength / (c * scale)
        vec = np.zeros(q_dim(p))
        vec[:config.kstar] = -kappa
        vec[d + (d * (d - 1)) // 2:] = 1.0  # beta = 0
        inits.append(vec)
    return inits


def fit_robust(data, config: RobustConfig, base_weights=None,
               init: ParamVector | None = None, beta_p: float = 0.0,
               ridge: float = 0.0) -> RobustFitResult:
    """Run the reweighting iteration to convergence.

    ``base_weights`` (optional, unnormalized) multiply the data
    weights throughout; they express a reweighted empirical measure,
    e.g. for contamination sensitivity checks.  ``init`` overrides the
    default initializer (the unweighted fit).  If a start fails (the
    weighted system degenerates or oscillates), progressively harsher
    conservative restarts are tried before giving up; raises
    NonConvergenceError when every start exhausts ``max_iter``.
    """
    U = as_matrix(data)
    n, p = U.shape
    d = p - 1
    if not 1 <= config.kstar <= d:
        raise DimensionError(f"kstar must be in [1, {d}] for p={p}, got {config.kstar}")
    base = None
    if base_weights is not None:
        base = np.asarray(base_weights, dtype=float)
    starts: list[np.ndarray | None]
    if init is not None:
        if init.q != q_dim(p):
            raise DimensionError("init vector length does not match the data dimension")
        starts = [init.pi]
    else:
        starts = [None]
    starts.extend(_failover_inits(U, config))
    last_error = None
    for restarts, start in enumerate(starts):
        try:
            return _iterate(U, config, base, start, beta_p, ridge, restarts)
        except (SingularSystemError, NonConvergenceError) as exc:
            last_error = exc
    raise last_error
