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
    3. undo the tilt:  pi_new = pi_tilde / h,
       where h (:func:`tilt`) is 1 + c on the A_KK entries and 1 elsewhere.

Only A_KK feeds back through the weights, so step 3 divides the KK
block by 1 + c and takes every other entry of pi_tilde as it is.  At
c = 0, h is 1 and every weight is 1/n, so a first step would repeat the
unweighted solve and stop there, and the default start's solve is
returned without it.
So :func:`fit_robust` is the package's one fit, plain and weighted.

The loop takes these steps as they are until the relative change first
falls below SWITCH, then Anderson steps (Anderson 1965; Walker and Ni
2011) on the same map: the next point extrapolates by an unscaled
least-squares fit of the last DEPTH + 1 steps' residuals, plain steps
before the switch included.  That history is dropped whenever the
residual grows, and an extrapolated point whose residual exceeds that of
its source step is replaced by that step's plain update.  The equation is
unchanged, so a start reaches the root of the plain steps, in fewer
iterations.

Each start, the default one or a rung of :func:`fit_robust`'s restart
ladder, is one call of ``_iterate``: it runs the loop and builds the fit.
The loop stops only at a point it has evaluated, whose step changes it
by at most tol relative (the stop rule).  That rule leaves the plain
loop's error along its slowest mode, where the residual of the ridged
weighted equation (below) is small, but an Anderson point's along any
mode, so once Anderson steps have begun the point's residual must also
be under RESIDUAL * max |d_hat|.  The stop point's weights, W_hat and
d_hat are the fit's: nothing is assembled after the loop.

Each iteration reads its weight exponents c t_a(u)' pi from the rows'
A_KK statistic, which :class:`PreparedData` keeps, and its solve checks
the system by its Cholesky pivots alone, which never turns down a system
that its eigenvalues would pass.  The stop point's system gets the one
eigendecomposition of a start: :func:`rppi.estimator.condition_number`
gives the fit's condition number and raises, like a failed solve, over
COND_MAX.

At a fixed point, H pi_hat = pi_tilde with H = diag(h), so the weighted
estimating equation

    sum_i w_i (W1(u_i) H pi_hat - d1(u_i)) = 0

holds; its residual is reported for verification.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DimensionError, NonConvergenceError, SingularSystemError, WeightError
from .estimator import assemble, condition_number, score_stats, solve_system
from .model import ParamVector, RPPIParams, a_slots, as_matrix, q_dim, unpack
from .suffstats import a_statistic

_TINY = 1e-300
# Once PATIENCE relative changes have grown instead of shrunk, every
# later step is scaled by DAMPING: a cheap guard against oscillation
# that leaves the fixed point unchanged.
DAMPING = 0.5
PATIENCE = 50
# Anderson steps (module docstring): the relative change that starts them,
# how many past steps they fit, and the bound on the weighted equation's
# residual, relative to max |d_hat|, that a stop point meets once they began.
SWITCH = 1e-4
DEPTH = 3
RESIDUAL = 1e-6


@dataclass(frozen=True)
class RobustConfig:
    """Settings for the reweighting iteration (c = 0 is the plain fit)."""

    c: float
    kstar: int
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        if self.kstar < 1:
            raise ValueError(f"kstar must be >= 1, got {self.kstar}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def tilt(p: int, kstar: int, c: float) -> np.ndarray:
    """The diagonal h of H over the packed vector: 1 + c on the A_KK
    entries, 1 elsewhere.  Weighting the model by exp(c u_K' A_KK u_K)
    multiplies its A_KK by 1 + c, so the loop's step, its fit's residual
    and :func:`rppi.inference.influence` read H from here."""
    d = p - 1
    if not 1 <= kstar <= d:
        raise DimensionError(f"kstar must be in [1, {d}], got {kstar}")
    h = np.ones(q_dim(p))
    h[a_slots(p)[2][:kstar, :kstar]] = 1.0 + c
    return h


def kk_statistic(U: np.ndarray, kstar: int) -> np.ndarray:
    """The A_KK part t_a(u) of every row's sufficient statistic, shape (n, q).

    t_a(u)' pi = u_K' A_KK u_K, so c t_a(u)' pi is the row's weight
    exponent and c t_a(u) its gradient; every entry outside the A_KK
    slots is zero.
    """
    n, p = U.shape
    ta = np.zeros((n, q_dim(p)))
    col = a_slots(p)[1]  # row <= col, so col < kstar puts a slot in A_KK
    ta[:, :col.size] = np.where(col < kstar, a_statistic(U), 0.0)
    return ta


def weight_exponents(ta: np.ndarray, pi: np.ndarray, c: float) -> np.ndarray:
    """Weight exponents c t_a(u)' pi = c u_K' A_KK u_K of the rows whose
    :func:`kk_statistic` is ``ta``, for the fit and
    :func:`rppi.inference.influence` alike.

    A_KK is read from the packed pi without validation: mid-iteration
    vectors may be outside the parameter space (for example 1 + beta <= 0).
    """
    return c * np.einsum("nq,q->n", ta, pi)


def normalized_weights(ta: np.ndarray, pi: np.ndarray,
                       c: float) -> tuple[np.ndarray, float, float]:
    """Weights exp(c u_K' A_KK u_K) / total of the rows whose
    :func:`kk_statistic` is ``ta``, for the fit and
    :func:`rppi.inference.influence` alike, with (shift, total).

    The exponentials are max-shifted into [0, 1], so their sum is finite
    and at least 1 unless the largest exponent (NaN if any is) is not
    finite; that raises WeightError.  The shift cancels in the weighted
    averages.
    """
    expo = weight_exponents(ta, pi, c)
    shift = float(expo.max())
    eff = np.exp(expo - shift)
    total = float(eff.sum())
    if not total > 0.0:  # NaN
        raise WeightError("weights have non-finite entries")
    return eff / total, shift, total


@dataclass(frozen=True)
class RobustFitResult:
    """Converged weighted fit, with the diagnostics needed downstream.

    Every result is a converged fit (a failed one raises), and ``ridge``
    is the one its loop solved with, which refits reuse.  Fields marked
    ``report: False`` stay out of ``fit.json``, which writes ``pi_hat`` as ``pi``.
    """

    pi_hat: ParamVector = field(metadata={"report": False})
    config: RobustConfig
    iterations: int
    final_weights: np.ndarray = field(metadata={"report": False})
    weight_cv: float
    residual: float
    condition_number: float
    d_hat: np.ndarray = field(metadata={"report": False})
    n_obs: int
    beta_p: float
    ridge: float
    restarts: int = 0
    accelerated_steps: int = 0

    @property
    def labels(self) -> list[str]:
        return self.pi_hat.labels

    @property
    def params(self) -> RPPIParams | None:
        """The estimate as model parameters, or None outside the parameter space."""
        try:
            return unpack(self.pi_hat, kstar=self.config.kstar, beta_p=self.beta_p)
        except ValueError:
            return None


class PreparedData:
    """One dataset prepared once for fits at any number of configurations.

    Holds the rows as :func:`rppi.model.as_matrix` validates them, their
    score statistics at ``beta_p``, and three things that the first fit
    needing them computes: the default start's unweighted solve for each
    ridge, and the rows' :func:`kk_statistic` (8 n q bytes) and the
    restart ladder's scale for each kstar.  None of these
    depends on c, so fits over a c panel from one PreparedData are bit for
    bit the fits from the rows.  Only a solved start is kept: a singular
    default start is solved again, and raises again, in each fit that
    needs it.
    A fit at a nonzero ``beta_p`` takes its rows through here.
    """

    def __init__(self, data, beta_p: float = 0.0):
        self.rows = as_matrix(data)
        self.beta_p = beta_p
        self.stats = score_stats(self.rows, beta_p)
        self._starts: dict = {}
        self._statistics: dict[int, np.ndarray] = {}
        self._scales: dict[int, float] = {}

    def _start(self, ridge: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(W_hat, d_hat, pi, cond) of the default start's solve."""
        if ridge not in self._starts:
            w_hat, d_hat = assemble(self.stats, None)
            cond = condition_number(w_hat, ridge)
            start = (w_hat, d_hat, solve_system(w_hat, d_hat, ridge=ridge), cond)
            for a in start[:3]:
                a.flags.writeable = False  # every later fit reads them
            self._starts[ridge] = start
        return self._starts[ridge]

    def _kk_statistic(self, kstar: int) -> np.ndarray:
        """The rows' :func:`kk_statistic`, which the weights read."""
        if kstar not in self._statistics:
            self._statistics[kstar] = kk_statistic(self.rows, kstar)
        return self._statistics[kstar]

    def _restart_scale(self, kstar: int) -> float:
        """The 98% quantile of |u_K|^2 over the rows (see _failover_inits)."""
        if kstar not in self._scales:
            s = np.sum(self.rows[:, :kstar] ** 2, axis=1)
            self._scales[kstar] = float(np.quantile(s, 0.98)) + 1e-12
        return self._scales[kstar]


def _iterate(data: PreparedData, config: RobustConfig, h, x, ridge: float,
             restarts: int) -> RobustFitResult:
    """One start of the reweighting iteration: from ``x``, or from the
    default start (the unweighted solve) when ``x`` is None.

    ``data`` holds the rows and score statistics from :func:`fit_robust`
    and ``h`` is its :func:`tilt`; only the weights change between
    iterations.  At c = 0 the default start's solve is the fit.  Otherwise
    one iteration evaluates x: its weights, W_hat, d_hat and the solve
    pi_tilde, which map x to g = pi_tilde / h with residual f = g - x.  An
    Anderson step goes to g - dG gamma, where gamma fits f by least
    squares on the differences dF of the kept residuals and dG those of
    their g.  The loop stops at the first x that passes the stop rule
    (and the RESIDUAL bound once Anderson steps have begun), and the fit
    is x with the rest of that evaluation; a start that exhausts
    ``max_iter`` raises NonConvergenceError.
    """
    U = data.rows
    c = config.c
    if x is None and c == 0.0:
        # every weight is 1/n, so the first iteration would solve the
        # default start's system again and stop: the start is the fit
        w_hat, d_hat, x, cond = data._start(ridge)
        w, iteration, accepted = np.full(U.shape[0], 1.0 / U.shape[0]), 1, 0
    else:
        x = data._start(ridge)[2] if x is None else np.array(x, dtype=float)
        ta = data._kk_statistic(config.kstar)
        trace: list[float] = []
        non_monotone = 0
        switch = None  # iteration where the change first fell below SWITCH
        history: list[tuple[np.ndarray, np.ndarray, float]] = []  # (f, g, max |f|)
        source = None  # (g, max |f|) of the step an extrapolated x came from
        accepted = 0
        try:
            for iteration in range(1, config.max_iter + 1):
                w = normalized_weights(ta, x, c)[0]
                w_hat, d_hat = assemble(data.stats, w)
                pi_tilde = solve_system(w_hat, d_hat, ridge=ridge)
                g = pi_tilde / h
                if non_monotone >= PATIENCE:
                    g = x + DAMPING * (g - x)
                f = g - x
                res = float(np.abs(f).max())
                rel = res / max(float(np.abs(x).max()), _TINY)
                if trace and rel > trace[-1]:
                    non_monotone += 1
                trace.append(rel)
                if rel <= config.tol:
                    hx = h * x  # the residual of the ridged system that the loop solves
                    if switch is None or (np.abs(w_hat @ hx + ridge * hx - d_hat).max()
                                          < RESIDUAL * np.abs(d_hat).max()):
                        accepted += source is not None
                        break
                if switch is None and rel < SWITCH:
                    switch = iteration
                if source is not None and res > source[1]:
                    x, source, history = source[0], None, []
                    continue
                accepted += source is not None
                kept = history[-DEPTH:] if history and res <= history[-1][2] else []
                history = kept + [(f, g, res)]
                if switch is None or len(history) < 2:
                    x, source = g, None
                    continue
                df = np.diff([step[0] for step in history], axis=0).T
                dg = np.diff([step[1] for step in history], axis=0).T
                x, source = g - dg @ np.linalg.lstsq(df, f, rcond=None)[0], (g, res)
            else:
                began = "never" if switch is None else f"after iteration {switch}"
                raise NonConvergenceError(
                    f"no convergence after {config.max_iter} iterations "
                    f"(last relative change {trace[-1]:.3e}; Anderson steps began {began})",
                    trace=trace,
                )
            # the one eigendecomposition of a start: its iterations' solves
            # check their pivots alone, the returned system its condition
            cond = condition_number(w_hat, ridge)
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"{exc} at iteration {iteration}; the weights' effective sample "
                f"size 1/sum(w^2) is {1.0 / np.sum(w * w):.1f} of {w.size}",
                condition_number=exc.condition_number) from exc

    return RobustFitResult(
        pi_hat=ParamVector(x),
        config=config,
        iterations=iteration,
        final_weights=w,
        weight_cv=float(np.std(w) / np.mean(w)),
        residual=float(np.max(np.abs(w_hat @ (h * x) - d_hat))),
        condition_number=cond,
        d_hat=d_hat,
        n_obs=U.shape[0],
        beta_p=data.beta_p,
        ridge=ridge,
        restarts=restarts,
        accelerated_steps=accepted,
    )


def _failover_inits(data: PreparedData, config: RobustConfig) -> Iterator[np.ndarray]:
    """Conservative restart vectors for when the default start fails.

    Gross contamination can corrupt the unweighted initializer so badly
    that the first weight evaluation concentrates all mass on the
    offending rows (their fitted quadratic is the maximum), after which
    the weighted system is degenerate.  An isotropic A_KK = -kappa I
    start instead downweights by distance from the origin of the K
    block; the ladder of kappa values is scaled so that the top rung
    effectively trims the largest 2% of |u_K|^2 on the first pass.
    Only the starting point changes; the fixed-point equation being
    solved stays the same.  A generator, so the quantile is only taken
    once a default start has failed, and then once per dataset.
    """
    c = config.c
    if c == 0.0:
        return
    p = data.rows.shape[1]
    scale = data._restart_scale(config.kstar)
    for strength in (4.0, 64.0, 1024.0):
        kappa = strength / (c * scale)
        vec = np.zeros(q_dim(p))
        vec[:config.kstar] = -kappa
        vec[-(p - 1):] = 1.0  # beta = 0
        yield vec


def fit_robust(data, config: RobustConfig, init: ParamVector | None = None,
               ridge: float = 0.0) -> RobustFitResult:
    """Run the reweighting iteration to convergence.

    With ``config.c`` = 0 the result is the plain score matching fit.
    ``data`` is the rows, which are validated and normalized here by
    :func:`rppi.model.as_matrix` and fitted with beta_p = 0, or a
    :class:`PreparedData` that carries them with their statistics at its
    own beta_p, for fitting one dataset at many configurations.
    ``init`` overrides the default initializer (the unweighted fit).  If
    a start fails (the weighted system degenerates or oscillates),
    progressively harsher conservative restarts are tried before giving
    up; raises NonConvergenceError when every start exhausts ``max_iter``.
    """
    if not isinstance(data, PreparedData):
        data = PreparedData(data)
    p = data.rows.shape[1]
    h = tilt(p, config.kstar, config.c)
    if init is not None and init.q != q_dim(p):
        raise DimensionError("init vector length does not match the data dimension")
    first = None if init is None else init.pi
    last_error = None
    for restarts, start in enumerate(chain([first], _failover_inits(data, config))):
        try:
            return _iterate(data, config, h, start, ridge, restarts)
        except (SingularSystemError, NonConvergenceError) as exc:
            last_error = exc
    raise last_error
