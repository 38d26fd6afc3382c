"""Tuning, uncertainty, and sensitivity diagnostics around the fit.

Three tools live here:

* ``tune_c`` picks the weighting constant by simulation: refit at each
  candidate c, simulate from the fitted model at the data's counting
  resolution, and compare marginals with a truncated two-sample KS test
  (truncation at the observed 95th percentile keeps the comparison away
  from the upper tail that outliers own).
* ``bootstrap_se`` is a parametric bootstrap at the fitted model and
  the observed multinomial totals.
* ``influence`` evaluates the estimator's influence function at
  arbitrary points (boundary included), from the sensitivity matrix of
  the weighted estimating equations.  With c > 0 the weight decays the
  score contribution, which is what bounds the influence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np

from . import _kstwo
from ._parallel import parallel_map
from .errors import (
    InsufficientDataError,
    BootstrapDegradedError,
    RPPIError,
    SingularGError,
    WeightError,
)
from .model import (
    CountDataset,
    ParamVector,
    RPPIParams,
    as_matrix,
    pack,
    param_labels,
    proportions,
    q_dim,
)
from . import estimator
from .robust import (PreparedData, RobustConfig, RobustFitResult, fit_robust, kk_mask,
                     kk_statistic, normalized_weights, weight_exponents)
from .sampling import round_proportions, sample_counts, sample_rppi, spawn_seeds
# unused here, but bench/tracing.py installs kernel spans at these names
from .suffstats import r_matrix_batch, s_matrix_batch  # noqa: F401

G_COND_MAX = 1e12
# bootstrap_se raises BootstrapDegradedError when more than this share of
# its replicates fail
MAX_FAILURE_FRAC = 0.2
# parse_grid refuses a start:stop:step range with more points than this
MAX_GRID_POINTS = 10_000
# simplex_grid refuses a grid with more points than this
MAX_SIMPLEX_POINTS = 1_000_000


def ks_truncated(observed, simulated, quantile: float = 0.95) -> tuple[float, float]:
    """Two-sample KS statistic and p-value below the observed quantile.

    Both samples are truncated at the ``quantile`` point of the
    *observed* sample, then compared with the asymptotic two-sample
    test.  Raises InsufficientDataError when fewer than two points
    survive on either side.

    Both numbers are those of ``scipy.stats.ks_2samp(..., method="asymp")``
    bit for bit: the statistic is computed as there, and the p-value is
    the Kolmogorov survival function at n = round(n1*n2/(n1 + n2)).
    That is computed in-house where n > 140, 1 < n*d and n*d**2 < 2.2,
    and by a lazily imported ``scipy.stats.kstwo.sf`` elsewhere: a
    p-value below about 0.025, a truncated sample of under about 150
    points, or an edge case (see :mod:`rppi._kstwo`, which names the
    scipy versions the port was checked against).
    """
    a = np.asarray(observed, dtype=float).ravel()
    b = np.asarray(simulated, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("need at least two points per sample")
    cut = np.quantile(a, quantile)
    at = np.sort(a[a <= cut])
    bt = np.sort(b[b <= cut])
    if at.size < 2 or bt.size < 2:
        raise InsufficientDataError("truncation left fewer than two points")
    # the ECDF difference at each distinct pooled value: repeats of a
    # value cannot move its extremes, and tune's samples repeat a lot
    both = np.unique(np.concatenate([at, bt]))
    diffs = (np.searchsorted(at, both, side="right") / at.size
             - np.searchsorted(bt, both, side="right") / bt.size)
    below = np.clip(-diffs.min(), 0, 1)
    above = diffs.max()
    d = below if below > above else above
    m, n = sorted([float(at.size), float(bt.size)], reverse=True)
    return float(d), _kstwo.sf(d, np.round(m * n / (m + n)))


@dataclass(frozen=True)
class TuneEntry:
    """Diagnostics for one candidate tuning constant."""

    c: float
    converged: bool
    error: str | None
    weight_cv: float
    ks_stats: tuple[float, ...]
    ks_pvalues: tuple[float, ...]

    @property
    def min_pvalue(self) -> float:
        return min(self.ks_pvalues) if self.ks_pvalues else float("nan")


@dataclass(frozen=True)
class TuneReport:
    """Grid search results plus the selected tuning constant."""

    grid: tuple[float, ...]
    entries: tuple[TuneEntry, ...]
    recommended_c: float | None
    components: tuple[int, ...]
    alpha: float = 0.05


def parse_grid(spec: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive stop, ``MAX_GRID_POINTS`` at most) or a comma list."""
    text = spec.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(x) for x in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid range {spec!r} has a bound that is not finite")
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid range {spec!r}")
        span = (stop - start) / step + 1e-9  # inf when the quotient overflows
        count = math.floor(span) + 1 if span < math.inf else span
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid range {spec!r} has {count:,} points, more than "
                             f"{MAX_GRID_POINTS:,}")
        return tuple(start + k * step for k in range(count))
    return tuple(float(x) for x in text.split(","))


def tune_c(data: CountDataset, grid, kstar: int, sim_size: int = 10_000,
           seed=None, beta_p: float = 0.0, tol: float = RobustConfig.tol,
           max_iter: int = RobustConfig.max_iter, quantile: float = 0.95,
           alpha: float = 0.05) -> TuneReport:
    """Select the weighting constant by simulated marginal agreement.

    For each c: fit, simulate ``sim_size`` compositions from the fitted
    model, snap them to the data's counting grid (totals recycled when
    sim_size exceeds n), and KS-compare each non-reference component.
    Recommended is the smallest c whose p-values all clear ``alpha``; if
    none does, the c with the largest worst-case p-value.  Raises ValueError before any fit unless
    ``sim_size >= 2``, ``0 < alpha < 1``, ``0 < quantile <= 1``,
    ``1 <= kstar <= p - 1`` and every grid value c makes a valid
    :class:`RobustConfig` (c finite and >= 0, ``tol`` > 0, ``max_iter`` >= 1).
    """
    if not sim_size >= 2:
        raise ValueError(f"sim_size must be at least 2, got {sim_size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    n, p = data.x.shape
    if not 1 <= kstar <= p - 1:
        raise ValueError(f"kstar must lie in [1, {p - 1}], got {kstar}")
    u_obs = proportions(data)
    candidates = tuple(sorted(float(c) for c in grid))
    if not candidates:
        raise ValueError("empty tuning grid")
    configs = [RobustConfig(c=c, kstar=kstar, tol=tol, max_iter=max_iter)
               for c in candidates]
    components = tuple(range(p - 1))
    seeds = spawn_seeds(seed, len(candidates))
    prepared = PreparedData(u_obs, beta_p)
    entries = []
    for cfg, child in zip(configs, seeds):
        try:
            fit = fit_robust(prepared, cfg)
            params = fit.params
            if params is None:
                raise RPPIError("estimate left the parameter space")
            sim, _ = sample_rppi(params, sim_size, seed=child)
            m_cycle = data.m[np.arange(sim_size) % n]
            snapped = round_proportions(sim, m_cycle)
            stats, pvals = [], []
            for j in components:
                stat, pval = ks_truncated(u_obs[:, j], snapped[:, j], quantile)
                stats.append(stat)
                pvals.append(pval)
            entries.append(TuneEntry(
                c=cfg.c, converged=True, error=None, weight_cv=fit.weight_cv,
                ks_stats=tuple(stats), ks_pvalues=tuple(pvals),
            ))
        except RPPIError as exc:
            entries.append(TuneEntry(
                c=cfg.c, converged=False, error=f"{type(exc).__name__}: {exc}",
                weight_cv=float("nan"), ks_stats=(), ks_pvalues=(),
            ))
    usable = [e for e in entries if e.error is None]
    recommended = None
    if usable:
        passing = [e for e in usable if e.min_pvalue >= alpha]
        if passing:
            recommended = min(passing, key=lambda e: e.c).c
        else:
            recommended = max(usable, key=lambda e: e.min_pvalue).c
    return TuneReport(
        grid=candidates,
        entries=tuple(entries),
        recommended_c=recommended,
        components=components,
        alpha=alpha,
    )


@dataclass(frozen=True)
class BootstrapReport:
    """Parametric bootstrap spread of the packed estimates."""

    b_requested: int
    n_failed: int
    estimates: np.ndarray = field(metadata={"report": False})
    se: np.ndarray
    point: np.ndarray
    ratio: np.ndarray
    labels: tuple[str, ...]

    @property
    def b_used(self) -> int:
        return self.estimates.shape[0]


def _bootstrap_one(seed, params=None, m=None, config=None, beta_p=0.0, ridge=0.0):
    try:
        counts, _ = sample_counts(params, m, seed=seed)
        refit = fit_robust(PreparedData(proportions(counts), beta_p), config, ridge=ridge)
        return refit.pi_hat.pi
    except RPPIError:
        return None


def bootstrap_se(fit: RobustFitResult, data: CountDataset, b: int = 200,
                 seed=None, threads: int = 1) -> BootstrapReport:
    """Parametric bootstrap at the fitted model and observed totals.

    Each replicate simulates counts with the data's row totals, refits
    with the fit's configuration, beta_p and ridge, and contributes one
    packed estimate.  Failed replicates are dropped; more than
    ``MAX_FAILURE_FRAC`` of them failing raises BootstrapDegradedError
    with the partial report attached.
    """
    if b < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    params = fit.params
    if params is None:
        raise ValueError("point estimate is outside the parameter space; "
                         "cannot simulate from it")
    worker = partial(_bootstrap_one, params=params, m=np.asarray(data.m),
                     config=fit.config, beta_p=fit.beta_p, ridge=fit.ridge)
    results = parallel_map(worker, spawn_seeds(seed, b), threads=threads)
    kept = [r for r in results if r is not None]
    n_failed = b - len(kept)
    estimates = np.array(kept) if kept else np.empty((0, fit.pi_hat.q))
    if estimates.shape[0] >= 2:
        se = np.std(estimates, axis=0, ddof=1)
    else:
        se = np.full(fit.pi_hat.q, np.nan)
    point = fit.pi_hat.pi
    ratio = np.divide(point, se, out=np.full_like(point, np.nan), where=se > 0)
    report = BootstrapReport(
        b_requested=b,
        n_failed=n_failed,
        estimates=estimates,
        se=se,
        point=point.copy(),
        ratio=ratio,
        labels=tuple(param_labels(fit.pi_hat.p)),
    )
    if n_failed > MAX_FAILURE_FRAC * b:
        raise BootstrapDegradedError(
            f"{n_failed} of {b} bootstrap replicates failed", report=report)
    return report


@dataclass(frozen=True)
class InfluenceResult:
    """Influence function values and the sensitivity matrix behind them.

    ``g_matrix`` is the sensitivity matrix with the reference weights
    divided by their sum, sum_i w_i (W1_i H + c e_i t_a,i') / sum_i w_i,
    which is the plain mean over the reference divided by the mean
    weight (see :func:`influence`).
    """

    z: np.ndarray = field(metadata={"report": False})
    value: np.ndarray = field(metadata={"report": False})
    g_matrix: np.ndarray = field(metadata={"report": False})
    c: float
    kstar: int
    n_reference: int

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.value)))


def influence(z, pi0, reference, c: float, kstar: int,
              beta_p: float = 0.0) -> InfluenceResult:
    """Influence function of the weighted estimator at point(s) z.

    ``pi0`` is the parameter (packed vector, ParamVector, or RPPIParams)
    at which sensitivity is linearized; ``reference`` is the sample
    whose empirical measure plays the model distribution in the
    expectation; both it and ``z`` are validated here.  Boundary points
    are fine: every ingredient is polynomial.  Statistics, weights and
    reduction are the fit's own.  Reference weights are divided by their
    sum and z weights by the reference's mean weight, which leaves the
    influence function unchanged and keeps the weights from
    overflowing.  Raises SingularGError when the sensitivity matrix is
    (numerically) singular, and WeightError when the reference weights
    are not finite or a z point's weight, or its weighted residual,
    exceeds the float range even after that scaling.
    """
    if isinstance(pi0, RPPIParams):
        pi_vec = pack(pi0).pi
    elif isinstance(pi0, ParamVector):
        pi_vec = pi0.pi
    else:
        pi_vec = np.asarray(pi0, dtype=float)
    ref = as_matrix(reference)
    Z = as_matrix(z)
    n, p = ref.shape
    q = q_dim(p)
    if pi_vec.shape != (q,):
        raise ValueError(f"pi0 must have length {q} for p={p}")
    if Z.shape[1] != p:
        raise ValueError("z dimension does not match the reference sample")
    h = np.where(kk_mask(p, kstar), 1.0 + c, 1.0)
    x = h * pi_vec
    w_hat, shift, total = normalized_weights(ref, pi_vec, kstar, c)

    stats = estimator.score_stats(ref, beta_p)
    g = estimator.assemble(stats, w_hat)[0] * h[None, :]
    for start in range(0, n, estimator.CHUNK):
        stop = start + estimator.CHUNK
        e = estimator.residuals(stats, x, start, stop)
        ta = kk_statistic(ref[start:stop], kstar)
        g += c * np.einsum("n,nq,nr->qr", w_hat[start:stop], e, ta)
    if not np.all(np.isfinite(g)):
        raise SingularGError("sensitivity matrix has non-finite entries")

    # two-sided equilibration before factorizing; the raw scales span
    # many orders of magnitude for vertex-concentrated models
    row = np.max(np.abs(g), axis=1)
    if np.any(row == 0.0):
        raise SingularGError("sensitivity matrix has a zero row")
    dr = 1.0 / row
    g1 = g * dr[:, None]
    col = np.max(np.abs(g1), axis=0)
    if np.any(col == 0.0):
        raise SingularGError("sensitivity matrix has a zero column")
    dc = 1.0 / col
    g_eq = g1 * dc[None, :]
    cond = float(np.linalg.cond(g_eq))
    if not np.isfinite(cond) or cond > G_COND_MAX:
        raise SingularGError(f"sensitivity matrix condition {cond:.3e} "
                             f"exceeds {G_COND_MAX:.0e}")

    z_expo = weight_exponents(Z, pi_vec, kstar, c)
    over = np.nonzero(z_expo - shift > np.log(np.finfo(float).max * (total / n)))[0]
    if over.size:
        i = int(over[0])
        raise WeightError(
            f"weight of z row {i} overflows: its exponent exceeds the reference "
            f"maximum by {z_expo[i] - shift:.1f}")
    values = np.empty((Z.shape[0], q))
    for start in range(0, Z.shape[0], estimator.CHUNK):
        stop = start + estimator.CHUNK
        e = estimator.residuals(estimator.score_stats(Z[start:stop], beta_p), x)
        wz = np.exp(z_expo[start:stop] - shift) * (n / total)
        rhs = (wz[:, None] * e) * dr[None, :]
        sol = np.linalg.solve(g_eq, rhs.T)
        values[start:stop] = -(dc[:, None] * sol).T
    bad = np.nonzero(~np.isfinite(values).all(axis=1))[0]
    if bad.size:
        raise WeightError(f"influence at z row {int(bad[0])} is not finite: its "
                          "weighted residual or its solve overflows")
    return InfluenceResult(
        z=Z, value=values, g_matrix=g, c=float(c), kstar=int(kstar),
        n_reference=n,
    )


def simplex_grid(p: int, resolution: int) -> np.ndarray:
    """All compositions with entries k/resolution; includes the boundary.

    Returns an array with C(resolution + p - 1, p - 1) rows; raises
    ValueError, before allocating, when that is over MAX_SIMPLEX_POINTS.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    total = math.comb(resolution + p - 1, p - 1)
    if total > MAX_SIMPLEX_POINTS:
        raise ValueError(f"a simplex grid of resolution {resolution} at p={p} has "
                         f"{total:,} points, more than {MAX_SIMPLEX_POINTS:,}")
    out = np.empty((total, p))
    for row, bars in enumerate(combinations(range(resolution + p - 1), p - 1)):
        edges = (-1,) + bars + (resolution + p - 1,)
        out[row] = [edges[i + 1] - edges[i] - 1 for i in range(p)]
    return out / resolution
