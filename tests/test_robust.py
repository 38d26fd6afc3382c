import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plain_draws
import rppi.estimator as estimator
import rppi.robust as robust
from rppi.errors import (DegeneracyWarning, DimensionError, NonConvergenceError,
                         SingularSystemError, WeightError)
from rppi.estimator import CHUNK, assemble, score_stats, solve_system
from rppi.model import RPPIParams, as_matrix, pack, pair_indices, q_dim
from rppi.robust import RobustConfig, fit_robust, kk_mask
from rppi.sampling import contaminate, spawn_seeds
from rppi.study import DATASET2_OUTLIER, dataset2_truth, preset_scenario


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)


def contaminated_sample(n=94, frac=0.053, seed=77):
    truth = dataset2_truth()
    U = plain_draws(truth, n, np.random.SeedSequence(seed))
    U = U.copy()
    U[: round(frac * n)] = np.asarray(DATASET2_OUTLIER)
    return truth, U


def test_config_validation():
    with pytest.raises(ValueError):
        RobustConfig(c=-0.1, kstar=2)
    with pytest.raises(ValueError):
        RobustConfig(c=0.5, kstar=2, tol=0.0)
    with pytest.raises(ValueError):
        RobustConfig(c=0.5, kstar=0)


def test_kk_mask_selects_the_akk_block():
    mask = kk_mask(5, 2)
    # for kstar=2 exactly a_11, a_22 and a_12 live in the block
    labels = np.array(pack(dataset2_truth()).labels)
    assert sorted(labels[mask]) == ["a_11", "a_12", "a_22"]


def test_kstar_out_of_range_is_rejected():
    rng = np.random.default_rng(31)
    U = rng.dirichlet((2.0, 2.0, 2.0), size=50)
    with pytest.raises(DimensionError):
        fit_robust(U, RobustConfig(c=0.5, kstar=4))


def test_c_zero_reduces_to_the_unweighted_fit_bitwise():
    U = plain_draws(TEST_PARAMS, 500, np.random.SeedSequence(32))
    plain, _ = solve_system(*assemble(score_stats(as_matrix(U))))
    rob = fit_robust(U, RobustConfig(c=0.0, kstar=2))
    assert rob.pi_hat.pi.tobytes() == plain.tobytes()
    assert rob.iterations == 1 and rob.restarts == 0


@pytest.mark.parametrize("with_base", [False, True])
def test_c_zero_assembles_and_solves_once(monkeypatch, with_base):
    U = plain_draws(TEST_PARAMS, 300, np.random.SeedSequence(32))
    base = np.random.default_rng(32).uniform(0.5, 2.0, 300) if with_base else None
    calls = []

    def spying(name):
        fn = getattr(robust, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spy

    for name in ("assemble", "solve_system"):
        monkeypatch.setattr(robust, name, spying(name))
    fit_robust(U, RobustConfig(c=0.0, kstar=2), base_weights=base)
    assert calls == ["assemble", "solve_system"]


def test_uniform_base_weights_change_nothing():
    U = plain_draws(TEST_PARAMS, 400, np.random.SeedSequence(33))
    cfg = RobustConfig(c=0.5, kstar=2)
    a = fit_robust(U, cfg)
    b = fit_robust(U, cfg, base_weights=np.ones(400))
    assert a.pi_hat.pi.tobytes() == b.pi_hat.pi.tobytes()


def test_converged_fit_satisfies_the_weighted_equation():
    U = plain_draws(TEST_PARAMS, 800, np.random.SeedSequence(34))
    cfg = RobustConfig(c=0.7, kstar=2)
    fit = fit_robust(U, cfg)
    # recompute the equation pieces independently of the fit loop
    uk = U[:, :2]
    w = np.exp(cfg.c * np.einsum("nk,kl,nl->n", uk, fit.params.a_l[:2, :2], uk))
    W, d = assemble(score_stats(U), w)
    h = np.where(kk_mask(3, 2), 1.0 + cfg.c, 1.0)
    residual = np.abs(W @ (h * fit.pi_hat.pi) - d).max()
    assert residual < 1e-6 * max(np.abs(d).max(), 1e-30)
    assert fit.residual < 1e-6 * max(np.abs(d).max(), 1e-30)


def test_weights_are_a_distribution_and_flag_outliers():
    truth, U = contaminated_sample()
    fit = fit_robust(U, RobustConfig(c=0.5, kstar=4))
    w = fit.final_weights
    assert w.shape == (94,) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) < 1e-12
    # the planted rows should carry essentially no weight at the fit
    assert w[:5].max() < 1e-6 * w[5:].mean()


def test_weighted_fit_tracks_truth_at_moderate_n():
    U = plain_draws(TEST_PARAMS, 20_000, np.random.SeedSequence(35))
    fit = fit_robust(U, RobustConfig(c=0.5, kstar=2))
    pi0 = pack(TEST_PARAMS).pi
    rel = np.abs(fit.pi_hat.pi - pi0) / np.maximum(np.abs(pi0), 1.0)
    assert rel.max() < 0.3


def test_contaminated_start_triggers_the_restart_ladder():
    truth, U = contaminated_sample()
    fit = fit_robust(U, RobustConfig(c=0.5, kstar=4))
    assert fit.restarts > 0
    assert fit.converged
    beta1 = fit.pi_hat.pi[-4] - 1.0
    assert abs(beta1 - truth.beta[0]) < 0.3


def test_restarting_fit_evaluates_the_kernels_once_per_chunk(monkeypatch):
    truth, U = contaminated_sample()
    monkeypatch.setattr(estimator, "CHUNK", 32)
    rows = []
    kernel = estimator.r_matrix_batch

    def spy(chunk):
        rows.append(len(chunk))
        return kernel(chunk)

    monkeypatch.setattr(estimator, "r_matrix_batch", spy)
    fit = fit_robust(U, RobustConfig(c=0.5, kstar=4))
    assert fit.restarts > 0
    assert rows == [32, 32, 30]  # ceil(94 / 32) chunks, each evaluated once


def test_restart_ladder_reports_nonconvergence_when_capped():
    truth, U = contaminated_sample()
    with pytest.raises(NonConvergenceError) as err:
        fit_robust(U, RobustConfig(c=0.5, kstar=4, max_iter=2))
    assert err.value.trace  # the trace of relative changes rides along


def test_explicit_init_is_honored():
    U = plain_draws(TEST_PARAMS, 600, np.random.SeedSequence(36))
    cfg = RobustConfig(c=0.5, kstar=2)
    ref = fit_robust(U, cfg)
    warm = fit_robust(U, cfg, init=ref.pi_hat)
    assert warm.iterations <= 2
    assert np.abs(warm.pi_hat.pi - ref.pi_hat.pi).max() < 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(3, 5),
       n=st.integers(100, 400), kstar=st.integers(1, 4))
def test_fits_do_not_depend_on_row_order(seed, p, n, kstar):
    rng = np.random.default_rng(seed)
    U = rng.dirichlet(rng.uniform(1.0, 5.0, size=p), size=n)
    perm = rng.permutation(n)

    # plain fit: only the summation order changes.  Sums of n terms are
    # off by at most n eps relative, which the equilibrated solve
    # amplifies by at most its condition number (once for W, once for d)
    plain = RobustConfig(c=0.0, kstar=p - 1)
    a, b = fit_robust(U, plain), fit_robust(U[perm], plain)
    scale = np.sqrt(np.diag(assemble(score_stats(as_matrix(U)))[0]))
    bound = 2.0 * a.condition_number * n * np.finfo(float).eps
    assert (np.linalg.norm(scale * (a.pi_hat.pi - b.pi_hat.pi))
            <= bound * np.linalg.norm(scale * a.pi_hat.pi))

    # weighted fit: each run stops once a step changes pi by at most tol
    # relative, which leaves it within 50 tol of the fixed point for any
    # contraction rate up to 0.98
    cfg = RobustConfig(c=0.5, kstar=min(kstar, p - 1))
    try:
        a = fit_robust(U, cfg)
    except (SingularSystemError, NonConvergenceError) as exc:
        # some weighted systems degenerate; then in either row order
        with pytest.raises(type(exc)):
            fit_robust(U[perm], cfg)
        return
    b = fit_robust(U[perm], cfg)
    assert (np.max(np.abs(a.pi_hat.pi - b.pi_hat.pi))
            <= 100 * cfg.tol * np.max(np.abs(a.pi_hat.pi)))


# The root the default start reaches on the sim7 sample below (68
# iterations, residual 5.6e-10).
ROOT = np.array([
    -1507.1896729698374, -10328.06144381779, -6942.102475071378,
    -264269.4008670999, -65862.33954684189, -9995.111141028163,
    -16699.242634039718, -13794.401231062422, 32816.979829058015,
    -57210.80777247753, 0.22657253626523133, 0.08987559874609258,
    0.4812321262099779, 0.7432510051946252,
])


def two_root_sample():
    """Study sim7, seed 3, replicate 2, rows built as study._replicate
    builds them."""
    scenario = preset_scenario("sim7", seed=3, replicates=25)
    latent, _, contam = spawn_seeds(3, 25)[2].spawn(3)
    U = plain_draws(scenario.truth, scenario.n, latent)
    return contaminate(U, scenario.contamination, np.asarray(scenario.outlier),
                       seed=contam)


def test_sim7_sample_with_two_roots_keeps_the_default_start_root():
    # At c = 1.25 the weighted equation has (at least) two roots here:
    # the default start reaches ROOT after two failed starts, a warm
    # start from the c = 1.0 fit reaches another.  A solver change that
    # moves the returned root fails this test.
    u = two_root_sample()
    cfg = RobustConfig(c=1.25, kstar=4)
    fit = fit_robust(u, cfg)
    assert fit.restarts == 2
    assert np.max(np.abs(fit.pi_hat.pi - ROOT)) <= 1e-6 * np.max(np.abs(ROOT))
    warm = fit_robust(u, cfg, init=fit_robust(u, RobustConfig(c=1.0, kstar=4)).pi_hat)
    assert warm.residual < 1e-6 * np.max(np.abs(warm.d_hat))
    assert np.max(np.abs(warm.pi_hat.pi - ROOT)) > 0.05 * np.max(np.abs(ROOT))


def test_damping_slows_the_fit_but_keeps_its_root(monkeypatch):
    # With PATIENCE = 1 the first relative change that grows switches
    # on damping, which the default fit of this sample never does.
    u = two_root_sample()
    cfg = RobustConfig(c=1.25, kstar=4)
    plain = fit_robust(u, cfg)
    monkeypatch.setattr("rppi.robust.PATIENCE", 1)
    damped = fit_robust(u, cfg)
    assert damped.iterations > plain.iterations
    assert damped.restarts == plain.restarts == 2
    assert np.max(np.abs(damped.pi_hat.pi - ROOT)) <= 1e-6 * np.max(np.abs(ROOT))


# The reweighting loop written out plainly, as the fit once ran it: full
# weight validation, Neumaier sums seeded with zeros over every chunk,
# the np.ix_ solve, A_KK rebuilt by a loop on every call, and the c = 0
# fit iterated like any other.  fit_robust must match it bit for bit.

def _plain_weights(weights, n):
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise WeightError("shape")
    if not np.all(np.isfinite(w)):
        raise WeightError("non-finite")
    if np.any(w < 0.0):
        raise WeightError("negative")
    total = w.sum()
    if total <= 0.0:
        raise WeightError("zero sum")
    return w / total


def _plain_assemble(stats, weights):
    n = len(stats)
    q, nd = stats.r.shape
    d = nd // n
    w = _plain_weights(weights, n)
    sums = [np.zeros((q, q)), np.zeros(q)]
    comps = [np.zeros((q, q)), np.zeros(q)]
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        r = stats.r[:, start * d:stop * d]
        wc = w[start:stop]
        chunk = (np.einsum("qk,rk->qr", r, r * np.repeat(wc, d)),
                 np.einsum("n,nq->q", wc, stats.d1[start:stop]))
        for k in range(2):
            t = sums[k] + chunk[k]
            big = np.abs(sums[k]) >= np.abs(chunk[k])
            comps[k] += np.where(big, (sums[k] - t) + chunk[k], (chunk[k] - t) + sums[k])
            sums[k] = t
    w_hat = sums[0] + comps[0]
    return 0.5 * (w_hat + w_hat.T), sums[1] + comps[1]


def _plain_solve(w_hat, d_hat):
    q = w_hat.shape[0]
    diag = np.diag(w_hat)
    if np.any(diag <= 0.0):
        warnings.warn("pinned", DegeneracyWarning)
    keep = diag > 0.0
    wk = w_hat[np.ix_(keep, keep)]
    scale = 1.0 / np.sqrt(np.diag(wk))
    lam, vec = np.linalg.eigh(wk * scale[:, None] * scale[None, :])
    cond = float(lam[-1] / lam[0]) if lam.size and lam[0] > 0.0 else float("inf")
    if not np.isfinite(cond) or cond > estimator.COND_MAX:
        raise SingularSystemError("singular")
    pi = np.zeros(q)
    pi[keep] = scale * (vec @ ((vec.T @ (scale * d_hat[keep])) / lam))
    return pi, cond


def _plain_factors(U, pi, kstar, c, base):
    p = U.shape[1]
    akk = np.zeros((kstar, kstar))
    akk[np.diag_indices(kstar)] = pi[:kstar]
    for slot, (i, j) in enumerate(pair_indices(p)):
        if j < kstar:
            akk[i, j] = akk[j, i] = pi[p - 1 + slot]
    expo = c * np.einsum("nk,kl,nl->n", U[:, :kstar], akk, U[:, :kstar])
    factors = np.exp(expo - expo.max())
    return factors if base is None else base * factors


def _plain_run(U, stats, cfg, base, pi_prev):
    c, p = cfg.c, U.shape[1]
    mask = np.zeros(q_dim(p), dtype=bool)
    mask[:cfg.kstar] = True
    for slot, (i, j) in enumerate(pair_indices(p)):
        mask[p - 1 + slot] = j < cfg.kstar
    if pi_prev is None:
        pi_prev, cond = _plain_solve(*_plain_assemble(stats, base))
    trace, non_monotone, damped = [], 0, False
    for iteration in range(1, cfg.max_iter + 1):
        eff = _plain_factors(U, pi_prev, cfg.kstar, c, base)
        pi_tilde, cond = _plain_solve(*_plain_assemble(stats, eff))
        pi_new = (pi_tilde + c * np.where(~mask, pi_prev, 0.0)) / (1.0 + c)
        if damped:
            pi_new = pi_prev + robust.DAMPING * (pi_new - pi_prev)
        rel = float(np.max(np.abs(pi_new - pi_prev))) / max(float(np.max(np.abs(pi_prev))), 1e-300)
        if trace and rel > trace[-1]:
            non_monotone += 1
            damped = damped or non_monotone >= robust.PATIENCE
        trace.append(rel)
        pi_prev = pi_new
        if rel <= cfg.tol:
            break
    else:
        raise NonConvergenceError("no convergence")
    eff = _plain_factors(U, pi_prev, cfg.kstar, c, base)
    w_fin, d_fin = _plain_assemble(stats, eff)
    h = np.where(mask, 1.0 + c, 1.0)
    residual = float(np.max(np.abs(w_fin @ (h * pi_prev) - d_fin)))
    return pi_prev, eff / eff.sum(), residual, cond, iteration


def _plain_fit(data, cfg, base=None):
    U = as_matrix(data)
    stats = score_stats(U)
    starts = [None] + list(robust._failover_inits(U, cfg))
    for restarts, start in enumerate(starts):
        try:
            return _plain_run(U, stats, cfg, base, start) + (restarts,)
        except (SingularSystemError, NonConvergenceError) as exc:
            error = exc
    raise error


def _zero_column_sample():
    U = np.random.default_rng(41).dirichlet((2.0, 3.0, 1.5, 2.5), size=200)
    U[:, 1] = 0.0
    return U / U.sum(axis=1, keepdims=True)


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", ["three-chunks", "two-roots", "c0-base", "c025-base",
                                  "zero-column"])
def test_fit_matches_the_plain_loop_bit_for_bit(case):
    base = None
    if case == "three-chunks":
        U = np.random.default_rng(40).dirichlet((2.0, 3.0, 1.5), size=9000)
        cfg = RobustConfig(c=0.5, kstar=2)
        assert len(U) > 2 * CHUNK
    elif case == "two-roots":
        U, cfg = two_root_sample(), RobustConfig(c=1.25, kstar=4)
    elif case in ("c0-base", "c025-base"):
        U = plain_draws(TEST_PARAMS, 400, np.random.SeedSequence(42))
        base = np.random.default_rng(42).uniform(0.2, 3.0, 400)
        cfg = RobustConfig(c=0.0 if case == "c0-base" else 0.25, kstar=2)
    else:
        U, cfg = _zero_column_sample(), RobustConfig(c=0.5, kstar=3)
    fit = fit_robust(U, cfg, base_weights=base)
    pi, weights, residual, cond, iterations, restarts = _plain_fit(U, cfg, base)
    assert fit.pi_hat.pi.tobytes() == pi.tobytes()
    assert fit.final_weights.tobytes() == weights.tobytes()
    assert (fit.residual, fit.condition_number) == (residual, cond)
    assert (fit.iterations, fit.restarts) == (iterations, restarts)
    if case == "two-roots":
        assert restarts == 2
    if case == "zero-column":
        assert pi[1] == 0.0 and fit.iterations > 1
