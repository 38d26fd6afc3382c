import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (averaged_map_fit, eigh_solve_ref, equilibrated_ref, packed_stat_ref,
                     plain_draws, study_rows)
import rppi.estimator as estimator
import rppi.robust as robust
from rppi.errors import (DegeneracyWarning, DimensionError, NonConvergenceError,
                         SingularSystemError, WeightError)
from rppi.estimator import CHUNK, assemble, condition_number, score_stats, solve_system
from rppi.inference import influence
from rppi.model import RPPIParams, a_slots, as_matrix, pack, q_dim
from rppi.robust import PreparedData, RobustConfig, fit_robust, kk_statistic, tilt
from rppi.sampling import contaminate, rng_from, sample_rppi, spawn_seeds
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


def test_tilt_scales_the_akk_block_alone():
    h = tilt(5, 2, 0.5)
    # for kstar=2 exactly a_11, a_22 and a_12 live in the block
    labels = np.array(pack(dataset2_truth()).labels)
    assert sorted(labels[h != 1.0]) == ["a_11", "a_12", "a_22"]
    assert np.all(h[h != 1.0] == 1.5)


def test_suff_t_matches_definition():
    # with K the whole non-reference block, t_a is the quadratic part of t
    rng = np.random.default_rng(10)
    for p in (3, 4, 5, 6):
        U = rng.dirichlet(np.full(p, 1.5), size=5)
        d = p - 1
        Ta = kk_statistic(U, d)
        for i, u in enumerate(U):
            assert np.allclose(Ta[i, :-d], packed_stat_ref(u)[:-d], atol=1e-14)
        assert np.all(Ta[:, -d:] == 0.0)


def test_masked_statistic_zeroes_everything_outside_kk():
    rng = np.random.default_rng(14)
    U = rng.dirichlet(np.full(5, 1.5), size=6)
    kstar = 2
    Ta = kk_statistic(U, kstar)
    T = np.array([packed_stat_ref(u) for u in U])
    d = 4
    # diagonal entries: first kstar live, rest zero
    assert np.array_equal(Ta[:, :kstar], T[:, :kstar])
    assert np.all(Ta[:, kstar:d] == 0.0)
    # log block always zero
    assert np.all(Ta[:, -d:] == 0.0)
    # pair entries live only when both indices sit inside K
    for col, (i, j) in enumerate(combinations(range(d), 2)):
        got = Ta[:, d + col]
        if i < kstar and j < kstar:
            assert np.array_equal(got, T[:, d + col])
        else:
            assert np.all(got == 0.0)
    assert np.array_equal(kk_statistic(U[:1], kstar)[0], Ta[0])
    # c t_a(u)' pi is the weight exponent c u_K' A_KK u_K
    pi = rng.normal(size=q_dim(5))
    akk = pi[a_slots(5)[2][:kstar, :kstar]]
    quadratic = np.einsum("nk,kl,nl->n", U[:, :kstar], akk, U[:, :kstar])
    assert np.allclose(robust.weight_exponents(Ta, pi, 0.7), 0.7 * quadratic,
                       rtol=1e-12, atol=1e-14)


def test_kstar_out_of_range_is_rejected():
    rng = np.random.default_rng(31)
    U = rng.dirichlet((2.0, 2.0, 2.0), size=50)
    with pytest.raises(DimensionError):
        fit_robust(U, RobustConfig(c=0.5, kstar=4))


def test_c_zero_reduces_to_the_unweighted_fit_bitwise():
    U = plain_draws(TEST_PARAMS, 500, np.random.SeedSequence(32))
    plain = solve_system(*assemble(score_stats(as_matrix(U))))
    rob = fit_robust(U, RobustConfig(c=0.0, kstar=2))
    assert rob.pi_hat.pi.tobytes() == plain.tobytes()
    assert rob.iterations == 1 and rob.restarts == 0


def spy_calls(monkeypatch, *names):
    """A list that records the name of every later call made through
    these rppi.robust attributes."""
    calls = []

    def spying(name):
        fn = getattr(robust, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spy

    for name in names:
        monkeypatch.setattr(robust, name, spying(name))
    return calls


@pytest.mark.parametrize("prepared", [False, True])
def test_c_zero_assembles_and_solves_once(monkeypatch, prepared):
    U = plain_draws(TEST_PARAMS, 300, np.random.SeedSequence(32))
    data = PreparedData(U) if prepared else U
    calls = spy_calls(monkeypatch, "assemble", "solve_system")
    fit_robust(data, RobustConfig(c=0.0, kstar=2))
    assert calls == ["assemble", "solve_system"]


def test_converged_fit_satisfies_the_weighted_equation():
    U = plain_draws(TEST_PARAMS, 800, np.random.SeedSequence(34))
    cfg = RobustConfig(c=0.7, kstar=2)
    fit = fit_robust(U, cfg)
    # recompute the equation pieces independently of the fit loop
    uk = U[:, :2]
    w = np.exp(cfg.c * np.einsum("nk,kl,nl->n", uk, fit.params.a_l[:2, :2], uk))
    W, d = assemble(score_stats(U), w / w.sum())
    h = tilt(3, 2, cfg.c)
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
    assert "Anderson steps began never" in str(err.value)


def test_nonconvergence_names_where_acceleration_began():
    U = as_matrix(plain_draws(TEST_PARAMS, 800, np.random.SeedSequence(34)))
    cfg = RobustConfig(c=0.7, kstar=2)
    fit = fit_robust(U, cfg)
    assert fit.restarts == 0 and fit.accelerated_steps > 0
    capped = RobustConfig(c=0.7, kstar=2, max_iter=fit.iterations - 1)
    with pytest.raises(NonConvergenceError) as err:
        robust._iterate(PreparedData(U), capped, tilt(3, 2, capped.c), None, 0.0, 0)
    switch = 1 + next(i for i, rel in enumerate(err.value.trace) if rel < robust.SWITCH)
    assert f"Anderson steps began after iteration {switch})" in str(err.value)


def test_a_nan_parameter_is_a_weight_error_in_the_fit_and_in_influence():
    # both weigh their rows through robust.normalized_weights, which checks
    # the weights' sum; past it, NaN weights would reach a solve
    U = as_matrix(plain_draws(TEST_PARAMS, 200, np.random.SeedSequence(35)))
    nan = np.full(q_dim(3), np.nan)
    message = "^weights have non-finite entries$"
    with pytest.raises(WeightError, match=message):
        robust._iterate(PreparedData(U), RobustConfig(c=0.5, kstar=2), tilt(3, 2, 0.5),
                        nan, 0.0, 0)
    with pytest.raises(WeightError, match=message):
        influence(U[:3], nan, U, c=0.5, kstar=2)


def test_explicit_init_is_honored():
    # started at a fit's estimate, the loop evaluates it, finds it
    # converged and returns it, with the diagnostics of that evaluation
    U = plain_draws(TEST_PARAMS, 600, np.random.SeedSequence(36))
    cfg = RobustConfig(c=0.5, kstar=2)
    ref = fit_robust(U, cfg)
    warm = fit_robust(U, cfg, init=ref.pi_hat)
    assert warm.pi_hat.pi.tobytes() == ref.pi_hat.pi.tobytes()
    assert (warm.iterations, warm.restarts, warm.accelerated_steps) == (1, 0, 0)
    assert warm.final_weights.tobytes() == ref.final_weights.tobytes()
    assert (warm.residual, warm.condition_number) == (ref.residual, ref.condition_number)


def test_weighted_fit_assembles_once_per_iteration_and_not_after_its_loop(monkeypatch):
    # Each start is one _iterate call.  The default start's unweighted
    # system is assembled, checked by its eigenvalues and solved once per
    # PreparedData, inside the first start that takes it; then each
    # start's loop assembles and solves once per iteration, and its stop
    # point's system alone is checked by its eigenvalues.  The fit is
    # built from the last evaluation, with no assemble after the loop.
    truth, U = contaminated_sample()
    data = PreparedData(U)
    calls = spy_calls(monkeypatch, "solve_system", "condition_number", "_iterate")
    real_assemble = robust.assemble

    def assemble_spy(stats, weights=None):
        calls.append("assemble" if weights is not None else "unweighted assemble")
        return real_assemble(stats, weights)

    monkeypatch.setattr(robust, "assemble", assemble_spy)
    default_start = ["unweighted assemble", "condition_number", "solve_system"]
    for c, shared in ((0.5, default_start), (1.0, [])):
        calls.clear()
        fit = fit_robust(data, RobustConfig(c=c, kstar=4))
        starts = [i for i, name in enumerate(calls) if name == "_iterate"]
        assert starts[0] == 0 and len(starts) == fit.restarts + 1
        assert calls[1:1 + len(shared)] == shared
        for a, b in zip(starts, starts[1:] + [len(calls)]):
            loop = calls[a + 1 + (len(shared) if a == 0 else 0):b]
            if loop[-1] == "condition_number":  # a start that reached its stop point
                loop = loop[:-1]
            assert loop == ["assemble", "solve_system"] * (len(loop) // 2)
        assert calls[-1] == "condition_number"
        assert len(calls) - starts[-1] - 1 == 2 * fit.iterations + 1
        assert fit.restarts > 0


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


# The root the default start reaches on the sim7 sample below (33
# iterations of its third start, residual 2.4e-10).
ROOT = np.array([
    -1507.1896729698374, -10328.06144381779, -6942.102475071378,
    -264269.4008670999, -65862.33954684189, -9995.111141028163,
    -16699.242634039718, -13794.401231062422, 32816.979829058015,
    -57210.80777247753, 0.22657253626523133, 0.08987559874609258,
    0.4812321262099779, 0.7432510051946252,
])


def sim7_sample(seed, replicate):
    """Study sim7 rows of one replicate, built as study._replicate builds
    them."""
    scenario = preset_scenario("sim7", seed=seed, replicates=25)
    latent, _, contam = spawn_seeds(seed, 25)[replicate].spawn(3)
    U = plain_draws(scenario.truth, scenario.n, latent)
    return contaminate(U, scenario.contamination, np.asarray(scenario.outlier),
                       seed=contam)


def two_root_sample():
    return sim7_sample(3, 2)


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


# The reweighting loop written out plainly: full weight validation,
# plain sums from zeros over every chunk, the np.ix_ solve checked by its
# Cholesky pivots, eigenvalues only at the default start and the stop
# point, the A_KK statistic and H built by a loop, the step to
# pi_tilde / h, the c = 0 fit iterated like any other, and the Anderson
# step kept in separate lists.  fit_robust
# must match it bit for bit; without the Anderson step it is the plain
# fixed-point loop the fit ran before, whose roots the fit must keep, and
# with eigh_solve_ref as its solve it is the loop that checked every
# iteration's eigenvalues, whose roots and restarts the fit must keep too.

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
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        r = stats.r[:, start * d:stop * d]
        wc = w[start:stop]
        chunk = (np.einsum("qk,rk->qr", r, r * np.repeat(wc, d)),
                 np.einsum("n,nq->q", wc, stats.d1[start:stop]))
        sums = [sums[k] + chunk[k] for k in range(2)]
    return 0.5 * (sums[0] + sums[0].T), sums[1]


def _plain_solve(w_hat, d_hat):
    a, scale, keep = equilibrated_ref(w_hat)
    if not np.all(keep):
        warnings.warn("pinned", DegeneracyWarning)
    try:
        pivots = np.diag(np.linalg.cholesky(a)) ** 2
    except np.linalg.LinAlgError:
        raise SingularSystemError("not positive definite") from None
    if not (pivots.size and pivots.min() >= 1.0 / estimator.COND_MAX):
        raise SingularSystemError("singular")
    pi = np.zeros(keep.size)
    pi[keep] = scale * np.linalg.solve(a, scale * d_hat[keep])
    return pi


def _eigh_solve(w_hat, d_hat):
    return eigh_solve_ref(w_hat, d_hat)[0]


def _plain_statistic(U, kstar):
    p = U.shape[1]
    ta = np.zeros((U.shape[0], q_dim(p)))
    for i in range(kstar):
        ta[:, i] = U[:, i] * U[:, i]
    for slot, (i, j) in enumerate(combinations(range(p - 1), 2)):
        if j < kstar:
            ta[:, p - 1 + slot] = U[:, i] * U[:, j] * 2.0
    return ta


def _plain_factors(ta, pi, c):
    expo = c * np.einsum("nq,q->n", ta, pi)
    return np.exp(expo - expo.max())


def _plain_run(U, stats, cfg, pi_prev, accelerate=True, solve=_plain_solve):
    c, p = cfg.c, U.shape[1]
    ta = _plain_statistic(U, cfg.kstar)
    mask = np.zeros(q_dim(p), dtype=bool)
    mask[:cfg.kstar] = True
    for slot, (i, j) in enumerate(combinations(range(p - 1), 2)):
        mask[p - 1 + slot] = j < cfg.kstar
    if pi_prev is None:
        w_0, d_0 = _plain_assemble(stats, None)
        eigh_solve_ref(w_0, d_0)  # the default start's eigenvalues are checked
        pi_prev = solve(w_0, d_0)
    trace, non_monotone, damped = [], 0, False
    # since the last reset, plain steps before the switch included: each
    # step's change f, its plain update g and max |f|; came_from holds the
    # plain update and max |f| of the step an extrapolated point was built from
    accelerating, fs, gs, norms, came_from = False, [], [], [], None
    kept = rejected = resets = 0
    h = np.where(mask, 1.0 + c, 1.0)
    for iteration in range(1, cfg.max_iter + 1):
        eff = _plain_factors(ta, pi_prev, c)
        w_it, d_it = _plain_assemble(stats, eff)
        pi_tilde = solve(w_it, d_it)
        pi_new = pi_tilde / h
        if damped:
            pi_new = pi_prev + robust.DAMPING * (pi_new - pi_prev)
        rel = float(np.max(np.abs(pi_new - pi_prev))) / max(float(np.max(np.abs(pi_prev))), 1e-300)
        if trace and rel > trace[-1]:
            non_monotone += 1
            damped = damped or non_monotone >= robust.PATIENCE
        trace.append(rel)
        if rel <= cfg.tol and not accelerate:
            pi_prev = pi_new
            break
        # accelerated, the loop stops only at a point it evaluated, where
        # the weighted equation's residual is also small once Anderson
        # steps have begun
        equation = float(np.max(np.abs(w_it @ (h * pi_prev) - d_it)))
        if rel <= cfg.tol and (not accelerating
                               or equation < robust.RESIDUAL * float(np.max(np.abs(d_it)))):
            kept += came_from is not None
            break
        accelerating = accelerate and (accelerating or rel < robust.SWITCH)
        f = pi_new - pi_prev
        norm = float(np.max(np.abs(f)))
        if came_from is not None and norm > came_from[1]:
            pi_prev, came_from, fs, gs, norms = came_from[0], None, [], [], []
            rejected += 1
            continue
        kept += came_from is not None
        if norms and norm > norms[-1]:
            fs, gs, norms = [], [], []
            resets += accelerating
        keep = robust.DEPTH + 1
        fs, gs, norms = (fs + [f])[-keep:], (gs + [pi_new])[-keep:], (norms + [norm])[-keep:]
        if not accelerating or len(fs) == 1:
            pi_prev, came_from = pi_new, None
            continue
        # one difference per row, then transposed: the loop's memory layout,
        # which the matrix-vector product's last bits depend on
        df = np.array([fs[k + 1] - fs[k] for k in range(len(fs) - 1)]).T
        dg = np.array([gs[k + 1] - gs[k] for k in range(len(gs) - 1)]).T
        gamma = np.linalg.lstsq(df, f, rcond=None)[0]
        pi_prev, came_from = pi_new - dg @ gamma, (pi_new, norm)
    else:
        raise NonConvergenceError("no convergence")
    eff = _plain_factors(ta, pi_prev, c)
    w_fin, d_fin = _plain_assemble(stats, eff)
    residual = float(np.max(np.abs(w_fin @ (h * pi_prev) - d_fin)))
    cond = eigh_solve_ref(w_fin, d_fin)[1]  # the stop point's eigenvalues
    return pi_prev, eff / eff.sum(), residual, cond, iteration, (kept, rejected, resets)


def _plain_fit(data, cfg, accelerate=True, solve=_plain_solve):
    U = as_matrix(data)
    stats = score_stats(U)
    # the restart ladder of the rows as given: as_matrix normalizes them,
    # and a second normalization can move their last bits
    starts = [None] + list(robust._failover_inits(robust.PreparedData(data), cfg))
    for restarts, start in enumerate(starts):
        try:
            return _plain_run(U, stats, cfg, start, accelerate, solve) + (restarts,)
        except (SingularSystemError, NonConvergenceError) as exc:
            error = exc
    raise error


def _zero_column_sample():
    U = np.random.default_rng(41).dirichlet((2.0, 3.0, 1.5, 2.5), size=200)
    U[:, 1] = 0.0
    return U / U.sum(axis=1, keepdims=True)


def _loop_case(case):
    """(U, config) of one case the loop is checked on."""
    if case == "three-chunks":
        U = np.random.default_rng(40).dirichlet((2.0, 3.0, 1.5), size=9000)
        assert len(U) > 2 * CHUNK
        return U, RobustConfig(c=0.5, kstar=2)
    if case == "two-roots":
        return two_root_sample(), RobustConfig(c=1.25, kstar=4)
    if case == "reject-and-reset":
        return sim7_sample(6, 23), RobustConfig(c=1.25, kstar=4)
    if case in ("c0-base", "c025-base"):
        # baseline cases: plain draws fitted at c = 0 and at a small c
        U = plain_draws(TEST_PARAMS, 400, np.random.SeedSequence(42))
        return U, RobustConfig(c=0.0 if case == "c0-base" else 0.25, kstar=2)
    return _zero_column_sample(), RobustConfig(c=0.5, kstar=3)


LOOP_CASES = ["three-chunks", "two-roots", "reject-and-reset", "c0-base", "c025-base",
              "zero-column"]


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", LOOP_CASES)
def test_fit_matches_the_plain_loop_bit_for_bit(case):
    U, cfg = _loop_case(case)
    fit = fit_robust(U, cfg)
    pi, weights, residual, cond, iterations, steps, restarts = _plain_fit(U, cfg)
    kept, rejected, resets = steps
    assert fit.pi_hat.pi.tobytes() == pi.tobytes()
    assert fit.final_weights.tobytes() == weights.tobytes()
    assert (fit.residual, fit.condition_number) == (residual, cond)
    assert (fit.iterations, fit.restarts, fit.accelerated_steps) == (iterations, restarts, kept)
    if case == "two-roots":
        assert restarts == 2
    if case == "zero-column":
        assert pi[1] == 0.0 and fit.iterations > 1
    if case == "reject-and-reset":
        # the safeguard turns down an extrapolated point, and a grown
        # residual clears the history once after Anderson steps began
        assert (rejected, resets) == (1, 1)
    assert (kept > 0) == (cfg.c > 0.0)


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", LOOP_CASES)
def test_acceleration_keeps_the_fixed_point_loop_root(case):
    U, cfg = _loop_case(case)
    fit = fit_robust(U, cfg)
    pi, _, _, _, iterations, steps, restarts = _plain_fit(U, cfg, accelerate=False)
    assert steps == (0, 0, 0) and fit.restarts == restarts
    assert np.max(np.abs(fit.pi_hat.pi - pi)) <= 1e-6 * np.max(np.abs(pi))
    assert fit.iterations <= iterations


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", LOOP_CASES)
def test_pivot_checks_keep_the_roots_and_restarts_of_eigh_solves(case):
    # an iteration's solve rejects its system by Cholesky pivots alone,
    # and a start's returned system by its eigenvalues; the loop that
    # checked every iteration's eigenvalues reaches the same roots
    U, cfg = _loop_case(case)
    fit = fit_robust(U, cfg)
    pi, *_, restarts = _plain_fit(U, cfg, solve=_eigh_solve)
    assert fit.restarts == restarts
    assert np.max(np.abs(fit.pi_hat.pi - pi)) <= 1e-6 * np.max(np.abs(pi))


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", LOOP_CASES + [f"{name}-{seed}" for name in
                                               ("sim5", "sim6", "sim7", "sim8")
                                               for seed in (3, 4)])
def test_the_exact_map_keeps_the_averaged_map_roots_in_fewer_iterations(case):
    # the map pi_tilde / h and the averaged map of oracles.averaged_map_fit
    # share their fixed points: every fit keeps its failure and exception
    # type, or its restarts and root, and a case takes no more iterations
    if case in LOOP_CASES:
        U, cfg = _loop_case(case)
        fits = [(PreparedData(U), cfg)]
    else:
        name, seed = case.split("-")
        fits = []
        for replicate in range(5):
            scenario, u = study_rows(name, int(seed), replicate)
            data = PreparedData(u, float(scenario.truth.beta[-1]))
            fits += [(data, cfg) for _, cfg in scenario.estimators]
    exact = averaged = 0
    for data, cfg in fits:
        try:
            pi, iterations, restarts = averaged_map_fit(data, cfg)
        except (SingularSystemError, NonConvergenceError) as exc:
            with pytest.raises((SingularSystemError, NonConvergenceError)) as err:
                fit_robust(data, cfg)
            assert type(err.value) is type(exc)
            continue
        fit = fit_robust(data, cfg)
        assert fit.restarts == restarts
        assert np.max(np.abs(fit.pi_hat.pi - pi)) <= 1e-6 * np.max(np.abs(pi))
        exact, averaged = exact + fit.iterations, averaged + iterations
    assert exact <= averaged


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", ["three-chunks", "reject-and-reset", "c025-base"])
def test_a_tol_above_switch_stops_at_the_first_point_that_meets_it(case):
    # the stop rule is met before Anderson steps begin, so the loop
    # returns the first evaluated point whose step meets tol, after as
    # many iterations as the plain fixed-point loop takes
    U, cfg = _loop_case(case)
    cfg = replace(cfg, tol=1e-3)
    assert cfg.tol >= robust.SWITCH
    fit = fit_robust(U, cfg)
    pi, weights, residual, cond, iterations, steps, restarts = _plain_fit(U, cfg)
    assert fit.pi_hat.pi.tobytes() == pi.tobytes()
    assert fit.final_weights.tobytes() == weights.tobytes()
    assert (fit.residual, fit.condition_number) == (residual, cond)
    plain = _plain_fit(U, cfg, accelerate=False)
    assert (fit.iterations, fit.restarts) == (iterations, restarts) == (plain[4], plain[6])
    assert fit.accelerated_steps == 0 and steps == (0, 0, 0)


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("case", LOOP_CASES + ["ridge"])
def test_fit_diagnostics_are_those_of_its_estimate(case):
    # the weights, d_hat, residual and condition number of a fit are its
    # estimate's own, recomputed here bit for bit
    if case == "ridge":
        U, cfg = _loop_case("c025-base")
        ridge = 1e-4
    else:
        (U, cfg), ridge = _loop_case(case), 0.0
    fit = fit_robust(U, cfg, ridge=ridge)
    U = as_matrix(U)  # the rows the fit validated
    pi = fit.pi_hat.pi
    expo = robust.weight_exponents(kk_statistic(U, cfg.kstar), pi, cfg.c)
    eff = np.exp(expo - expo.max())
    weights = eff / eff.sum()
    w_hat, d_hat = assemble(score_stats(U), weights)
    cond = condition_number(w_hat, ridge=ridge)
    h = tilt(U.shape[1], cfg.kstar, cfg.c)
    residual = float(np.max(np.abs(w_hat @ (h * pi) - d_hat)))
    assert fit.final_weights.tobytes() == weights.tobytes()
    assert fit.d_hat.tobytes() == d_hat.tobytes()
    assert (fit.residual, fit.condition_number) == (residual, cond)


def sim8_sample():
    """Study sim8, seed 3, replicate 15, rows built as study._replicate
    builds them.  The rows come from the package's sampler, as the study
    draws them: the old loop in plain_draws gives another sample, on
    which the plain and the accelerated fit stop at the same rung."""
    scenario = preset_scenario("sim8", seed=3, replicates=25)
    latent, counts, contam = spawn_seeds(3, 25)[15].spawn(3)
    U, _ = sample_rppi(scenario.truth, scenario.n, seed=latent)
    x = rng_from(counts).multinomial(np.full(scenario.n, scenario.m), U)
    return contaminate(x / float(scenario.m), scenario.contamination,
                       np.asarray(scenario.outlier), seed=contam)


def test_weights_that_vanish_are_named_in_the_degeneracy_warning():
    # Study sim6, seed 3, replicate 2, rows built as study._replicate
    # builds them.  No column is all zero and the plain fit pins nothing,
    # but at c = 1.25 the weights underflow on every row but one, whose
    # zero statistics the weighted solves pin before the fit ends singular.
    scenario = preset_scenario("sim6", seed=3, replicates=25)
    latent, counts, _ = spawn_seeds(3, 25)[2].spawn(3)
    U, _ = sample_rppi(scenario.truth, scenario.n, seed=latent)
    x = rng_from(counts).multinomial(np.full(scenario.n, scenario.m), U)
    assert not np.any(np.all(x == 0, axis=0))
    data = PreparedData(x / float(scenario.m), float(scenario.truth.beta[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        fit_robust(data, RobustConfig(c=0.0, kstar=4))
    with pytest.warns(DegeneracyWarning) as caught:
        with pytest.raises(SingularSystemError, match="effective sample size .* is 1.0 of 94"):
            fit_robust(data, RobustConfig(c=1.25, kstar=4))
    assert len(caught) == 4
    for warning in caught:
        assert str(warning.message).endswith(
            "vanish: each row is zero in them or has zero weight; pinning them to zero")


def test_acceleration_lets_the_kappa_64_start_converge_on_sim8():
    # The plain loop fails the first two starts (singular) and runs the
    # kappa = 64 start out of its 500 iterations (NonConvergenceError:
    # each step shrinks the change by ~1%), so kappa = 1024 reaches a
    # root 0.78 relative away.  Accelerated, the kappa = 64 start
    # converges, to the root its plain steps reach after ~900 iterations.
    data = PreparedData(sim8_sample(), float(dataset2_truth().beta[-1]))
    cfg = RobustConfig(c=1.0, kstar=4)
    fit = fit_robust(data, cfg)
    assert fit.restarts == 2 and fit.accelerated_steps > 0
    assert fit.residual < 1e-6 * np.max(np.abs(fit.d_hat))
    # the same start run to a tighter tolerance shows the root it approaches
    tight = fit_robust(data, replace(cfg, tol=1e-14))
    assert tight.restarts == 2
    assert (np.max(np.abs(fit.pi_hat.pi - tight.pi_hat.pi))
            <= 1e-6 * np.max(np.abs(tight.pi_hat.pi)))
