import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eigh_solve_ref, equilibrated_ref, naive_blocks, plain_draws, study_rows
from rppi.errors import DegeneracyWarning, SingularSystemError
import rppi.estimator as estimator
from rppi.estimator import COND_MAX, assemble, condition_number, score_stats, solve_system
from rppi.model import CountDataset, RPPIParams, pack, param_labels, proportions, q_dim
from rppi.robust import RobustConfig, fit_robust
from rppi.suffstats import d1_batch, r_matrix_batch, s_matrix_batch


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]], beta=[-0.3, 0.2, 0.0])


def plain_fit(U):
    """The unweighted fit: the one fit path at c = 0."""
    return fit_robust(U, RobustConfig(c=0.0, kstar=U.shape[1] - 1))


def test_assemble_matches_naive_accumulation():
    rng = np.random.default_rng(21)
    U = rng.dirichlet((2.0, 3.0, 1.5, 1.0), size=300)
    for weights in (None, rng.uniform(0.1, 2.0, size=300)):
        W_ref, d_ref = naive_blocks(U, weights=weights, beta_p=0.1)
        w = None if weights is None else weights / weights.sum()
        W, d = assemble(score_stats(U, 0.1), w)
        assert np.abs(W - W_ref).max() < 1e-12
        assert np.abs(d - d_ref).max() < 1e-12


def test_assemble_is_chunk_clean_and_repeatable():
    rng = np.random.default_rng(22)
    U = rng.dirichlet((2.0, 1.0, 1.0), size=4100)  # crosses the chunk size
    W_ref, d_ref = naive_blocks(U)
    W1, d1 = assemble(score_stats(U))
    W2, d2 = assemble(score_stats(U))
    assert np.abs(W1 - W_ref).max() < 1e-12
    assert W1.tobytes() == W2.tobytes() and d1.tobytes() == d2.tobytes()


def _reduction_rows(p, rng):
    """Dataset-2 rows (one sim7 replicate) at p = 5; at every p, rows near
    vertex 1 and zero-heavy rows, whose scales span many decades."""
    zeros = rng.dirichlet(np.full(p, 0.5), size=100)
    zeros[rng.random(zeros.shape) < 0.5] = 0.0
    zeros[:, -1] += 0.05
    parts = [rng.dirichlet(np.r_[5000.0, np.ones(p - 1)], size=100),
             zeros / zeros.sum(axis=1, keepdims=True)]
    if p == 5:
        parts.append(study_rows("sim7", 3, 0)[1])
    return np.vstack(parts)


@pytest.mark.parametrize("p", [3, 5, 9])
def test_assemble_is_within_a_derived_bound_of_the_exactly_rounded_sums(monkeypatch, p):
    monkeypatch.setattr(estimator, "CHUNK", 64)  # several chunks at these n
    rng = np.random.default_rng(24 + p)
    U = _reduction_rows(p, rng)
    n, q = U.shape[0], q_dim(p)
    w = np.exp(3.0 * rng.normal(size=n))
    w /= w.sum()
    stats = score_stats(U, 0.2)
    W, d = assemble(stats, w)
    assert np.array_equal(W, W.T)
    rows, cols = np.triu_indices(q)
    got = np.concatenate([W[rows, cols], d])
    terms = w[:, None] * stats.block
    exact = np.array([math.fsum(column) for column in terms.T])
    # every product passes through at most n additions, within its chunk and
    # among the chunk sums, so the sum is within gamma_n = n u / (1 - n u) of
    # sum |w_i x_i|, u = eps / 2; one more u rounds the reference
    u = np.finfo(float).eps / 2.0
    bound = (n + 1) * u / (1.0 - (n + 1) * u) * np.abs(terms).sum(axis=0)
    assert np.all(np.abs(got - exact) <= bound)

    # residuals against R (R' x) - d1 from the kernels: both sum the same
    # d q products R_aj R_bj x_b, each within gamma_{d+q} of |R| (|R|' |x|),
    # and the difference with d1 is rounded once more
    R = r_matrix_batch(U)
    d1 = d1_batch(U, R, s_matrix_batch(U), 0.2)
    x = rng.normal(size=q) * np.exp(rng.normal(size=q))
    want = np.einsum("nqj,nj->nq", R, np.einsum("nqj,q->nj", R, x)) - d1
    size = np.einsum("nqj,nj->nq", np.abs(R), np.einsum("nqj,q->nj", np.abs(R), np.abs(x)))
    k = (p - 1) + q + 2
    tol = 2.0 * k * u / (1.0 - k * u) * (size + np.abs(d1))
    assert np.all(np.abs(estimator.residuals(stats, x) - want) <= tol)


def test_score_stats_memory_is_its_cache_plus_bounded_blocks():
    # p = 17: the cache of 1,000 rows is 8 n q (q + 3) / 2 bytes (94 MB at
    # q = 152), and the kernels' blocks add at most a few BLOCK_BYTES
    U = np.random.default_rng(30).dirichlet(np.full(17, 2.0), 1000)
    q = q_dim(17)
    cache = 8 * U.shape[0] * q * (q + 3) // 2
    tracemalloc.start()
    try:
        stats = score_stats(U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.block.nbytes == cache
    assert peak < 1.2 * cache


def test_score_stats_evaluates_exactly_the_rows_it_is_given(monkeypatch):
    rng = np.random.default_rng(29)
    U = rng.dirichlet((2.0, 1.0, 1.5, 3.0), size=200)
    # some rows change in their last bits when normalized again
    assert np.any(U / U.sum(axis=1, keepdims=True) != U)
    seen = []

    def spy(kernel):
        def wrapper(rows):
            seen.append(rows.copy())
            return kernel(rows)
        return wrapper

    monkeypatch.setattr(estimator, "r_matrix_batch", spy(estimator.r_matrix_batch))
    monkeypatch.setattr(estimator, "s_matrix_batch", spy(estimator.s_matrix_batch))
    score_stats(U)
    assert len(seen) == 2
    assert all(np.array_equal(rows, U) for rows in seen)


def test_solve_system_recovers_a_manufactured_solution():
    rng = np.random.default_rng(23)
    q = q_dim(4)
    B = rng.normal(size=(q, q))
    W = B @ B.T + 0.5 * np.eye(q)
    target = rng.normal(size=q)
    d = W @ target
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)  # nothing is pinned
        pi = solve_system(W, d)
    assert np.abs(pi - target).max() < 1e-9
    assert condition_number(W) >= 1.0
    assert np.abs(W @ pi - d).max() < 1e-12 * np.abs(d).max()


def test_solve_system_survives_wild_scale_disparity():
    # entries spanning ~8 orders of magnitude must equilibrate cleanly
    rng = np.random.default_rng(24)
    q = 5
    scales = np.array([1e4, 1e4, 1e4, 1.0, 1.0])
    B = rng.normal(size=(q, q))
    W = scales[:, None] * (B @ B.T + np.eye(q)) * scales[None, :]
    target = rng.normal(size=q) / scales
    pi = solve_system(W, W @ target)
    assert np.abs((pi - target) / target).max() < 1e-8
    assert condition_number(W) < 1e3  # that of the equilibrated system


def test_condition_number_reports_the_2_norm_condition_number():
    rng = np.random.default_rng(30)
    for _ in range(50):
        q = int(rng.integers(2, 20))
        B = rng.normal(size=(q, q))
        scales = 10.0 ** rng.uniform(-4.0, 4.0, size=q)
        core = B @ B.T + rng.uniform(1e-3, 1.0) * np.eye(q)
        W = scales[:, None] * core * scales[None, :]
        s = 1.0 / np.sqrt(np.diag(W))
        want = np.linalg.cond(W * s[:, None] * s[None, :])
        assert want < 1e6
        assert condition_number(W) == pytest.approx(want, rel=1e-8)


def test_solve_system_pins_vanished_coordinates():
    rng = np.random.default_rng(25)
    q = q_dim(3)
    B = rng.normal(size=(q, q))
    W = B @ B.T + np.eye(q)
    W[2, :] = 0.0
    W[:, 2] = 0.0
    d = W @ rng.normal(size=q)
    with pytest.warns(DegeneracyWarning) as caught:
        pi = solve_system(W, d)
    assert len(caught) == 1
    assert str(caught[0].message).startswith(f"statistics for {param_labels(3)[2]} vanish")
    assert pi[2] == 0.0


def test_solve_system_raises_on_numerically_singular_input():
    v = np.arange(1.0, 6.0)
    W = np.outer(v, v) + 1e-16 * np.eye(5)
    with pytest.raises(SingularSystemError):
        solve_system(W, v)
    with pytest.raises(SingularSystemError):
        condition_number(W)


def spd_with_condition(seed, q, log_cond):
    """A random symmetric positive definite matrix of size q whose
    equilibrated condition number is about 10**log_cond, under a random
    diagonal scaling over eight orders of magnitude."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(q, q)))
    lam = np.logspace(-log_cond, 0.0, q)
    core = (basis * lam) @ basis.T
    s = 1.0 / np.sqrt(np.diag(core))
    core = 0.5 * (core + core.T) * s[:, None] * s[None, :]
    scales = 10.0 ** rng.uniform(-4.0, 4.0, size=q)
    return scales[:, None] * core * scales[None, :], rng


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(2, 20),
       log_cond=st.floats(8.0, 14.0))
def test_a_pivot_rejection_implies_a_condition_number_over_cond_max(seed, q, log_cond):
    # The equilibrated matrix has a unit diagonal, so its largest
    # eigenvalue is at least 1 and its smallest at most every Cholesky
    # pivot: a pivot under 1 / COND_MAX means a condition number over
    # COND_MAX.  Below it, the LU solve agrees with the eigen-solve to
    # within what either's rounding allows.
    W, rng = spd_with_condition(seed, q, log_cond)
    d = W @ rng.normal(size=q)
    try:
        pi = solve_system(W, d)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            condition_number(W)
        return
    try:
        cond = condition_number(W)
    except SingularSystemError:
        return
    assert cond <= COND_MAX
    ref, ref_cond = eigh_solve_ref(W, d)
    assert cond == ref_cond
    scale = 1.0 / equilibrated_ref(W)[1]  # compare in the equilibrated coordinates
    assert (np.linalg.norm(scale * (pi - ref))
            <= cond * 1e-14 * np.linalg.norm(scale * ref))


@pytest.mark.parametrize("ridge", [-5.0, -1e-300, float("nan"), float("inf")])
def test_solve_system_rejects_a_negative_or_non_finite_ridge(ridge):
    # a skipped ridge would give the ridge-0 answer under another name
    W = np.eye(5) + 0.1
    with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
        solve_system(W, np.ones(5), ridge=ridge)
    with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
        condition_number(W, ridge=ridge)
    U = plain_draws(RPPIParams(a_l=-np.eye(2), beta=np.zeros(3)), 50,
                    np.random.SeedSequence(26))
    for c in (0.0, 0.5):
        with pytest.raises(ValueError, match="ridge"):
            fit_robust(U, RobustConfig(c=c, kstar=2), ridge=ridge)


def test_fit_recovers_truth_on_large_samples():
    U = plain_draws(TEST_PARAMS, 40_000, np.random.SeedSequence(26))
    fit = plain_fit(U)
    pi0 = pack(TEST_PARAMS).pi
    rel = np.abs(fit.pi_hat.pi - pi0) / np.maximum(np.abs(pi0), 1.0)
    assert rel.max() < 0.15
    assert fit.params is not None
    assert fit.n_obs == 40_000
    assert fit.residual < 1e-10 * np.abs(fit.d_hat).max()


def test_fit_keeps_vector_but_drops_params_outside_the_space():
    # a near-degenerate cluster drives some 1 + beta below zero
    rng = np.random.default_rng(27)
    spike = np.tile([0.4, 0.3, 0.2, 0.1, 0.0], (5, 1))
    bulk = rng.dirichlet((0.05, 0.05, 0.1, 0.3, 12.0), size=89)
    U = np.vstack([spike, bulk])
    U = U / U.sum(axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        fit = plain_fit(U)
    assert np.all(np.isfinite(fit.pi_hat.pi))
    beta_block = fit.pi_hat.pi[-4:] - 1.0
    if np.any(beta_block <= -1.0):
        assert fit.params is None


def test_fit_from_counts_goes_through_proportions():
    rng = np.random.default_rng(28)
    counts = rng.multinomial(500, [0.2, 0.3, 0.5], size=400)
    counts[0] = (0, 250, 250)  # zeros are data here, not errors
    fit = plain_fit(proportions(CountDataset(counts)))
    assert np.all(np.isfinite(fit.pi_hat.pi))
    assert fit.n_obs == 400
