import numpy as np

from oracles import fd_stat_jacobian, fd_stat_second, packed_stat_ref
from rppi.estimator import residuals, score_stats
from rppi.model import pair_indices, q_dim
from rppi.suffstats import r_matrix_batch, s_matrix_batch, suff_t_a_batch


def interior_points(rng, p, n):
    return rng.dirichlet(np.full(p, 1.5), size=n)


def test_suff_t_matches_definition():
    # with K the whole non-reference block, t_a is the quadratic part of t
    rng = np.random.default_rng(10)
    for p in (3, 4, 5, 6):
        U = interior_points(rng, p, 5)
        d = p - 1
        Ta = suff_t_a_batch(U, d)
        for i, u in enumerate(U):
            assert np.allclose(Ta[i, :-d], packed_stat_ref(u)[:-d], atol=1e-14)
        assert np.all(Ta[:, -d:] == 0.0)


def test_kernels_evaluate_exactly_the_rows_they_are_given():
    rng = np.random.default_rng(17)
    U = rng.dirichlet((2.0, 1.0, 1.5, 3.0), size=200)
    # some rows change in their last bits when normalized again
    assert np.any(U / U.sum(axis=1, keepdims=True) != U)
    d = 3
    q = q_dim(4)
    V = U[:, :d]
    step = np.eye(d)[None, :, :] - V[:, None, :]
    curv = (V * (1.0 - V))[:, None, :]
    R = r_matrix_batch(U)
    S = s_matrix_batch(U)
    assert np.array_equal(R[:, :d], 2.0 * (V * V)[:, :, None] * step)
    assert np.array_equal(R[:, q - d:], step)
    assert np.array_equal(S[:, q - d:], np.broadcast_to(-curv, (200, d, d)))


def test_r_matrix_matches_finite_differences():
    rng = np.random.default_rng(11)
    for p in (3, 4, 5):
        U = interior_points(rng, p, 8)
        R = r_matrix_batch(U)
        assert R.shape == (8, q_dim(p), p - 1)
        for i, u in enumerate(U):
            assert np.abs(R[i] - fd_stat_jacobian(u)).max() < 1e-7


def test_s_matrix_matches_finite_differences():
    rng = np.random.default_rng(12)
    for p in (3, 4, 5):
        U = interior_points(rng, p, 8)
        S = s_matrix_batch(U)
        for i, u in enumerate(U):
            assert np.abs(S[i] - fd_stat_second(u)).max() < 1e-5


def test_polynomial_forms_are_finite_on_the_boundary():
    U = np.array([[0.0, 0.4, 0.6], [0.0, 0.0, 1.0]])
    assert np.all(np.isfinite(r_matrix_batch(U)))
    assert np.all(np.isfinite(s_matrix_batch(U)))


def test_batch_versions_stack_the_single_ones():
    rng = np.random.default_rng(13)
    U = interior_points(rng, 4, 20)
    Rb = r_matrix_batch(U)
    Sb = s_matrix_batch(U)
    for i in range(U.shape[0]):
        row = U[i:i + 1]
        assert np.array_equal(Rb[i], r_matrix_batch(row)[0])
        assert np.array_equal(Sb[i], s_matrix_batch(row)[0])


def test_masked_statistic_zeroes_everything_outside_kk():
    rng = np.random.default_rng(14)
    U = interior_points(rng, 5, 6)
    kstar = 2
    Ta = suff_t_a_batch(U, kstar)
    T = np.array([packed_stat_ref(u) for u in U])
    d = 4
    # diagonal entries: first kstar live, rest zero
    assert np.array_equal(Ta[:, :kstar], T[:, :kstar])
    assert np.all(Ta[:, kstar:d] == 0.0)
    # log block always zero
    assert np.all(Ta[:, -d:] == 0.0)
    # pair entries live only when both indices sit inside K
    for col, (i, j) in enumerate(pair_indices(5)):
        got = Ta[:, d + col]
        if i < kstar and j < kstar:
            assert np.array_equal(got, T[:, d + col])
        else:
            assert np.all(got == 0.0)
    assert np.array_equal(suff_t_a_batch(U[:1], kstar)[0], Ta[0])


def test_score_blocks_shapes_and_symmetry():
    rng = np.random.default_rng(15)
    U = interior_points(rng, 4, 3)
    q = q_dim(4)
    stats = score_stats(U)
    E = residuals(stats, np.ones(q))
    assert stats.r.shape == (q, 3 * 3)
    assert E.shape == (3, q)
    for i in range(3):
        r = stats.r[:, 3 * i:3 * i + 3]
        # W1 = sum_j R[:, j] R[:, j]' is positive semidefinite
        assert np.linalg.eigvalsh(r @ r.T).min() > -1e-12


def test_score_blocks_match_their_construction():
    rng = np.random.default_rng(16)
    U = interior_points(rng, 4, 12)
    x = rng.normal(size=q_dim(4))
    stats = score_stats(U, beta_p=0.3)
    E = residuals(stats, x)
    R = r_matrix_batch(U)
    assert np.array_equal(stats.r, R.transpose(1, 0, 2).reshape(q_dim(4), -1))
    assert np.array_equal(residuals(stats, x, 5, 9), E[5:9])
    Sb = s_matrix_batch(U)
    for i in range(U.shape[0]):
        W1 = R[i] @ R[i].T
        d1 = 1.3 * (R[i] @ U[i, :-1]) - Sb[i].sum(axis=1)
        assert np.allclose(E[i], W1 @ x - d1, rtol=1e-12, atol=1e-13)
