import numpy as np

from oracles import fd_stat_jacobian, fd_stat_second, rs_blocks_ref
from rppi.estimator import residuals, score_stats
from rppi.model import q_dim
from rppi.suffstats import r_matrix_batch, s_matrix_batch


def interior_points(rng, p, n):
    return rng.dirichlet(np.full(p, 1.5), size=n)


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


def test_kernels_are_the_three_block_loops_byte_for_byte():
    # one A_L formula t_ij (delta_i + delta_j - 2u) rounds as the
    # separate diagonal and pair forms do: it only moves factors of two
    rng = np.random.default_rng(18)
    for p in range(3, 18):
        interior = rng.dirichlet(10.0 ** rng.uniform(-2, 3, size=p), size=4)
        zeros = rng.dirichlet(np.full(p, 1.5), size=4)
        zeros[rng.random(zeros.shape) < 0.3] = 0.0
        zeros[:, 0] += 0.1  # no all-zero row
        vertex = rng.dirichlet(np.r_[5000.0, np.ones(p - 1)], size=4)
        tiny = rng.dirichlet(np.full(p, 0.01), size=4)  # entries far below 1e-150
        for U in (interior, zeros / zeros.sum(axis=1, keepdims=True), vertex, tiny):
            R, S = r_matrix_batch(U), s_matrix_batch(U)
            for i, u in enumerate(U):
                R_ref, S_ref = rs_blocks_ref(u)
                assert R[i].tobytes() == R_ref.tobytes(), (p, i)
                assert S[i].tobytes() == S_ref.tobytes(), (p, i)


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
