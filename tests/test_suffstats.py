import numpy as np
import pytest

from oracles import fd_stat_jacobian, fd_stat_second, packed_stat_ref
from rppi.errors import ZeroComponentError
from rppi.model import q_dim
from rppi.suffstats import (
    r_matrix_batch,
    s_matrix_batch,
    score_blocks_batch,
    suff_t_a_batch,
    suff_t_batch,
)


def interior_points(rng, p, n):
    return rng.dirichlet(np.full(p, 1.5), size=n)


def test_suff_t_matches_definition():
    rng = np.random.default_rng(10)
    for p in (3, 4, 5, 6):
        U = interior_points(rng, p, 5)
        T = suff_t_batch(U)
        for i, u in enumerate(U):
            assert np.allclose(T[i], packed_stat_ref(u), atol=1e-14)


def test_suff_t_rejects_zero_in_leading_block():
    with pytest.raises(ZeroComponentError):
        suff_t_batch(np.array([[0.2, 0.3, 0.5], [0.0, 0.5, 0.5]]))


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
    Tb = suff_t_batch(U)
    for i in range(U.shape[0]):
        row = U[i:i + 1]
        assert np.array_equal(Rb[i], r_matrix_batch(row)[0])
        assert np.array_equal(Sb[i], s_matrix_batch(row)[0])
        assert np.array_equal(Tb[i], suff_t_batch(row)[0])


def test_masked_statistic_zeroes_everything_outside_kk():
    rng = np.random.default_rng(14)
    U = interior_points(rng, 5, 6)
    kstar = 2
    Ta = suff_t_a_batch(U, kstar)
    T = suff_t_batch(U)
    d = 4
    # diagonal entries: first kstar live, rest zero
    assert np.array_equal(Ta[:, :kstar], T[:, :kstar])
    assert np.all(Ta[:, kstar:d] == 0.0)
    # log block always zero
    assert np.all(Ta[:, -d:] == 0.0)
    # pair entries live only when both indices sit inside K
    from rppi.model import pair_indices
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
    W1, D1 = score_blocks_batch(U)
    q = q_dim(4)
    assert W1.shape == (3, q, q)
    assert D1.shape == (3, q)
    for w1 in W1:
        assert np.allclose(w1, w1.T)
        # W1 = sum_j R[:, j] R[:, j]' is positive semidefinite
        assert np.linalg.eigvalsh(w1).min() > -1e-12


def test_score_blocks_match_their_construction():
    rng = np.random.default_rng(16)
    U = interior_points(rng, 4, 12)
    W1, D1 = score_blocks_batch(U, beta_p=0.3)
    Rb = r_matrix_batch(U)
    Sb = s_matrix_batch(U)
    for i in range(U.shape[0]):
        R = Rb[i]
        S = Sb[i]
        assert np.allclose(W1[i], R @ R.T, atol=1e-14)
        want = 1.3 * (R @ U[i, :-1]) - S.sum(axis=1)
        assert np.allclose(D1[i], want, atol=1e-13)
