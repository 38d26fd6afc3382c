import numpy as np
import pytest

from rppi.errors import DegenerateRowError, DimensionError
from rppi.model import (
    CountDataset,
    ParamVector,
    RPPIParams,
    a_slots,
    as_matrix,
    dim_from_q,
    pack,
    param_labels,
    proportions,
    q_dim,
    unpack,
)
from rppi.robust import tilt


def random_params(rng, p):
    d = p - 1
    B = rng.normal(size=(d, d))
    a_l = (B + B.T) / 2.0
    beta = np.append(rng.uniform(-0.9, 1.0, size=d), 0.0)
    return RPPIParams(a_l=a_l, beta=beta)


def test_q_dim_round_trip():
    for p in range(3, 12):
        assert dim_from_q(q_dim(p)) == p


def test_dim_from_q_rejects_lengths_that_fit_no_p():
    for bad in (1, 2, 3, 4, 6, 7, 8, 10, 13):
        with pytest.raises(DimensionError):
            dim_from_q(bad)


def test_a_slots_put_the_diagonal_first_then_the_pairs_in_lexicographic_order():
    row, col, slot = a_slots(4)
    assert list(zip(row, col)) == [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    pairs = list(zip(*a_slots(5)[:2]))[4:]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert np.array_equal(slot, [[0, 3, 4], [3, 1, 5], [4, 5, 2]])
    for a in (row, col, slot):
        assert not a.flags.writeable  # the cache hands them to every caller
    assert a_slots(4)[2] is slot


def test_layout_round_trips_and_labels_every_slot():
    rng = np.random.default_rng(43)
    for p in range(3, 18):
        d = p - 1
        row, col, slot = a_slots(p)
        labels = param_labels(p)
        assert len(set(labels)) == len(labels) == q_dim(p)
        # slot (i, j) holds a_{i+1}{j+1}, and slot[i, j] points back at it
        for s, (i, j) in enumerate(zip(row, col)):
            assert labels[s] == f"a_{i + 1}{j + 1}"
            assert slot[i, j] == slot[j, i] == s
        assert labels[row.size:] == [f"beta_{j + 1}" for j in range(d)]
        # A_L round-trips bit for bit; 1 + beta only through its own
        # rounding, (1 + beta) - 1 one way and (v - 1) + 1 the other
        params = random_params(rng, p)
        back = unpack(pack(params))
        assert back.a_l.tobytes() == params.a_l.tobytes()
        assert back.beta.tobytes() == np.append((1.0 + params.beta[:-1]) - 1.0, 0.0).tobytes()
        x = rng.normal(size=q_dim(p))
        x[-d:] = rng.uniform(0.1, 3.0, size=d)  # 1 + beta > 0
        again = pack(unpack(x)).pi
        assert again[:-d].tobytes() == x[:-d].tobytes()
        assert again[-d:].tobytes() == ((x[-d:] - 1.0) + 1.0).tobytes()
        for kstar in range(1, p):
            names = {f"a_{i + 1}{j + 1}" for i in range(kstar) for j in range(i, kstar)}
            assert np.array_equal(tilt(p, kstar, 1.0),
                                  [2.0 if lab in names else 1.0 for lab in labels])


def test_param_labels_order_matches_packing():
    labels = param_labels(4)
    assert labels == [
        "a_11", "a_22", "a_33",
        "a_12", "a_13", "a_23",
        "beta_1", "beta_2", "beta_3",
    ]
    assert len(param_labels(5)) == q_dim(5)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(42)
    for p in (3, 4, 5, 6):
        params = random_params(rng, p)
        back = unpack(pack(params).pi, kstar=params.kstar)
        assert np.allclose(back.a_l, params.a_l)
        assert np.allclose(back.beta, params.beta)
        assert back.kstar == params.kstar


def test_unpack_rejects_nonintegrable_vector():
    pi = pack(random_params(np.random.default_rng(0), 3)).pi.copy()
    pi[-1] = -0.25  # 1 + beta_2 <= 0
    with pytest.raises(ValueError):
        unpack(pi)


def test_composition_rejects_negatives_and_short_vectors():
    with pytest.raises(ValueError):
        as_matrix([0.7, 0.5, -0.2])
    with pytest.raises(DimensionError):
        as_matrix([0.5, 0.5])


def test_as_matrix_accepts_rows_and_normalizes():
    M = as_matrix([[1.0, 1.0, 2.0], [3.0, 1.0, 0.0]])
    assert M.shape == (2, 3)
    assert np.allclose(M.sum(axis=1), 1.0)
    single = as_matrix([2.0, 1.0, 1.0])
    assert single.shape == (1, 3)
    assert np.array_equal(single[0], [0.5, 0.25, 0.25])


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        as_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_matrix([[0.5, 0.7, -0.2]])


def test_count_dataset_basics():
    data = CountDataset([[3, 0, 7], [1, 1, 0]])
    assert data.n == 2 and data.p == 3
    assert np.array_equal(data.m, [10, 2])
    U = proportions(data)
    assert np.allclose(U.sum(axis=1), 1.0)
    assert U[0, 1] == 0.0


def test_count_dataset_rejects_empty_rows():
    with pytest.raises(DegenerateRowError):
        CountDataset([[1, 2, 3], [0, 0, 0]])


def test_params_symmetrize_within_tolerance_only():
    a = np.array([[-1.0, 0.5 + 1e-14], [0.5, -2.0]])
    params = RPPIParams(a_l=a, beta=[0.0, 0.0, 0.0])
    assert params.a_l[0, 1] == params.a_l[1, 0]
    skewed = np.array([[-1.0, 0.9], [0.1, -2.0]])
    with pytest.raises(ValueError):
        RPPIParams(a_l=skewed, beta=[0.0, 0.0, 0.0])


def test_params_validate_beta_and_kstar():
    with pytest.raises(ValueError):
        RPPIParams(a_l=np.eye(2), beta=[-1.0, 0.0, 0.0])
    params = RPPIParams(a_l=np.eye(2), beta=[0.1, 0.2, 0.0])
    assert params.kstar == params.p - 1  # defaults to the whole L block
    with pytest.raises(DimensionError):
        RPPIParams(a_l=np.eye(2), beta=[0.1, 0.2, 0.0], kstar=5)


def test_param_vector_validation():
    with pytest.raises(DimensionError):
        ParamVector(np.zeros(6))  # no p gives q=6
    with pytest.raises(ValueError):
        ParamVector(np.full(5, np.nan))
    vec = ParamVector(np.arange(5.0))
    assert vec.p == 3 and vec.q == 5
    assert vec.labels == param_labels(3)
