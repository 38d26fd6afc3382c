import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_ks, quad_max_faces_ref, quad_max_grid, quadrature_expectation
from rppi import sampling
from rppi.errors import DimensionError, LowAcceptanceError
from rppi.model import RPPIParams
from rppi.sampling import (
    contaminate,
    quad_max_simplex,
    round_proportions,
    sample_counts,
    sample_rppi,
    sample_rppi_mcmc,
    spawn_seeds,
)


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]], beta=[-0.3, 0.2, 0.0])


def test_quad_max_handles_known_cases():
    # negative definite: supremum sits at the origin vertex
    assert quad_max_simplex([[-3.0, 0.5], [0.5, -1.0]]) == 0.0
    # positive diagonal: a vertex of the L block wins
    assert quad_max_simplex([[2.0, 0.0], [0.0, 5.0]]) == 5.0
    # indefinite with an off-vertex maximum on the unit-sum face
    assert abs(quad_max_simplex([[2.0, 3.0], [3.0, 2.0]]) - 2.5) < 1e-12


def test_quad_max_dominates_a_dense_grid():
    rng = np.random.default_rng(41)
    for d in (2, 3):
        for _ in range(6):
            B = rng.normal(scale=3.0, size=(d, d))
            A = (B + B.T) / 2.0
            M = quad_max_simplex(A)
            assert M >= quad_max_grid(A, 60) - 1e-9


def envelope_cases():
    rng = np.random.default_rng(54)
    for d in range(2, 13):
        for scale in (0.1, 3.0, 100.0):
            B = rng.normal(scale=scale, size=(d, d))
            yield (B + B.T) / 2.0
        dup = (B + B.T) / 2.0
        dup[:, -1] = dup[:, 0]
        dup[-1, :] = dup[0, :]
        yield dup  # every face holding both copies is singular
        yield -(B @ B.T)
        yield np.outer(B[0], B[0])
        yield np.zeros((d, d))


def test_quad_max_equals_the_face_by_face_loop(monkeypatch):
    for A in envelope_cases():
        want = quad_max_faces_ref(A)
        assert quad_max_simplex(A) == want
        with monkeypatch.context() as m:
            # chunk edges, partial last chunks, singular-stack fallback
            m.setattr(sampling, "FACE_CHUNK", 3)
            assert quad_max_simplex(A) == want


def test_quad_max_solves_each_face_size_in_one_stack(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append((np.ndim(a), np.ndim(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    B = np.random.default_rng(55).normal(size=(10, 10))
    quad_max_simplex((B + B.T) / 2.0)
    assert len(calls) == 9  # face sizes 2..10, each at most C(10, 5) = 252 faces
    # b has a's rank, which numpy 1.x and 2.x both read as a matrix of
    # right-hand sides (numpy 1.x reads rank ndim(a) - 1 as vectors)
    assert calls == [(3, 3)] * 9
    calls.clear()
    B[:, 1], B[1, :] = B[:, 0], B[0, :]  # singular faces: the one-by-one fallback
    quad_max_simplex((B + B.T) / 2.0)
    assert all(nd_a == nd_b for nd_a, nd_b in calls) and (2, 2) in calls


def test_rejection_sampler_is_deterministic_and_interior():
    U1, rep1 = sample_rppi(TEST_PARAMS, 500, seed=np.random.SeedSequence(42))
    U2, rep2 = sample_rppi(TEST_PARAMS, 500, seed=np.random.SeedSequence(42))
    assert U1.tobytes() == U2.tobytes()
    assert rep1.n_proposals == rep2.n_proposals
    assert rep1.method == "rejection"
    assert 0.0 < rep1.acceptance_rate <= 1.0
    assert U1.shape == (500, 3)
    assert np.all(U1 > 0.0) and np.allclose(U1.sum(axis=1), 1.0)


def test_rejection_moments_match_quadrature():
    U, _ = sample_rppi(TEST_PARAMS, 60_000, seed=np.random.SeedSequence(43))
    feats = (
        lambda pts: pts,
        lambda pts: pts ** 2,
        lambda pts: (pts[:, :1] * pts[:, 1:2]),
    )
    for f in feats:
        want = np.atleast_1d(quadrature_expectation(TEST_PARAMS, f))
        vals = np.asarray(f(U))
        got = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        assert np.all(np.abs(got - want) < 4.0 * se + 1e-12)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(diag=st.tuples(*[st.floats(-2.0, 2.0)] * 2), off=st.floats(-2.0, 2.0),
       beta=st.tuples(*[st.floats(-0.5, 2.0)] * 3))
@example(diag=(1.5, 0.5), off=-1.0, beta=(0.0, 0.0, 0.0))  # M at a vertex
@example(diag=(1.0, 1.0), off=2.0, beta=(0.5, -0.3, 1.0))  # M inside an edge
@example(diag=(-1.0, -1.0), off=2.0, beta=(1.0, 1.0, 0.0))  # indefinite, M > 0
def test_rejection_moments_match_quadrature_on_random_models(diag, off, beta):
    # |Q| <= 2 on the simplex slice, so acceptance stays above exp(-4)
    params = RPPIParams(a_l=[[diag[0], off], [off, diag[1]]], beta=beta)
    U, _ = sample_rppi(params, 20_000, seed=np.random.SeedSequence(56))
    for f in (lambda pts: pts, lambda pts: pts ** 2):
        want = quadrature_expectation(params, f)
        vals = f(U)
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        assert np.all(np.abs(vals.mean(axis=0) - want) < 5.0 * se)


def test_zero_interaction_reduces_to_dirichlet():
    params = RPPIParams(a_l=np.zeros((2, 2)), beta=[1.0, -0.5, 0.0])
    U, report = sample_rppi(params, 30_000, seed=np.random.SeedSequence(44))
    assert report.envelope_constant == 0.0
    assert report.acceptance_rate > 0.999  # only interior filtering bites
    alpha = np.array([2.0, 0.5, 1.0])
    want = alpha / alpha.sum()
    se = U.std(axis=0, ddof=1) / np.sqrt(U.shape[0])
    assert np.all(np.abs(U.mean(axis=0) - want) < 4.0 * se)


def test_mcmc_agrees_with_rejection_marginally():
    U_rej, _ = sample_rppi(TEST_PARAMS, 4000, seed=np.random.SeedSequence(45))
    U_mc, report = sample_rppi_mcmc(TEST_PARAMS, 4000,
                                    seed=np.random.SeedSequence(46),
                                    burn_in=2000, thin=5)
    assert report.method == "independence-mh"
    assert U_mc.shape == (4000, 3)
    for j in range(3):
        assert brute_ks(U_rej[:, j], U_mc[:, j]) < 0.05


def test_hopeless_envelope_raises_low_acceptance():
    params = RPPIParams(a_l=[[-5e6, 0.0], [0.0, -5e6]],
                        beta=[4.0, 4.0, 0.0])
    with pytest.raises(LowAcceptanceError):
        sample_rppi(params, 10, seed=np.random.SeedSequence(47),
                    max_proposals=2_000_000)


def test_sample_size_validation():
    with pytest.raises(DimensionError):
        sample_rppi(TEST_PARAMS, 0)


def test_sample_counts_row_totals_and_determinism():
    m = np.array([10, 100, 1000, 50])
    d1 = sample_counts(TEST_PARAMS, m, seed=np.random.SeedSequence(48))
    d2 = sample_counts(TEST_PARAMS, m, seed=np.random.SeedSequence(48))
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.x.sum(axis=1), m)
    scalar = sample_counts(TEST_PARAMS, 200, n=25,
                           seed=np.random.SeedSequence(49))
    assert scalar.n == 25 and np.all(scalar.m == 200)
    with pytest.raises(DimensionError):
        sample_counts(TEST_PARAMS, 200)  # scalar total without n
    with pytest.raises(ValueError):
        sample_counts(TEST_PARAMS, [0, 10])


def test_sample_counts_rejects_fractional_totals():
    with pytest.raises(ValueError, match="whole numbers"):
        sample_counts(TEST_PARAMS, [2.5, 3.0, 4.9], seed=np.random.SeedSequence(53))
    with pytest.raises(ValueError, match="whole numbers"):
        sample_counts(TEST_PARAMS, 2.5, n=3, seed=np.random.SeedSequence(53))


def test_round_proportions_snaps_to_the_grid():
    rng = np.random.default_rng(50)
    U = rng.dirichlet((2.0, 1.0, 1.0), size=40)
    m = np.full(40, 25)
    snapped = round_proportions(U, m)
    assert np.allclose(snapped * 25, np.rint(snapped * 25), atol=1e-12)
    # scalar resolution broadcasts
    snapped2 = round_proportions(U, 25)
    assert np.array_equal(snapped, snapped2)
    with pytest.raises(ValueError):
        round_proportions(U, 0)


def test_contaminate_replaces_the_right_number_of_rows():
    rng = np.random.default_rng(51)
    U = rng.dirichlet(np.full(5, 2.0), size=94)
    z = (0.4, 0.3, 0.2, 0.1, 0.0)
    out = contaminate(U, 0.053, z, seed=np.random.SeedSequence(52))
    hits = np.all(np.abs(out - np.asarray(z)) < 1e-12, axis=1).sum()
    assert hits == round(0.053 * 94) == 5
    again = contaminate(U, 0.053, z, seed=np.random.SeedSequence(52))
    assert np.array_equal(out, again)
    assert np.allclose(contaminate(U, 0.0, z), U)
    with pytest.raises(ValueError):
        contaminate(U, 1.5, z)


def test_spawn_seeds_are_stable_and_distinct():
    a = spawn_seeds(np.random.SeedSequence(7), 4)
    b = spawn_seeds(np.random.SeedSequence(7), 4)
    states = [s.generate_state(2).tolist() for s in a]
    assert states == [s.generate_state(2).tolist() for s in b]
    assert len({tuple(s) for s in states}) == 4
