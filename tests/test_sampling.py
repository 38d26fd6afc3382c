import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from oracles import (
    plain_draws,
    quad_max_faces_ref,
    quad_max_grid,
    quadratic_ref,
    quadrature_expectation,
)
from rppi import sampling
from rppi.errors import DimensionError, LowAcceptanceError
from rppi.model import RPPIParams
from rppi.sampling import (
    contaminate,
    quad_max_simplex,
    round_proportions,
    rng_from,
    sample_counts,
    sample_rppi,
    spawn_seeds,
)
from rppi.study import dataset2_truth


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]], beta=[-0.3, 0.2, 0.0])
# M_face = M+ = 1.5 inside an edge; beta_p = 1 takes the gamma route
EDGE_PARAMS = RPPIParams(a_l=[[1.0, 2.0], [2.0, 1.0]], beta=[0.5, -0.3, 1.0])


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


def test_face_max_is_the_face_loop_without_the_origin():
    for A in (A for A in envelope_cases() if len(A) <= 8):
        face = quad_max_simplex(A, face=True)
        assert face == quad_max_faces_ref(A, origin=False)
        assert max(0.0, face) == quad_max_simplex(A)
    assert quad_max_simplex(dataset2_truth().a_l, face=True) == -141.924


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


def quad_rows(a_l, n, d, seed):
    """n rows cycled from a pool of Dirichlet draws, exact zeros and
    entries near 1e-300, with their reference values row by row."""
    rng = np.random.default_rng(seed)
    pool = rng.dirichlet(np.full(d + 1, 0.8), size=97)[:, :d]
    pool[1::7, 0] = 0.0
    pool[2::7] = 0.0
    pool[3::7, -1] = 1e-300
    pool[4::7, : (d + 1) // 2] = rng.uniform(0.5, 2.0, size=(d + 1) // 2) * 1e-300
    pool[5::7, 0] = -0.0
    want = np.array([quadratic_ref(v, a_l) for v in pool])
    idx = np.arange(n) % pool.shape[0]
    return pool[idx], want[idx]


QUAD_MODELS = [
    np.array([[-2.0, 1.0], [1.0, -1.0]]),
    dataset2_truth().a_l,  # entries up to 2e5
    -np.random.default_rng(57).normal(size=(16, 16)) ** 2 * 30.0,
]


@pytest.mark.parametrize("a_l", QUAD_MODELS, ids=["p3", "p5-dataset2", "p17"])
def test_quadratic_equals_the_scalar_definition_at_block_edges(a_l):
    d = a_l.shape[0]
    chunk = sampling.QUAD_CHUNK
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        V, want = quad_rows(a_l, n, d, seed=n)
        got = sampling._quadratic(V, a_l)
        assert got.shape == (n,)
        assert got.tobytes() == want.tobytes(), n
        # the sampler passes the first d columns of its draws, a strided view
        wide = np.hstack([V, np.ones((n, 1))])
        assert sampling._quadratic(wide[:, :d], a_l).tobytes() == want.tobytes(), n


def two_stage_rejection(params, n, seed, max_proposals=10_000_000):
    """The radial-split rejection loop written out: s and 1 - s for the
    whole batch, whole-batch einsum on the survivors, interior mask.
    Returns (U, proposals, rate, envelope, face maximum, stage-two draws)."""
    rng = rng_from(seed)
    d = params.p - 1
    alpha = params.beta + 1.0
    face = quad_max_faces_ref(params.a_l, origin=False)
    envelope = max(0.0, face)
    kept, n_acc, n_prop, n_full = [], 0, 0, 0
    batch = int(min(max(1024, 2 * n), 65536))
    while n_acc < n:
        if alpha[d] == 1.0:  # s ~ Beta(A, 1) by inversion
            t = np.log(1.0 - rng.random(batch)) / alpha[:d].sum()
            s, rest = np.exp(t), -np.expm1(t)
        else:
            g = rng.standard_gamma(alpha[:d].sum(), batch)
            h = rng.standard_gamma(alpha[d], batch)
            s, rest = g / (g + h), h / (g + h)
        live = np.log(rng.random(batch)) < face * s * s - envelope
        s, rest = s[live], rest[live]
        V = rng.dirichlet(alpha[:d], size=s.size)
        q = np.einsum("ni,ij,nj->n", V, params.a_l, V)
        accept = np.log(rng.random(s.size)) < s * s * (q - face)
        U = np.column_stack([V * s[:, None], rest])
        accept &= (U > 0.0).all(axis=1)
        kept.append(U[accept])
        n_acc += int(accept.sum())
        n_prop += batch
        n_full += s.size
        if n_prop >= max_proposals and n_acc < n and n_acc / n_prop < sampling.ACCEPT_FLOOR:
            raise LowAcceptanceError("plain loop gave up")
        rate_so_far = max(n_acc, 1) / n_prop
        batch = int(np.clip(1.2 * (n - n_acc) / rate_so_far, 1024, 2_000_000))
    return np.concatenate(kept)[:n], n_prop, n_acc / n_prop, envelope, face, n_full


# Study sim7 at seed 13, replicate 17: its first batch of 1,024 proposals
# accepts nothing.
CLIFF_SEED = spawn_seeds(13, 25)[17].spawn(3)[0]
B17 = np.random.default_rng(58).normal(scale=0.5, size=(16, 16))
D2_BETA_P = np.append(dataset2_truth().beta[:-1], -0.4)  # alpha_p = 0.6: gamma route
SAMPLER_CASES = [
    pytest.param(dataset2_truth(), 2000, np.random.SeedSequence(59), id="dataset2"),
    pytest.param(TEST_PARAMS, 5000, np.random.SeedSequence(60), id="p3"),
    pytest.param(RPPIParams(a_l=-(B17 @ B17.T), beta=np.linspace(-0.5, 0.5, 17)), 500,
                 np.random.SeedSequence(61), id="p17-negdef"),
    pytest.param(dataset2_truth(), 94, CLIFF_SEED, id="cliff-replicate"),
    pytest.param(RPPIParams(a_l=dataset2_truth().a_l, beta=D2_BETA_P), 2000,
                 np.random.SeedSequence(63), id="dataset2-gamma-route"),
]


@pytest.mark.parametrize("params, n, seed", SAMPLER_CASES)
def test_rejection_sampler_equals_the_plain_loop_byte_for_byte(params, n, seed):
    U, report = sample_rppi(params, n, seed=seed)
    want, n_prop, rate, envelope, face, n_full = two_stage_rejection(params, n, seed)
    assert U.tobytes() == want.tobytes()
    assert report.n_proposals == n_prop
    assert report.acceptance_rate == rate
    assert report.envelope_constant == envelope
    assert (report.face_max, report.n_stage_two) == (face, n_full)


def dirichlet_mean_exp_q(params):
    """E[exp(u_L' A u_L)] under the Dirichlet(beta + 1) proposal, by quadrature."""
    flat = RPPIParams(a_l=np.zeros((2, 2)), beta=params.beta)
    return quadrature_expectation(flat, lambda pts: np.exp(
        np.einsum("ni,ij,nj->n", pts[:, :2], params.a_l, pts[:, :2])))


@pytest.mark.parametrize("params", [TEST_PARAMS, EDGE_PARAMS], ids=["p3", "p3-gamma-route"])
def test_acceptance_rate_is_the_proposal_mean_of_the_tilt(params):
    # the plain sampler's acceptance: every stage-one draw is one
    # Dirichlet(beta + 1) proposal, kept with probability exp(Q - M+)
    _, report = sample_rppi(params, 20_000, seed=np.random.SeedSequence(64))
    rate, n_prop = report.acceptance_rate, report.n_proposals
    want = dirichlet_mean_exp_q(params) * np.exp(-report.envelope_constant)
    assert abs(rate - want) < 6.0 * np.sqrt(rate * (1.0 - rate) / n_prop)


@pytest.mark.parametrize("params, n", [(dataset2_truth(), 20_000), (TEST_PARAMS, 20_000)],
                         ids=["dataset2", "p3"])
def test_radial_split_draws_match_the_plain_loop(params, n):
    U, _ = sample_rppi(params, n, seed=np.random.SeedSequence(65))
    want = plain_draws(params, n, np.random.SeedSequence(66))
    for j in range(params.p):
        assert ks_2samp(U[:, j], want[:, j]).pvalue > 1e-3, j


def test_batch_after_an_empty_first_batch_is_sized_from_one_acceptance():
    # The first 1,024 proposals accept nothing.  Sizing the next batch as
    # if one had been accepted asks for 115,507 proposals, which suffice
    # (116,531 in all); a floored rate asked for the 2,000,000 cap.
    U, report = sample_rppi(dataset2_truth(), 94, seed=CLIFF_SEED)
    assert U.shape == (94, 5)
    assert report.n_proposals < 200_000


def test_hopeless_envelope_raises_low_acceptance(monkeypatch):
    params = RPPIParams(a_l=[[-5e6, 0.0], [0.0, -5e6]],
                        beta=[4.0, 4.0, 0.0])
    # M_face = -2.5e6 at the face's centre and M+ = 0 at the origin
    message = (r"acceptance rate 0\.00e\+00 after 2173056 proposals, below 1e-06; "
               r"M_face = -2\.5e\+06, M\+ = 0$")
    monkeypatch.setattr(sampling, "MAX_PROPOSALS", 2_000_000)
    with pytest.raises(LowAcceptanceError, match=message):
        sample_rppi(params, 10, seed=np.random.SeedSequence(47))


def test_sample_size_validation():
    with pytest.raises(DimensionError):
        sample_rppi(TEST_PARAMS, 0)


def test_sample_counts_row_totals_and_determinism():
    m = np.array([10, 100, 1000, 50])
    d1, rep1 = sample_counts(TEST_PARAMS, m, seed=np.random.SeedSequence(48))
    d2, rep2 = sample_counts(TEST_PARAMS, m, seed=np.random.SeedSequence(48))
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.x.sum(axis=1), m)
    # the report is the one of the rejection run that drew the compositions
    _, latent = sample_rppi(TEST_PARAMS, 4, seed=np.random.SeedSequence(48).spawn(2)[0])
    assert rep1 == rep2 == latent
    with pytest.raises(DimensionError):
        sample_counts(TEST_PARAMS, 200)  # a total, not a vector of them
    with pytest.raises(ValueError):
        sample_counts(TEST_PARAMS, [0, 10])


def test_sample_counts_rejects_fractional_totals():
    with pytest.raises(ValueError, match="whole numbers"):
        sample_counts(TEST_PARAMS, [2.5, 3.0, 4.9], seed=np.random.SeedSequence(53))


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
