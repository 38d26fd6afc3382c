import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.stats import ks_2samp

from oracles import closed_simplex_grid_ref, influence_ref, plain_counts, plain_draws
import rppi._kstwo as _kstwo
import rppi.estimator as estimator
import rppi.inference as inference
from rppi.errors import (
    BootstrapDegradedError,
    InsufficientDataError,
    SingularGError,
    WeightError,
)
from rppi.inference import (
    bootstrap_se,
    influence,
    ks_truncated,
    parse_grid,
    simplex_grid,
    tune_c,
)
from rppi.model import RPPIParams, as_matrix, pack, proportions
from rppi.robust import RobustConfig, fit_robust


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)


def small_counts(seed=61, n=60, m=300):
    return plain_counts(TEST_PARAMS, m, np.random.SeedSequence(seed), n=n)


KS_SAMPLES = {
    "gamma-200-900": lambda rng: (rng.gamma(2.0, size=200), rng.gamma(2.2, size=900)),
    # proportions of counts out of 40, as tune compares them: many ties
    "rounded-ties": lambda rng: (rng.binomial(40, 0.3, size=300) / 40,
                                 rng.binomial(40, 0.31, size=10_000) / 40),
    "unequal-sizes": lambda rng: (rng.gamma(2.0, size=170), rng.gamma(2.0, size=60_000)),
    # a p-value far below 0.025, which scipy computes
    "tail": lambda rng: (rng.gamma(2.0, size=400), rng.gamma(2.6, size=5_000)),
}


@pytest.mark.parametrize("samples", KS_SAMPLES)
def test_ks_truncated_matches_scipy_on_the_truncated_samples(samples):
    rng = np.random.default_rng(62)
    obs, sim = KS_SAMPLES[samples](rng)
    stat, pvalue = ks_truncated(obs, sim, quantile=0.95)
    cut = np.quantile(obs, 0.95)
    want = ks_2samp(obs[obs <= cut], sim[sim <= cut], method="asymp")
    assert stat == want.statistic
    assert pvalue == want.pvalue


def kstwo_region(n, d):
    """Which code computes ``kstwo.sf(d, n)``: the port or scipy."""
    if n <= 140:
        return "scipy: n <= 140"
    if d >= 0.5:
        return "scipy: d >= 0.5"
    if n * d <= 1:
        return "scipy: n d <= 1"
    if n * d * d >= 2.2:
        return "scipy: n d^2 >= 2.2"
    if n <= 100_000 and n * d**1.5 <= 1.4:
        return "port: Durbin matrix"
    return "port: Pelz-Good"


def kstwo_points(rng, count=25):
    """``count`` seeded (n, d) points in each region of :func:`kstwo_region`."""
    def n_in(low, high):
        return float(np.round(np.exp(rng.uniform(np.log(low), np.log(high)))))

    def log_uniform(low, high):
        return np.float64(np.exp(rng.uniform(np.log(low), np.log(high))))

    points = {}
    for _ in range(count):
        n = n_in(2, 140)
        points.setdefault("scipy: n <= 140", []).append((n, log_uniform(0.3 / n, 0.99)))
        n = n_in(141, 1e6)
        points.setdefault("scipy: d >= 0.5", []).append((n, np.float64(rng.uniform(0.5, 0.99))))
        n = n_in(141, 1e7)
        points.setdefault("scipy: n d <= 1", []).append((n, log_uniform(0.3 / n, 1 / n)))
        n = n_in(141, 1e5)
        points.setdefault("scipy: n d^2 >= 2.2", []).append(
            (n, log_uniform(np.sqrt(2.21 / n), min(0.49, np.sqrt(40 / n)))))
        n = n_in(141, 20_000)
        points.setdefault("port: Durbin matrix", []).append(
            (n, log_uniform(1.001 / n, min((1.4 / n) ** (2 / 3), np.sqrt(2.2 / n)))))
        if rng.random() < 0.5:
            n = n_in(141, 100_000)
            low = (1.41 / n) ** (2 / 3)
        else:
            n = n_in(100_001, 1e8)
            low = 1.001 / n
        points.setdefault("port: Pelz-Good", []).append(
            (n, log_uniform(low, np.sqrt(2.19 / n))))
    return points


def test_kstwo_sf_matches_scipy_bit_for_bit():
    for region, cases in kstwo_points(np.random.default_rng(63)).items():
        assert {kstwo_region(n, d) for n, d in cases} == {region}
        got = np.array([_kstwo.sf(d, n) for n, d in cases])
        want = np.array([scipy.stats.kstwo.sf(d, n) for n, d in cases])
        assert got.tobytes() == want.tobytes(), region


@pytest.mark.parametrize("n, d", [(65439, 0.00033789552775754925),
                                  (57333, 0.00039219039986054436)])
def test_kstwo_sf_is_one_where_durbins_power_overflows_in_scipy(n, d):
    # Pelz-Good puts the CDF at 5e-70 and 3e-59 here; scipy's running
    # power of Durbin's matrix overflows and its sf returns 0.0
    assert kstwo_region(n, d) == "port: Durbin matrix"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kstwo.sf(d, n) == 1.0


def test_ks_truncated_needs_enough_points():
    with pytest.raises(InsufficientDataError):
        ks_truncated([1.0], [0.5, 2.0, 3.0])


def test_parse_grid_forms():
    grid = parse_grid("0:1.5:0.05")
    assert len(grid) == 31
    assert grid[0] == 0.0 and abs(grid[-1] - 1.5) < 1e-12
    assert parse_grid("0, 0.5, 1.25") == (0.0, 0.5, 1.25)
    assert parse_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError):
        parse_grid("")
    with pytest.raises(ValueError):
        parse_grid("0:1:0:5")
    with pytest.raises(ValueError):
        parse_grid("1:0:0.1")
    # a range bound that is not finite is refused before any count is formed
    for spec in ("0:inf:1", "-inf:0:1", "0:1:inf", "nan:1:0.5", "0:nan:0.5", "0:1:nan"):
        with pytest.raises(ValueError, match="not finite"):
            parse_grid(spec)
    # a range is counted before it is built, and refused above 10,000 points
    assert inference.MAX_GRID_POINTS == 10_000
    for spec, count in (("0:1:1e-5", "100,001"), ("0:1:1e-4", "10,001"),
                        ("0:1e308:1e-308", "inf")):  # the quotient overflows
        with pytest.raises(ValueError, match=f"has {count} points"):
            parse_grid(spec)
    grid = parse_grid("0:1:2e-4")
    assert len(grid) == 5_001 and abs(grid[-1] - 1.0) < 1e-12


def test_tune_c_reports_every_candidate_and_recommends_one():
    data = small_counts()
    report = tune_c(data, (0.0, 0.5), kstar=2, sim_size=1500,
                    seed=np.random.SeedSequence(63))
    assert report.grid == (0.0, 0.5)
    assert len(report.entries) == 2
    assert report.recommended_c in report.grid
    for entry in report.entries:
        assert entry.converged
        assert len(entry.ks_stats) == len(report.components) == 2
        assert all(0.0 <= p <= 1.0 for p in entry.ks_pvalues)
    again = tune_c(data, (0.0, 0.5), kstar=2, sim_size=1500,
                   seed=np.random.SeedSequence(63))
    assert again.recommended_c == report.recommended_c
    assert all(a.ks_stats == b.ks_stats
               for a, b in zip(again.entries, report.entries))


def test_tune_c_checks_its_whole_grid_before_any_fit(monkeypatch):
    fits = []

    def fit_spy(*args, **kwargs):
        fits.append(args[1].c)
        return fit_robust(*args, **kwargs)

    monkeypatch.setattr(inference, "fit_robust", fit_spy)
    with pytest.raises(ValueError, match="c must be finite"):
        tune_c(small_counts(), (0.0, 0.5, float("nan")), kstar=2, sim_size=100)
    assert fits == []


def test_bootstrap_is_deterministic_and_thread_invariant():
    data = small_counts()
    fit = fit_robust(proportions(data), RobustConfig(c=0.5, kstar=2))
    rep1 = bootstrap_se(fit, data, b=12, seed=np.random.SeedSequence(64))
    rep2 = bootstrap_se(fit, data, b=12, seed=np.random.SeedSequence(64))
    rep4 = bootstrap_se(fit, data, b=12, seed=np.random.SeedSequence(64),
                        threads=2)
    assert rep1.estimates.tobytes() == rep2.estimates.tobytes()
    assert rep1.estimates.tobytes() == rep4.estimates.tobytes()
    assert rep1.n_failed == 0 and rep1.b_used == 12
    assert np.all(rep1.se > 0.0)
    finite = rep1.se > 0
    assert np.allclose(rep1.ratio[finite], rep1.point[finite] / rep1.se[finite])


def test_bootstrap_identical_seeds_give_zero_spread(monkeypatch):
    data = small_counts()
    fit = fit_robust(proportions(data), RobustConfig(c=0.0, kstar=2))
    same = [np.random.SeedSequence(65), np.random.SeedSequence(65)]
    monkeypatch.setattr(inference, "spawn_seeds", lambda seed, n: same[:n])
    report = bootstrap_se(fit, data, b=2)
    assert np.all(report.se == 0.0)
    assert np.all(np.isnan(report.ratio))


def test_bootstrap_degrades_loudly_when_replicates_fail(monkeypatch):
    data = small_counts()
    fit = fit_robust(proportions(data), RobustConfig(c=0.0, kstar=2))
    real = inference._bootstrap_one
    calls = {"i": 0}

    def flaky(seed, **kwargs):
        calls["i"] += 1
        if calls["i"] % 2 == 0:
            return None
        return real(seed, **kwargs)

    monkeypatch.setattr(inference, "_bootstrap_one", flaky)
    with pytest.raises(BootstrapDegradedError) as err:
        bootstrap_se(fit, data, b=10, seed=np.random.SeedSequence(66))
    partial = err.value.report
    assert partial.n_failed == 5
    assert partial.b_used == 5
    assert partial.estimates.shape[0] == 5


def test_influence_mean_vanishes_at_the_empirical_fit():
    U = plain_draws(TEST_PARAMS, 3000, np.random.SeedSequence(67))
    cfg = RobustConfig(c=0.5, kstar=2)
    fit = fit_robust(U, cfg)
    res = influence(U, fit.pi_hat, U, c=cfg.c, kstar=cfg.kstar)
    scale = np.abs(res.value).max()
    assert np.abs(res.value.mean(axis=0)).max() < 1e-8 * scale


P4_PARAMS = RPPIParams(a_l=[[-2.0, 0.5, 0.3], [0.5, -1.5, 0.2], [0.3, 0.2, -1.0]],
                       beta=[-0.3, 0.2, 0.1, 0.0], kstar=3)


def influence_case(p, n, seed):
    params = TEST_PARAMS if p == 3 else P4_PARAMS
    ref = plain_draws(params, n, np.random.SeedSequence(seed))
    rng = np.random.default_rng(seed)
    # the lattice holds the vertices and edges; add interior points
    z = np.vstack([closed_simplex_grid_ref(p, 4), rng.dirichlet(np.ones(p), 5)])
    return pack(params).pi, ref, z


@pytest.mark.parametrize("p,kstar", [(3, 2), (3, 1), (4, 3), (4, 2)])
@pytest.mark.parametrize("c", [0.0, 0.7])
def test_influence_matches_the_per_row_oracle(p, kstar, c):
    pi0, ref, z = influence_case(p, 200, 70 + p + kstar)
    got = influence(z, pi0, ref, c=c, kstar=kstar, beta_p=0.2).value
    want = influence_ref(z, pi0, ref, c, kstar, beta_p=0.2)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-8 * scale


def test_influence_evaluates_each_row_once_through_the_estimator(monkeypatch):
    pi0, ref, z = influence_case(4, 300, 75)
    seen = {"r": [], "s": []}

    def spy(key, kernel):
        def wrapped(U):
            seen[key].append(U.copy())
            return kernel(U)
        return wrapped

    monkeypatch.setattr(estimator, "CHUNK", 64)
    monkeypatch.setattr(estimator, "r_matrix_batch", spy("r", estimator.r_matrix_batch))
    monkeypatch.setattr(estimator, "s_matrix_batch", spy("s", estimator.s_matrix_batch))
    influence(z, pi0, ref, c=0.7, kstar=2)
    rows = as_matrix(np.vstack([ref, z]))
    for key in ("r", "s"):
        assert seen[key], "no kernel was evaluated through rppi.estimator"
        assert np.array_equal(np.vstack(seen[key]), rows)


def test_influence_is_invariant_to_row_order_and_chunk_size(monkeypatch):
    pi0, ref, z = influence_case(4, 500, 76)
    base = influence(z, pi0, ref, c=0.7, kstar=2).value
    scale = np.abs(base).max()
    perm = np.random.default_rng(77).permutation(ref.shape[0])
    permuted = influence(z, pi0, ref[perm], c=0.7, kstar=2).value
    assert np.abs(permuted - base).max() <= 1e-10 * scale
    monkeypatch.setattr(estimator, "CHUNK", 32)
    chunked = influence(z, pi0, ref, c=0.7, kstar=2).value
    assert np.abs(chunked - base).max() <= 1e-10 * scale


def test_influence_is_finite_across_the_closed_simplex():
    U = plain_draws(TEST_PARAMS, 2000, np.random.SeedSequence(68))
    fit = fit_robust(U, RobustConfig(c=0.7, kstar=2))
    grid = simplex_grid(3, 12)  # includes edges and vertices
    res = influence(grid, fit.pi_hat, U, c=0.7, kstar=2)
    assert res.value.shape == (grid.shape[0], 5)
    assert np.all(np.isfinite(res.value))
    assert np.isfinite(res.sup_norm)


def test_influence_rejects_a_degenerate_reference():
    ref = np.tile([0.2, 0.3, 0.5], (6, 1))
    pi0 = np.zeros(5)
    pi0[-2:] = 1.0  # beta = 0
    with pytest.raises(SingularGError):
        influence([0.1, 0.1, 0.8], pi0, ref, c=0.0, kstar=2)


def test_influence_weights_do_not_overflow():
    # c t_a'pi reaches ~730 on this reference, so unshifted weights
    # exp(c t_a'pi) overflow and the sensitivity matrix turns non-finite
    ref = np.random.default_rng(0).dirichlet([60, 2, 2], 4000)
    params = RPPIParams(a_l=[[400.0, 0.0], [0.0, -5.0]],
                        beta=[-0.5, -0.2, 0.0], kstar=1)
    res = influence(simplex_grid(3, 10), pack(params), ref, c=2.0, kstar=1)
    assert np.all(np.isfinite(res.g_matrix))
    assert np.all(np.isfinite(res.value))


def test_influence_rejects_a_z_weight_beyond_the_float_range():
    # the vertex z = (1, 0, 0) has weight exp(778.5) relative to the
    # largest on this reference, which no float holds
    ref = np.random.default_rng(0).dirichlet([2, 2, 60], 4000)
    params = RPPIParams(a_l=[[400.0, 0.0], [0.0, -5.0]],
                        beta=[-0.5, -0.2, 0.0], kstar=1)
    z = simplex_grid(3, 4)
    assert z[14].tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(WeightError, match="z row 14 "):
        influence(z, pack(params), ref, c=2.0, kstar=1)
    # 705 above the largest reference exponent fits a float, but the z
    # weights are divided by the reference's mean weight, about exp(-8.1)
    u1 = ref[:, 0] / ref.sum(axis=1)
    c = 705.0 / (400.0 * (1.0 - np.max(u1 * u1)))
    with pytest.raises(WeightError, match="z row 14 .* by 705.0"):
        influence(z, pack(params), ref, c=c, kstar=1)


def test_influence_rejects_a_weighted_residual_beyond_the_float_range():
    # 700 above the largest reference exponent, the vertex's weight fits a
    # float after the scaling, but weight times residual does not
    ref = np.random.default_rng(0).dirichlet([2, 2, 60], 4000)
    params = RPPIParams(a_l=[[400.0, 0.0], [0.0, -5.0]],
                        beta=[-0.5, -0.2, 0.0], kstar=1)
    u1 = ref[:, 0] / ref.sum(axis=1)
    c = 700.0 / (400.0 * (1.0 - np.max(u1 * u1)))
    z = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    assert np.all(np.isfinite(influence(z[:1], pack(params), ref, c=c, kstar=1).value))
    with pytest.raises(WeightError, match="z row 1 is not finite"):
        influence(z, pack(params), ref, c=c, kstar=1)


def test_influence_never_holds_per_row_w1():
    # per-row W1 for one 4096-row chunk at p=10 (q=54) alone is 91 MiB
    ref = np.random.default_rng(69).dirichlet(np.full(10, 2.0), 4096)
    params = RPPIParams(a_l=-np.eye(9), beta=np.zeros(10), kstar=2)
    tracemalloc.start()
    try:
        res = influence(ref[:20], params, ref, c=0.5, kstar=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(res.value))
    assert peak < 100 * 2**20


def test_simplex_grid_counts_and_boundary():
    grid = simplex_grid(3, 4)
    assert grid.shape == (15, 3)  # C(4 + 2, 2)
    assert np.allclose(grid.sum(axis=1), 1.0)
    for vertex in np.eye(3):
        assert np.any(np.all(grid == vertex, axis=1))
    grid5 = simplex_grid(5, 20)
    assert grid5.shape[0] == 10626


@pytest.mark.parametrize("p", range(2, 9))
def test_simplex_grid_is_the_reference_lattice_byte_for_byte(p):
    # the rows in combinations' order of their bar positions, each row the
    # stars between consecutive bars, divided by the resolution
    for resolution in (1, 2, 7):
        assert simplex_grid(p, resolution).tobytes() == (
            closed_simplex_grid_ref(p, resolution).tobytes())


def test_simplex_grid_is_counted_before_it_is_built():
    assert inference.MAX_SIMPLEX_POINTS == 1_000_000
    tracemalloc.start()
    try:
        for p, count in ((17, "7,307,872,110"), (10, "10,015,005")):
            with pytest.raises(ValueError, match=f"has {count} points"):
                simplex_grid(p, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # nothing of the grid was allocated
