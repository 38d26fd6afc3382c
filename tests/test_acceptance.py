"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Each test states its tolerance inline; they are
deliberately independent of each other so a failure localizes.
"""

import numpy as np
from scipy.stats import ks_2samp

from oracles import (
    fd_stat_jacobian,
    fd_stat_second,
    plain_counts,
    plain_draws,
    quadrature_expectation,
)
from rppi.cli import main
from rppi.dataio import params_to_dict, write_json, write_table
from rppi.estimator import assemble, residuals, score_stats, solve_system
from rppi.inference import influence, simplex_grid
from rppi.model import RPPIParams, as_matrix, pack, proportions
from rppi.robust import RobustConfig, fit_robust
from rppi.sampling import sample_rppi, sample_rppi_mcmc, spawn_seeds
from rppi.study import dataset2_truth, preset_scenario, run_study
from rppi.suffstats import r_matrix_batch, s_matrix_batch


P3_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                       beta=[-0.3, 0.2, 0.0], kstar=2)


def plain_fit(U) -> np.ndarray:
    """The unweighted estimate: the one fit path at c = 0."""
    return fit_robust(U, RobustConfig(c=0.0, kstar=U.shape[1] - 1)).pi_hat.pi


def test_criterion_01_kernel_matches_finite_differences():
    """R equals the log-ratio Jacobian of t to 1e-6; the S column sum
    equals the log-ratio Laplacian of t to 1e-4."""
    rng = np.random.default_rng(201)
    worst_r = worst_s = 0.0
    U = rng.dirichlet((1.5, 1.5, 1.5), size=30)
    R, S = r_matrix_batch(U), s_matrix_batch(U)
    for i, u in enumerate(U):
        worst_r = max(worst_r, np.abs(R[i] - fd_stat_jacobian(u)).max())
        lap = fd_stat_second(u).sum(axis=1)
        worst_s = max(worst_s, np.abs(S[i].sum(axis=1) - lap).max())
    assert worst_r < 1e-6
    assert worst_s < 1e-4


def test_criterion_02_population_estimating_identity():
    """At the true parameter the per-observation equation residual
    W1(u) pi0 - d1(u) has mean zero: every component within 3 MC SEs
    at n = 100000."""
    pi0 = pack(P3_PARAMS).pi
    U = plain_draws(P3_PARAMS, 100_000, np.random.SeedSequence(202))
    resid = residuals(score_stats(U), pi0)
    mean = resid.mean(axis=0)
    se = resid.std(axis=0, ddof=1) / np.sqrt(U.shape[0])
    assert np.all(np.abs(mean) < 3.0 * se)


def test_criterion_03_rmse_decreases_with_sample_size():
    """Unweighted RMSE falls monotonically for every parameter over
    n in {500, 2000, 8000} (50 replicates each)."""
    pi0 = pack(P3_PARAMS).pi
    rmse = {}
    for n in (500, 2000, 8000):
        errs = []
        for s in spawn_seeds(np.random.SeedSequence(203), 50):
            U = plain_draws(P3_PARAMS, n, s)
            errs.append(plain_fit(U) - pi0)
        rmse[n] = np.sqrt(np.mean(np.square(errs), axis=0))
    assert np.all(rmse[500] > rmse[2000])
    assert np.all(rmse[2000] > rmse[8000])


def test_criterion_04_count_rounding_vanishes_with_resolution():
    """Fits on multinomial proportions converge to the latent fits:
    mean ||pi_m - pi|| decreases over m in {10, 1000, 100000}
    (50 paired replicates)."""
    gaps = {10: [], 1000: [], 100_000: []}
    for child in np.random.SeedSequence(204).spawn(50):
        latent_seed, count_seed = child.spawn(2)
        U = plain_draws(P3_PARAMS, 200, latent_seed)
        base = plain_fit(U)
        rng = np.random.default_rng(count_seed)
        for m in gaps:
            x = rng.multinomial(np.full(200, m), U)
            gap = plain_fit(x / m) - base
            gaps[m].append(np.linalg.norm(gap))
    means = {m: np.mean(v) for m, v in gaps.items()}
    assert means[10] > means[1000] > means[100_000]


def test_criterion_05_weighted_fixed_point_and_c0_reduction():
    """100 random converged fits satisfy the weighted equation to
    1e-6 * ||d||_inf, and c=0 reproduces the unweighted fit bitwise."""
    rng = np.random.default_rng(205)
    for k in range(100):
        p = int(rng.integers(3, 5))
        d = p - 1
        B = rng.normal(scale=0.8, size=(d, d))
        noise = rng.normal(scale=0.3, size=(d, d))
        a_l = -0.6 * (B @ B.T) + 0.5 * (noise + noise.T)
        beta = np.append(rng.uniform(-0.5, 1.0, size=d), 0.0)
        params = RPPIParams(a_l=a_l, beta=beta)
        kstar = int(rng.integers(1, d + 1))
        c = float(rng.uniform(0.0, 1.25))
        U = plain_draws(params, 2000, np.random.SeedSequence(1000 + k))
        fit = fit_robust(U, RobustConfig(c=c, kstar=kstar))
        assert fit.residual < 1e-6 * max(np.abs(fit.d_hat).max(), 1e-300)
        if k % 10 == 0:
            plain, _ = solve_system(*assemble(score_stats(as_matrix(U))))
            zero = fit_robust(U, RobustConfig(c=0.0, kstar=kstar))
            assert zero.pi_hat.pi.tobytes() == plain.tobytes()


def test_criterion_06_desk_scale_study_reproduces_the_pattern():
    """100 replicates at n=94 from the concentrated five-part truth:
    clean beta_1 RMSE within +/-50% of 0.0807 (c=0) and 0.0467
    (c=1.25) with strict improvement; contaminated 5.3% flips the
    ranking catastrophically (c=0 above 10, c=0.5 below 0.15)."""
    clean = run_study(preset_scenario("sim5", replicates=100, cs=(0.0, 1.25)),
                      threads=2)
    b1_plain = clean.cell("beta_1", "c=0")
    b1_heavy = clean.cell("beta_1", "c=1.25")
    assert b1_heavy < b1_plain
    assert 0.5 * 0.0807 < b1_plain < 1.5 * 0.0807
    assert 0.5 * 0.0467 < b1_heavy < 1.5 * 0.0467

    contaminated = run_study(preset_scenario("sim7", replicates=100,
                                             cs=(0.0, 0.5)), threads=2)
    assert contaminated.cell("beta_1", "c=0") > 10.0
    assert contaminated.cell("beta_1", "c=0.5") < 0.15


def test_criterion_07_influence_bounded_and_linearizes():
    """The influence function stays finite over a 10626-point grid of
    the closed five-part simplex (vertices and faces included) at
    c in {0, 1.25}; and a finite mixture perturbation of weight 1e-3
    reproduces lambda * IF(z) within 10%."""
    truth = dataset2_truth()
    reference = plain_draws(truth, 5000, np.random.SeedSequence(207))
    grid = simplex_grid(5, 20)
    assert grid.shape[0] == 10626
    for c in (0.0, 1.25):
        res = influence(grid, pack(truth), reference, c=c, kstar=4)
        assert np.all(np.isfinite(res.value))
        assert np.isfinite(res.sup_norm)

    U = plain_draws(P3_PARAMS, 4000, np.random.SeedSequence(60))
    cfg = RobustConfig(c=0.5, kstar=2)
    fit = fit_robust(U, cfg)
    lam = 1e-3
    for z in ([0.2, 0.5, 0.3], [0.7, 0.25, 0.05], [0.05, 0.05, 0.9]):
        z = np.asarray(z)
        IF = influence(z, fit.pi_hat, U, c=cfg.c, kstar=cfg.kstar).value[0]
        mixture = np.vstack([U, z])
        w = np.concatenate([np.full(U.shape[0], (1.0 - lam) / U.shape[0]),
                            [lam]])
        perturbed = fit_robust(mixture, cfg, base_weights=w, init=fit.pi_hat)
        derivative = (perturbed.pi_hat.pi - fit.pi_hat.pi) / lam
        gap = np.linalg.norm(derivative - IF) / np.linalg.norm(IF)
        assert gap < 0.10


def test_criterion_08_zero_heavy_data_fit_stably():
    """With a zero in every row, the fit completes with finite
    estimates, and moving the zeros to 1e-9 shifts the estimate by
    less than 1e-5 in relative norm."""
    truth = dataset2_truth()
    data = plain_counts(truth, 1000, np.random.SeedSequence(208), n=94)
    U = proportions(data)
    assert np.all((U == 0.0).any(axis=1))  # the regime under test
    base = plain_fit(U)
    assert np.all(np.isfinite(base))
    robust = fit_robust(U, RobustConfig(c=1.25, kstar=4))
    assert np.all(np.isfinite(robust.pi_hat.pi))
    perturbed = plain_fit(np.where(U == 0.0, 1e-9, U))
    rel = np.linalg.norm(perturbed - base) / np.linalg.norm(base)
    assert rel < 1e-5


def test_criterion_09_sampler_agrees_with_quadrature_and_mcmc():
    """Rejection moments match tensor quadrature within 3 MC SEs, and
    rejection vs MCMC marginals pass two-sample KS at alpha = 0.01."""
    U, _ = sample_rppi(P3_PARAMS, 100_000, seed=np.random.SeedSequence(209))
    for f in (lambda pts: pts,
              lambda pts: pts ** 2,
              lambda pts: pts[:, :1] * pts[:, 1:2]):
        want = np.atleast_1d(quadrature_expectation(P3_PARAMS, f))
        vals = np.asarray(f(U))
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        assert np.all(np.abs(vals.mean(axis=0) - want) < 3.0 * se)

    U_mc, _ = sample_rppi_mcmc(P3_PARAMS, 5000,
                               seed=np.random.SeedSequence(210),
                               burn_in=5000, thin=10)
    U_rej = U[:5000]
    for j in range(3):
        test = ks_2samp(U_rej[:, j], U_mc[:, j], method="asymp")
        assert test.pvalue > 0.01


def test_criterion_10_cli_outputs_are_byte_deterministic(tmp_path):
    """Every command writes byte-identical files on a rerun with the
    same seed, and the threaded commands do so for any worker count."""
    def snapshot(prefix):
        return ((tmp_path / (prefix + ".json")).read_bytes(),
                (tmp_path / (prefix + ".csv")).read_bytes())

    def rerun(argv, prefix):
        assert main(argv) == 0
        first = snapshot(prefix)
        assert main(argv) == 0
        assert snapshot(prefix) == first
        return first

    params_path = str(tmp_path / "params.json")
    write_json(params_path, params_to_dict(P3_PARAMS))
    counts = plain_counts(P3_PARAMS, 400, np.random.SeedSequence(211), n=60)
    counts_path = str(tmp_path / "counts.csv")
    write_table(counts_path, counts.x, names=("x1", "x2", "x3"))

    rerun(["sample", params_path, "--n", "50", "--seed", "4",
           "--out", str(tmp_path / "s")], "s")
    fit_prefix = str(tmp_path / "f")
    rerun(["fit", counts_path, "--c", "0.5", "--kstar", "2",
           "--out", fit_prefix], "f")
    rerun(["tune", counts_path, "--kstar", "2", "--grid", "0,0.5",
           "--sim-size", "600", "--seed", "6",
           "--out", str(tmp_path / "t")], "t")
    rerun(["influence", fit_prefix + ".json", "--grid-resolution", "6",
           "--ref-size", "800", "--seed", "8",
           "--out", str(tmp_path / "i")], "i")

    boot = rerun(["bootstrap", fit_prefix + ".json", counts_path,
                  "--b", "6", "--seed", "10", "--threads", "1",
                  "--out", str(tmp_path / "b")], "b")
    assert main(["bootstrap", fit_prefix + ".json", counts_path,
                 "--b", "6", "--seed", "10", "--threads", "3",
                 "--out", str(tmp_path / "b")]) == 0
    assert snapshot("b") == boot

    study = rerun(["study", "sim5", "--replicates", "2", "--grid", "0,0.5",
                   "--seed", "12", "--threads", "1",
                   "--out", str(tmp_path / "y")], "y")
    assert main(["study", "sim5", "--replicates", "2", "--grid", "0,0.5",
                 "--seed", "12", "--threads", "2",
                 "--out", str(tmp_path / "y")]) == 0
    assert snapshot("y") == study
