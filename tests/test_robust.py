import numpy as np
import pytest

from rppi.errors import DimensionError, NonConvergenceError
from rppi.estimator import assemble, fit_alr_sme
from rppi.model import RPPIParams, pack
from rppi.robust import (
    RobustConfig,
    fit_robust,
    kk_mask,
    windham_weights,
)
from rppi.sampling import sample_rppi
from rppi.study import DATASET2_OUTLIER, dataset2_truth


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)


def contaminated_sample(n=94, frac=0.053, seed=77):
    truth = dataset2_truth()
    U, _ = sample_rppi(truth, n, seed=np.random.SeedSequence(seed))
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


def test_kk_mask_selects_the_akk_block():
    mask = kk_mask(5, 2)
    # for kstar=2 exactly a_11, a_22 and a_12 live in the block
    labels = np.array(pack(dataset2_truth()).labels)
    assert sorted(labels[mask]) == ["a_11", "a_12", "a_22"]


def test_kstar_out_of_range_is_rejected():
    rng = np.random.default_rng(31)
    U = rng.dirichlet((2.0, 2.0, 2.0), size=50)
    with pytest.raises(DimensionError):
        fit_robust(U, RobustConfig(c=0.5, kstar=4))


def test_c_zero_reduces_to_the_unweighted_fit_bitwise():
    U, _ = sample_rppi(TEST_PARAMS, 500, seed=np.random.SeedSequence(32))
    plain = fit_alr_sme(U)
    rob = fit_robust(U, RobustConfig(c=0.0, kstar=2))
    assert rob.pi_hat.pi.tobytes() == plain.pi_hat.pi.tobytes()
    assert rob.iterations == 1 and rob.restarts == 0


def test_uniform_base_weights_change_nothing():
    U, _ = sample_rppi(TEST_PARAMS, 400, seed=np.random.SeedSequence(33))
    cfg = RobustConfig(c=0.5, kstar=2)
    a = fit_robust(U, cfg)
    b = fit_robust(U, cfg, base_weights=np.ones(400))
    assert a.pi_hat.pi.tobytes() == b.pi_hat.pi.tobytes()


def test_converged_fit_satisfies_the_weighted_equation():
    U, _ = sample_rppi(TEST_PARAMS, 800, seed=np.random.SeedSequence(34))
    cfg = RobustConfig(c=0.7, kstar=2)
    fit = fit_robust(U, cfg)
    # recompute the equation pieces independently of the fit loop
    akk = fit.params.a_kk
    w = windham_weights(U, akk, cfg.c)
    W, d = assemble(U, weights=w)
    h = np.where(kk_mask(3, 2), 1.0 + cfg.c, 1.0)
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
    U, _ = sample_rppi(TEST_PARAMS, 20_000, seed=np.random.SeedSequence(35))
    fit = fit_robust(U, RobustConfig(c=0.5, kstar=2))
    pi0 = pack(TEST_PARAMS).pi
    rel = np.abs(fit.pi_hat.pi - pi0) / np.maximum(np.abs(pi0), 1.0)
    assert rel.max() < 0.3


def test_contaminated_start_triggers_the_restart_ladder():
    truth, U = contaminated_sample()
    fit = fit_robust(U, RobustConfig(c=0.5, kstar=4))
    assert fit.restarts > 0
    assert fit.converged
    beta1 = fit.pi_hat.pi[-4] - 1.0
    assert abs(beta1 - truth.beta[0]) < 0.3


def test_restart_ladder_reports_nonconvergence_when_capped():
    truth, U = contaminated_sample()
    with pytest.raises(NonConvergenceError) as err:
        fit_robust(U, RobustConfig(c=0.5, kstar=4, max_iter=2))
    assert err.value.trace  # the trace of relative changes rides along


def test_explicit_init_is_honored():
    U, _ = sample_rppi(TEST_PARAMS, 600, seed=np.random.SeedSequence(36))
    cfg = RobustConfig(c=0.5, kstar=2)
    ref = fit_robust(U, cfg)
    warm = fit_robust(U, cfg, init=ref.pi_hat)
    assert warm.iterations <= 2
    assert np.abs(warm.pi_hat.pi - ref.pi_hat.pi).max() < 1e-6
