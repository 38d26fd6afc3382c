"""One dataset's rows, statistics and plain start, prepared once and
shared by every fit of a c panel: the panel's fits must be bit for bit
the fits from the rows, and the statistics must be computed once."""

from dataclasses import fields

import numpy as np
import pytest

import rppi.estimator as estimator
import rppi.robust as robust
import rppi.study as study
from rppi.errors import RPPIError, SingularSystemError
from rppi.estimator import assemble, score_stats
from rppi.inference import tune_c
from rppi.model import CountDataset, ParamVector, RPPIParams, as_matrix
from rppi.robust import PreparedData, RobustConfig, RobustFitResult, fit_robust, kk_mask
from rppi.sampling import contaminate, rng_from, sample_rppi, spawn_seeds
from rppi.study import FULL_GRID, preset_scenario

TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)


def study_rows(name, seed, replicate, replicates=25):
    """The rows study._replicate fits for one replicate of a preset."""
    scenario = preset_scenario(name, seed=seed, replicates=replicates)
    latent, counts, contam = spawn_seeds(seed, replicates)[replicate].spawn(3)
    u, _ = sample_rppi(scenario.truth, scenario.n, seed=latent)
    if scenario.data_mode == "multinomial":
        u = rng_from(counts).multinomial(np.full(scenario.n, scenario.m), u) / float(scenario.m)
    if scenario.contamination > 0.0:
        u = contaminate(u, scenario.contamination, np.asarray(scenario.outlier), seed=contam)
    return scenario, u


def _bits(value):
    if isinstance(value, ParamVector):
        return value.pi.tobytes()
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value, dtype=float).tobytes()
    return value


def outcome(fit, *args, **kwargs):
    """Every RobustFitResult field as bytes, or the exception's type and message."""
    try:
        result = fit(*args, **kwargs)
    except RPPIError as exc:
        return type(exc), str(exc)
    return {f.name: _bits(getattr(result, f.name)) for f in fields(RobustFitResult)}


def assert_panel_is_fresh(u, configs, beta_p):
    data = PreparedData(u, beta_p)
    failures = 0
    for cfg in configs:
        fresh = outcome(fit_robust, PreparedData(u, beta_p), cfg)
        assert outcome(fit_robust, data, cfg) == fresh, cfg
        failures += isinstance(fresh, tuple)
    return failures


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", ["sim5", "sim6", "sim7", "sim8"])
def test_a_panel_fit_equals_fresh_fits_bit_for_bit(name, seed):
    for replicate in range(5):
        scenario, u = study_rows(name, seed, replicate)
        configs = [cfg for _, cfg in scenario.estimators]
        assert len(configs) == 7
        assert_panel_is_fresh(u, configs, float(scenario.truth.beta[-1]))


@pytest.mark.filterwarnings("ignore::rppi.errors.DegeneracyWarning")
@pytest.mark.parametrize("seed, replicate", [(7, 0), (10, 13), (10, 15)])
def test_a_panel_fails_where_fresh_fits_fail(seed, replicate):
    # sim7 replicates whose weighted fits failed in a study: the shared
    # plain start and restart scale must fail them with the same error
    scenario, u = study_rows("sim7", seed, replicate)
    configs = [cfg for _, cfg in scenario.estimators]
    failures = assert_panel_is_fresh(u, configs, float(scenario.truth.beta[-1]))
    assert failures > 0


def test_ridges_do_not_share_a_start():
    # one PreparedData serves fits without a ridge and with one, in an
    # interleaved order: each must equal its fresh fit
    u, _ = sample_rppi(TEST_PARAMS, 300, seed=np.random.SeedSequence(12))
    data = PreparedData(u)
    for c in FULL_GRID:
        cfg = RobustConfig(c=c, kstar=2)
        for kwargs in ({}, {"ridge": 1e-3}):
            fresh = outcome(fit_robust, u, cfg, **kwargs)
            assert isinstance(fresh, dict)
            assert outcome(fit_robust, data, cfg, **kwargs) == fresh, (c, kwargs)


def test_a_singular_plain_start_fails_each_fit_as_a_fresh_fit_does():
    # 50 copies of one row: the plain solve is singular (cond inf), so
    # every start fails, and a shared PreparedData keeps no failed start
    u = np.tile([0.2, 0.3, 0.5], (50, 1))
    data = PreparedData(u)
    for c in FULL_GRID:
        cfg = RobustConfig(c=c, kstar=2)
        fresh = outcome(fit_robust, PreparedData(u), cfg)
        assert fresh[0] is SingularSystemError
        assert outcome(fit_robust, data, cfg) == fresh, c
    assert outcome(fit_robust, u, RobustConfig(c=0.0, kstar=2))[1] == (
        "equilibrated system condition number inf exceeds 1e+12")


def test_a_weighted_fit_with_a_ridge_solves_the_ridged_equation():
    # the loop solves (W_hat + ridge I) H pi = d_hat, so that is the
    # equation whose residual its stop rule bounds
    u, _ = sample_rppi(TEST_PARAMS, 300, seed=np.random.SeedSequence(12))
    for ridge in (1e-3, 1e-1):
        fit = fit_robust(u, RobustConfig(c=0.5, kstar=2), ridge=ridge)
        assert fit.accelerated_steps > 0
        w_hat, d_hat = assemble(score_stats(as_matrix(u)), fit.final_weights)
        hx = np.where(kk_mask(3, 2), 1.5, 1.0) * fit.pi_hat.pi
        assert np.abs(w_hat @ hx + ridge * hx - d_hat).max() < 1e-6 * np.abs(d_hat).max()


def test_a_c_zero_fit_cannot_change_the_shared_start():
    scenario, u = study_rows("sim5", 3, 0)
    data = PreparedData(u, float(scenario.truth.beta[-1]))
    fit = fit_robust(data, RobustConfig(c=0.0, kstar=4))
    with pytest.raises(ValueError):
        fit.d_hat[0] = 1.0


def test_prepared_data_keeps_its_own_beta_p():
    u = study_rows("sim5", 3, 0)[1]
    data = PreparedData(u, -0.5)
    cfg = RobustConfig(c=0.5, kstar=4)
    assert fit_robust(data, cfg).beta_p == -0.5


class Spy:
    def __init__(self, monkeypatch, module, name):
        self.calls = []
        original = getattr(module, name)

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            self.calls.append((args, result))
            return result
        monkeypatch.setattr(module, name, spy)


def test_a_study_replicate_evaluates_its_rows_and_plain_start_once(monkeypatch):
    scenario = preset_scenario("sim7", seed=3, replicates=2)
    child = spawn_seeds(3, 2)[0]
    _, u = study_rows("sim7", 3, 0, replicates=2)
    beta_p = float(scenario.truth.beta[-1])
    plain = assemble(score_stats(as_matrix(u), beta_p))[0].tobytes()
    kernels = Spy(monkeypatch, estimator, "r_matrix_batch")
    solves = Spy(monkeypatch, robust, "solve_system")
    fits = study._replicate(child, scenario)
    assert len(fits) == 7 and all(fit is not None for fit in fits)
    assert [result.shape[0] for _, result in kernels.calls] == [scenario.n]
    assert len(solves.calls) > 7
    assert sum(args[0].tobytes() == plain for args, _ in solves.calls) == 1


def test_tune_evaluates_the_table_once_for_its_grid(monkeypatch):
    u = np.random.default_rng(8).dirichlet((2.0, 3.0, 4.0), size=60)
    counts = CountDataset(np.round(u * 500).astype(int))
    kernels = Spy(monkeypatch, estimator, "r_matrix_batch")
    report = tune_c(counts, (0.0, 0.25, 0.5, 1.0), kstar=2, sim_size=200, seed=3)
    assert len(report.entries) == 4
    assert [result.shape[0] for _, result in kernels.calls] == [60]
