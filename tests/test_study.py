import numpy as np
import pytest

from rppi.errors import MissingParameterError
from rppi.model import RPPIParams, pack, param_labels
from rppi.robust import RobustConfig
from rppi.sampling import spawn_seeds
from rppi.study import (
    FULL_GRID,
    SHORT_GRID,
    RmseTable,
    StudyScenario,
    _replicate,
    dataset2_truth,
    estimator_panel,
    preset_scenario,
    run_study,
)


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        truth=TEST_PARAMS,
        n=80,
        replicates=6,
        estimators=estimator_panel((0.0, 0.5), kstar=2),
        seed=909,
    )
    base.update(overrides)
    return StudyScenario(**base)


def test_dataset2_truth_is_the_concentrated_five_part_design():
    truth = dataset2_truth()
    assert truth.p == 5 and truth.kstar == 4
    assert truth.beta[-1] == 0.0
    assert np.all(truth.beta[:4] < 0.0)
    assert np.allclose(truth.a_l, truth.a_l.T)


def test_scenario_validation():
    with pytest.raises(ValueError):
        tiny_scenario(data_mode="poisson")
    with pytest.raises(ValueError):
        tiny_scenario(data_mode="multinomial")  # m missing
    with pytest.raises(ValueError):
        tiny_scenario(contamination=0.1)  # outlier missing
    with pytest.raises(ValueError):
        tiny_scenario(contamination=0.1, outlier=(0.5, 0.5))
    with pytest.raises(ValueError):
        tiny_scenario(estimators=())
    with pytest.raises(ValueError):
        tiny_scenario(replicates=0)


def test_estimator_panel_labels():
    panel = estimator_panel((0.0, 0.25, 1.0), kstar=3)
    assert [label for label, _ in panel] == ["c=0", "c=0.25", "c=1"]
    assert all(cfg.kstar == 3 for _, cfg in panel)


def test_presets_cover_the_four_designs_per_dataset():
    with pytest.raises(MissingParameterError):
        preset_scenario("sim9")
    with pytest.raises(MissingParameterError):
        preset_scenario("sim2")  # first-dataset designs need a_matrix
    a = np.diag([-5.0, -4.0, -3.0, -2.0])
    sim1 = preset_scenario("sim1", a_matrix=a, replicates=3)
    assert sim1.data_mode == "continuous" and sim1.contamination == 0.0
    assert sim1.truth.kstar == 2 and sim1.n == 92
    assert tuple(cfg.c for _, cfg in sim1.estimators) == SHORT_GRID
    sim4 = preset_scenario("sim4", a_matrix=a, replicates=3)
    assert sim4.data_mode == "multinomial" and sim4.m == 2000
    assert sim4.contamination > 0.0 and len(sim4.outlier) == 5
    sim5 = preset_scenario("sim5", replicates=3)
    assert sim5.data_mode == "continuous" and sim5.contamination == 0.0
    assert tuple(cfg.c for _, cfg in sim5.estimators) == FULL_GRID
    sim8 = preset_scenario("sim8", replicates=3, cs=(0.0,))
    assert sim8.data_mode == "multinomial"
    assert abs(sim8.contamination - 0.053) < 1e-12
    assert sim8.n == 94


def test_run_study_shapes_and_determinism_across_threads():
    sc = tiny_scenario()
    t1 = run_study(sc, threads=1)
    t2 = run_study(sc, threads=2)
    assert t1.labels == tuple(param_labels(3))
    assert t1.estimators == ("c=0", "c=0.5")
    assert t1.rmse.shape == (5, 2)
    assert t1.failures == (0, 0) and t1.flagged == ()
    assert np.all(np.isfinite(t1.rmse))
    assert t1.rmse.tobytes() == t2.rmse.tobytes()


def test_run_study_matches_a_direct_replicate_loop():
    sc = tiny_scenario(replicates=4)
    table = run_study(sc)
    truth_vec = pack(sc.truth).pi
    rows = [_replicate(s, sc) for s in spawn_seeds(sc.seed, sc.replicates)]
    for col in range(2):
        fits = np.array([r[col] for r in rows])
        want = np.sqrt(np.mean((fits - truth_vec) ** 2, axis=0))
        assert np.array_equal(table.rmse[:, col], want)


def test_failures_are_counted_and_flagged():
    sc = tiny_scenario(
        estimators=estimator_panel((0.0, 0.5), kstar=2, max_iter=1),
        replicates=4,
    )
    table = run_study(sc)
    # one iteration never satisfies the tolerance for c > 0
    assert table.failures[1] == 4
    assert "c=0.5" in table.flagged
    assert np.all(np.isnan(table.rmse[:, table.estimators.index("c=0.5")]))
    assert table.failures[0] == 0  # the plain fit is a single solve


def test_rmse_table_rows_and_columns_are_labelled():
    sc = tiny_scenario(replicates=3)
    table = run_study(sc)
    assert table.labels == tuple(param_labels(3)) and table.labels[3] == "beta_1"
    assert table.estimators == ("c=0", "c=0.5")
    assert table.rmse.shape == (len(table.labels), len(table.estimators))
