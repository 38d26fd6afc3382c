import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

from oracles import plain_counts, plain_draws, scenario_to_dict
import rppi
import rppi.cli
from rppi.cli import main
from rppi.dataio import (fit_from_dict, params_to_dict, read_json, read_table, write_json,
                         write_table)
from rppi.errors import (
    BootstrapDegradedError,
    LowAcceptanceError,
    NonConvergenceError,
    SingularGError,
    SingularSystemError,
)
from rppi.estimator import CHUNK
from rppi.inference import bootstrap_se
from rppi.model import RPPIParams
from rppi.robust import RobustConfig, fit_robust


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)
SUBCOMMANDS = ("fit", "sample", "tune", "bootstrap", "study", "influence")
TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


@pytest.fixture()
def data_csv(tmp_path):
    U = plain_draws(TEST_PARAMS, 120, np.random.SeedSequence(81))
    path = tmp_path / "data.csv"
    write_table(path, U, names=("u1", "u2", "u3"))
    return str(path)


@pytest.fixture()
def counts_csv(tmp_path):
    counts = plain_counts(TEST_PARAMS, 400, np.random.SeedSequence(82), n=60)
    path = tmp_path / "counts.csv"
    write_table(path, counts.x, names=("x1", "x2", "x3"))
    return str(path)


@pytest.fixture()
def params_json(tmp_path):
    path = tmp_path / "params.json"
    write_json(path, params_to_dict(TEST_PARAMS))
    return str(path)


def run_fit(data_csv, tmp_path, c="0.5", name="fit"):
    out = str(tmp_path / name)
    code = main(["fit", data_csv, "--c", c, "--kstar", "2", "--out", out])
    assert code == 0
    return out


def test_fit_writes_json_and_csv(data_csv, tmp_path, capsys):
    out = run_fit(data_csv, tmp_path)
    payload = read_json(out + ".json")
    assert payload["schema_version"] == 1
    assert payload["invocation"]["c"] == 0.5
    assert len(payload["pi"]) == 5
    assert payload["restarts"] == 0
    text = (tmp_path / "fit.csv").read_text()
    assert text.startswith("parameter")
    assert (f" restarts=0 accelerated_steps={payload['accelerated_steps']} "
            in capsys.readouterr().out)


def test_fit_is_byte_reproducible(data_csv, tmp_path):
    out = run_fit(data_csv, tmp_path)
    first = (tmp_path / "fit.json").read_bytes(), (tmp_path / "fit.csv").read_bytes()
    out = run_fit(data_csv, tmp_path)
    second = (tmp_path / "fit.json").read_bytes(), (tmp_path / "fit.csv").read_bytes()
    assert first == second


def test_fit_warns_when_reference_column_is_minor(tmp_path, capsys):
    rng = np.random.default_rng(83)
    U = rng.dirichlet((5.0, 2.0, 1.0), size=50)  # last column least abundant
    path = tmp_path / "odd.csv"
    write_table(path, U)
    code = main(["fit", str(path), "--c", "0", "--out", str(tmp_path / "o")])
    assert code == 0
    assert "most abundant" in capsys.readouterr().err


def test_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u1,u2,u3\n0.5,oops,0.3\n")
    code = main(["fit", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["9e18,9e18,9e18", "1e19,1,1"])
def test_counts_past_exact_float_integers_exit_2(row, tmp_path, capsys):
    # 9e18 x 3 wraps an int64 row total; 1e19 does not fit an int64.
    path = tmp_path / "huge.csv"
    path.write_text(f"a,b,c\n1,2,3\n{row}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "count row 1 totals" in err and "more than 2**53" in err


@pytest.mark.parametrize("ridge", ["-5", "nan"])
def test_fit_rejects_a_negative_or_non_finite_ridge(ridge, data_csv, tmp_path,
                                                    capsys):
    out = tmp_path / "x"
    code = main(["fit", data_csv, "--ridge", ridge, "--out", str(out)])
    assert code == 2
    assert "ridge must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_fit_normalizes_proportion_rows_once(tmp_path):
    U = plain_draws(TEST_PARAMS, 120, np.random.SeedSequence(84))
    scaled = U * np.random.default_rng(85).uniform(0.5, 2.0, size=(120, 1))
    path = tmp_path / "scaled.csv"
    write_table(path, scaled)
    out = run_fit(str(path), tmp_path)
    fit = fit_robust(read_table(path).matrix, RobustConfig(c=0.5, kstar=2))
    assert read_json(out + ".json")["pi"] == fit.pi_hat.pi.tolist()


def test_stray_quote_in_a_long_table_exits_2(tmp_path, capsys):
    U = np.random.default_rng(86).dirichlet((2.0, 2.0, 2.0), size=20_000)
    lines = [",".join(map(repr, row)) for row in U.tolist()]
    lines[2] = '"' + lines[2]  # the quoted field runs on to the end of the file
    path = tmp_path / "quote.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["fit", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unreadable table at line 3:")


def _raises(exc):
    def fake(*args, **kwargs):
        raise exc
    return fake


def _degraded_bootstrap(fit, data, **kwargs):
    report = bootstrap_se(fit, data, **kwargs)
    raise BootstrapDegradedError("7 of 8 bootstrap replicates failed",
                                 report=report)


@pytest.mark.parametrize("code, command, patch", [
    pytest.param(1, "fit", ("fit_robust", _raises(LowAcceptanceError("too low"))),
                 id="1-other-package-error"),
    pytest.param(2, "fit-missing", None, id="2-missing-table"),
    pytest.param(2, "sample-missing", None, id="2-missing-params"),
    pytest.param(3, "fit", ("fit_robust", _raises(SingularSystemError("singular"))),
                 id="3-singular-system"),
    pytest.param(3, "fit", ("fit_robust", _raises(SingularGError("singular G"))),
                 id="3-singular-sensitivity"),
    pytest.param(4, "fit", ("fit_robust", _raises(NonConvergenceError("stuck"))),
                 id="4-nonconvergence"),
    pytest.param(5, "bootstrap", ("bootstrap_se", _degraded_bootstrap),
                 id="5-degraded-bootstrap"),
    pytest.param(6, "study-sim1", None, id="6-missing-parameter"),
])
def test_exit_codes(code, command, patch, counts_csv, tmp_path, monkeypatch,
                    capsys):
    out = str(tmp_path / "out")
    argv = {
        "fit": ["fit", counts_csv, "--c", "0.5", "--kstar", "2"],
        "fit-missing": ["fit", str(tmp_path / "missing.csv")],
        "sample-missing": ["sample", str(tmp_path / "missing.json"), "--n", "5"],
        "study-sim1": ["study", "sim1", "--replicates", "2"],
    }.get(command)
    if command == "bootstrap":
        fit_out = run_fit(counts_csv, tmp_path, c="0", name="bfit")
        argv = ["bootstrap", fit_out + ".json", counts_csv, "--b", "8",
                "--seed", "9", "--threads", "1"]
    if patch is not None:
        monkeypatch.setattr(rppi.cli, *patch)
    capsys.readouterr()
    assert main(argv + ["--out", out]) == code
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err
    if code == 5:
        assert "partial report written" in err
        assert read_json(out + ".json")["b_requested"] == 8
        assert (tmp_path / "out.csv").read_text().startswith("parameter")


def test_errors_outside_the_exit_code_table_propagate(counts_csv, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(rppi.cli, "fit_robust", _raises(KeyError("bug")))
    with pytest.raises(KeyError):
        main(["fit", counts_csv, "--out", str(tmp_path / "x")])


def test_nonconvergence_exits_4(data_csv, tmp_path, capsys):
    code = main(["fit", data_csv, "--c", "0.5", "--kstar", "2",
                 "--max-iter", "1", "--out", str(tmp_path / "x")])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_sample_continuous_and_counts(params_json, tmp_path, capsys):
    out = str(tmp_path / "s")
    code = main(["sample", params_json, "--n", "40", "--seed", "7",
                 "--out", out])
    assert code == 0
    rows = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert len(rows) == 40

    out2 = str(tmp_path / "sc")
    capsys.readouterr()
    code = main(["sample", params_json, "--m", "250", "--n", "30",
                 "--seed", "7", "--out", out2])
    assert code == 0
    counts = np.loadtxt(out2 + ".csv", delimiter=",")
    assert counts.shape == (30, 3)
    assert np.all(counts.sum(axis=1) == 250)
    payload = read_json(out2 + ".json")
    assert (payload["invocation"]["m"], payload["invocation"]["m_file"]) == (250, None)
    assert read_json(out + ".json")["invocation"]["m"] is None
    report = payload["report"]
    assert report["n_requested"] == 30
    assert f"acceptance rate {report['acceptance_rate']:.4f}" in capsys.readouterr().out

    totals = tmp_path / "m.csv"
    totals.write_text("5\n6\n7\n")
    out3 = str(tmp_path / "sf")
    assert main(["sample", params_json, "--m-file", str(totals), "--seed", "7",
                 "--out", out3]) == 0
    invocation = read_json(out3 + ".json")["invocation"]
    assert (invocation["m"], invocation["m_file"], invocation["n"]) == (None, str(totals), 3)


def test_sample_m_file_rejects_fractional_totals(params_json, tmp_path, capsys):
    totals = tmp_path / "m.csv"
    totals.write_text("2.5\n3\n4.9\n")
    code = main(["sample", params_json, "--m-file", str(totals), "--seed", "7",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "whole numbers" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sample_m_file_needs_one_column(params_json, tmp_path, capsys):
    totals = tmp_path / "m.csv"
    totals.write_text("5,6\n7,8\n")
    code = main(["sample", params_json, "--m-file", str(totals), "--seed", "7",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "one column of totals, got 2" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("option", [["--m", "5"], ["--n", "10"]], ids=["m", "n"])
def test_sample_m_file_takes_neither_m_nor_n(option, params_json, tmp_path, capsys):
    # the file gives each row's total, so a second total or row count conflicts
    totals = tmp_path / "m.csv"
    totals.write_text("5\n6\n7\n")
    code = main(["sample", params_json, "--m-file", str(totals), *option,
                 "--seed", "7", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "--m-file gives every row's total" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.*"))


def test_sample_same_seed_same_bytes(params_json, tmp_path):
    out = str(tmp_path / "s")
    main(["sample", params_json, "--n", "25", "--seed", "3", "--out", out])
    first = (tmp_path / "s.csv").read_bytes()
    main(["sample", params_json, "--n", "25", "--seed", "3", "--out", out])
    assert (tmp_path / "s.csv").read_bytes() == first


@pytest.mark.parametrize("option", [["--method", "mcmc"], ["--thin", "2"]],
                         ids=["method", "thin"])
def test_sample_has_no_sampler_options(option, params_json, tmp_path, capsys):
    # rejection is the only sampler, so `sample` takes no sampler options
    with pytest.raises(SystemExit) as exc:
        main(["sample", params_json, "--n", "30", *option, "--seed", "7",
              "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.*"))


def test_sample_needs_a_size(params_json, tmp_path, capsys):
    code = main(["sample", params_json, "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_tune_runs_and_recommends(counts_csv, tmp_path, capsys):
    out = str(tmp_path / "t")
    code = main(["tune", counts_csv, "--kstar", "2", "--grid", "0,0.5",
                 "--sim-size", "800", "--seed", "5", "--out", out])
    assert code == 0
    payload = read_json(out + ".json")
    assert payload["recommended_c"] in (0.0, 0.5)
    assert "recommended" in capsys.readouterr().out


def test_tune_rejects_proportion_tables(data_csv, tmp_path, capsys):
    code = main(["tune", data_csv, "--kstar", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "count" in capsys.readouterr().err


def test_tune_empty_grid_exits_2(counts_csv, tmp_path, capsys):
    code = main(["tune", counts_csv, "--kstar", "2", "--grid", "",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["tune", "study"])
def test_a_grid_range_with_an_infinite_bound_exits_2(command, counts_csv, tmp_path,
                                                     capsys):
    head = ["tune", counts_csv, "--kstar", "2"] if command == "tune" else \
        ["study", "sim5", "--replicates", "1", "--threads", "1"]
    for grid in ("0:inf:1", "-inf:0:1"):
        code = main(head + [f"--grid={grid}", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["tune", "study"])
def test_a_grid_range_with_too_many_points_exits_2(command, counts_csv, tmp_path,
                                                   capsys):
    head = ["tune", counts_csv, "--kstar", "2"] if command == "tune" else \
        ["study", "sim5", "--replicates", "1", "--threads", "1"]
    code = main(head + ["--grid", "0:1:1e-4", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: grid range '0:1:1e-4' has 10,001 points, "
                                "more than 10,000"]
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("option, value", [
    ("--sim-size", "0"), ("--sim-size", "-5"), ("--sim-size", "1"),
    ("--alpha", "nan"), ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "inf"),
    ("--quantile", "nan"), ("--quantile", "0"), ("--quantile", "1.5"),
    ("--kstar", "3"), ("--kstar", "9"),
])
def test_tune_rejects_bad_arguments_before_fitting(counts_csv, tmp_path, capsys,
                                                   monkeypatch, option, value):
    def no_fit(*args, **kwargs):
        raise AssertionError("tune fitted before checking its arguments")
    monkeypatch.setattr(rppi.inference, "fit_robust", no_fit)
    code = main(["tune", counts_csv, "--kstar", "2", "--grid", "0,0.5",
                 option, value, "--out", str(tmp_path / "t")])
    assert code == 2
    assert option.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    assert not (tmp_path / "t.csv").exists()


def test_tune_on_a_clean_table_does_not_import_scipy(tmp_path):
    counts = plain_counts(TEST_PARAMS, 500, np.random.SeedSequence(87), n=300)
    path = tmp_path / "counts.csv"
    write_table(path, counts.x)
    out = tmp_path / "tune"
    # every KS p-value of this table and of the plain loop's simulated
    # draws lies where rppi computes it
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(TESTS)!r}); import oracles; "
         "import rppi.inference as inference; "
         "inference.sample_rppi = lambda params, n, seed: "
         "(oracles.plain_draws(params, n, seed), None); "
         "from rppi.cli import main; "
         f"code = main(['tune', {str(path)!r}, '--kstar', '2', '--seed', '3', "
         f"'--out', {str(out)!r}]); "
         "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, env=code_under_test_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert len(read_json(str(out) + ".json")["grid"]) == 31


def test_bootstrap_round_trip(counts_csv, tmp_path):
    fit_out = run_fit(counts_csv, tmp_path, c="0", name="bfit")
    written = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"boot{threads}")
        code = main(["bootstrap", fit_out + ".json", counts_csv, "--b", "8",
                     "--seed", "9", "--threads", threads, "--out", out])
        assert code == 0
        written.append([Path(out + ext).read_bytes() for ext in (".json", ".csv")])
    payload = read_json(out + ".json")
    assert payload["b_requested"] == 8
    assert len(payload["se"]) == 5
    # --threads stays out of the invocation; the replicates do not depend on it
    assert written[0] == written[1]


def test_bootstrap_refits_with_the_fits_ridge(counts_csv, tmp_path):
    # With --ridge 5 the interaction estimates are about 0.01; refits
    # without the ridge scatter by orders of magnitude more.
    fit_out = str(tmp_path / "rfit")
    assert main(["fit", counts_csv, "--c", "0.5", "--kstar", "2", "--ridge", "5",
                 "--out", fit_out]) == 0
    fit = read_json(fit_out + ".json")
    assert fit["ridge"] == 5.0 and np.abs(fit["pi"][:3]).max() < 0.1
    assert fit_from_dict(fit).ridge == 5.0
    out = str(tmp_path / "rboot")
    assert main(["bootstrap", fit_out + ".json", counts_csv, "--b", "8",
                 "--seed", "9", "--threads", "1", "--out", out]) == 0
    boot = read_json(out + ".json")
    assert boot["b_used"] == 8
    assert max(boot["se"][:3]) < 0.1


def test_study_preset_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "study")
    code = main(["study", "sim5", "--replicates", "2", "--grid", "0", "--tol", "1e-9",
                 "--max-iter", "300", "--seed", "1", "--threads", "1", "--out", out])
    assert code == 0
    payload = read_json(out + ".json")
    assert payload["scenario"] == "sim5"
    assert payload["invocation"] == {
        "command": "study", "scenario": "sim5", "replicates": 2, "grid": "0",
        "a_matrix": None, "tol": 1e-9, "max_iter": 300, "seed": 1}
    assert (tmp_path / "study.csv").exists()
    capsys.readouterr()

    code = main(["study", "sim1", "--replicates", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 6  # needs the first dataset's interaction matrix
    assert "a_matrix" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, flag, value", [
    ("file", "--grid", "0,1,2"),
    ("file", "--a-matrix", "a.json"),
    ("file", "--tol", "1e-2"),
    ("file", "--max-iter", "3"),
    ("sim5", "--a-matrix", "a.json"),
    ("sim8", "--a-matrix", "a.json"),
], ids=["file-grid", "file-a-matrix", "file-tol", "file-max-iter", "sim5-a-matrix",
        "sim8-a-matrix"])
def test_study_refuses_options_its_scenario_does_not_use(scenario, flag, value,
                                                          tmp_path, capsys):
    # a scenario file carries its own panel, configs and matrix; sim5-sim8
    # have their matrix built in
    from rppi.study import preset_scenario

    if scenario == "file":
        scenario = str(tmp_path / "scenario.json")
        write_json(scenario, scenario_to_dict(preset_scenario("sim5", replicates=1)))
    code = main(["study", scenario, flag, value, "--replicates", "1", "--threads", "1",
                 "--out", str(tmp_path / "st")])
    assert code == 2
    assert f"error: {flag} applies only to" in capsys.readouterr().err
    assert not list(tmp_path.glob("st.*"))


def test_study_scenario_file_with_threads_invariance(tmp_path):
    from rppi.study import preset_scenario

    sc = preset_scenario("sim5", replicates=3, cs=(0.0, 0.5), seed=21)
    path = tmp_path / "scenario.json"
    write_json(path, scenario_to_dict(sc))
    out = str(tmp_path / "st")
    assert main(["study", str(path), "--threads", "1", "--out", out]) == 0
    first = (tmp_path / "st.json").read_bytes(), (tmp_path / "st.csv").read_bytes()
    assert main(["study", str(path), "--threads", "2", "--out", out]) == 0
    assert ((tmp_path / "st.json").read_bytes(),
            (tmp_path / "st.csv").read_bytes()) == first


def test_influence_grid_sweep(counts_csv, tmp_path, capsys):
    fit_out = run_fit(counts_csv, tmp_path, c="0.5", name="ifit")
    out = str(tmp_path / "inf")
    code = main(["influence", fit_out + ".json", "--grid-resolution", "8",
                 "--ref-size", "1000", "--seed", "13", "--out", out])
    assert code == 0
    payload = read_json(out + ".json")
    assert payload["sup_norm"] is not None
    assert payload["n_points"] == 45  # C(8 + 2, 2)
    assert "sup |IF|" in capsys.readouterr().out


def test_influence_refuses_a_simplex_grid_over_its_bound(tmp_path, capsys):
    # p = 10 at the default resolution 20 has C(29, 9) = 10,015,005 points
    rows = np.random.default_rng(19).dirichlet(np.full(10, 2.0), size=300)
    data = tmp_path / "p10.csv"
    np.savetxt(data, rows, delimiter=",")
    fit_out = str(tmp_path / "p10fit")
    assert main(["fit", str(data), "--out", fit_out]) == 0
    capsys.readouterr()
    code = main(["influence", fit_out + ".json", "--out", str(tmp_path / "big")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: a simplex grid of resolution 20 at p=10 has "
                                "10,015,005 points, more than 1,000,000"]
    assert not list(tmp_path.glob("big*"))


def test_influence_accepts_explicit_points(counts_csv, tmp_path):
    fit_out = run_fit(counts_csv, tmp_path, c="0", name="zfit")
    out = str(tmp_path / "zi")
    code = main(["influence", fit_out + ".json", "--z", "1,0,0",
                 "--z", "0.2,0.3,0.5", "--ref-size", "800", "--seed", "3",
                 "--out", out])
    assert code == 0
    assert read_json(out + ".json")["n_points"] == 2


def test_seed_env_var_supplies_the_default(params_json, tmp_path, monkeypatch):
    out = str(tmp_path / "a")
    monkeypatch.setenv("RPPI_SEED", "77")
    main(["sample", params_json, "--n", "20", "--out", out])
    env_bytes = (tmp_path / "a.csv").read_bytes()
    monkeypatch.delenv("RPPI_SEED")
    main(["sample", params_json, "--n", "20", "--seed", "77",
          "--out", str(tmp_path / "b")])
    assert (tmp_path / "b.csv").read_bytes() == env_bytes


def test_a_singular_weighted_fit_exits_3_naming_the_weights_effective_size(tmp_path,
                                                                          capsys):
    from test_prepared import study_rows
    path = tmp_path / "sim7.csv"
    write_table(path, study_rows("sim7", 7, 0)[1])
    code = main(["fit", str(path), "--c", "0.01", "--kstar", "4",
                 "--out", str(tmp_path / "fit")])
    assert code == 3
    assert "effective sample size 1/sum(w^2) is 5.0 of 94" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["study", "sim5", "--replicates", "1"],
    ["bootstrap", "missing-fit.json", "missing-counts.csv"],
])
def test_a_worker_count_below_one_is_refused_before_any_work(command, value, tmp_path,
                                                             capsys, monkeypatch):
    # the input files do not exist: the message must be about the count
    out = str(tmp_path / "out")
    assert main(command + ["--threads", value, "--out", out]) == 2
    assert f"--threads must be at least 1, got {value}" in capsys.readouterr().err
    monkeypatch.setenv("RPPI_THREADS", value)
    assert main(command + ["--out", out]) == 2
    assert f"RPPI_THREADS must be at least 1, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variable, command", [
    ("RPPI_SEED", ["sample", "missing-params.json", "--n", "5"]),
    ("RPPI_SEED", ["study", "sim5", "--replicates", "1", "--threads", "1"]),
    ("RPPI_SEED", ["tune", "missing-counts.csv", "--kstar", "2"]),
    ("RPPI_SEED", ["influence", "missing-fit.json"]),
    ("RPPI_THREADS", ["study", "sim5", "--replicates", "1"]),
    ("RPPI_THREADS", ["bootstrap", "missing-fit.json", "missing-counts.csv"]),
])
def test_a_non_integer_setting_is_named_in_its_error(variable, command, tmp_path,
                                                    capsys, monkeypatch):
    monkeypatch.setenv(variable, "x")
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    assert f"{variable} must be an integer, got 'x'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def declared_console_script():
    """The value of `rppi` in pyproject's [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("rppi") == "rppi.cli:main"
    return scripts["rppi"]


def code_under_test_env():
    """os.environ with the directory this process imported rppi from
    first on PYTHONPATH, so child processes run the same code."""
    root = str(Path(rppi.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=root + (os.pathsep + rest if rest else ""))


def assert_lists_subcommands(help_text):
    choices = re.search(r"\{([\w,-]+)\}", help_text)
    assert choices is not None
    assert set(SUBCOMMANDS) <= set(choices.group(1).split(","))


def rppi_distribution_installed():
    try:
        metadata.distribution("rppi")
    except metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture()
def rppi_script(tmp_path):
    """The `rppi` command as an installer writes it into bin/ on POSIX,
    built from the project's own [project.scripts] declaration."""
    ep = metadata.EntryPoint(name="rppi", value=declared_console_script(),
                             group="console_scripts")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "rppi"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {ep.module} import {ep.attr}\n"
                        f"sys.exit({ep.attr}())\n")
    launcher.chmod(0o755)
    search = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    exe = shutil.which("rppi", path=search)
    assert exe == str(launcher)
    return exe


def test_console_script_is_installed(rppi_script, tmp_path):
    env = code_under_test_env()
    proc = subprocess.run([rppi_script, "--help"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert_lists_subcommands(proc.stdout)

    # main's return value must reach the shell as the exit status
    bad = tmp_path / "bad.csv"
    bad.write_text("u1,u2,u3\n0.5,oops,0.3\n")
    proc = subprocess.run([rppi_script, "fit", str(bad),
                           "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "line" in proc.stderr


@pytest.mark.skipif(not rppi_distribution_installed(),
                    reason="no rppi distribution is installed")
def test_installed_distribution_exposes_console_script():
    dist = metadata.distribution("rppi")
    (ep,) = dist.entry_points.select(group="console_scripts", name="rppi")
    assert ep.value == declared_console_script()
    scripts = [f for f in dist.files or ()
               if f.parent.name in ("bin", "Scripts")
               and f.stem == "rppi"]
    assert scripts, "RECORD lists no rppi script"
    exe = dist.locate_file(scripts[0])
    assert Path(exe).exists()
    proc = subprocess.run([str(exe), "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert_lists_subcommands(proc.stdout)


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy is slow to import; only `tune` loads scipy.stats, and only for
    # a p-value in the tail or a table under about 150 rows
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rppi.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, env=code_under_test_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_bytes_do_not_depend_on_blas_threads(tmp_path):
    # p = 8 over more than two chunks: a threaded GEMM of this size
    # splits its columns differently with the thread count
    rng = np.random.default_rng(86)
    U = rng.dirichlet(np.linspace(1.0, 4.0, 8), size=2 * CHUNK + 100)
    path = tmp_path / "wide.csv"
    write_table(path, U)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "rppi.cli", "fit", str(path), "--c", "0.5",
             "--kstar", "2", "--out", str(out)],
            capture_output=True, text=True,
            env=dict(code_under_test_env(), OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append([Path(str(out) + ext).read_bytes() for ext in (".json", ".csv")])
    assert outputs[0] == outputs[1]
    # the fit took Anderson steps, so the comparison covers their least squares
    assert read_json(str(tmp_path / "threads1") + ".json")["accelerated_steps"] > 0


def test_module_entry_point_matches(tmp_path, params_json, rppi_script):
    args = ["sample", params_json, "--n", "10", "--seed", "2", "--out"]
    env = code_under_test_env()
    by_module = subprocess.run(
        [sys.executable, "-m", "rppi.cli", *args, str(tmp_path / "mod")],
        capture_output=True, text=True, env=env)
    assert by_module.returncode == 0
    by_script = subprocess.run(
        [rppi_script, *args, str(tmp_path / "script")],
        capture_output=True, text=True, env=env)
    assert by_script.returncode == 0
    for ext in (".csv", ".json"):
        assert ((tmp_path / ("mod" + ext)).read_bytes()
                == (tmp_path / ("script" + ext)).read_bytes())


# The exact keys of every JSON report.  A renamed or added result field
# changes the files users read, so it must show up here as a deliberate
# schema change.
HEADER_KEYS = {"schema_version", "kind"}
PARAMS_KEYS = HEADER_KEYS | {"p", "kstar", "a_l", "beta"}
CONFIG_KEYS = {"c", "kstar", "tol", "max_iter"}
REPORT_KEYS = {
    "fit": HEADER_KEYS | {"invocation", "p", "labels", "pi", "params", "config",
                          "beta_p", "ridge", "n_obs", "iterations", "restarts",
                          "accelerated_steps", "converged", "weight_cv", "residual",
                          "condition_number"},
    "sample": HEADER_KEYS | {"invocation", "report"},
    "tune": HEADER_KEYS | {"invocation", "grid", "alpha", "components",
                           "recommended_c", "entries"},
    "bootstrap": HEADER_KEYS | {"invocation", "b_requested", "b_used", "n_failed",
                                "labels", "point", "se", "ratio"},
    "rmse_table": HEADER_KEYS | {"invocation", "scenario", "replicates", "labels",
                                 "estimators", "truth", "rmse", "failures",
                                 "flagged"},
    "influence": HEADER_KEYS | {"invocation", "c", "kstar", "n_reference",
                                "n_points", "sup_norm"},
}
SAMPLE_INVOCATION_KEYS = {"command", "params", "seed", "n", "m", "m_file", "mode"}


def test_report_schema_is_pinned(counts_csv, params_json, tmp_path):
    from rppi.study import preset_scenario

    out = {name: str(tmp_path / name) for name in
           ("fit", "sample", "tune", "bootstrap", "rmse_table", "influence")}
    for argv in (
        ["fit", counts_csv, "--c", "0.5", "--kstar", "2"],
        ["sample", params_json, "--n", "40", "--seed", "7"],
        ["tune", counts_csv, "--kstar", "2", "--grid", "0,0.5",
         "--sim-size", "800", "--seed", "5"],
        ["bootstrap", out["fit"] + ".json", counts_csv, "--b", "8",
         "--seed", "9", "--threads", "1"],
        ["study", "sim5", "--replicates", "2", "--grid", "0", "--seed", "1",
         "--threads", "1"],
        ["influence", out["fit"] + ".json", "--grid-resolution", "4",
         "--ref-size", "500", "--seed", "13"],
    ):
        name = "rmse_table" if argv[0] == "study" else argv[0]
        assert main(argv + ["--out", out[name]]) == 0
    payloads = {name: read_json(path + ".json") for name, path in out.items()}
    for kind, payload in payloads.items():
        assert set(payload) == REPORT_KEYS[kind], kind
        assert payload["kind"] == kind and payload["schema_version"] == 1
    assert set(payloads["fit"]["config"]) == CONFIG_KEYS
    assert set(payloads["fit"]["params"]) == PARAMS_KEYS
    assert payloads["fit"]["params"]["kind"] == "params"
    report = payloads["sample"]["report"]
    assert set(report) == HEADER_KEYS | {"n_requested", "n_proposals",
                                         "acceptance_rate", "envelope_constant",
                                         "face_max", "n_stage_two"}
    assert report["kind"] == "sampler_report"
    # counts mode carries its rejection sampler's report too
    assert main(["sample", params_json, "--m", "250", "--n", "30", "--seed", "7",
                 "--out", str(tmp_path / "counts")]) == 0
    counts_payload = read_json(str(tmp_path / "counts.json"))
    assert set(counts_payload) == REPORT_KEYS["sample"]
    assert set(payloads["sample"]["invocation"]) == SAMPLE_INVOCATION_KEYS
    assert set(counts_payload["invocation"]) == SAMPLE_INVOCATION_KEYS
    assert set(counts_payload["report"]) == set(report)
    assert set(payloads["tune"]["entries"][0]) == {
        "c", "converged", "error", "weight_cv", "ks_stats", "ks_pvalues"}

    scenario = scenario_to_dict(preset_scenario("sim7", replicates=2))
    assert set(scenario) == HEADER_KEYS | {
        "name", "truth", "n", "replicates", "data_mode", "m", "contamination",
        "outlier", "seed", "estimators"}
    assert scenario["kind"] == "scenario"
    assert set(scenario["truth"]) == PARAMS_KEYS
    assert {frozenset(e) for e in scenario["estimators"]} == {
        frozenset({"label", "config"})}
    assert set(scenario["estimators"][0]["config"]) == CONFIG_KEYS
