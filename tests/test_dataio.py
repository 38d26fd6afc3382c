import csv
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rppi.dataio import (
    SCHEMA_VERSION,
    _fmt,
    bootstrap_csv_rows,
    config_from_dict,
    fit_csv_rows,
    fit_from_dict,
    fit_to_dict,
    params_from_dict,
    params_to_dict,
    read_json,
    read_table,
    report_to_dict,
    rmse_csv_rows,
    scenario_from_dict,
    tune_csv_rows,
    write_csv_rows,
    write_json,
    write_table,
)
from oracles import plain_counts, scenario_to_dict
from rppi import dataio
from rppi.errors import ParseError
from rppi.inference import bootstrap_se, tune_c
from rppi.model import ParamVector, RPPIParams, proportions
from rppi.robust import PreparedData, RobustConfig, fit_robust
from rppi.study import preset_scenario, run_study


TEST_PARAMS = RPPIParams(a_l=[[-2.0, 1.0], [1.0, -1.0]],
                         beta=[-0.3, 0.2, 0.0], kstar=2)


def fixture_counts(seed=71):
    return plain_counts(TEST_PARAMS, 300, np.random.SeedSequence(seed), n=50)


def test_table_round_trip_preserves_floats_exactly(tmp_path):
    rng = np.random.default_rng(72)
    M = rng.dirichlet((1.0, 2.0, 3.0), size=17)
    path = tmp_path / "t.csv"
    write_table(path, M, names=("x", "y", "z"))
    back = read_table(path)
    assert back.names == ("x", "y", "z")
    assert not back.is_counts
    assert np.array_equal(back.matrix, M)


def test_write_table_bytes_match_per_cell_formatting(tmp_path, monkeypatch):
    def reference(path, matrix, names=None):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if names is not None:
                writer.writerow(list(names))
            for row in np.asarray(matrix):
                writer.writerow([_fmt(v) for v in row])

    special = np.array([[np.nan, np.inf, -np.inf, -0.0],
                        [5e-324, 1e16, 1e22, 0.1 + 0.2],
                        [1e-300, -2.5, 0.0, 1.0 / 3.0]])
    rng = np.random.default_rng(72)
    cases = [
        (special, None),
        (special.astype(np.float32), ("a", "b", "c", "d")),
        (rng.dirichlet(np.ones(4), size=50), None),
        (rng.integers(0, 10**6, size=(20, 3), dtype=np.int64), ("x1", "x2", "x3")),
        (rng.random((6, 2)) < 0.5, None),
        (np.array([[1.5, 2.0]]), ("a,b", 'say "c"')),
    ]
    for i, (matrix, names) in enumerate(cases):
        reference(tmp_path / f"want{i}.csv", matrix, names=names)
        want = (tmp_path / f"want{i}.csv").read_bytes()
        write_table(tmp_path / f"got{i}.csv", matrix, names=names)
        assert (tmp_path / f"got{i}.csv").read_bytes() == want, matrix.dtype
        with monkeypatch.context() as m:
            m.setattr("rppi.dataio.WRITE_ROWS", 7)  # block edges, partial last block
            write_table(tmp_path / f"got{i}.csv", matrix, names=names)
        assert (tmp_path / f"got{i}.csv").read_bytes() == want, matrix.dtype
    assert want.startswith(b'"a,b","say ""c"""\n')


def test_integer_tables_are_recognized_as_counts(tmp_path):
    path = tmp_path / "c.csv"
    write_table(path, np.array([[3, 0, 7], [1, 1, 0]]), names=("a", "b", "c"))
    table = read_table(path)
    assert table.is_counts
    data = table.counts
    assert np.array_equal(data.m, [10, 2])


def test_tab_and_semicolon_delimiters_are_detected(tmp_path):
    rng = np.random.default_rng(73)
    M = rng.dirichlet((1.0, 2.0, 3.0), size=9)
    comma = tmp_path / "t.csv"
    write_table(comma, M, names=("x", "y", "z"))
    want = read_table(comma)
    for name, delim in (("t.tsv", "\t"), ("t.ssv", ";")):
        path = tmp_path / name
        path.write_text("\n" + comma.read_text().replace(",", delim))
        got = read_table(path)
        assert got.names == want.names
        assert np.array_equal(got.matrix, want.matrix)
    # a single column has no delimiter at all and reads as before
    single = tmp_path / "m.csv"
    single.write_text("500\n480\n")
    assert read_table(single).matrix.tolist() == [[500.0], [480.0]]


def test_proportion_tables_refuse_to_become_counts(tmp_path):
    path = tmp_path / "p.csv"
    write_table(path, np.array([[0.5, 0.5, 0.0]]))
    with pytest.raises(ParseError):
        read_table(path).counts


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError) as err:
        read_table(bad)
    assert err.value.line == 3
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError) as err:
        read_table(ragged)
    assert err.value.line == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ParseError):
        read_table(empty)


def test_a_byte_order_mark_is_not_part_of_the_table(tmp_path):
    rows = b"0.2,0.3,0.5\r\n0.1,0.1,0.8\r\n0.6,0.2,0.2\r\n"
    headerless = tmp_path / "bom.csv"
    headerless.write_bytes(b"\xef\xbb\xbf" + rows)
    table = read_table(headerless)
    assert table.names is None
    assert table.matrix.tolist() == [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2]]
    headed = tmp_path / "bom_header.csv"
    headed.write_bytes(b"\xef\xbb\xbfa,b,c\r\n" + rows)
    table = read_table(headed)
    assert table.names == ("a", "b", "c")
    assert table.matrix.shape == (3, 3)


TABLE_PIECES = (b"0", b"1", b"2.5", b"-3", b"1e999", b"nan", b"x", b" ", b",",
                b";", b"\t", b"\n", b"\r", b'"', b"\x00", b"\xff", b"\xc3\xa9")


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200)
       | st.lists(st.sampled_from(TABLE_PIECES), max_size=60).map(b"".join))
def test_read_table_raises_nothing_but_parse_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(raw)
    try:
        table = read_table(path)
    except ParseError:
        return
    assert table.matrix.ndim == 2 and np.all(np.isfinite(table.matrix))


# Cells the fast reader must refuse or read exactly as ``float`` does:
# quotes, underscores, comments, non-finite values, non-ASCII digits
# and spaces.
ODD_CELLS = ("-0", " 4 ", "1_0", '"1"', "#", "#1", "nan", "inf", "1e999", "x", "",
             "\u0661", "1\u00a0", "\u20032", "0x10")
ODD_NAMES = ('"c,d"', '"e', "#", "1_0", "", " z ")


@st.composite
def near_valid_tables(draw):
    """Raw bytes of a mostly well-formed table with occasional faults."""
    delimiter = draw(st.sampled_from(",\t;"))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    width = draw(st.integers(1, 4))
    number = st.integers(0, 10**6).map(str) | st.floats(-1e3, 1e3).map(repr)

    def rare(common, odd, one_in=12):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, one_in - 1)) == 0 \
            else draw(common)

    lines = []
    if draw(st.booleans()):
        lines.append(delimiter.join(rare(st.sampled_from("abxyz"), ODD_NAMES)
                                    for _ in range(rare(st.just(width), (width + 1,)))))
    for _ in range(draw(st.integers(0, 6))):
        kind = rare(st.just("row"), ("blank", "space", "delimiters"), one_in=6)
        if kind == "row":
            cells = rare(st.just(width), (width - 1, width + 1), one_in=10)
            lines.append(delimiter.join(rare(number, ODD_CELLS, one_in=30)
                                        for _ in range(cells)))
        else:
            lines.append({"blank": "", "space": " ",
                          "delimiters": delimiter * width}[kind])
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


def _outcome(reader, path):
    try:
        table = reader(path)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "table", table.names, table.is_counts, table.matrix.shape, table.matrix.tobytes()


@settings(max_examples=300, deadline=None)
@given(raw=near_valid_tables())
def test_read_table_agrees_with_the_strict_reader(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "diff.csv"
    path.write_bytes(raw)
    assert _outcome(read_table, path) == _outcome(dataio._read_strict, path)


def test_plain_tables_never_reach_the_strict_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(74)
    M = rng.dirichlet((1.0, 2.0, 3.0), size=40)
    comma = tmp_path / "t.csv"
    write_table(comma, M, names=("x", "y", "z"))
    tables = {"t.csv": (M, ("x", "y", "z"))}
    for name, delim in (("t.tsv", "\t"), ("t.ssv", ";")):
        (tmp_path / name).write_text(comma.read_text().replace(",", delim))
        tables[name] = (M, ("x", "y", "z"))
    (tmp_path / "crlf.csv").write_bytes(
        b"\xef\xbb\xbfa,b,c\r\n" + comma.read_bytes().split(b"\n", 1)[1].replace(b"\n", b"\r\n"))
    tables["crlf.csv"] = (M, ("a", "b", "c"))
    counts = rng.integers(0, 50, size=(30, 3))
    write_table(tmp_path / "counts.csv", counts)
    tables["counts.csv"] = (counts, None)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b,c\n")

    with monkeypatch.context() as m:
        def refuse(path):
            raise AssertionError(f"{path} fell back to the strict reader")
        m.setattr(dataio, "_read_strict", refuse)
        for name, (want, names) in tables.items():
            table = read_table(tmp_path / name)
            assert table.names == names
            assert np.array_equal(table.matrix, want)
            assert table.is_counts == (name == "counts.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="no data rows"):
            read_table(header_only)
    assert caught == []


def test_json_round_trip_and_determinism(tmp_path):
    payload = {"b": [1.0, np.inf, np.nan], "a": np.arange(3),
               "flag": np.bool_(True)}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, payload)
    write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_json(p1)
    assert back["b"] == [1.0, None, None]  # non-finite becomes null
    assert back["a"] == [0, 1, 2]
    assert back["flag"] is True
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ParseError):
        read_json(broken)


def test_params_dict_round_trip():
    payload = params_to_dict(TEST_PARAMS)
    back = params_from_dict(payload)
    assert np.allclose(back.a_l, TEST_PARAMS.a_l)
    assert np.allclose(back.beta, TEST_PARAMS.beta)
    assert back.kstar == TEST_PARAMS.kstar


def test_config_dict_round_trip():
    cfg = RobustConfig(c=0.7, kstar=3, tol=1e-9, max_iter=321)
    assert config_from_dict(asdict(cfg)) == cfg
    # older files also carry "damping" and "patience"; unknown keys are ignored
    assert config_from_dict({**asdict(cfg), "damping": 0.5, "patience": 50}) == cfg


def test_fit_dict_round_trip_keeps_the_essentials():
    data = fixture_counts()
    fit = fit_robust(proportions(data), RobustConfig(c=0.5, kstar=2))
    payload = fit_to_dict(fit, invocation={"command": "fit"})
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["invocation"] == {"command": "fit"}
    back = fit_from_dict(payload)
    assert np.allclose(back.pi_hat.pi, fit.pi_hat.pi)
    assert back.config == fit.config
    assert back.beta_p == fit.beta_p
    assert fit_from_dict(fit_to_dict(replace(fit, restarts=2))).restarts == 2
    assert fit.accelerated_steps > 0
    assert fit_from_dict(payload).accelerated_steps == fit.accelerated_steps
    del payload["restarts"], payload["accelerated_steps"]  # a file from before the fields
    back = fit_from_dict(payload)
    assert (back.restarts, back.accelerated_steps) == (0, 0)
    rows = fit_csv_rows(fit)
    assert rows[0][0] == "parameter"
    assert len(rows) == 1 + fit.pi_hat.q


def test_a_fit_file_gives_back_the_fits_params_ridge_and_beta_p(tmp_path):
    data = PreparedData(proportions(fixture_counts()), 0.25)
    fit = fit_robust(data, RobustConfig(c=0.5, kstar=1), ridge=1e-3)
    path = tmp_path / "fit.json"
    write_json(path, fit_to_dict(fit))
    back = fit_from_dict(read_json(path))
    assert (back.beta_p, back.ridge) == (0.25, 1e-3)
    assert back.params.kstar == fit.params.kstar == 1
    assert back.params.a_l.tobytes() == fit.params.a_l.tobytes()
    assert back.params.beta.tobytes() == fit.params.beta.tobytes()
    # an estimate outside the parameter space has no params, in the file or back
    outside = replace(fit, pi_hat=ParamVector(np.append(fit.pi_hat.pi[:-1], -0.5)))
    assert outside.params is None
    write_json(path, fit_to_dict(outside))
    payload = read_json(path)
    assert payload["params"] is None and fit_from_dict(payload).params is None
    del payload["ridge"]  # a file from before the field
    assert fit_from_dict(payload).ridge == 0.0


def test_report_payloads_carry_schema_and_tables(tmp_path):
    data = fixture_counts()
    fit = fit_robust(proportions(data), RobustConfig(c=0.0, kstar=2))
    boot = bootstrap_se(fit, data, b=6, seed=np.random.SeedSequence(73))
    payload = report_to_dict("bootstrap", boot, b_used=boot.b_used)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert "estimates" not in payload and payload["b_used"] == 6 - boot.n_failed
    rows = bootstrap_csv_rows(boot)
    assert len(rows) == 1 + len(boot.labels)

    tune = tune_c(data, (0.0, 0.5), kstar=2, sim_size=800,
                  seed=np.random.SeedSequence(74))
    tpayload = report_to_dict("tune", tune)
    assert tpayload["schema_version"] == SCHEMA_VERSION
    assert len(tune_csv_rows(tune)) == 1 + len(tune.entries)

    table = run_study(preset_scenario("sim5", replicates=2, cs=(0.0,)))
    spayload = report_to_dict("rmse_table", table)
    assert spayload["schema_version"] == SCHEMA_VERSION
    srows = rmse_csv_rows(table)
    assert len(srows) == 1 + len(table.labels) + 1  # header + rows + failures
    out = tmp_path / "table.csv"
    write_csv_rows(out, srows)
    assert out.read_text().count("\n") == len(srows)


def test_scenario_dict_round_trip():
    sc = preset_scenario("sim7", replicates=5, cs=(0.0, 0.5))
    back = scenario_from_dict(scenario_to_dict(sc))
    assert back.name == sc.name
    assert back.n == sc.n and back.replicates == sc.replicates
    assert back.data_mode == sc.data_mode
    assert back.contamination == sc.contamination
    assert np.allclose(back.truth.a_l, sc.truth.a_l)
    assert [c for _, c in back.estimators] == [c for _, c in sc.estimators]
