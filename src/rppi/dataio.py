"""File formats: delimited tables in, JSON/CSV reports out.

Readers are strict and point at the offending line; writers are
deterministic byte-for-byte (sorted JSON keys, two-space indent,
shortest round-trip float formatting) so that identical configurations
reproduce identical files.

Table convention: comma-, tab- or semicolon-separated (whichever occurs
most often in the first non-blank line, comma on a tie), optional
single header row, one composition or count vector per line.  A file
whose every value is a nonnegative integer is taken to be counts;
anything else is read as proportions.

Payloads: a JSON report is :func:`report_to_dict` of its result
dataclass (``schema_version``, ``kind``, every field, then any extra or
replaced keys and the invocation), so a new field reaches the file
without a second edit here.  ``fit_to_dict`` and ``bootstrap_to_dict``
list their keys by hand because their results carry per-row arrays
(``final_weights``, ``d_hat``, the replicate ``estimates``) that the
files leave out.  The ``*_from_dict`` readers coerce types and raise
ParseError, since their input comes from outside the program.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .inference import BootstrapReport, TuneReport
from .model import CountDataset, ParamVector, RPPIParams
from .robust import RobustConfig, RobustFitResult
from .study import RmseTable, StudyScenario

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TableData:
    """A parsed delimited table: counts when integral, else proportions."""

    matrix: np.ndarray
    is_counts: bool
    names: tuple[str, ...] | None

    @property
    def counts(self) -> CountDataset:
        if not self.is_counts:
            raise ParseError("table does not contain integer counts")
        return CountDataset(x=self.matrix.astype(np.int64))


WRITE_ROWS = 4096


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_DELIMITERS = (",", "\t", ";")


def _sniff_delimiter(fh) -> str:
    """The delimiter of the first non-blank line; rewinds ``fh``."""
    first = next((line for line in fh if line.strip()), "")
    fh.seek(0)
    return max(_DELIMITERS, key=first.count)


def _records(fh):
    """(first line, stripped cells) of every non-blank record in ``fh``.

    Malformed or undecodable text raises :class:`ParseError` carrying
    the first line of the record being read.
    """
    start = 1
    try:
        reader = csv.reader(fh, delimiter=_sniff_delimiter(fh))
        for record in reader:
            cells = [cell.strip() for cell in record]
            if any(cells):
                yield start, cells
            start = reader.line_num + 1
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"unreadable table at line {start}: {exc}", line=start) from None


def read_table(path) -> TableData:
    """Read a delimited table of compositions or counts.

    A leading UTF-8 byte order mark is skipped.  Anything malformed,
    undecodable bytes included, raises ParseError.
    """
    rows: list[list[float]] = []
    names = None
    width = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, cells in _records(fh):
            try:
                values = [float(cell) for cell in cells]
            except ValueError:
                if rows or names is not None:
                    raise ParseError(f"non-numeric value on line {lineno}",
                                     line=lineno) from None
                names = tuple(cells)
                continue
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    f"line {lineno} has {len(values)} fields, expected {width}",
                    line=lineno)
            rows.append(values)
    if not rows:
        raise ParseError(f"no data rows in {path}")
    if names is not None and len(names) != width:
        raise ParseError(f"header has {len(names)} fields, data rows have {width}")
    matrix = np.array(rows, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ParseError("table contains non-finite values")
    is_counts = bool(np.all(matrix >= 0) and np.all(matrix == np.floor(matrix)))
    return TableData(matrix=matrix, is_counts=is_counts, names=names)


def write_table(path, matrix, names=None) -> None:
    """Write a matrix as CSV with shortest round-trip formatting.

    Integer cells are written as ``str(int)`` and every other cell as
    ``repr(float)``, the same text as :func:`_fmt`, but a whole row is
    joined at once.  Rows are converted to Python numbers ``WRITE_ROWS``
    at a time, so the writer holds one block of them, not the table.
    Only the header goes through ``csv`` (for quoting).
    """
    arr = np.asarray(matrix)
    as_float = not np.issubdtype(arr.dtype, np.integer)
    with open(path, "w", newline="") as fh:
        if names is not None:
            csv.writer(fh, lineterminator="\n").writerow(list(names))
        for start in range(0, len(arr), WRITE_ROWS):
            block = arr[start:start + WRITE_ROWS]
            if as_float:
                block = block.astype(float)
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if np.isfinite(val) else None
    return obj


def write_json(path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def report_to_dict(kind: str, report, invocation: dict | None = None, **extra) -> dict:
    """The JSON payload of a result dataclass: ``schema_version``, ``kind``,
    every field of ``report``, then ``extra`` (which adds or replaces
    keys) and ``invocation`` when given."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind,
               **asdict(report), **extra}
    if invocation is not None:
        payload["invocation"] = invocation
    return payload


def params_to_dict(params: RPPIParams) -> dict:
    return report_to_dict("params", params, p=params.p)


def params_from_dict(payload: dict) -> RPPIParams:
    try:
        return RPPIParams(
            a_l=np.array(payload["a_l"], dtype=float),
            beta=np.array(payload["beta"], dtype=float),
            kstar=int(payload.get("kstar", -1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad params payload: {exc}") from exc


def config_from_dict(payload: dict) -> RobustConfig:
    try:
        return RobustConfig(
            c=float(payload["c"]),
            kstar=int(payload["kstar"]),
            tol=float(payload.get("tol", 1e-8)),
            max_iter=int(payload.get("max_iter", 500)),
            damping=float(payload.get("damping", 0.5)),
            patience=int(payload.get("patience", 50)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad config payload: {exc}") from exc


def fit_to_dict(fit: RobustFitResult, invocation: dict | None = None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit",
        "p": fit.pi_hat.p,
        "labels": list(fit.labels),
        "pi": fit.pi_hat.pi,
        "params": params_to_dict(fit.params) if fit.params is not None else None,
        "config": asdict(fit.config),
        "beta_p": fit.beta_p,
        "n_obs": fit.n_obs,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "weight_cv": fit.weight_cv,
        "residual": fit.residual,
        "condition_number": fit.condition_number,
    }
    if invocation is not None:
        payload["invocation"] = invocation
    return payload


def fit_from_dict(payload: dict) -> RobustFitResult:
    """Rebuild enough of a fit to resume work (bootstrap, influence).

    Per-observation diagnostics (final weights) are not stored in the
    file and come back empty.
    """
    try:
        pi = ParamVector(np.array(payload["pi"], dtype=float))
        config = config_from_dict(payload["config"])
        beta_p = float(payload.get("beta_p", 0.0))
        params = None
        if payload.get("params") is not None:
            params = params_from_dict(payload["params"])
        return RobustFitResult(
            pi_hat=pi,
            params=params,
            config=config,
            iterations=int(payload.get("iterations", 0)),
            converged=bool(payload.get("converged", True)),
            final_weights=np.array([]),
            weight_cv=_as_float(payload.get("weight_cv")),
            residual=_as_float(payload.get("residual")),
            condition_number=_as_float(payload.get("condition_number")),
            d_hat=np.array([]),
            n_obs=int(payload.get("n_obs", 0)),
            beta_p=beta_p,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad fit payload: {exc}") from exc


def _as_float(value) -> float:
    return float("nan") if value is None else float(value)


def fit_csv_rows(fit: RobustFitResult) -> list[list[str]]:
    rows = [["parameter", "estimate"]]
    rows += [[label, _fmt(v)] for label, v in zip(fit.labels, fit.pi_hat.pi)]
    return rows


def tune_csv_rows(report: TuneReport) -> list[list[str]]:
    header = ["c", "converged", "weight_cv"]
    for j in report.components:
        header += [f"ks_stat_{j + 1}", f"ks_p_{j + 1}"]
    header.append("error")
    rows = [header]
    for e in report.entries:
        row = [_fmt(e.c), str(e.converged).lower(),
               _fmt(e.weight_cv) if np.isfinite(e.weight_cv) else ""]
        if e.ks_stats:
            for stat, pval in zip(e.ks_stats, e.ks_pvalues):
                row += [_fmt(stat), _fmt(pval)]
        else:
            row += ["", ""] * len(report.components)
        row.append(e.error or "")
        rows.append(row)
    return rows


def bootstrap_to_dict(report: BootstrapReport, invocation: dict | None = None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bootstrap",
        "b_requested": report.b_requested,
        "b_used": report.b_used,
        "n_failed": report.n_failed,
        "labels": list(report.labels),
        "point": report.point,
        "se": report.se,
        "ratio": report.ratio,
    }
    if invocation is not None:
        payload["invocation"] = invocation
    return payload


def bootstrap_csv_rows(report: BootstrapReport) -> list[list[str]]:
    rows = [["parameter", "estimate", "se", "ratio"]]
    for i, label in enumerate(report.labels):
        rows.append([label, _fmt(report.point[i]), _fmt(report.se[i]),
                     _fmt(report.ratio[i])])
    return rows


def rmse_csv_rows(table: RmseTable) -> list[list[str]]:
    rows = [["parameter"] + list(table.estimators)]
    for i, label in enumerate(table.labels):
        rows.append([label] + [_fmt(v) for v in table.rmse[i]])
    rows.append(["failures"] + [str(f) for f in table.failures])
    return rows


def write_csv_rows(path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scenario_to_dict(scenario: StudyScenario) -> dict:
    return report_to_dict(
        "scenario", scenario, truth=params_to_dict(scenario.truth),
        estimators=[{"label": label, "config": asdict(cfg)}
                    for label, cfg in scenario.estimators])


def scenario_from_dict(payload: dict) -> StudyScenario:
    try:
        estimators = tuple(
            (str(item["label"]), config_from_dict(item["config"]))
            for item in payload["estimators"]
        )
        outlier = payload.get("outlier")
        return StudyScenario(
            name=str(payload["name"]),
            truth=params_from_dict(payload["truth"]),
            n=int(payload["n"]),
            replicates=int(payload["replicates"]),
            estimators=estimators,
            data_mode=str(payload.get("data_mode", "continuous")),
            m=None if payload.get("m") is None else int(payload["m"]),
            contamination=float(payload.get("contamination", 0.0)),
            outlier=None if outlier is None else tuple(float(v) for v in outlier),
            seed=int(payload.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scenario payload: {exc}") from exc
