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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .inference import BootstrapReport, TuneReport
from .model import CountDataset, ParamVector, RPPIParams
from .robust import RobustConfig, RobustFitResult
from .sampling import SamplerReport
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


def read_table(path) -> TableData:
    """Read a delimited table of compositions or counts."""
    rows: list[list[float]] = []
    names = None
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=_sniff_delimiter(fh))
        for lineno, record in enumerate(reader, start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            cells = [cell.strip() for cell in record]
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
    """Write a matrix as CSV with shortest round-trip formatting."""
    arr = np.asarray(matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if names is not None:
            writer.writerow(list(names))
        for row in arr:
            writer.writerow([_fmt(v) for v in row])


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


def params_to_dict(params: RPPIParams) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "params",
        "p": params.p,
        "kstar": params.kstar,
        "a_l": params.a_l,
        "beta": params.beta,
    }


def params_from_dict(payload: dict) -> RPPIParams:
    try:
        return RPPIParams(
            a_l=np.array(payload["a_l"], dtype=float),
            beta=np.array(payload["beta"], dtype=float),
            kstar=int(payload.get("kstar", -1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad params payload: {exc}") from exc


def config_to_dict(config: RobustConfig) -> dict:
    return {
        "c": config.c,
        "kstar": config.kstar,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "damping": config.damping,
        "patience": config.patience,
    }


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
        "config": config_to_dict(fit.config),
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


def sampler_report_to_dict(report: SamplerReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sampler_report",
        "method": report.method,
        "n_requested": report.n_requested,
        "n_proposals": report.n_proposals,
        "acceptance_rate": report.acceptance_rate,
        "envelope_constant": report.envelope_constant,
    }


def tune_to_dict(report: TuneReport, invocation: dict | None = None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tune",
        "grid": list(report.grid),
        "alpha": report.alpha,
        "components": list(report.components),
        "recommended_c": report.recommended_c,
        "entries": [
            {
                "c": e.c,
                "converged": e.converged,
                "error": e.error,
                "weight_cv": e.weight_cv,
                "ks_stats": list(e.ks_stats),
                "ks_pvalues": list(e.ks_pvalues),
            }
            for e in report.entries
        ],
    }
    if invocation is not None:
        payload["invocation"] = invocation
    return payload


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


def rmse_to_dict(table: RmseTable, invocation: dict | None = None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "rmse_table",
        "scenario": table.scenario,
        "replicates": table.replicates,
        "labels": list(table.labels),
        "estimators": list(table.estimators),
        "truth": table.truth,
        "rmse": table.rmse,
        "failures": list(table.failures),
        "flagged": list(table.flagged),
    }
    if invocation is not None:
        payload["invocation"] = invocation
    return payload


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
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "scenario",
        "name": scenario.name,
        "truth": params_to_dict(scenario.truth),
        "n": scenario.n,
        "replicates": scenario.replicates,
        "data_mode": scenario.data_mode,
        "m": scenario.m,
        "contamination": scenario.contamination,
        "outlier": list(scenario.outlier) if scenario.outlier is not None else None,
        "seed": scenario.seed,
        "estimators": [
            {"label": label, "config": config_to_dict(cfg)}
            for label, cfg in scenario.estimators
        ],
    }


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


def influence_csv_rows(z: np.ndarray, values: np.ndarray, labels) -> list[list[str]]:
    p = z.shape[1]
    header = [f"z_{j + 1}" for j in range(p)] + [f"if_{label}" for label in labels]
    rows = [header]
    for zi, vi in zip(z, values):
        rows.append([_fmt(v) for v in zi] + [_fmt(v) for v in vi])
    return rows
