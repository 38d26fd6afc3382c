"""Command line interface.

Six subcommands: fit, sample, tune, bootstrap, study, influence.  Every
command writes machine-readable outputs under an ``--out`` prefix
(PREFIX.json and PREFIX.csv); runs are byte-for-byte reproducible given
the same inputs and seed, independent of worker count.

Exit codes (the table ``EXIT_CODES``): 0 success, 2 unusable input
(parse or validation errors, missing or unreadable files), 3 singular
linear system, 4 non-convergence, 5 degraded bootstrap (partial report
still written), 6 missing scenario parameter, 1 other package errors.

Environment: RPPI_SEED supplies a default when --seed is omitted
(falling back to 0), RPPI_THREADS the default worker count.  Both must
be integers and a worker count at least 1, whether it comes from
--threads or RPPI_THREADS; other values exit 2 before any work.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataio
from .errors import (
    BootstrapDegradedError,
    DegenerateRowError,
    DimensionError,
    MissingParameterError,
    NonConvergenceError,
    ParseError,
    RPPIError,
    SingularGError,
    SingularSystemError,
)
from .inference import bootstrap_se, influence, parse_grid, simplex_grid, tune_c
from .model import proportions
from .robust import PreparedData, RobustConfig, fit_robust
from .sampling import sample_counts, sample_rppi
from .study import PRESET_NAMES, preset_scenario, run_study


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def _resolve_seed(value) -> int:
    return value if value is not None else _env_int("RPPI_SEED", 0)


def _resolve_threads(value) -> int:
    if value is not None:
        source, threads = "--threads", value
    else:
        source, threads = "RPPI_THREADS", _env_int("RPPI_THREADS", os.cpu_count() or 1)
    if threads < 1:
        raise ValueError(f"{source} must be at least 1, got {threads}")
    return threads


def _invocation(args, **resolved) -> dict:
    """Every parsed argument but ``--out`` and ``--threads``, on which no
    output depends, with the values the command resolved (a seed from
    RPPI_SEED, a default kstar, ...) in place of the parsed ones."""
    parsed = {k: v for k, v in vars(args).items() if k not in ("func", "out", "threads")}
    return {**parsed, **resolved}


def _load_compositions(path) -> np.ndarray:
    """Count-table proportions, or table rows as read (the fit validates)."""
    table = dataio.read_table(path)
    if table.is_counts:
        return proportions(table.counts)
    return table.matrix


def _warn_abundance(rows: np.ndarray) -> None:
    if int(np.argmax(rows.mean(axis=0))) != rows.shape[1] - 1:
        print("warning: last column is not the most abundant component "
              "on average; the reference choice may be poor", file=sys.stderr)


def cmd_fit(args) -> int:
    data = PreparedData(_load_compositions(args.data), args.beta_p)
    _warn_abundance(data.rows)
    kstar = args.kstar if args.kstar is not None else data.rows.shape[1] - 1
    config = RobustConfig(c=args.c, kstar=kstar, tol=args.tol,
                          max_iter=args.max_iter)
    fit = fit_robust(data, config, ridge=args.ridge)
    dataio.write_json(args.out + ".json",
                      dataio.fit_to_dict(fit, _invocation(args, kstar=kstar)))
    dataio.write_csv_rows(args.out + ".csv", dataio.fit_csv_rows(fit))
    print(f"fit: n={fit.n_obs} p={fit.pi_hat.p} c={args.c:g} "
          f"iterations={fit.iterations} restarts={fit.restarts} "
          f"accelerated_steps={fit.accelerated_steps} residual={fit.residual:.3e} "
          f"cond={fit.condition_number:.3e}")
    return 0


def cmd_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.m_file is not None and (args.m is not None or args.n is not None):
        raise ParseError("--m-file gives every row's total; it takes neither --m nor --n")
    params = dataio.params_from_dict(dataio.read_json(args.params))
    if args.m_file is not None or args.m is not None:
        if args.m_file is not None:
            totals = dataio.read_table(args.m_file).matrix
            if totals.shape[1] != 1:
                raise ParseError(f"{args.m_file} must have one column of totals, "
                                 f"got {totals.shape[1]}")
            totals = totals[:, 0]
        else:
            if args.n is None:
                raise ParseError("--m needs --n to say how many rows")
            totals = np.full(args.n, args.m)
        counts, report = sample_counts(params, totals, seed=seed)
        rows, n, mode, noun = counts.x, int(counts.n), "counts", "count rows"
    else:
        if args.n is None:
            raise ParseError("need --n (or --m/--m-file) to size the sample")
        rows, report = sample_rppi(params, args.n, seed=seed)
        n, mode, noun = args.n, "continuous", "rows"
    dataio.write_table(args.out + ".csv", rows)
    dataio.write_json(args.out + ".json", {
        "schema_version": dataio.SCHEMA_VERSION, "kind": "sample",
        "invocation": _invocation(args, seed=seed, n=n, mode=mode),
        "report": dataio.report_to_dict("sampler_report", report),
    })
    print(f"sample: wrote {n} {noun}, acceptance rate "
          f"{report.acceptance_rate:.4f}")
    return 0


def cmd_tune(args) -> int:
    seed = _resolve_seed(args.seed)
    table = dataio.read_table(args.data)
    if not table.is_counts:
        raise ParseError("tuning needs count data (integer table) to know "
                         "the rounding resolution")
    counts = table.counts
    grid = parse_grid(args.grid)
    report = tune_c(counts, grid, kstar=args.kstar, sim_size=args.sim_size,
                    seed=seed, beta_p=args.beta_p, tol=args.tol,
                    max_iter=args.max_iter, quantile=args.quantile,
                    alpha=args.alpha)
    dataio.write_json(args.out + ".json", dataio.report_to_dict(
        "tune", report, _invocation(args, seed=seed)))
    dataio.write_csv_rows(args.out + ".csv", dataio.tune_csv_rows(report))
    if report.recommended_c is None:
        print("tune: no candidate produced a usable fit")
        return 1
    print(f"tune: recommended c = {report.recommended_c:g}")
    return 0


def cmd_bootstrap(args) -> int:
    seed = _resolve_seed(args.seed)
    threads = _resolve_threads(args.threads)
    fit = dataio.fit_from_dict(dataio.read_json(args.fit))
    table = dataio.read_table(args.data)
    if not table.is_counts:
        raise ParseError("bootstrap needs the original count data")
    degraded = None
    try:
        report = bootstrap_se(fit, table.counts, b=args.b, seed=seed,
                              threads=threads)
    except BootstrapDegradedError as exc:
        report, degraded = exc.report, exc
    dataio.write_json(args.out + ".json", dataio.report_to_dict(
        "bootstrap", report, _invocation(args, seed=seed), b_used=report.b_used))
    dataio.write_csv_rows(args.out + ".csv", dataio.bootstrap_csv_rows(report))
    if degraded is not None:
        raise BootstrapDegradedError(f"{degraded}; partial report written",
                                     report=report) from degraded
    print(f"bootstrap: {report.b_used} of {report.b_requested} replicates used")
    return 0


def cmd_study(args) -> int:
    threads = _resolve_threads(args.threads)
    # a scenario file carries its own panel, configs, matrix and seed; only
    # --seed and --replicates override them
    if args.a_matrix is not None and args.scenario not in PRESET_NAMES[:4]:
        raise ParseError("--a-matrix applies only to the presets sim1-sim4")
    if args.scenario not in PRESET_NAMES:
        for flag, value in (("--grid", args.grid), ("--tol", args.tol),
                            ("--max-iter", args.max_iter)):
            if value is not None:
                raise ParseError(f"{flag} applies only to a preset; a scenario "
                                 "file lists its own estimators")
    seed = _resolve_seed(args.seed) if args.scenario in PRESET_NAMES else args.seed
    a_matrix = None
    if args.a_matrix is not None:
        payload = dataio.read_json(args.a_matrix)
        a_matrix = payload.get("a_l", payload) if isinstance(payload, dict) else payload
    resolved = {}
    if args.scenario in PRESET_NAMES:
        resolved = {"tol": RobustConfig.tol if args.tol is None else args.tol,
                    "max_iter": RobustConfig.max_iter if args.max_iter is None else args.max_iter}
        scenario = preset_scenario(
            args.scenario, a_matrix=a_matrix,
            replicates=args.replicates if args.replicates is not None else 100,
            seed=seed,
            cs=parse_grid(args.grid) if args.grid is not None else None,
            **resolved,
        )
    else:
        scenario = dataio.scenario_from_dict(dataio.read_json(args.scenario))
        if args.replicates is not None:
            scenario = replace(scenario, replicates=args.replicates)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
    table = run_study(scenario, threads=threads)
    invocation = _invocation(args, replicates=scenario.replicates, seed=scenario.seed,
                             **resolved)
    dataio.write_json(args.out + ".json",
                      dataio.report_to_dict("rmse_table", table, invocation))
    dataio.write_csv_rows(args.out + ".csv", dataio.rmse_csv_rows(table))
    print(f"study {scenario.name}: {scenario.replicates} replicates, "
          f"failures {list(table.failures)}")
    for label in table.flagged:
        print(f"warning: estimator {label} failed more than 5% of replicates",
              file=sys.stderr)
    return 0


def cmd_influence(args) -> int:
    seed = _resolve_seed(args.seed)
    fit = dataio.fit_from_dict(dataio.read_json(args.fit))
    p = fit.pi_hat.p
    if args.z:
        z = np.array([[float(tok) for tok in spec.split(",")] for spec in args.z])
    else:
        z = simplex_grid(p, args.grid_resolution)
    if args.ref_data is not None:
        reference = _load_compositions(args.ref_data)
    else:
        params = fit.params
        if params is None:
            raise ParseError("fit has no valid model parameters; pass --ref-data")
        reference, _ = sample_rppi(params, args.ref_size, seed=seed)
    result = influence(z, fit.pi_hat, reference, c=fit.config.c,
                       kstar=fit.config.kstar, beta_p=fit.beta_p)
    dataio.write_json(args.out + ".json", dataio.report_to_dict(
        "influence", result, _invocation(args, seed=seed),
        n_points=z.shape[0], sup_norm=result.sup_norm))
    header = [f"z_{j + 1}" for j in range(p)] + [f"if_{label}" for label in fit.labels]
    dataio.write_table(args.out + ".csv", np.hstack([result.z, result.value]),
                       names=header)
    print(f"influence: {z.shape[0]} points, sup |IF| = {result.sup_norm:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rppi",
        description="Score matching tools for tilted interaction models "
                    "on the simplex",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("fit", help="fit the model to a data table")
    q.add_argument("data", help="CSV of compositions or counts")
    q.add_argument("--c", type=float, default=0.0, help="weighting constant")
    q.add_argument("--kstar", type=int, default=None,
                   help="size of the leading rare block (default p-1)")
    q.add_argument("--beta-p", type=float, default=0.0)
    q.add_argument("--tol", type=float, default=RobustConfig.tol)
    q.add_argument("--max-iter", type=int, default=RobustConfig.max_iter)
    q.add_argument("--ridge", type=float, default=0.0)
    q.add_argument("--out", required=True, help="output path prefix")
    q.set_defaults(func=cmd_fit)

    q = sub.add_parser("sample", help="draw synthetic data from a model")
    q.add_argument("params", help="params JSON file")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--m", type=int, default=None,
                   help="multinomial total (counts mode)")
    q.add_argument("--m-file", default=None,
                   help="CSV of per-row totals (counts mode)")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_sample)

    q = sub.add_parser("tune", help="select the weighting constant")
    q.add_argument("data", help="CSV of counts")
    q.add_argument("--kstar", type=int, required=True)
    q.add_argument("--grid", default="0:1.5:0.05")
    q.add_argument("--sim-size", type=int, default=10_000)
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--quantile", type=float, default=0.95)
    q.add_argument("--beta-p", type=float, default=0.0)
    q.add_argument("--tol", type=float, default=RobustConfig.tol)
    q.add_argument("--max-iter", type=int, default=RobustConfig.max_iter)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_tune)

    q = sub.add_parser("bootstrap", help="parametric bootstrap standard errors")
    q.add_argument("fit", help="fit JSON file")
    q.add_argument("data", help="CSV of counts used for the fit")
    q.add_argument("--b", type=int, default=200)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--threads", type=int, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_bootstrap)

    q = sub.add_parser("study", help="run a Monte Carlo study")
    q.add_argument("scenario", help=f"preset ({', '.join(PRESET_NAMES)}) "
                   "or scenario JSON path")
    q.add_argument("--replicates", type=int, default=None)
    q.add_argument("--grid", default=None,
                   help="override a preset's tuning-constant panel")
    q.add_argument("--a-matrix", default=None,
                   help="JSON file with the interaction matrix (sim1-sim4)")
    q.add_argument("--tol", type=float, default=None,
                   help=f"a preset's stop rule (default {RobustConfig.tol:g})")
    q.add_argument("--max-iter", type=int, default=None,
                   help=f"a preset's iteration cap (default {RobustConfig.max_iter})")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--threads", type=int, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_study)

    q = sub.add_parser("influence", help="influence function diagnostics")
    q.add_argument("fit", help="fit JSON file")
    q.add_argument("--z", action="append", default=None,
                   help="composition as comma-separated values (repeatable)")
    q.add_argument("--grid-resolution", type=int, default=20,
                   help="simplex grid resolution when --z is absent")
    q.add_argument("--ref-data", default=None,
                   help="CSV of reference compositions")
    q.add_argument("--ref-size", type=int, default=20_000,
                   help="reference sample size simulated from the fit")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_influence)

    return parser


# Exception types and their exit codes; the first row that matches wins,
# so the RPPIError catch-all comes last.  Any other exception is a bug and
# propagates with its traceback.
EXIT_CODES = (
    ((ParseError, DegenerateRowError, DimensionError, ValueError, OSError), 2),
    ((SingularSystemError, SingularGError), 3),
    (NonConvergenceError, 4),
    (BootstrapDegradedError, 5),
    (MissingParameterError, 6),
    (RPPIError, 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RPPIError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
