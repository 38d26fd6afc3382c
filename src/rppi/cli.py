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
(falling back to 0), RPPI_THREADS the default worker count.
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
from .model import as_matrix, proportions
from .robust import RobustConfig, fit_robust
from .sampling import sample_counts, sample_rppi, sample_rppi_mcmc
from .study import PRESET_NAMES, preset_scenario, run_study


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("RPPI_SEED")
    return int(env) if env is not None else 0


def _resolve_threads(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("RPPI_THREADS")
    if env is not None:
        return int(env)
    return os.cpu_count() or 1


def _load_compositions(path) -> np.ndarray:
    """Count-table proportions, or table rows as read (the fit validates)."""
    table = dataio.read_table(path)
    if table.is_counts:
        return proportions(table.counts)
    return table.matrix


def _warn_abundance(u: np.ndarray) -> None:
    means = as_matrix(u).mean(axis=0)
    if int(np.argmax(means)) != u.shape[1] - 1:
        print("warning: last column is not the most abundant component "
              "on average; the reference choice may be poor", file=sys.stderr)


def cmd_fit(args) -> int:
    u = _load_compositions(args.data)
    _warn_abundance(u)
    kstar = args.kstar if args.kstar is not None else u.shape[1] - 1
    config = RobustConfig(c=args.c, kstar=kstar, tol=args.tol,
                          max_iter=args.max_iter)
    fit = fit_robust(u, config, beta_p=args.beta_p, ridge=args.ridge)
    invocation = {
        "command": "fit", "data": args.data, "c": args.c, "kstar": kstar,
        "beta_p": args.beta_p, "tol": args.tol, "max_iter": args.max_iter,
        "ridge": args.ridge,
    }
    dataio.write_json(args.out + ".json", dataio.fit_to_dict(fit, invocation))
    dataio.write_csv_rows(args.out + ".csv", dataio.fit_csv_rows(fit))
    print(f"fit: n={fit.n_obs} p={fit.pi_hat.p} c={args.c:g} "
          f"iterations={fit.iterations} restarts={fit.restarts} "
          f"residual={fit.residual:.3e} "
          f"cond={fit.condition_number:.3e}")
    return 0


def cmd_sample(args) -> int:
    params = dataio.params_from_dict(dataio.read_json(args.params))
    seed = _resolve_seed(args.seed)
    invocation = {"command": "sample", "params": args.params, "seed": seed,
                  "method": args.method}
    if args.m_file is not None or args.m is not None:
        if args.method == "mcmc":
            raise ParseError("--m/--m-file draw counts by rejection; "
                             "--method mcmc applies to continuous samples only")
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
        dataio.write_table(args.out + ".csv", counts.x)
        invocation.update(n=int(counts.n), mode="counts")
        dataio.write_json(args.out + ".json", {
            "schema_version": dataio.SCHEMA_VERSION, "kind": "sample",
            "invocation": invocation,
            "report": dataio.report_to_dict("sampler_report", report),
        })
        print(f"sample: wrote {counts.n} count rows, acceptance rate "
              f"{report.acceptance_rate:.4f}")
        return 0
    if args.n is None:
        raise ParseError("need --n (or --m/--m-file) to size the sample")
    if args.method == "mcmc":
        u, report = sample_rppi_mcmc(params, args.n, seed=seed,
                                     burn_in=args.burn_in, thin=args.thin)
    else:
        u, report = sample_rppi(params, args.n, seed=seed)
    dataio.write_table(args.out + ".csv", u)
    invocation.update(n=args.n, mode="continuous")
    dataio.write_json(args.out + ".json", {
        "schema_version": dataio.SCHEMA_VERSION, "kind": "sample",
        "invocation": invocation,
        "report": dataio.report_to_dict("sampler_report", report),
    })
    print(f"sample: wrote {args.n} rows, acceptance rate "
          f"{report.acceptance_rate:.4f}")
    return 0


def cmd_tune(args) -> int:
    table = dataio.read_table(args.data)
    if not table.is_counts:
        raise ParseError("tuning needs count data (integer table) to know "
                         "the rounding resolution")
    counts = table.counts
    grid = parse_grid(args.grid)
    seed = _resolve_seed(args.seed)
    report = tune_c(counts, grid, kstar=args.kstar, sim_size=args.sim_size,
                    seed=seed, beta_p=args.beta_p, tol=args.tol,
                    max_iter=args.max_iter, quantile=args.quantile,
                    alpha=args.alpha)
    invocation = {
        "command": "tune", "data": args.data, "kstar": args.kstar,
        "grid": args.grid, "sim_size": args.sim_size, "seed": seed,
        "alpha": args.alpha, "quantile": args.quantile,
        "beta_p": args.beta_p, "tol": args.tol, "max_iter": args.max_iter,
    }
    dataio.write_json(args.out + ".json",
                      dataio.report_to_dict("tune", report, invocation))
    dataio.write_csv_rows(args.out + ".csv", dataio.tune_csv_rows(report))
    if report.recommended_c is None:
        print("tune: no candidate produced a usable fit")
        return 1
    print(f"tune: recommended c = {report.recommended_c:g}")
    return 0


def cmd_bootstrap(args) -> int:
    fit = dataio.fit_from_dict(dataio.read_json(args.fit))
    table = dataio.read_table(args.data)
    if not table.is_counts:
        raise ParseError("bootstrap needs the original count data")
    seed = _resolve_seed(args.seed)
    threads = _resolve_threads(args.threads)
    invocation = {"command": "bootstrap", "fit": args.fit, "data": args.data,
                  "b": args.b, "seed": seed}
    degraded = None
    try:
        report = bootstrap_se(fit, table.counts, b=args.b, seed=seed,
                              threads=threads)
    except BootstrapDegradedError as exc:
        report, degraded = exc.report, exc
    dataio.write_json(args.out + ".json",
                      dataio.bootstrap_to_dict(report, invocation))
    dataio.write_csv_rows(args.out + ".csv", dataio.bootstrap_csv_rows(report))
    if degraded is not None:
        raise BootstrapDegradedError(f"{degraded}; partial report written",
                                     report=report) from degraded
    print(f"bootstrap: {report.b_used} of {report.b_requested} replicates used")
    return 0


def cmd_study(args) -> int:
    seed = args.seed
    threads = _resolve_threads(args.threads)
    a_matrix = None
    if args.a_matrix is not None:
        payload = dataio.read_json(args.a_matrix)
        a_matrix = payload.get("a_l", payload) if isinstance(payload, dict) else payload
    if args.scenario in PRESET_NAMES:
        scenario = preset_scenario(
            args.scenario, a_matrix=a_matrix,
            replicates=args.replicates if args.replicates is not None else 100,
            seed=_resolve_seed(seed),
            cs=parse_grid(args.grid) if args.grid is not None else None,
            tol=args.tol, max_iter=args.max_iter,
        )
    else:
        scenario = dataio.scenario_from_dict(dataio.read_json(args.scenario))
        if args.replicates is not None:
            scenario = replace(scenario, replicates=args.replicates)
        if seed is not None:
            scenario = replace(scenario, seed=_resolve_seed(seed))
    table = run_study(scenario, threads=threads)
    invocation = {
        "command": "study", "scenario": args.scenario,
        "replicates": scenario.replicates, "seed": scenario.seed,
    }
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
    fit = dataio.fit_from_dict(dataio.read_json(args.fit))
    seed = _resolve_seed(args.seed)
    p = fit.pi_hat.p
    if args.z:
        z = np.array([[float(tok) for tok in spec.split(",")] for spec in args.z])
    else:
        z = simplex_grid(p, args.grid_resolution)
    if args.ref_data is not None:
        reference = _load_compositions(args.ref_data)
    else:
        if fit.params is None:
            raise ParseError("fit has no valid model parameters; pass --ref-data")
        reference, _ = sample_rppi(fit.params, args.ref_size, seed=seed)
    result = influence(z, fit.pi_hat, reference, c=fit.config.c,
                       kstar=fit.config.kstar, beta_p=fit.beta_p)
    invocation = {
        "command": "influence", "fit": args.fit, "seed": seed,
        "ref_size": args.ref_size, "ref_data": args.ref_data,
        "grid_resolution": args.grid_resolution, "z": args.z or None,
    }
    dataio.write_json(args.out + ".json", {
        "schema_version": dataio.SCHEMA_VERSION, "kind": "influence",
        "invocation": invocation,
        "c": result.c, "kstar": result.kstar,
        "n_reference": result.n_reference, "n_points": int(z.shape[0]),
        "sup_norm": result.sup_norm,
    })
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
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--max-iter", type=int, default=500)
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
    q.add_argument("--method", choices=("rejection", "mcmc"),
                   default="rejection",
                   help="sampler for continuous draws (counts mode: rejection only)")
    q.add_argument("--burn-in", type=int, default=10_000)
    q.add_argument("--thin", type=int, default=10)
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
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--max-iter", type=int, default=500)
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
                   help="override the tuning-constant panel")
    q.add_argument("--a-matrix", default=None,
                   help="JSON file with the interaction matrix (sim1-sim4)")
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--max-iter", type=int, default=500)
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
