"""Benchmark of the ``rppi`` command line.

Run from the root of a checkout:

    python3 bench/run.py --workload study-sim7 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): study-sim7, fit-large,
sample-concentrated, analyst-p3.  One client runs the workload's
commands one after another, each a fresh ``python -m rppi.cli`` process,
so interpreter start and import are counted; a step runs more than one
process only where it passes ``--threads 2``.  The sequence is repeated
while another repetition still fits in ``--seconds``, and medians over
the repetitions are reported.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
repetition once untraced and once with spans around every layer, and
reports the per-layer metrics (plus the tracing overhead).  Both modes
check the outputs first.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch files
live under ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import runner

# Fix the benchmark's own BLAS threads before numpy is imported.
os.environ.update({name: "1" for name in runner.ONE_THREAD})

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
SETUP_PROBES = 3
IMPORT_PROBES = 3

END_TO_END = {
    "wall_s": ("s", "wall time of the whole command sequence"),
    "cpu_s": ("s", "user + system time of every process started, pool workers included"),
    "setup_s": ("s", "interpreter start plus `import rppi.cli` in a fresh process"),
    "peak_rss_mb": ("MB", "largest resident set of any command (median over its "
                          "invocations in the run)"),
    "items_per_s": ("1/s", "work per second of the whole sequence: study replicates, "
                           "table rows passed over, draws, or models fitted in the "
                           "analyst session"),
}

PER_LAYER = {
    "cli.import_s": ("s", "cumulative import time of rppi.cli (-X importtime)"),
    "cli.import_scipy_stats_s": ("s", "cumulative import time of scipy.stats"),
    "cli.import_scipy_linalg_s": ("s", "cumulative import time of scipy.linalg"),
    "dataio.read_s": ("s", "self time reading tables and JSON"),
    "dataio.read_rows": ("count", "table rows read"),
    "dataio.write_s": ("s", "self time writing JSON and CSV"),
    "suffstats.kernel_s": ("s", "self time of r_matrix_batch + s_matrix_batch"),
    "suffstats.kernel_rows": ("count", "rows through r_matrix_batch"),
    "suffstats.bytes_computed": ("B", "bytes of R and S arrays computed, from array sizes"),
    "estimator.assemble_calls": ("count", "assemble calls"),
    "estimator.assemble_rows": ("count", "rows reduced by assemble"),
    "estimator.assemble_s": ("s", "time in assemble, kernel included"),
    "estimator.assemble_p50_us": ("us", "median duration of one assemble call"),
    "estimator.assemble_p99_us": ("us", "99th percentile duration of one assemble call"),
    "estimator.solve_calls": ("count", "solve_system calls"),
    "estimator.solve_s": ("s", "self time of solve_system"),
    "robust.fits": ("count", "fit_robust calls"),
    "robust.failed": ("count", "fit_robust calls that raised"),
    "robust.iterations": ("count", "reweighting iterations of successful fits"),
    "robust.restarts": ("count", "failed starts before each successful fit, summed"),
    "robust.self_s": ("s", "self time of fit_robust"),
    "sampling.proposals": ("count", "rejection-sampler proposals"),
    "sampling.accepted": ("count", "accepted proposals"),
    "sampling.acceptance": ("ratio", "accepted / proposals"),
    "sampling.proposals_per_s": ("1/s", "proposals / sampling.sample_s"),
    "sampling.envelope_s": ("s", "self time of the envelope (quad_max_simplex)"),
    "sampling.sample_s": ("s", "self time of sample_rppi, envelope excluded"),
    "inference.ks_calls": ("count", "truncated KS tests"),
    "inference.ks_s": ("s", "self time of ks_truncated"),
    "inference.tune_failed": ("count", "tune candidates that errored"),
    "inference.influence_s": ("s", "self time of influence (kernel excluded)"),
    "inference.influence_rows": ("count", "reference rows plus evaluation points"),
    "study.replicates": ("count", "study replicates"),
    "study.self_s": ("s", "self time of run_study"),
    "parallel.map_s": ("s", "wall time inside parallel_map"),
    "parallel.tasks": ("count", "tasks mapped"),
    "parallel.task_s": ("s", "summed task time"),
    "parallel.efficiency": ("ratio", "task_s / (workers x map_s)"),
    "trace.wall_s": ("s", "wall time of the traced sequence"),
    "trace.overhead_s": ("s", "traced minus untraced wall time of the sequence"),
}


def _probe_import(src: Path, env: dict, log: Path) -> float:
    """Wall time of one fresh interpreter that imports rppi.cli."""
    inv = runner.run((sys.executable, "-c", "import rppi.cli"), src.parent, env, log)
    if inv.code != 0:
        raise RuntimeError(f"`import rppi.cli` failed: {inv.stderr[-500:]}")
    return inv.wall_s


def _import_profile(src: Path, env: dict, log: Path) -> dict:
    """Cumulative import seconds of a few modules, from ``-X importtime``."""
    wanted = ("rppi.cli", "scipy.stats", "scipy.linalg")
    samples = {name: [] for name in wanted}
    argv = (sys.executable, "-X", "importtime", "-c", "import rppi.cli")
    for _ in range(IMPORT_PROBES):
        inv = runner.run(argv, src.parent, env, log)
        seen = {}
        for line in inv.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for name in wanted:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _sequence(workload, seed: int, rep: Path, env: dict, traced: bool):
    """Run the workload's steps in ``rep``; returns (invocations, wall, stats)."""
    rep.mkdir()
    invocations, tracer = [], Tracer()
    start = time.perf_counter()
    for step in workload.steps(seed):
        if traced:
            stats = rep / f".{step.label}.trace.json"
            argv = (sys.executable, str(BENCH / "traced_cli.py"), str(stats), *step.args)
        else:
            argv = runner.cli(*step.args)
        inv = runner.run(argv, rep, env, rep / f".{step.label}")
        invocations.append(inv)
        if traced and stats.exists():
            tracer.merge(json.loads(stats.read_text()))
    return invocations, time.perf_counter() - start, tracer.stats()


def _same_outputs(workload, seed: int, first: Path, other: Path, out: Outcome) -> None:
    for step in workload.steps(seed):
        for name in step.outputs:
            a, b = first / name, other / name
            if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                out.fail(f"{name} differs between {first.name} and {other.name}")


def _layer_metrics(stats: dict, imports: dict, plain_wall: float,
                   traced_wall: float) -> dict:
    calls, self_s, total_s = stats["calls"], stats["self_s"], stats["total_s"]
    n = stats["counts"]

    def get(table, key):
        return float(table.get(key, 0.0))

    durations = np.array(stats["durations"].get("estimator.assemble", [0.0])) * 1e6
    proposals, sample_s = get(n, "sampling.proposals"), get(self_s, "sampling.sample")
    map_s, worker_s = get(total_s, "parallel.map"), get(n, "parallel.worker_s")
    return {
        "cli.import_s": imports["rppi.cli"],
        "cli.import_scipy_stats_s": imports["scipy.stats"],
        "cli.import_scipy_linalg_s": imports["scipy.linalg"],
        "dataio.read_s": get(self_s, "dataio.read"),
        "dataio.read_rows": get(n, "dataio.rows"),
        "dataio.write_s": get(self_s, "dataio.write"),
        "suffstats.kernel_s": get(self_s, "suffstats.kernel"),
        "suffstats.kernel_rows": get(n, "suffstats.rows"),
        "suffstats.bytes_computed": get(n, "suffstats.bytes"),
        "estimator.assemble_calls": get(calls, "estimator.assemble"),
        "estimator.assemble_rows": get(n, "estimator.rows"),
        "estimator.assemble_s": get(total_s, "estimator.assemble"),
        "estimator.assemble_p50_us": float(np.percentile(durations, 50)),
        "estimator.assemble_p99_us": float(np.percentile(durations, 99)),
        "estimator.solve_calls": get(calls, "estimator.solve"),
        "estimator.solve_s": get(self_s, "estimator.solve"),
        "robust.fits": get(calls, "robust.fit"),
        "robust.failed": get(n, "robust.fit.failed"),
        "robust.iterations": get(n, "robust.iterations"),
        "robust.restarts": get(n, "robust.restarts"),
        "robust.self_s": get(self_s, "robust.fit"),
        "sampling.proposals": proposals,
        "sampling.accepted": get(n, "sampling.accepted"),
        "sampling.acceptance": get(n, "sampling.accepted") / proposals if proposals else 0.0,
        "sampling.proposals_per_s": proposals / sample_s if sample_s else 0.0,
        "sampling.envelope_s": get(self_s, "sampling.envelope"),
        "sampling.sample_s": sample_s,
        "inference.ks_calls": get(calls, "inference.ks"),
        "inference.ks_s": get(self_s, "inference.ks"),
        "inference.tune_failed": get(n, "inference.tune_failed"),
        "inference.influence_s": get(self_s, "inference.influence"),
        "inference.influence_rows": get(n, "inference.influence_rows"),
        "study.replicates": get(n, "study.replicates"),
        "study.self_s": get(self_s, "study.run"),
        "parallel.map_s": map_s,
        "parallel.tasks": get(n, "parallel.tasks"),
        "parallel.task_s": get(n, "parallel.task_s"),
        "parallel.efficiency": get(n, "parallel.task_s") / worker_s if worker_s else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    }


def _self_time_shares(stats: dict) -> list[tuple[str, float]]:
    """Each span's share of the summed self time, pool workers included.

    parallel_map is left out: while its tasks run in workers, its self
    time in the parent is waiting.
    """
    own = {k: v for k, v in stats["self_s"].items() if k != "parallel.map"}
    total = sum(own.values()) or 1.0
    return sorted(((k, v / total) for k, v in own.items()), key=lambda kv: -kv[1])


def measure(workload, seed: int, seconds: float, trace: bool, root: Path,
            work: Path) -> tuple[dict, Outcome, list[str], tuple[int, int]]:
    src = root / "src"
    notes = [f"machine: {json.dumps(runner.machine(), sort_keys=True)}"]
    ref = json.loads((BENCH / "reference.json").read_text())

    directory = work / "inputs"
    directory.mkdir()
    facts = workload.prepare(directory, seed)
    for path in sorted(directory.iterdir()):
        notes.append(f"input {path.name}: sha256 {inputs.digest(path)}")

    sys.path.insert(0, str(src))
    import rppi.cli
    outcome = workload.canary(rppi.cli.main, work / "canary", ref)
    outcome.problems = [f"canary: {p}" for p in outcome.problems]

    env = runner.child_env(src)
    log = work / "probe"
    _probe_import(src, env, log)  # compile bytecode, warm the file cache
    if trace:
        imports = _import_profile(src, env, log)

    samples: list[dict] = []
    setup: list[float] = []
    rss: dict[str, list[float]] = defaultdict(list)
    invoked = exited = 0
    start = time.perf_counter()
    first = None
    # Start another repetition only while it is expected to end in time.
    while not samples or (time.perf_counter() - start) * (len(samples) + 1) \
            / len(samples) <= seconds:
        k = len(samples) + 1
        if not trace:
            setup.append(_probe_import(src, env, log))
        rep = work / f"rep{k}"
        invocations, wall, _ = _sequence(workload, seed, rep, env, traced=False)
        try:
            found = workload.check(rep, invocations, facts, ref)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = Outcome(problems=[f"outputs of {rep.name} unreadable: {exc!r}"])
        invoked += len(invocations)
        exited += sum(inv.code != 0 for inv in invocations)
        outcome.attempted += found.attempted
        outcome.failed += found.failed
        outcome.problems += found.problems
        first = first or rep
        if rep != first:
            _same_outputs(workload, seed, first, rep, outcome)
        walls = defaultdict(float)
        for step, inv in zip(workload.steps(seed), invocations):
            walls[step.label] += inv.wall_s
            rss[step.label].append(inv.maxrss_mb)
        ok = all(inv.code == 0 for inv in invocations)
        if not trace:
            samples.append({
                "wall_s": wall,
                "cpu_s": sum(inv.cpu_s for inv in invocations),
                "items_per_s": workload.items_per_s(walls) if ok else 0.0,
            })
            continue
        traced_rep = work / f"traced{k}"
        traced, traced_wall, stats = _sequence(workload, seed, traced_rep, env, traced=True)
        if any(inv.code != 0 for inv in traced):
            outcome.fail(f"traced run exited {[inv.code for inv in traced]}: "
                         f"{traced[-1].stderr[-300:]}")
        _same_outputs(workload, seed, rep, traced_rep, outcome)
        samples.append(_layer_metrics(stats, imports, wall, traced_wall))
        if k == 1:
            shares = ", ".join(f"{name} {share:.1%}"
                               for name, share in _self_time_shares(stats)[:6])
            notes.append(f"largest self-time shares (traced run 1): {shares}")

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    if not trace:
        while len(setup) < SETUP_PROBES:
            setup.append(_probe_import(src, env, log))
        metrics["setup_s"] = statistics.median(setup)
        # A command's peak is the median over its invocations in the run.
        metrics["peak_rss_mb"] = max(statistics.median(v) for v in rss.values())
    notes.append(f"repetitions: {len(samples)}, set-up probes: {len(setup)} "
                 "(medians reported)")
    return metrics, outcome, notes, (invoked, exited)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rppi" / "cli.py").is_file():
        print("error: run from the root of an rppi checkout (src/rppi/cli.py "
              "is missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-",
                                 dir=root / WORK_DIR))
    try:
        metrics, outcome, notes, (invoked, exited) = measure(
            workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    for note in notes:
        print(note)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'failed_frac':28s} {frac:14.6g} {'ratio':6s} "
          f"failed / attempted = {outcome.failed} / {outcome.attempted}")
    for name, (unit, what) in table.items():
        print(f"{name:28s} {metrics[name]:14.6g} {unit:6s} {what}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": invoked,
        "failed": min(invoked, exited + len(outcome.problems)),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
