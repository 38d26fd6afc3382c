"""Spans around the package's layers, installed from outside the package.

The modules bind their collaborators with ``from .x import f``, so a
span has to be installed at every attribute a caller looks the function
up through (``rppi.robust.assemble`` as well as ``rppi.estimator.assemble``).
Each span keeps a parent stack, so a layer's self time is its duration
minus the time of the spans it called.  Counts are read from arguments
and return values where the work happens.

Pool tasks run in other processes: ``parallel_map`` gets a picklable
task shim that times each task, traces it with a fresh tracer inside the
worker and returns the worker's statistics with the result, and the
parent merges them.  Self times from workers are summed over processes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def stats(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts),
                "durations": {k: list(v) for k, v in self.durations.items()}}

    def merge(self, stats: dict) -> None:
        for field in ("calls", "self_s", "total_s", "counts"):
            mine = getattr(self, field)
            for key, value in stats[field].items():
                mine[key] += value
        for key, values in stats["durations"].items():
            self.durations[key].extend(values)


TRACER = Tracer()
_installed = False
_KEEP_DURATIONS = {"estimator.assemble"}


def _span(name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        children = [0.0]
        tracer.stack.append(children)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            elapsed = time.perf_counter() - start
            tracer.stack.pop()
            if tracer.stack:
                tracer.stack[-1][0] += elapsed
            tracer.calls[name] += 1
            tracer.total_s[name] += elapsed
            tracer.self_s[name] += elapsed - children[0]
            if name in _KEEP_DURATIONS:
                tracer.durations[name].append(elapsed)
            if not ok:
                tracer.counts[name + ".failed"] += 1
        if count is not None:
            count(tracer.counts, args, result)
        return result
    return wrapper


def _assemble(counts, args, result):
    counts["estimator.rows"] += len(args[0])


def _kernel_r(counts, args, result):
    counts["suffstats.bytes"] += result.nbytes
    counts["suffstats.rows"] += result.shape[0]


def _kernel_s(counts, args, result):
    counts["suffstats.bytes"] += result.nbytes


def _fit(counts, args, result):
    counts["robust.iterations"] += result.iterations
    counts["robust.restarts"] += result.restarts


def _sample(counts, args, result):
    report = result[1]
    counts["sampling.proposals"] += report.n_proposals
    counts["sampling.accepted"] += round(report.acceptance_rate * report.n_proposals)


def _table(counts, args, result):
    counts["dataio.rows"] += result.matrix.shape[0]


def _tune(counts, args, result):
    counts["inference.tune_failed"] += sum(e.error is not None for e in result.entries)


def _influence(counts, args, result):
    counts["inference.influence_rows"] += result.n_reference + result.z.shape[0]


def _study(counts, args, result):
    counts["study.replicates"] += result.replicates


class _Task:
    """Picklable pool task: runs ``fn`` and reports its time and spans."""

    def __init__(self, fn, parent_pid: int):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, item):
        global TRACER
        inline = os.getpid() == self.parent_pid
        if not inline:
            install()
            TRACER = Tracer()
        start = time.perf_counter()
        result = self.fn(item)
        elapsed = time.perf_counter() - start
        return result, elapsed, (None if inline else TRACER.stats())


def _parallel_map(original):
    @functools.wraps(original)
    def wrapper(fn, items, threads: int = 1):
        items = list(items)
        workers = min(threads, len(items)) if threads > 1 and len(items) > 1 else 1
        tracer = TRACER
        children = [0.0]
        tracer.stack.append(children)
        start = time.perf_counter()
        try:
            out = original(_Task(fn, os.getpid()), items, threads=threads)
        finally:
            elapsed = time.perf_counter() - start
            tracer.stack.pop()
            if tracer.stack:
                tracer.stack[-1][0] += elapsed
        for _, task_s, stats in out:
            tracer.counts["parallel.task_s"] += task_s
            if stats is not None:
                tracer.merge(stats)
        tracer.calls["parallel.map"] += 1
        tracer.total_s["parallel.map"] += elapsed
        tracer.self_s["parallel.map"] += elapsed - children[0]
        tracer.counts["parallel.tasks"] += len(items)
        tracer.counts["parallel.worker_s"] += workers * elapsed
        return [result for result, _, _ in out]
    return wrapper


# (module, attribute) call sites, grouped by the span they record.
SPANS = {
    "dataio.read": (("rppi.dataio", "read_table", _table),
                    ("rppi.dataio", "read_json", None)),
    "dataio.write": (("rppi.dataio", "write_json", None),
                     ("rppi.dataio", "write_csv_rows", None),
                     ("rppi.dataio", "write_table", None)),
    "suffstats.kernel": (("rppi.suffstats", "r_matrix_batch", _kernel_r),
                         ("rppi.suffstats", "s_matrix_batch", _kernel_s),
                         ("rppi.estimator", "r_matrix_batch", _kernel_r),
                         ("rppi.estimator", "s_matrix_batch", _kernel_s),
                         ("rppi.inference", "r_matrix_batch", _kernel_r),
                         ("rppi.inference", "s_matrix_batch", _kernel_s)),
    "estimator.assemble": (("rppi.estimator", "assemble", _assemble),
                           ("rppi.robust", "assemble", _assemble)),
    "estimator.solve": (("rppi.estimator", "solve_system", None),
                        ("rppi.robust", "solve_system", None)),
    "robust.fit": (("rppi.cli", "fit_robust", _fit),
                   ("rppi.inference", "fit_robust", _fit),
                   ("rppi.study", "fit_robust", _fit)),
    "sampling.sample": (("rppi.sampling", "sample_rppi", _sample),
                        ("rppi.cli", "sample_rppi", _sample),
                        ("rppi.inference", "sample_rppi", _sample),
                        ("rppi.study", "sample_rppi", _sample)),
    "sampling.envelope": (("rppi.sampling", "quad_max_simplex", None),),
    "inference.ks": (("rppi.inference", "ks_truncated", None),),
    "inference.tune": (("rppi.cli", "tune_c", _tune),),
    "inference.bootstrap": (("rppi.cli", "bootstrap_se", None),),
    "inference.influence": (("rppi.cli", "influence", _influence),),
    "study.run": (("rppi.cli", "run_study", _study),),
}
_PARALLEL_SITES = (("rppi.inference", "parallel_map"), ("rppi.study", "parallel_map"))


def install() -> None:
    """Wrap every call site once; later calls are no-ops."""
    global _installed
    if _installed:
        return
    _installed = True
    for name, sites in SPANS.items():
        for module_name, attr, count in sites:
            module = importlib.import_module(module_name)
            setattr(module, attr, _span(name, getattr(module, attr), count))
    for module_name, attr in _PARALLEL_SITES:
        module = importlib.import_module(module_name)
        setattr(module, attr, _parallel_map(getattr(module, attr)))
