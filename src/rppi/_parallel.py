"""Process-based map that keeps results in submission order.

Replicate-level parallelism only: every task carries its own seed, so
results are a pure function of the task arguments and the output list
is identical whatever the worker count (including 1, which runs inline
and keeps tracebacks simple).
"""

from __future__ import annotations


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: an inline run never needs it, and the import is about
    # a tenth of the package's start-up
    from concurrent.futures import ProcessPoolExecutor

    workers = min(threads, len(items))
    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
