"""Run CLI invocations as fresh processes and account for each one.

Every invocation is reaped with ``os.wait4``, whose resource usage covers
the process and every descendant it waited for (pool workers included),
and whose max-RSS is that of the one invocation.  The cumulative
``RUSAGE_CHILDREN`` figure is not used: its max-RSS only ever grows.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Variables that would change what a child computes or how many threads
# it runs; the benchmark passes --seed and --threads explicitly instead.
_DROPPED = ("RPPI_SEED", "RPPI_THREADS", "PYTHONSTARTUP", "PYTHONHOME",
            "PYTHONWARNINGS", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE")
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env(src: Path) -> dict:
    """Fixed environment: one BLAS thread, the checkout's sources, no RPPI_*."""
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED}
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


def run(argv, cwd: Path, env: dict, log: Path) -> Invocation:
    """Run one process to completion; its output goes through ``log``."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        argv=tuple(argv), code=proc.returncode, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=err_path.read_text(errors="replace"),
    )


def cli(*args: str) -> tuple[str, ...]:
    """argv of one ``rppi`` command run as a module (no console script)."""
    return (sys.executable, "-m", "rppi.cli", *args)


def machine() -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}
