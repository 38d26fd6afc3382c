"""Root gate: fit the weighted study presets from two source trees and
compare the roots that the fits reach.

    python tools/root_gate.py OLD_SRC NEW_SRC [--seeds 3-8] [--rtol 1e-6]

OLD_SRC and NEW_SRC are directories that hold the ``rppi`` package, such
as the ``src`` of two checkouts.  Each tree fits, in a subprocess of its
own with one BLAS thread, the presets sim5 to sim8 at every seed: 25
replicates, the preset's seven values of c, rows drawn as ``study``
draws them, and one ``PreparedData`` per replicate.  The report gives

* the failures per scenario, c and exception type, in each tree;
* the fits whose number of restarts changed;
* over the fits that converged from the same start in both trees, the
  largest move of the root relative to its max |pi|, and of a 1 + beta
  entry in absolute terms;
* the converged fits whose weighted-equation residual is not below
  ``RESIDUAL`` times max |d_hat|;
* the iterations of the fits that converged in both trees, per scenario;
* each tree's CPU time for its fits.

The exit status is 1 when a fit fails in NEW_SRC that converged in
OLD_SRC or failed there with another exception type, when a same-start
root moves by more than ``--rtol``, or when a converged NEW_SRC fit is
over the residual bound; it is 0 otherwise.  The fits read only
``fit_robust``, ``PreparedData``, ``robust.RESIDUAL`` and the study's
presets and samplers, so any two versions that have them can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

SCENARIOS = ("sim5", "sim6", "sim7", "sim8")
REPLICATES = 25


def parse_seeds(text: str) -> list[int]:
    """Seeds from "3-8", "3,5,7" or a mix of both."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def fit_presets(seeds: list[int]) -> dict:
    """Every fit of the gate from the ``rppi`` on sys.path, as JSON-ready data."""
    import numpy as np

    import rppi
    from rppi.errors import RPPIError
    from rppi.robust import RESIDUAL, PreparedData, fit_robust
    from rppi.sampling import contaminate, rng_from, sample_rppi, spawn_seeds
    from rppi.study import preset_scenario

    warnings.simplefilter("ignore")
    fits = []
    start = time.process_time()
    for name in SCENARIOS:
        for seed in seeds:
            scenario = preset_scenario(name, seed=seed, replicates=REPLICATES)
            for replicate, child in enumerate(spawn_seeds(seed, REPLICATES)):
                latent, counts, contam = child.spawn(3)
                u, _ = sample_rppi(scenario.truth, scenario.n, seed=latent)
                if scenario.data_mode == "multinomial":
                    x = rng_from(counts).multinomial(np.full(scenario.n, scenario.m), u)
                    u = x / float(scenario.m)
                if scenario.contamination > 0.0:
                    u = contaminate(u, scenario.contamination,
                                    np.asarray(scenario.outlier), seed=contam)
                data = PreparedData(u, float(scenario.truth.beta[-1]))
                for _, cfg in scenario.estimators:
                    key = [name, seed, replicate, cfg.c]
                    try:
                        fit = fit_robust(data, cfg)
                    except RPPIError as exc:
                        fits.append(key + [{"error": type(exc).__name__}])
                        continue
                    bound = RESIDUAL * float(np.abs(fit.d_hat).max())
                    fits.append(key + [{"pi": fit.pi_hat.pi.tolist(),
                                        "iterations": fit.iterations,
                                        "restarts": fit.restarts,
                                        "over_bound": not fit.residual < bound}])
    return {"rppi": rppi.__file__, "cpu_s": time.process_time() - start, "fits": fits}


def run_tree(src: Path, seeds: list[int]) -> dict:
    """The gate's fits from the package under ``src``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **{name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")})
    done = subprocess.run([sys.executable, __file__, "--worker",
                           "--seeds", ",".join(map(str, seeds))],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the fits from {src} failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if not Path(result["rppi"]).resolve().is_relative_to(src):
        raise SystemExit(f"{src} did not provide rppi: {result['rppi']} was imported")
    return result


def compare(old: dict, new: dict, rtol: float) -> int:
    """Print the report of two trees' fits; return the exit status."""
    failures = {tree: Counter() for tree in ("old", "new")}
    iterations = defaultdict(lambda: [0, 0])
    new_failures, restart_changes = [], []
    root_move = beta_move = 0.0
    worst = None
    over_bound = {"old": 0, "new": 0}
    for (name, seed, rep, c, a), (*key, b) in zip(old["fits"], new["fits"]):
        if [name, seed, rep, c] != key:
            raise SystemExit("the two trees fitted different cases")
        for tree, out in (("old", a), ("new", b)):
            if "error" in out:
                failures[tree][name, c, out["error"]] += 1
            else:
                over_bound[tree] += out["over_bound"]
        label = f"{name} seed {seed} replicate {rep} c={c:g}"
        if "error" in b:
            if a.get("error") != b["error"]:
                new_failures.append(f"{label}: {a.get('error', 'converged')} -> {b['error']}")
            continue
        if "error" in a:
            continue
        iterations[name][0] += a["iterations"]
        iterations[name][1] += b["iterations"]
        if a["restarts"] != b["restarts"]:
            restart_changes.append(f"{label}: {a['restarts']} -> {b['restarts']}")
            continue
        pa, pb = a["pi"], b["pi"]
        d = round(((9 + 8 * len(pa)) ** 0.5 - 3) / 2)  # q = d (d + 3) / 2
        move = max(abs(x - y) for x, y in zip(pa, pb)) / max(abs(x) for x in pa)
        if move > root_move:
            root_move, worst = move, label
        beta_move = max(beta_move, max(abs(x - y) for x, y in zip(pa[-d:], pb[-d:])))

    for tree, result in (("old", old), ("new", new)):
        print(f"{tree}: {result['rppi']}, {len(result['fits'])} fits, "
              f"{sum(failures[tree].values())} failed, {result['cpu_s']:.2f} s CPU")
    print("failures (scenario, c, type): old -> new")
    for case in sorted(set(failures["old"]) | set(failures["new"])):
        print(f"  {case[0]} c={case[1]:g} {case[2]}: "
              f"{failures['old'][case]} -> {failures['new'][case]}")
    print(f"new failures: {len(new_failures)}")
    for line in new_failures:
        print("  " + line)
    print(f"restart changes: {len(restart_changes)}")
    for line in restart_changes:
        print("  " + line)
    print(f"largest same-start root move: {root_move:.3e} of max|pi|"
          + (f" ({worst})" if worst else ""))
    print(f"largest same-start 1 + beta move: {beta_move:.3e} absolute")
    print(f"converged fits over the residual bound: {over_bound['old']} -> {over_bound['new']}")
    print("iterations of fits converged in both trees: old -> new")
    total = [0, 0]
    for name in SCENARIOS:
        a, b = iterations[name]
        total = [total[0] + a, total[1] + b]
        print(f"  {name}: {a} -> {b} ({100.0 * (b - a) / max(a, 1):+.1f}%)")
    print(f"  all: {total[0]} -> {total[1]} ({100.0 * (total[1] - total[0]) / max(total[0], 1):+.1f}%)")
    return int(bool(new_failures) or root_move > rtol or over_bound["new"] > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?", type=Path, metavar="OLD_SRC",
                        help="directory holding the reference tree's rppi package")
    parser.add_argument("new_src", nargs="?", type=Path, metavar="NEW_SRC",
                        help="directory holding the changed tree's rppi package")
    parser.add_argument("--seeds", type=parse_seeds, default="3-8",
                        help="study seeds, e.g. 3-8 or 1,4-6 (default 3-8)")
    parser.add_argument("--rtol", type=float, default=1e-6,
                        help="largest allowed same-start root move, relative to max|pi|")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(fit_presets(args.seeds), sys.stdout)
        return 0
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    old, new = (run_tree(src.resolve(), args.seeds) for src in (args.old_src, args.new_src))
    return compare(old, new, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
