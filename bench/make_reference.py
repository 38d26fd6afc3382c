"""Record the reference values the correctness checks compare against.

Run from the root of a checkout, at the commit whose results are the
reference:

    python3 bench/make_reference.py

It writes ``bench/reference.json``: the dataset-2 model's moments by
importance sampling (numpy only), the sim7 RMSE table at 400 replicates,
and the sampler-independent canary results.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs
from workloads import CANARY_SEED, AnalystP3, FitLarge, run_in_process

BENCH = Path(__file__).resolve().parent
STUDY_REPLICATES = 400
D2_PROPOSALS = 40_000_000


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import rppi.cli
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=root / ".bench_work"))
    try:
        canary = {}
        for cls in (FitLarge, AnalystP3):
            outcome, values = cls.canary_values(rppi.cli.main, work / cls.name)
            if outcome.problems:
                raise SystemExit(f"{cls.name} canary failed: {outcome.problems}")
            canary[cls.name] = values
        code = run_in_process(rppi.cli.main, (
            "study", "sim7", "--replicates", str(STUDY_REPLICATES),
            "--seed", str(CANARY_SEED), "--threads", "2", "--out", "study"),
            work / "study")
        if code != 0:
            raise SystemExit(f"reference study exited {code}")
        table = json.loads((work / "study" / "study.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    d2 = inputs.moments(inputs.DATASET2_A, inputs.DATASET2_BETA, D2_PROPOSALS,
                        np.random.default_rng([CANARY_SEED, 2]))
    reference = {
        "canary": canary,
        "dataset2_moments": d2,
        "study_rmse": {k: table[k] for k in ("estimators", "labels", "rmse",
                                             "failures", "replicates")},
    }
    inputs.write_json(BENCH / "reference.json", reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
