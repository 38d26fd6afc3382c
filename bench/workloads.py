"""The four workloads: their inputs, command sequences, canaries and checks.

Each workload is a fixed sequence of ``rppi`` commands.  A step's
arguments are relative to the directory it runs in, with inputs under
``../inputs``, so two runs of one sequence in sibling directories must
write byte-identical files.

Every workload checks its outputs in two ways:

* ``check`` looks at one measured repetition on the seeded inputs: exit codes,
  failed fits, and statistical agreement with the generating model or
  with reference values recorded at the commit that defined the
  benchmark (``reference.json``);
* ``canary`` runs a small fixed-input version in the benchmark's own
  process: results that do not depend on the sampler's random stream
  must match ``reference.json`` to a relative 1e-6, and two executions
  (with one and two worker processes where the command has a pool) must
  write identical bytes.

Tolerances are stated next to each check.  A sampler change that keeps
the distribution but changes the random stream passes every check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

CANARY_SEED = 20260801
# Draw means and acceptance rates must agree within this many combined
# standard errors (a false alarm is then a ~1e-9 event per comparison).
Z_MAX = 6.0
# Sampler-independent canary results must match the reference this closely.
CANARY_RTOL = 1e-6


@dataclass(frozen=True)
class Step:
    label: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _table(path: Path, header: bool = False) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2)


def _p3_truth() -> np.ndarray:
    (a11, a12), (_, a22) = inputs.P3_A
    b1, b2, _ = inputs.P3_BETA
    return np.array([a11, a22, a12, 1.0 + b1, 1.0 + b2])


def _close(name: str, got, want, out: Outcome) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or \
            not np.allclose(got, want, rtol=CANARY_RTOL, atol=0.0):
        out.fail(f"{name}: {got.tolist()} differs from reference {want.tolist()} "
                 f"beyond rtol {CANARY_RTOL:g}")


def run_in_process(main, args, cwd: Path) -> int:
    """``rppi.cli.main(args)`` inside ``cwd``, with its console output muted."""
    cwd.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(list(args))
    finally:
        os.chdir(here)


def _same_bytes(a: Path, b: Path, files, out: Outcome) -> None:
    for name in files:
        if (a / name).read_bytes() != (b / name).read_bytes():
            out.fail(f"{name} differs between {a.name} and {b.name}")


def _twice(main, steps_a, steps_b, root: Path, files, out: Outcome) -> None:
    """Run two step lists in sibling directories; their files must match."""
    for sub, steps in (("a", steps_a), ("b", steps_b)):
        for args in steps:
            code = run_in_process(main, args, root / sub)
            if code != 0:
                out.fail(f"canary {args[0]} exited {code}")
                return
    _same_bytes(root / "a", root / "b", files, out)


def _means_agree(label: str, draws: np.ndarray, ref: dict, out: Outcome) -> None:
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    z = np.abs(mean - ref["mean"]) / np.hypot(se, ref["mean_se"])
    if not np.all(z <= Z_MAX):
        out.fail(f"{label}: component means {mean.tolist()} are {z.max():.1f} "
                 f"standard errors from the model's {ref['mean']}")


def _acceptance_agrees(label: str, report: dict, ref: dict, out: Outcome) -> None:
    m = report["envelope_constant"]
    rate, n_prop = report["acceptance_rate"], report["n_proposals"]
    if not m >= 0.0:
        out.fail(f"{label}: envelope constant {m} is below the quadratic at the origin")
        return
    expected = ref["ew"] * math.exp(-m)
    se = math.hypot(ref["ew_se"] * math.exp(-m), math.sqrt(rate * (1 - rate) / n_prop))
    if abs(rate - expected) > Z_MAX * se:
        out.fail(f"{label}: acceptance {rate:.5f} of {n_prop} proposals, "
                 f"expected {expected:.5f} +- {se:.1e} for envelope {m:g}")


def _ok_exit(invocations, out: Outcome) -> bool:
    good = True
    for inv in invocations:
        if inv.code != 0:
            out.failed += 1
            out.fail(f"{' '.join(inv.argv[3:5])} exited {inv.code}: "
                     f"{inv.stderr.strip()[-300:]}")
            good = False
    return good


class StudySim7:
    name = "study-sim7"
    why = ("three 25-replicate sim7 studies on the vertex-concentrated dataset-2 "
           "design: 525 small n=94, p=5 fits over the 7-c panel, no file input")
    # Three studies of 25 replicates, each from its own seed.  One replicate
    # in ~400 makes the sampler allocate a 2M-proposal batch (+115 MB), so
    # a single study's peak RSS is bimodal across seeds; the median over
    # three studies is not.
    studies = 3
    replicates = 25

    def prepare(self, directory: Path, seed: int) -> dict:
        return {}

    def steps(self, seed: int) -> list[Step]:
        return [Step("study", ("study", "sim7", "--replicates", str(self.replicates),
                               "--seed", str(self.studies * seed + k), "--threads", "1",
                               "--out", f"study{k}"), (f"study{k}.json", f"study{k}.csv"))
                for k in range(self.studies)]

    def items_per_s(self, walls: dict) -> float:
        return self.studies * self.replicates / walls["study"]

    def check(self, rep: Path, invocations, facts: dict, ref: dict) -> Outcome:
        want = ref["study_rmse"]
        out = Outcome(attempted=self.studies * self.replicates * len(want["estimators"]))
        if not _ok_exit(invocations, out):
            return out
        squares, fits = 0.0, 0
        for k in range(self.studies):
            table = _load(rep / f"study{k}.json")
            if table["estimators"] != want["estimators"] or table["labels"] != want["labels"]:
                out.fail(f"study{k}: estimator panel or parameter labels changed")
                return out
            ok = self.replicates - np.array(table["failures"])
            out.failed += int(np.sum(self.replicates - ok))
            rmse = np.array(table["rmse"], dtype=float)
            squares = squares + ok * np.where(ok > 0, rmse, 0.0) ** 2
            fits = fits + ok
        # Each estimator's RMSEs, pooled over the three studies and summarised
        # by the geometric mean of their ratios to a 400-replicate reference,
        # must lie within a factor of 3 (on four seeds at 80 replicates the
        # summaries ranged 0.72-1.49).
        pooled = np.sqrt(squares / np.maximum(fits, 1))
        ratios = np.exp(np.mean(np.log(pooled / np.array(want["rmse"])), axis=0))
        for label, ratio, n_ok in zip(want["estimators"], ratios, fits):
            if not (n_ok > 0 and 1.0 / 3.0 <= ratio <= 3.0):
                out.fail(f"study: RMSE of {label} is {ratio:.2f} times the reference")
        return out

    def canary(self, main, root: Path, ref: dict) -> Outcome:
        out = Outcome()
        args = ("study", "sim7", "--replicates", "2", "--seed", str(CANARY_SEED),
                "--out", "study")
        _twice(main, [args + ("--threads", "1")], [args + ("--threads", "2")],
               root, ("study.json", "study.csv"), out)
        return out


class FitLarge:
    name = "fit-large"
    why = ("weighted fit and influence on one 200000-row p=3 table: the large-n "
           "kernel, CSV streaming and memory case; no sampling")
    rows = 200_000
    canary_rows = 4000
    # Estimates from 200000 rows lie within these absolute distances of the
    # generating parameters: about 8 standard errors, with the errors'
    # spread over seeds measured as (0.04, 0.03, 0.07, 0.003, 0.003).
    truth_atol = (0.3, 0.25, 0.6, 0.025, 0.025)

    def prepare(self, directory: Path, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        u = inputs.draw(inputs.P3_A, inputs.P3_BETA, self.rows, rng)
        inputs.write_table(directory / "large.csv", u, "u")
        return {}

    def steps(self, seed: int) -> list[Step]:
        return [
            Step("fit", ("fit", "../inputs/large.csv", "--c", "0.5", "--kstar", "2",
                         "--out", "fit"), ("fit.json", "fit.csv")),
            Step("influence", ("influence", "fit.json", "--ref-data",
                               "../inputs/large.csv", "--out", "influence"),
                 ("influence.json", "influence.csv")),
        ]

    def items_per_s(self, walls: dict) -> float:
        # Both commands pass over every row of the table: the fit reads and
        # reduces it, the influence reads it again as the reference data.
        return 2 * self.rows / (walls["fit"] + walls["influence"])

    def check(self, rep: Path, invocations, facts: dict, ref: dict) -> Outcome:
        out = Outcome(attempted=2)
        if not _ok_exit(invocations, out):
            return out
        fit = _load(rep / "fit.json")
        err = np.abs(np.array(fit["pi"]) - _p3_truth())
        if not (fit["converged"] and np.all(err <= np.array(self.truth_atol))):
            out.failed += 1
            out.fail(f"fit-large: estimate {fit['pi']} is not within "
                     f"{self.truth_atol} of the truth {_p3_truth().tolist()}")
        inf = _load(rep / "influence.json")
        if not (inf["n_reference"] == self.rows and inf["sup_norm"] is not None
                and math.isfinite(inf["sup_norm"])):
            out.failed += 1
            out.fail(f"fit-large: influence report is wrong: {inf}")
        return out

    @classmethod
    def canary_values(cls, main, root: Path) -> tuple[Outcome, dict]:
        out = Outcome()
        u = inputs.draw(inputs.P3_A, inputs.P3_BETA, cls.canary_rows,
                        np.random.default_rng([CANARY_SEED, 1]))
        root.joinpath("inputs").mkdir(parents=True, exist_ok=True)
        inputs.write_table(root / "inputs" / "small.csv", u, "u")
        fit = ("fit", "../inputs/small.csv", "--c", "0.5", "--kstar", "2", "--out", "fit")
        inf = ("influence", "fit.json", "--ref-data", "../inputs/small.csv",
               "--grid-resolution", "6", "--out", "influence")
        _twice(main, [fit, inf], [fit, inf], root,
               ("fit.json", "fit.csv", "influence.json", "influence.csv"), out)
        values = {}
        if not out.problems:
            values = {"pi": _load(root / "a" / "fit.json")["pi"],
                      "influence": _table(root / "a" / "influence.csv", header=True).tolist()}
        return out, values

    def canary(self, main, root: Path, ref: dict) -> Outcome:
        out, values = self.canary_values(main, root)
        if values:
            want = ref["canary"][self.name]
            _close("fit-large canary estimate", values["pi"], want["pi"], out)
            _close("fit-large canary influence", values["influence"],
                   want["influence"], out)
        return out


class SampleConcentrated:
    name = "sample-concentrated"
    why = ("exact rejection sampling only: 50000 draws from the dataset-2 design at "
           "0.6% acceptance, then 20000 from a p=17 model whose envelope has 2^16 faces")
    n_d2 = 50_000
    n_p17 = 20_000
    # Importance-sampling proposals behind the p=17 model's reference moments.
    p17_proposals = 400_000

    def prepare(self, directory: Path, seed: int) -> dict:
        inputs.write_json(directory / "dataset2.json", inputs.dataset2_payload())
        rng = np.random.default_rng([seed, 3])
        a_l, beta = inputs.p17_model(rng)
        inputs.write_json(directory / "p17.json", inputs.params_payload(a_l, beta, 16))
        return {"p17": inputs.moments(a_l, beta, self.p17_proposals, rng)}

    def steps(self, seed: int) -> list[Step]:
        return [
            Step("sample-d2", ("sample", "../inputs/dataset2.json", "--n",
                               str(self.n_d2), "--seed", str(seed), "--out", "d2"),
                 ("d2.json", "d2.csv")),
            Step("sample-p17", ("sample", "../inputs/p17.json", "--n",
                                str(self.n_p17), "--seed", str(seed), "--out", "p17"),
                 ("p17.json", "p17.csv")),
        ]

    def items_per_s(self, walls: dict) -> float:
        return (self.n_d2 + self.n_p17) / (walls["sample-d2"] + walls["sample-p17"])

    def check(self, rep: Path, invocations, facts: dict, ref: dict) -> Outcome:
        out = Outcome(attempted=2)
        if not _ok_exit(invocations, out):
            return out
        for label, n, moments in (("d2", self.n_d2, ref["dataset2_moments"]),
                                  ("p17", self.n_p17, facts["p17"])):
            before = len(out.problems)
            draws = _table(rep / f"{label}.csv")
            if draws.shape[0] != n or not np.all(draws > 0.0) or \
                    not np.allclose(draws.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
                out.fail(f"{label}: draws are not {n} interior compositions")
            else:
                _means_agree(label, draws, moments, out)
                _acceptance_agrees(label, _load(rep / f"{label}.json")["report"],
                                   moments, out)
            out.failed += len(out.problems) > before
        return out

    def canary(self, main, root: Path, ref: dict) -> Outcome:
        out = Outcome()
        root.joinpath("inputs").mkdir(parents=True, exist_ok=True)
        inputs.write_json(root / "inputs" / "dataset2.json", inputs.dataset2_payload())
        args = ("sample", "../inputs/dataset2.json", "--n", "2000",
                "--seed", str(CANARY_SEED), "--out", "d2")
        _twice(main, [args], [args], root, ("d2.json", "d2.csv"), out)
        return out


class AnalystP3:
    name = "analyst-p3"
    why = ("the README session fit, tune, bootstrap --threads 2, influence on a "
           "300-row count table: start-up heavy, the only KS and process-pool user")
    n = 300
    m = 500
    b = 200
    grid = 31  # the tune command's default grid, 0:1.5:0.05
    # The fitted estimate must lie within this many bootstrap standard errors
    # of the generating parameters.
    se_max = 6.0

    def prepare(self, directory: Path, seed: int) -> dict:
        self.write_counts(directory / "counts.csv", np.random.default_rng([seed, 4]))
        return {}

    @classmethod
    def write_counts(cls, path: Path, rng: np.random.Generator) -> None:
        latent = inputs.draw(inputs.P3_A, inputs.P3_BETA, cls.n, rng)
        inputs.write_table(path, rng.multinomial(cls.m, latent), "x")

    def steps(self, seed: int) -> list[Step]:
        s = str(seed)
        return [
            Step("fit", ("fit", "../inputs/counts.csv", "--c", "0.5", "--kstar", "2",
                         "--out", "fit"), ("fit.json", "fit.csv")),
            Step("tune", ("tune", "../inputs/counts.csv", "--kstar", "2", "--seed", s,
                          "--out", "tune"), ("tune.json", "tune.csv")),
            Step("bootstrap", ("bootstrap", "fit.json", "../inputs/counts.csv", "--b",
                               str(self.b), "--seed", s, "--threads", "2",
                               "--out", "boot"), ("boot.json", "boot.csv")),
            Step("influence", ("influence", "fit.json", "--seed", s, "--out",
                               "influence"), ("influence.json", "influence.csv")),
        ]

    def items_per_s(self, walls: dict) -> float:
        # Models fitted per second of the session: fit, tune's grid, bootstrap.
        return (1 + self.grid + self.b) / sum(walls.values())

    def check(self, rep: Path, invocations, facts: dict, ref: dict) -> Outcome:
        out = Outcome(attempted=1 + self.grid + self.b + 1)
        if not _ok_exit(invocations, out):
            return out
        tune = _load(rep / "tune.json")
        fit, boot = _load(rep / "fit.json"), _load(rep / "boot.json")
        out.failed += boot["n_failed"]
        se = np.array(boot["se"], dtype=float)
        if not (np.all(np.isfinite(se)) and np.all(se > 0.0)):
            out.fail(f"bootstrap: standard errors {boot['se']} are not positive")
        elif not np.all(np.abs(np.array(fit["pi"]) - _p3_truth()) <= self.se_max * se):
            out.failed += 1
            out.fail(f"fit: estimate {fit['pi']} is more than {self.se_max} bootstrap "
                     f"standard errors from the truth {_p3_truth().tolist()}")
        errors = [e for e in tune["entries"] if e["error"] is not None]
        out.failed += len(errors)
        usable = [e for e in tune["entries"] if e["error"] is None]
        if usable:
            passing = [e["c"] for e in usable if min(e["ks_pvalues"]) >= tune["alpha"]]
            rule = min(passing) if passing else \
                max(usable, key=lambda e: min(e["ks_pvalues"]))["c"]
            if tune["recommended_c"] != rule:
                out.fail(f"tune: recommended c {tune['recommended_c']} does not follow "
                         f"from its own p-values (expected {rule})")
        inf = _load(rep / "influence.json")
        if inf["sup_norm"] is None or not math.isfinite(inf["sup_norm"]):
            out.failed += 1
            out.fail("influence: sup norm is not finite")
        return out

    @classmethod
    def canary_values(cls, main, root: Path) -> tuple[Outcome, dict]:
        out = Outcome()
        root.joinpath("inputs").mkdir(parents=True, exist_ok=True)
        cls.write_counts(root / "inputs" / "counts.csv",
                         np.random.default_rng([CANARY_SEED, 4]))
        s = str(CANARY_SEED)
        fit = ("fit", "../inputs/counts.csv", "--c", "0.5", "--kstar", "2", "--out", "fit")
        tune = ("tune", "../inputs/counts.csv", "--kstar", "2", "--grid", "0:0.3:0.1",
                "--sim-size", "4000", "--seed", s, "--out", "tune")
        boot = ("bootstrap", "fit.json", "../inputs/counts.csv", "--b", "8",
                "--seed", s, "--out", "boot")
        _twice(main, [fit, tune, boot + ("--threads", "1")],
               [fit, tune, boot + ("--threads", "2")], root,
               ("fit.json", "tune.json", "boot.json", "boot.csv"), out)
        values = {}
        if not out.problems:
            values = {"pi": _load(root / "a" / "fit.json")["pi"],
                      "recommended_c": _load(root / "a" / "tune.json")["recommended_c"]}
        return out, values

    def canary(self, main, root: Path, ref: dict) -> Outcome:
        out, values = self.canary_values(main, root)
        if values:
            want = ref["canary"][self.name]
            _close("analyst canary estimate", values["pi"], want["pi"], out)
            # The recommendation depends on simulated draws; a sampler with
            # another random stream may move it by at most one grid step.
            if abs(values["recommended_c"] - want["recommended_c"]) > 0.1 + 1e-9:
                out.fail(f"analyst canary: recommended c {values['recommended_c']} "
                         f"is more than one step from {want['recommended_c']}")
        return out


WORKLOADS = {w.name: w for w in (StudySim7(), FitLarge(), SampleConcentrated(),
                                 AnalystP3())}
