"""Monte Carlo study harness: simulate, fit a panel of estimators, tabulate.

A scenario bundles the generating model, the observation mechanism
(continuous compositions or multinomial counts at resolution m), an
optional contamination step that overwrites a fixed fraction of the
observed rows with one outlier composition, and the estimator panel (a
list of labelled weighting configurations).  Replicates are independent
given the scenario seed, so they parallelize trivially and the results
do not depend on the worker count.

Failures (non-convergence, singular systems, estimates leaving the
parameter space) are counted per estimator and excluded from the RMSE;
estimators failing more than 5% of replicates get flagged in the
output, since their RMSE column is then conditional on an informative
subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import parallel_map
from .errors import MissingParameterError, RPPIError
from .model import RPPIParams, pack, param_labels
from .robust import PreparedData, RobustConfig, fit_robust
from .sampling import contaminate, rng_from, sample_rppi, spawn_seeds

FLAG_FAILURE_FRAC = 0.05
DEFAULT_SEED = 20260801

DATASET1_BETA = (-0.80, -0.85, 0.0, -0.2, 0.0)
DATASET1_OUTLIER = (0.4, 0.4, 0.0, 0.0, 0.2)
DATASET1_N = 92
DATASET1_CONTAMINATION = 0.054
DATASET1_KSTAR = 2

DATASET2_OUTLIER = (0.4, 0.3, 0.2, 0.1, 0.0)
DATASET2_N = 94
DATASET2_CONTAMINATION = 0.053
DATASET2_KSTAR = 4

_DATASET2_A = (
    (-141.924, -16586.0, -5877.63, -11524.5),
    (-16586.0, -9856.69, -38106.8, 11709.2),
    (-5877.63, -38106.8, -5184.47, 8260.35),
    (-11524.5, 11709.2, 8260.35, -216660.0),
)
_DATASET2_BETA = (-0.904976, -0.909160, -0.740065, -0.464586, 0.0)

SHORT_GRID = (0.0, 0.01, 0.7)
FULL_GRID = (0.0, 0.01, 0.25, 0.5, 0.75, 1.0, 1.25)


def dataset2_truth() -> RPPIParams:
    """The vertex-concentrated five-part design used by scenarios 5-8."""
    return RPPIParams(a_l=np.array(_DATASET2_A), beta=np.array(_DATASET2_BETA),
                      kstar=DATASET2_KSTAR)


@dataclass(frozen=True)
class StudyScenario:
    """One simulation design: truth, observation mechanism, estimators."""

    name: str
    truth: RPPIParams
    n: int
    replicates: int
    estimators: tuple[tuple[str, RobustConfig], ...]
    data_mode: str = "continuous"
    m: int | None = None
    contamination: float = 0.0
    outlier: tuple[float, ...] | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.data_mode not in ("continuous", "multinomial"):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.data_mode == "multinomial" and (self.m is None or self.m < 1):
            raise ValueError("multinomial mode needs m >= 1")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not self.estimators:
            raise ValueError("empty estimator panel")
        if not 0.0 <= self.contamination <= 1.0:
            raise ValueError("contamination fraction must be in [0, 1]")
        if self.contamination > 0.0 and self.outlier is None:
            raise ValueError("contamination needs an outlier composition")
        if self.outlier is not None and len(self.outlier) != self.truth.p:
            raise ValueError("outlier length does not match the model")


@dataclass(frozen=True)
class RmseTable:
    """RMSE of each packed parameter (rows) under each estimator (columns)."""

    scenario: str
    labels: tuple[str, ...]
    estimators: tuple[str, ...]
    rmse: np.ndarray
    failures: tuple[int, ...]
    replicates: int
    truth: np.ndarray
    flagged: tuple[str, ...]


def _replicate(child_seed, scenario: StudyScenario):
    """Simulate one dataset and fit the whole panel; None marks a failure."""
    latent_seed, count_seed, contam_seed = child_seed.spawn(3)
    U, _ = sample_rppi(scenario.truth, scenario.n, seed=latent_seed)
    if scenario.data_mode == "multinomial":
        rng = rng_from(count_seed)
        x = rng.multinomial(np.full(scenario.n, scenario.m), U)
        u_obs = x / float(scenario.m)
    else:
        u_obs = U
    if scenario.contamination > 0.0:
        u_obs = contaminate(u_obs, scenario.contamination,
                            np.asarray(scenario.outlier), seed=contam_seed)
    prepared = PreparedData(u_obs, float(scenario.truth.beta[-1]))
    out = []
    for _, cfg in scenario.estimators:
        try:
            out.append(fit_robust(prepared, cfg).pi_hat.pi)
        except RPPIError:
            out.append(None)
    return out


def run_study(scenario: StudyScenario, threads: int = 1) -> RmseTable:
    """Run all replicates and tabulate per-parameter RMSEs."""
    truth_vec = pack(scenario.truth).pi
    seeds = spawn_seeds(scenario.seed, scenario.replicates)
    rows = parallel_map(partial(_replicate, scenario=scenario), seeds,
                        threads=threads)
    n_est = len(scenario.estimators)
    rmse = np.full((truth_vec.size, n_est), np.nan)
    failures = []
    flagged = []
    for col, (label, _) in enumerate(scenario.estimators):
        fits = [row[col] for row in rows if row[col] is not None]
        n_fail = scenario.replicates - len(fits)
        failures.append(n_fail)
        if fits:
            err = np.array(fits) - truth_vec
            rmse[:, col] = np.sqrt(np.mean(err * err, axis=0))
        if n_fail > FLAG_FAILURE_FRAC * scenario.replicates:
            flagged.append(label)
    return RmseTable(
        scenario=scenario.name,
        labels=tuple(param_labels(scenario.truth.p)),
        estimators=tuple(label for label, _ in scenario.estimators),
        rmse=rmse,
        failures=tuple(failures),
        replicates=scenario.replicates,
        truth=truth_vec,
        flagged=tuple(flagged),
    )


def estimator_panel(cs, kstar: int, tol: float = RobustConfig.tol,
                    max_iter: int = RobustConfig.max_iter,
                    ) -> tuple[tuple[str, RobustConfig], ...]:
    """Label a grid of tuning constants as an estimator panel."""
    return tuple((f"c={c:g}", RobustConfig(c=float(c), kstar=kstar, tol=tol,
                                           max_iter=max_iter))
                 for c in cs)


def preset_scenario(name: str, a_matrix=None, replicates: int = 100,
                    seed: int = DEFAULT_SEED, cs=None, tol: float = RobustConfig.tol,
                    max_iter: int = RobustConfig.max_iter) -> StudyScenario:
    """Built-in scenario designs ``sim1`` ... ``sim8``.

    Designs 1-4 are built around the first dataset's published fit: the
    exponents are fixed below, but the interaction matrix came from an
    earlier analysis that is not reproduced here, so ``a_matrix`` must
    be supplied (MissingParameterError otherwise).  Designs 5-8 are
    fully determined by the second dataset's fit.

    Odd/even designs observe continuous compositions / multinomial
    counts at m = 2000; designs 3-4 and 7-8 add the fixed outlier
    contamination at the published rates.
    """
    key = name.strip().lower()
    if key not in PRESET_NAMES:
        raise MissingParameterError(
            f"unknown scenario {name!r}; presets are {', '.join(PRESET_NAMES)}")
    idx = int(key[3:])
    if idx <= 4:
        if a_matrix is None:
            raise MissingParameterError(
                "sim1-sim4 need the interaction matrix of the first dataset's "
                "earlier fit; pass a_matrix explicitly")
        truth = RPPIParams(a_l=np.asarray(a_matrix, dtype=float),
                           beta=np.array(DATASET1_BETA), kstar=DATASET1_KSTAR)
        n = DATASET1_N
        outlier = DATASET1_OUTLIER
        frac = DATASET1_CONTAMINATION
        grid = SHORT_GRID if cs is None else tuple(cs)
        kstar = DATASET1_KSTAR
    else:
        truth = dataset2_truth()
        n = DATASET2_N
        outlier = DATASET2_OUTLIER
        frac = DATASET2_CONTAMINATION
        grid = FULL_GRID if cs is None else tuple(cs)
        kstar = DATASET2_KSTAR
    mode = "continuous" if idx % 2 == 1 else "multinomial"
    contaminated = idx in (3, 4, 7, 8)
    return StudyScenario(
        name=key,
        truth=truth,
        n=n,
        replicates=replicates,
        estimators=estimator_panel(grid, kstar=kstar, tol=tol, max_iter=max_iter),
        data_mode=mode,
        m=2000 if mode == "multinomial" else None,
        contamination=frac if contaminated else 0.0,
        outlier=outlier if contaminated else None,
        seed=seed,
    )


PRESET_NAMES = tuple(f"sim{i}" for i in range(1, 9))
