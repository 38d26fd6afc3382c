"""Score matching estimation for polynomially tilted pairwise
interaction models on the simplex: an exact rejection sampler, an
outlier-resistant weighted estimator, tuning and uncertainty
diagnostics, and a Monte Carlo study harness.

The names below are the library's public interface; everything else
stays importable from its own module (``rppi.suffstats``,
``rppi.errors`` and so on)."""

from .errors import RPPIError
from .model import CountDataset, ParamVector, RPPIParams, pack, proportions, unpack
from .robust import PreparedData, RobustConfig, RobustFitResult, fit_robust
from .sampling import sample_counts, sample_rppi
from .inference import bootstrap_se, influence, tune_c
from .study import StudyScenario, preset_scenario, run_study

__version__ = "0.1.0"
