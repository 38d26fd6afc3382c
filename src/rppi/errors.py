"""Exception types and warning categories shared across the package.

Every error raised by this package derives from :class:`RPPIError`, so
callers can catch one type at the boundary.  The subclasses mirror the
distinct failure modes of the pipeline: bad input data, linear algebra
breakdowns, iteration failures, and sampler starvation.
"""

from __future__ import annotations


class RPPIError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(RPPIError):
    """Array shapes or sizes are inconsistent with the model dimension."""


class DegenerateRowError(RPPIError):
    """A count row has total zero, so its proportion vector is undefined."""


class WeightError(RPPIError):
    """Weights are not finite, or a z point's weight overflows the float range."""


class SingularSystemError(RPPIError):
    """The score matching linear system is singular or too ill-conditioned.

    Carries the measured condition number (after diagonal equilibration)
    when one was available.
    """

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class SingularGError(RPPIError):
    """The sensitivity matrix of the weighted score equations is singular."""


class NonConvergenceError(RPPIError):
    """The reweighting iteration did not converge within ``max_iter``.

    ``trace`` holds the relative parameter change per iteration so callers
    can inspect oscillation or divergence patterns.
    """

    def __init__(self, message: str, trace: list[float] | None = None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class LowAcceptanceError(RPPIError):
    """The rejection sampler's acceptance rate is too low to be practical."""


class InsufficientDataError(RPPIError):
    """Too few observations remain for the requested computation."""


class BootstrapDegradedError(RPPIError):
    """Too many bootstrap replicates failed; a partial report is attached."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MissingParameterError(RPPIError):
    """A scenario or command needs a parameter that was not supplied."""


class ParseError(RPPIError):
    """An input file could not be parsed.

    ``line`` is the 1-based line number of the first offending record when
    the format is line-oriented.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class DegeneracyWarning(UserWarning):
    """Statistics are structurally degenerate (for example an all-zero
    component column); the affected parameters were pinned to zero."""
