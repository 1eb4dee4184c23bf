"""Exception types shared across the package."""


class GausspackError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GausspackError, ValueError):
    """A physical parameter or argument is outside its allowed domain."""


class TimeRangeError(GausspackError, ValueError):
    """A requested evolution time exceeds the supported range."""


class AccuracyError(GausspackError):
    """A numerical routine failed to meet its accuracy target.

    Carries the best available estimate so callers can inspect how far
    off the computation was.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class ResolutionError(GausspackError):
    """A sampled signal is too coarse for the requested transform."""


class NonFiniteError(GausspackError, ValueError):
    """A NaN or infinity reached a table that was about to be written."""


class BoundaryError(GausspackError):
    """A propagated packet came too close to the edge of its domain."""


class ScenarioError(GausspackError, ValueError):
    """A scenario document failed to parse or validate.

    The offending field (or line, for syntax errors) is recorded when
    known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class UnknownPresetError(GausspackError, KeyError):
    """A preset name was not recognized."""
