"""Exception types shared across the package.

Everything raised on purpose derives from LidkitError so callers can catch
library failures without also swallowing programming errors.
"""


class LidkitError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LidkitError):
    """An input array has the wrong dimensionality or length."""


class NumericOverflowError(LidkitError):
    """A forward or backward pass produced non-finite values."""


class TrainingDivergedError(LidkitError):
    """Training produced a non-finite loss.  Carries the epoch it happened in."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


class DegenerateProfileError(LidkitError):
    """A neighborhood contains a zero distance where a positive one is required."""


class InfiniteEstimateError(LidkitError):
    """All neighbor distances are identical, so the MLE has no finite value."""


class NoDirectionError(LidkitError):
    """A gradient-based attack found an exactly zero input gradient."""


class ExhaustedFeaturesError(LidkitError):
    """A saliency attack ran out of admissible feature pairs.

    Carries the last iterate so callers can keep the partial perturbation.
    """

    def __init__(self, partial, iterations, message=None):
        self.partial = partial
        self.iterations = iterations
        super().__init__(message or "no admissible feature pair left")


class EmptyPositiveClassError(LidkitError):
    """Every attack in a batch failed, leaving no positive rows for a detector."""


class ParseError(LidkitError):
    """A config or CSV file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConvergenceWarning(UserWarning):
    """A detector fit reached its iteration cap before converging.  Carries
    the fit's index in the list of matrices being fitted."""

    def __init__(self, index, cap):
        self.index = index
        super().__init__(f"detector fit {index} stopped at the cap of {cap} "
                         f"Newton iterations before converging")
