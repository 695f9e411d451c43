"""Exception taxonomy and process exit codes.

Every error raised by this package derives from :class:`OpenOscError`.
The CLI maps exception categories to exit codes: configuration problems
exit with 2, numerical failures with 3, and validation breaches with 4.
"""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class OpenOscError(Exception):
    """Base class for all package errors."""


class ConfigError(OpenOscError):
    """Invalid configuration file, key, or parameter value."""

    exit_code = EXIT_CONFIG


class DomainError(OpenOscError):
    """An operation was called outside its stated preconditions."""

    exit_code = EXIT_CONFIG


class NumericalError(OpenOscError):
    """A numerical procedure failed to meet its contract."""

    exit_code = EXIT_NUMERICAL


class StabilityError(NumericalError):
    """A characteristic root has non-negative real part."""


class DegenerateRootsError(NumericalError):
    """Two characteristic roots are too close for the weight formulas."""


class SingularKernelError(NumericalError):
    """The kernel log-derivative denominator suffered catastrophic cancellation."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class MomentBlowupError(NumericalError):
    """Moment evolution produced non-finite or exploding entries."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DimensionCapError(DomainError):
    """Requested discretized-bath dimension exceeds the supported cap."""


class InsufficientDataError(NumericalError):
    """A series does not contain enough structure for the requested estimate."""


class UndefinedMetricError(NumericalError):
    """A statistical metric is undefined for the given input (e.g. zero variance)."""


class ValidationError(OpenOscError):
    """An invariant or cross-check breached its tolerance."""

    exit_code = EXIT_VALIDATION
