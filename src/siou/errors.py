"""Exception types shared across the package."""


class SiouError(Exception):
    """Base class for all package-specific errors."""


class InvalidGeometryError(SiouError):
    """Raised for negative coordinates, mixed dimensions, malformed corner sets or measures that overflow."""


class InvalidGridError(InvalidGeometryError):
    """Raised for sheet grids with empty or zero-volume cells."""


class ComplexityError(SiouError):
    """Raised when a corner fold would exceed its row guard, before it allocates."""


class InternalConsistencyError(SiouError):
    """Raised when a quantity that must hold exactly by construction fails to.

    Covers inclusion-exclusion net coefficients outside {-1, 0, +1} and
    measure differences that come out negative beyond numerical slack.
    """


class KernelInconsistencyError(SiouError):
    """Raised when a transition variance is negative beyond numerical slack."""


class DegenerateKernelError(SiouError):
    """Raised when a density is requested from a zero-variance transition."""


class NotPSDError(SiouError):
    """Raised when a covariance matrix cannot be factorized within the jitter ladder."""


class PlanningError(SiouError):
    """Raised when a sampling plan would need a corner that is not sampled yet."""


class OutOfRangeError(SiouError):
    """Raised when an evaluation point lies outside the sheet grid."""


class ConfigError(SiouError):
    """Raised for invalid run configurations and violated check preconditions."""
