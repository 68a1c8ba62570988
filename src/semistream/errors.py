"""Exception types shared across the package."""


class SemistreamError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SemistreamError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class RangeError(SemistreamError, ValueError):
    """Value does not fit the declared integer width."""


class ShapeError(SemistreamError, ValueError):
    """Tensor or filter geometry violates an engine contract."""


class SequencingError(SemistreamError, RuntimeError):
    """A streaming consumer touched data out of protocol order."""


class FormatError(SemistreamError, ValueError):
    """Model package is malformed, truncated or version-incompatible."""


class PlanError(SemistreamError, ValueError):
    """The model's layers break the layer order the round schedule reads."""


class DeadlockError(SemistreamError, RuntimeError):
    """Every streaming process is blocked and no progress is possible."""
