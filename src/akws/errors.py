"""Exception types shared across the package.

Every failure mode raised by library code derives from :class:`AkwsError`
so callers can catch the whole family with one clause; most are also
``ValueError`` subclasses because they signal bad arguments.
"""


class AkwsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AkwsError, ValueError):
    """Dimensions do not fit the operation (including a width below one,
    an expansion no wider than its input, or no classes to predict)."""


class DataError(AkwsError, ValueError):
    """Data or a training setting violates a value constraint (NaN/Inf
    entries, an empty task, too few classes, a non-positive learning rate)."""


class InvalidRegularizerError(AkwsError, ValueError):
    """Ridge parameter must be strictly positive."""


class ClassCollisionError(AkwsError, ValueError):
    """A batch declared class ids that are already registered."""


class InvalidSplitError(AkwsError, ValueError):
    """Task split arithmetic does not cover the class set exactly."""


class MetricUndefinedError(AkwsError, ValueError):
    """Metric requested on an empty or too-short accuracy record."""


class ParseError(AkwsError, ValueError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigError(AkwsError, ValueError):
    """Run configuration violates the schema; carries the field path."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class SnapshotFormatError(AkwsError, ValueError):
    """Classifier snapshot bytes are malformed or of unknown version."""
