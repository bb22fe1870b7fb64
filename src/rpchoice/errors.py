"""Exception types shared across the package.

Everything derives from ValueError or RuntimeError so callers that do not
care about the distinction can catch the builtin bases.
"""


class ParseError(ValueError):
    """A cell in an input file could not be parsed; message carries the row number."""


class ValidationError(ValueError):
    """Data violates a container invariant (share bounds, finiteness, duplicates)."""


class DimensionError(ValueError):
    """Array shapes or index ranges are inconsistent."""


class ParameterError(ValueError):
    """A configuration value is outside its admissible range."""


class NumericalError(RuntimeError):
    """An iterative routine produced non-finite values; message carries diagnostics."""


PACKAGE_ERRORS = (
    ParseError,
    ValidationError,
    DimensionError,
    ParameterError,
    NumericalError,
)
