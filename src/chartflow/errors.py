"""Exception types shared across the package."""


class ChartFlowError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ChartFlowError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class DuplicateKeyError(ParseError):
    """The same (week, city, artist) key appeared more than once."""


class ChartValueError(ParseError):
    """A field parsed but holds an illegal value (e.g. negative listeners)."""


class IndexingError(ChartFlowError):
    """An artist or column was not found in the active index."""


class UnknownCityError(ChartFlowError):
    """A requested city does not exist in the corpus."""


class InsufficientDataError(ChartFlowError):
    """Too few weeks to carry out the requested computation."""


class DegenerateSplitError(ChartFlowError):
    """A temporal split left the train or the test side empty."""


class DimensionError(ChartFlowError):
    """Array arguments have incompatible or empty shapes."""


class NonFiniteError(ChartFlowError, ValueError):
    """An array argument holds NaN or infinite entries."""


class ConvergenceError(ChartFlowError):
    """An iterative solve exceeded its iteration cap."""


class SingularMatrixError(ChartFlowError):
    """A direct solve hit a numerically singular system."""


class UndefinedBaselineError(ChartFlowError):
    """The baseline error is zero, so relative percentages are undefined."""


class PlantSpecError(ChartFlowError):
    """A synthetic-corpus specification violates its constraints."""
