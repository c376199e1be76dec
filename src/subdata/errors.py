"""Exception types raised by this package.

All errors derive from :class:`SubdataError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish shape problems from numerical ones.
"""

from __future__ import annotations


class SubdataError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SubdataError, ValueError):
    """An array has the wrong shape, or too few rows for the operation."""


class ConfigError(SubdataError, ValueError):
    """A configuration value is out of its valid range or inconsistent."""


class ContractError(SubdataError, ValueError):
    """An input violates a documented precondition (non-finite entries,
    a matrix that should be symmetric and is not, and similar)."""


class NumericError(SubdataError, RuntimeError):
    """A numerical routine failed to converge or produced garbage."""


class SingularDesignError(SubdataError, ValueError):
    """The regression design matrix is rank deficient.

    Carries the numerical rank that was actually found so callers can
    report how far from identifiable the fit was.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = int(rank)


class ScalingError(SubdataError, ValueError):
    """A covariate column cannot be scaled because it is constant.

    ``column`` is the 0-based index of the offending column.
    """

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = int(column)


class DataFormatError(SubdataError, ValueError):
    """A file cannot be read or written, or holds a cell that cannot be used.

    ``row`` and ``col`` are 1-based coordinates in the file (data rows
    are counted from 1, excluding the header line). Either may be None
    when the problem is not tied to one cell.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col
