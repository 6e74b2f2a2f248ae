"""Exception types shared across the package."""

from __future__ import annotations


class EbitcalcError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(EbitcalcError, ValueError):
    """Operand dimensions (or moduli) are incompatible."""


class DependentRowsError(EbitcalcError, ValueError):
    """A generator row is a combination of earlier rows."""

    def __init__(self, row_index: int, message: str | None = None):
        self.row_index = row_index
        super().__init__(
            message or f"generator row {row_index} depends on earlier rows"
        )


class UnsupportedModulusError(EbitcalcError, ValueError):
    """Residue matrices require a prime modulus; composite moduli are rejected."""


class DegreeLimitError(EbitcalcError, ValueError):
    """A delay-polynomial exponent lies outside the supported window."""


class NonFiniteEntryError(EbitcalcError, ValueError):
    """A real matrix contains NaN or infinite entries."""


class OddRankError(EbitcalcError, ValueError):
    """A shifted product matrix has odd rank, so the conjectured per-frame
    ebit count, half that rank, is not a whole number."""


class SizeLimitError(EbitcalcError, ValueError):
    """Input too large for a brute-force oracle."""


class ParseError(EbitcalcError, ValueError):
    """Malformed matrix file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalInvariantError(EbitcalcError, RuntimeError):
    """An algebraic identity the implementation relies on failed to hold.

    Raised instead of silently truncating, e.g. when a pairwise product
    matrix comes out with odd rank.
    """
