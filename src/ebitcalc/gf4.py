"""GF(4) scalar arithmetic and quaternary matrices stored as two GF(2) bit planes.

Field elements are plain ints 0..3 encoding {0, 1, w, v} where ``w`` is a
primitive cube root of unity and ``v = w + 1 = w*w`` its conjugate.  The
code of ``a + w*b`` is ``a | b << 1``: the isomorphism GF(4) = GF(2)^2.
Addition is XOR; scalar multiplication is a 16-entry table; conjugation
is squaring.

A matrix ``M = lo + w*hi`` keeps its two coefficient planes as
:class:`~ebitcalc.gf2.BinMatrix` values, so every matrix operation is
word-parallel GF(2) work on packed rows, in the spirit of the M4RIE
library (Albrecht, ISSAC 2012).
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalInvariantError, ShapeError
from .gf2 import BinMatrix, rank

__all__ = ["gf4_mul", "check_symbols", "GF4Matrix", "gf4_rank"]

# w*w = v, w*v = 1, v*v = w
_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

_SYMBOLS = "01wv"
# Each symbol's coefficient of 1 (lo plane) and of w (hi plane) as a binary digit.
_LO_DIGITS = str.maketrans(_SYMBOLS, "0101")
_HI_DIGITS = str.maketrans(_SYMBOLS, "0011")
# Deletes the symbols; whatever survives is not a GF(4) symbol.
_STRIP_SYMBOLS = str.maketrans("", "", _SYMBOLS)


def gf4_mul(a: int, b: int) -> int:
    return _MUL[a][b]


def check_symbols(line: str) -> None:
    """Raise ``ValueError`` naming the first character of ``line`` that is not 0, 1, w or v."""
    stray = line.translate(_STRIP_SYMBOLS)
    if stray:
        raise ValueError(f"invalid GF(4) symbol {stray[0]!r}")


class GF4Matrix:
    """Immutable rectangular matrix over GF(4): ``lo + w*hi`` with binary planes."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: BinMatrix, hi: BinMatrix):
        """The matrix ``lo + w*hi``; both planes must have the same shape."""
        if not (isinstance(lo, BinMatrix) and isinstance(hi, BinMatrix)):
            raise TypeError("GF(4) planes must be BinMatrix values")
        if (lo.rows, lo.cols) != (hi.rows, hi.cols):
            raise ShapeError("GF(4) planes must have identical shape")
        self.lo, self.hi = lo, hi

    @classmethod
    def from_strings(cls, lines: Sequence[str], cols: int | None = None) -> "GF4Matrix":
        """Build from strings over the alphabet 0, 1, w, v, one row per string."""
        for line in lines:
            check_symbols(line)
        return cls(
            BinMatrix.from_strings([line.translate(_LO_DIGITS) for line in lines], cols),
            BinMatrix.from_strings([line.translate(_HI_DIGITS) for line in lines], cols),
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF4Matrix":
        return cls(BinMatrix.zeros(rows, cols), BinMatrix.zeros(rows, cols))

    @classmethod
    def identity(cls, n: int) -> "GF4Matrix":
        return cls(BinMatrix.identity(n), BinMatrix.zeros(n, n))

    @property
    def rows(self) -> int:
        return self.lo.rows

    @property
    def cols(self) -> int:
        return self.lo.cols

    def entry(self, i: int, j: int) -> int:
        return self.lo.entry(i, j) | self.hi.entry(i, j) << 1

    def transpose(self) -> "GF4Matrix":
        return GF4Matrix(self.lo.transpose(), self.hi.transpose())

    def conj(self) -> "GF4Matrix":
        # conj(a + wb) = a + vb = (a + b) + wb
        return GF4Matrix(self.lo + self.hi, self.hi)

    def __matmul__(self, other: "GF4Matrix") -> "GF4Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Row i of the product is the sum over k of lo[i,k]*N[k] + hi[i,k]*(w*N[k]),
        # and the rows of R(N) are the rows N[k], then w*N[k], as lo | hi bits.
        product = self.lo.hstack(self.hi) @ _regular(other)
        return GF4Matrix(*product.hsplit(other.cols))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF4Matrix):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"GF4Matrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return repr(self)
        return "\n".join(
            "".join(_SYMBOLS[int(a) | int(b) << 1] for a, b in zip(lo, hi))
            for lo, hi in zip(self.lo.to_strings(), self.hi.to_strings())
        )


def _regular(m: GF4Matrix) -> BinMatrix:
    """R(M) = [[lo, hi], [hi, lo + hi]]: the rows of M, then of w*M, as ``lo | hi`` bits."""
    lo, hi = m.lo, m.hi
    # w(a + wb) = b + w(a + b)
    return lo.hstack(hi).vstack(hi.hstack(lo + hi))


def gf4_rank(m: GF4Matrix) -> int:
    """Rank over GF(4): half the GF(2) rank of the rows of M and w*M.

    Those rows span the row space of M as a GF(2) space, whose dimension
    is twice the GF(4) rank, so the one GF(2) elimination kernel serves
    both fields.
    """
    r = rank(_regular(m))
    if r % 2:
        raise InternalInvariantError(f"GF(2) rank {r} of a GF(4) row space is odd")
    return r // 2
