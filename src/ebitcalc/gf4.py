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

from .errors import ShapeError
from .gf2 import BinMatrix, rank

__all__ = [
    "ZERO",
    "ONE",
    "OMEGA",
    "OMEGA_BAR",
    "gf4_add",
    "gf4_mul",
    "gf4_inv",
    "gf4_conj",
    "gf4_trace",
    "GF4Matrix",
    "gf4_rank",
]

ZERO, ONE, OMEGA, OMEGA_BAR = 0, 1, 2, 3

# w*w = v, w*v = 1, v*v = w
_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
_INV = (None, 1, 3, 2)
_CONJ = (0, 1, 3, 2)
_TRACE = (0, 0, 1, 1)

_SYMBOLS = "01wv"
# Each symbol's coefficient of 1 (lo plane) and of w (hi plane) as a binary digit.
_LO_DIGITS = str.maketrans(_SYMBOLS, "0101")
_HI_DIGITS = str.maketrans(_SYMBOLS, "0011")
# Deletes the symbols; whatever survives is not a GF(4) symbol.
_STRIP_SYMBOLS = str.maketrans("", "", _SYMBOLS)


def gf4_add(a: int, b: int) -> int:
    return a ^ b


def gf4_mul(a: int, b: int) -> int:
    return _MUL[a][b]


def gf4_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(4)")
    return _INV[a]


def gf4_conj(a: int) -> int:
    """Conjugation x -> x^2; fixes 0 and 1, swaps w and v."""
    return _CONJ[a]


def gf4_trace(a: int) -> int:
    """tr(x) = x + conj(x), always 0 or 1."""
    return _TRACE[a]


def check_symbols(line: str) -> None:
    """Raise ``ValueError`` naming the first character of ``line`` that is not 0, 1, w or v."""
    stray = line.translate(_STRIP_SYMBOLS)
    if stray:
        raise ValueError(f"invalid GF(4) symbol {stray[0]!r}")


class GF4Matrix:
    """Immutable rectangular matrix over GF(4): ``lo + w*hi`` with binary planes."""

    __slots__ = ("lo", "hi")

    def __init__(self, entries: Sequence[Sequence[int]]):
        """Build from nested sequences of entries 0..3."""
        rows = [list(row) for row in entries]
        if not all(v in (0, 1, 2, 3) for row in rows for v in row):
            raise ValueError("GF(4) entries must be in 0..3")
        self.lo = BinMatrix.from_rows([[v & 1 for v in row] for row in rows])
        self.hi = BinMatrix.from_rows([[v >> 1 for v in row] for row in rows])

    @classmethod
    def from_planes(cls, lo: BinMatrix, hi: BinMatrix) -> "GF4Matrix":
        """The matrix ``lo + w*hi``; both planes must have the same shape."""
        if (lo.rows, lo.cols) != (hi.rows, hi.cols):
            raise ShapeError("GF(4) planes must have identical shape")
        m = cls.__new__(cls)
        m.lo, m.hi = lo, hi
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GF4Matrix":
        return cls(rows)

    @classmethod
    def from_strings(cls, lines: Sequence[str], cols: int | None = None) -> "GF4Matrix":
        """Build from strings over the alphabet 0, 1, w, v, one row per string."""
        for line in lines:
            check_symbols(line)
        return cls.from_planes(
            BinMatrix.from_strings([line.translate(_LO_DIGITS) for line in lines], cols),
            BinMatrix.from_strings([line.translate(_HI_DIGITS) for line in lines], cols),
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF4Matrix":
        return cls.from_planes(BinMatrix.zeros(rows, cols), BinMatrix.zeros(rows, cols))

    @classmethod
    def identity(cls, n: int) -> "GF4Matrix":
        return cls.from_planes(BinMatrix.identity(n), BinMatrix.zeros(n, n))

    @property
    def rows(self) -> int:
        return self.lo.rows

    @property
    def cols(self) -> int:
        return self.lo.cols

    def entry(self, i: int, j: int) -> int:
        return self.lo.entry(i, j) | self.hi.entry(i, j) << 1

    def transpose(self) -> "GF4Matrix":
        return GF4Matrix.from_planes(self.lo.transpose(), self.hi.transpose())

    def conj(self) -> "GF4Matrix":
        # conj(a + wb) = a + vb = (a + b) + wb
        return GF4Matrix.from_planes(self.lo + self.hi, self.hi)

    def conj_transpose(self) -> "GF4Matrix":
        return self.conj().transpose()

    def __add__(self, other: "GF4Matrix") -> "GF4Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("cannot add GF(4) matrices of different shapes")
        return GF4Matrix.from_planes(self.lo + other.lo, self.hi + other.hi)

    def __matmul__(self, other: "GF4Matrix") -> "GF4Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # (A0 + wA1)(B0 + wB1) = (A0B0 + A1B1) + w(A0B1 + A1B0 + A1B1) since
        # w^2 = 1 + w; the w part is (A0 + A1)(B0 + B1) + A0B0, so three
        # GF(2) products suffice.
        low = self.lo @ other.lo
        high = self.hi @ other.hi
        mixed = (self.lo + self.hi) @ (other.lo + other.hi)
        return GF4Matrix.from_planes(low + high, mixed + low)

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


def gf4_rank(m: GF4Matrix) -> int:
    """Rank over GF(4): half the GF(2) rank of the rows of M and w*M.

    Written as ``lo | hi`` bit pairs, those rows span the row space of M
    as a GF(2) space, whose dimension is twice the GF(4) rank, so the
    one GF(2) elimination kernel serves both fields.
    """
    lo, hi = m.lo, m.hi
    # w(a + wb) = b + w(a + b)
    return rank(lo.hstack(hi).vstack(hi.hstack(lo + hi))) // 2
