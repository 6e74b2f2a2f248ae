"""Dense exact linear algebra over GF(2).

Rows are bit-packed, one Python int per row with bit ``j`` holding column
``j``, so a row update is a single word-parallel XOR.  Matrices are
immutable; every operation returns a fresh value, which makes them safe
to share between threads.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import ShapeError

__all__ = [
    "BinMatrix",
    "RowReduction",
    "row_reduce",
    "rank",
    "first_dependent_row",
    "independent_flags",
    "bits_to_word",
    "word_to_bits",
]

# Deletes the binary digits; whatever survives is not a 0/1 character.
_STRIP_BINARY_DIGITS = str.maketrans("", "", "01")


def bits_to_word(bits: str) -> int:
    """Pack a string of '0'/'1' characters, character ``j`` into bit ``j``.

    Raises ``ValueError`` naming the first character that is not a
    binary digit.
    """
    stray = bits.translate(_STRIP_BINARY_DIGITS)
    if stray:
        raise ValueError(f"invalid binary digit {stray[0]!r}")
    return int(bits[::-1], 2) if bits else 0


def word_to_bits(word: int, cols: int) -> str:
    """The ``cols`` low bits of ``word`` as '0'/'1' characters, bit ``j`` at index ``j``."""
    # format(0, "00b") is "0", not "", so zero width needs its own case
    return format(word, f"0{cols}b")[::-1] if cols else ""


class BinMatrix:
    """Immutable dense matrix over GF(2) with bit-packed rows.

    Zero-row and zero-column matrices are legal and have rank 0.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        words = tuple(data)
        if len(words) != rows:
            raise ShapeError(f"expected {rows} packed rows, got {len(words)}")
        for i, word in enumerate(words):
            if word < 0 or word.bit_length() > cols:
                raise ShapeError(f"row {i} has bits outside {cols} columns")
        self.rows = rows
        self.cols = cols
        self._data = words

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: int | None = None) -> "BinMatrix":
        """Build from nested sequences of 0/1 entries."""
        entries = [list(row) for row in entries]
        if cols is None:
            cols = len(entries[0]) if entries else 0
        words = []
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {cols}")
            word = 0
            for j, value in enumerate(row):
                if value not in (0, 1):
                    raise ValueError(f"entry ({i},{j}) is not a bit: {value!r}")
                word |= value << j
            words.append(word)
        return cls(len(entries), cols, words)

    @classmethod
    def from_strings(cls, lines: Sequence[str], cols: int | None = None) -> "BinMatrix":
        """Build from strings of '0'/'1' characters, one row per string."""
        if cols is None:
            cols = len(lines[0]) if lines else 0
        words = []
        for i, line in enumerate(lines):
            if len(line) != cols:
                raise ShapeError(f"row {i} has {len(line)} entries, expected {cols}")
            words.append(bits_to_word(line))
        return cls(len(words), cols, words)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # -- element access -----------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return (self._data[i] >> j) & 1

    def row_bits(self, i: int) -> int:
        """Packed row: bit j is the entry in column j."""
        return self._data[i]

    def to_rows(self) -> list[list[int]]:
        return [[(word >> j) & 1 for j in range(self.cols)] for word in self._data]

    def to_strings(self) -> list[str]:
        return [word_to_bits(word, self.cols) for word in self._data]

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "BinMatrix":
        # zip(*strings) of no rows yields no columns at all
        if not (self.rows and self.cols):
            return BinMatrix.zeros(self.cols, self.rows)
        columns = zip(*self.to_strings())
        return BinMatrix(self.cols, self.rows, [bits_to_word("".join(c)) for c in columns])

    def __add__(self, other: "BinMatrix") -> "BinMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return BinMatrix(self.rows, self.cols, (a ^ b for a, b in zip(self._data, other._data)))

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for word in self._data:
            acc = 0
            remaining = word
            while remaining:
                low = remaining & -remaining
                acc ^= other._data[low.bit_length() - 1]
                remaining ^= low
            out.append(acc)
        return BinMatrix(self.rows, other.cols, out)

    def hstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.rows != other.rows:
            raise ShapeError("hstack needs matching row counts")
        shift = self.cols
        return BinMatrix(
            self.rows,
            self.cols + other.cols,
            (a | (b << shift) for a, b in zip(self._data, other._data)),
        )

    def vstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.cols:
            raise ShapeError("vstack needs matching column counts")
        return BinMatrix(self.rows + other.rows, self.cols, self._data + other._data)

    # -- dunder housekeeping -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"BinMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return repr(self)
        return "\n".join(self.to_strings())


class RowReduction(namedtuple("RowReduction", "reduced transform pivots rank")):
    """Result of full row reduction.

    ``transform`` is square and invertible over GF(2) with
    ``transform @ original == reduced``; ``reduced`` is the (unique)
    reduced row-echelon form and ``rank == len(pivots)``.
    """

    __slots__ = ()


def row_reduce(m: BinMatrix) -> RowReduction:
    """Reduce to reduced row-echelon form, tracking the row transform.

    Pivots are taken left to right; within a column the first unprocessed
    row carrying a 1 is swapped up, then that column is cleared in every
    other row.  The procedure is deterministic, so reduced forms are
    byte-identical across platforms.
    """
    data = list(m._data)
    trans = [1 << i for i in range(m.rows)]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        if pivot_row == m.rows:
            break
        hit = None
        for r in range(pivot_row, m.rows):
            if (data[r] >> col) & 1:
                hit = r
                break
        if hit is None:
            continue
        if hit != pivot_row:
            data[pivot_row], data[hit] = data[hit], data[pivot_row]
            trans[pivot_row], trans[hit] = trans[hit], trans[pivot_row]
        for r in range(m.rows):
            if r != pivot_row and (data[r] >> col) & 1:
                data[r] ^= data[pivot_row]
                trans[r] ^= trans[pivot_row]
        pivots.append(col)
        pivot_row += 1
    return RowReduction(
        reduced=BinMatrix(m.rows, m.cols, data),
        transform=BinMatrix(m.rows, m.rows, trans),
        pivots=tuple(pivots),
        rank=len(pivots),
    )


def independent_flags(words: Iterable[int]) -> Iterator[bool]:
    """For each packed row in turn, whether it lies outside the span of the rows before it.

    Keeps an XOR basis keyed by leading bit; a zero row is dependent.
    """
    basis: dict[int, int] = {}
    for w in words:
        while w:
            p = w.bit_length() - 1
            found = basis.get(p)
            if found is None:
                basis[p] = w
                break
            w ^= found
        yield bool(w)


def rank(m: BinMatrix) -> int:
    """Rank over GF(2); equals ``row_reduce(m).rank``."""
    return sum(independent_flags(m._data))


def first_dependent_row(m: BinMatrix) -> int | None:
    """Index of the first row in the span of the rows above it, if any.

    A zero row is dependent by convention.
    """
    for i, independent in enumerate(independent_flags(m._data)):
        if not independent:
            return i
    return None
