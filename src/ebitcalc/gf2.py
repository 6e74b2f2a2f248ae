"""Dense exact linear algebra over GF(2).

Rows are bit-packed, one Python int per row with bit ``j`` holding column
``j``, so a row update is a single word-parallel XOR.  Matrices are
immutable; every operation returns a fresh value, which makes them safe
to share between threads.

The product is the Method of Four Russians (Albrecht, Bard & Hart,
"Algorithm 898", ACM TOMS 37, 2010): each block of 8 right-hand rows
becomes a table of its 256 sums, and each left row takes one lookup per
byte.  The transpose swaps blocks within square tiles packed side by
side in one int (Warren, "Hacker's Delight", 2nd ed., section 7-3), so
each of its log2(side) passes is a few whole-matrix shifts and masks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import index

from .errors import ShapeError, _dimension

__all__ = [
    "BinMatrix",
    "RowReduction",
    "row_reduce",
    "rank",
    "independent_flags",
    "bits_to_word",
    "word_to_bits",
]

# Within one byte, the columns c with c mod 2j >= j, for j = 1, 2, 4.
_SUB_BYTE_MASKS = {1: b"\xaa", 2: b"\xcc", 4: b"\xf0"}

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


def _swap_mask(j: int, side: int, width: int) -> int:
    """Bit ``i * width + c`` set where ``i mod 2j < j`` and ``c mod 2j >= j``,
    for bands ``i < side``; built by repeating bytes, as ``j`` and ``side``
    are powers of two and ``width`` is a multiple of ``side``."""
    unit = _SUB_BYTE_MASKS.get(j) or bytes(j // 8) + b"\xff" * (j // 8)
    band = unit * (width // 8 // len(unit))
    return int.from_bytes((band * j + bytes(len(band) * j)) * (side // (2 * j)), "little")


class BinMatrix:
    """Immutable dense matrix over GF(2) with bit-packed rows.

    Zero-row and zero-column matrices are legal and have rank 0.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        rows, cols = _dimension(rows), _dimension(cols)
        words = tuple(data)
        if len(words) != rows:
            raise ShapeError(f"expected {rows} packed rows, got {len(words)}")
        try:
            words = tuple(map(index, words))
        except TypeError:
            i = next(i for i, word in enumerate(words) if not hasattr(word, "__index__"))
            raise ValueError(f"row {i} is not an integer: {words[i]!r}") from None
        for i, word in enumerate(words):
            if word < 0 or word.bit_length() > cols:
                raise ShapeError(f"row {i} has bits outside {cols} columns")
        self.rows = rows
        self.cols = cols
        self._data = words

    # -- constructors -------------------------------------------------

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
        rows, cols = _dimension(rows), _dimension(cols)
        return _make(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        n = _dimension(n)
        return _make(n, n, tuple(1 << i for i in range(n)))

    # -- element access -----------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return (self.row_bits(i) >> j) & 1

    def row_bits(self, i: int) -> int:
        """Packed row: bit j is the entry in column j."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return self._data[i]

    def to_rows(self) -> list[list[int]]:
        return [[(word >> j) & 1 for j in range(self.cols)] for word in self._data]

    def to_strings(self) -> list[str]:
        return [word_to_bits(word, self.cols) for word in self._data]

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "BinMatrix":
        # Square tiles of side s lie side by side in s bands of `width` bits
        # of one int; each pass swaps the off-diagonal j x j blocks of every
        # 2j x 2j block of every tile at once.
        rows, cols = self.rows, self.cols
        if not (rows and cols):  # no bands to swap, however long the other side
            return BinMatrix.zeros(cols, rows)
        side = 8
        while side < min(rows, cols):
            side *= 2
        step = side // 8  # bytes per tile row
        if rows <= cols:
            # the rows are the bands; tile t holds columns t*s .. t*s + s - 1
            width = -(-cols // side) * side
            packed = b"".join(w.to_bytes(width // 8, "little") for w in self._data)
        else:
            # band a holds rows a, a + s, a + 2s, ..., one tile each
            width = -(-rows // side) * side
            words = self._data + (0,) * (width - rows)
            packed = bytearray()
            for a in range(side):
                tiles = words[a::side]
                packed += bytes(tiles) if step == 1 else b"".join(
                    w.to_bytes(step, "little") for w in tiles
                )
        x = int.from_bytes(packed, "little")
        j = side // 2
        while j:
            shift = j * width - j  # from (i + j, c - j) to (i, c)
            t = (x ^ (x >> shift)) & _swap_mask(j, side, width)
            x ^= t ^ (t << shift)
            j //= 2
        band = width // 8
        data = x.to_bytes(side * band, "little")
        if rows <= cols:
            # tile t of band a is row t*s + a of the transpose
            out = [0] * width
            for a in range(side):
                tiles = data[a * band : (a + 1) * band]
                out[a::side] = tiles if step == 1 else [
                    int.from_bytes(tiles[o : o + step], "little") for o in range(0, band, step)
                ]
            del out[cols:]
        else:
            # band a is row a of the transpose
            out = [int.from_bytes(data[a * band : (a + 1) * band], "little") for a in range(cols)]
        return _make(cols, rows, tuple(out))

    def __add__(self, other: "BinMatrix") -> "BinMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return _make(self.rows, self.cols, tuple(a ^ b for a, b in zip(self._data, other._data)))

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Method of Four Russians: for each block of 8 right-hand rows, a
        # table of all 256 of their sums, then one lookup per left byte.
        width = (self.cols + 7) // 8
        # one small bytes object alive at a time, not one per left row
        left = bytearray()
        for word in self._data:
            left += word.to_bytes(width, "little")
        acc = [0] * self.rows
        for block in range(width):
            table = [0]
            for row in other._data[8 * block : 8 * block + 8]:
                table += [t ^ row for t in table]
            acc = [a ^ table[b] if b else a for a, b in zip(acc, left[block::width])]
        return _make(self.rows, other.cols, tuple(acc))

    def hstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.rows != other.rows:
            raise ShapeError("hstack needs matching row counts")
        shift = self.cols
        return _make(
            self.rows,
            self.cols + other.cols,
            tuple(a | (b << shift) for a, b in zip(self._data, other._data)),
        )

    def hsplit(self, cols: int) -> tuple["BinMatrix", "BinMatrix"]:
        """The first ``cols`` columns and the rest; undoes :meth:`hstack`."""
        if not 0 <= cols <= self.cols:
            raise ShapeError(f"cannot split {self.cols} columns at {cols}")
        mask = (1 << cols) - 1
        return (
            _make(self.rows, cols, tuple(w & mask for w in self._data)),
            _make(self.rows, self.cols - cols, tuple(w >> cols for w in self._data)),
        )

    def vstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.cols != other.cols:
            raise ShapeError("vstack needs matching column counts")
        return _make(self.rows + other.rows, self.cols, self._data + other._data)

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


def _make(rows: int, cols: int, words: tuple[int, ...]) -> BinMatrix:
    """Wrap packed rows already valid for ``cols`` columns, without the
    constructor's check of every word."""
    m = BinMatrix.__new__(BinMatrix)
    m.rows, m.cols, m._data = rows, cols, words
    return m


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

    Keeps an XOR basis in a list indexed by bit length, so ``basis[k]`` is
    the basis row with leading bit ``k - 1``, or 0; a zero row is
    dependent.
    """
    basis = [0]
    for w in words:
        top = w.bit_length()
        if top >= len(basis):
            basis += repeat(0, top + 1 - len(basis))
        while w and (found := basis[w.bit_length()]):
            w ^= found
        if w:
            basis[w.bit_length()] = w
        yield bool(w)


def rank(m: BinMatrix) -> int:
    """Rank over GF(2); equals ``row_reduce(m).rank``."""
    return sum(independent_flags(m._data))

