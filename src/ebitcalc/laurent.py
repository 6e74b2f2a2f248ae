"""Delay-polynomial matrices and per-frame ebit counts for convolutional codes.

Entries are polynomials in the delay operator D and its inverse with
GF(4) coefficients; binary matrices are the {0, 1}-coefficient subset,
and their rank over the rational-function field is unchanged by the
coefficient extension, so one elimination routine serves both.  A
polynomial is two bit planes, the coefficients of 1 and of w packed into
Python ints as in :mod:`ebitcalc.gf4`, plus the exponent of bit 0, so
its arithmetic is word-parallel shift and XOR.  The per-frame formulas
here are conjectured, not proven; callers surfacing results should say
so.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import index

from .errors import DegreeLimitError, InternalInvariantError, OddRankError, ShapeError, _dimension

__all__ = [
    "MAX_EXPONENT",
    "LaurentPoly",
    "LaurentMatrix",
    "shifted_symplectic_matrix",
    "laurent_rank",
    "conv_ebits",
    "gf4_conv_ebits",
    "css_conv_ebits",
]

MAX_EXPONENT = 64

_COEFF_PREFIX = {1: "", 2: "w*", 3: "v*"}
_COEFF_SYMBOL = {1: "1", 2: "w", 3: "v"}


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[D] words.

    One shift and XOR per set bit of the sparser operand.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


class LaurentPoly:
    """Immutable polynomial in D and D^-1 with GF(4) coefficients.

    The coefficient of ``D^(offset + j)`` is bit ``j`` of ``lo`` plus w
    times bit ``j`` of ``hi``.  Bit 0 of ``lo | hi`` is set in every
    nonzero polynomial, so each has one stored form; the zero polynomial
    has ``lo == hi == offset == 0`` and empty support.  Memory grows with
    the exponent span, so the constructor rejects an exponent outside
    [-MAX_EXPONENT, MAX_EXPONENT] before it sets any bit; computed
    products may exceed that window.
    """

    __slots__ = ("lo", "hi", "offset")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        """Sum of ``(exponent, coeff)`` terms; repeated exponents add."""
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        try:
            items = [(index(e), index(c)) for e, c in items]
        except TypeError:
            bad = next(t for t in items if not all(hasattr(v, "__index__") for v in t))
            raise ValueError(f"term {bad!r} has a non-integer exponent or coefficient") from None
        base = min((exponent for exponent, _ in items), default=0)
        top = max((exponent for exponent, _ in items), default=0)
        if base < -MAX_EXPONENT or top > MAX_EXPONENT:
            raise DegreeLimitError(
                f"exponents {base}..{top} reach outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]"
            )
        lo = hi = 0
        for exponent, coeff in items:
            if not 0 <= coeff <= 3:
                raise ValueError(f"coefficient {coeff!r} is not a GF(4) element")
            bit = 1 << (exponent - base)
            if coeff & 1:
                lo ^= bit
            if coeff & 2:
                hi ^= bit
        self.lo, self.hi, self.offset = _stored_form(lo, hi, base)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    # -- inspection ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.lo or self.hi)

    def terms(self) -> dict[int, int]:
        """Coefficient of every nonzero term by exponent, exponents increasing."""
        lo, hi, out = self.lo, self.hi, {}
        rest = lo | hi
        while rest:
            j = (rest & -rest).bit_length() - 1
            out[self.offset + j] = (lo >> j & 1) | (hi >> j & 1) << 1
            rest &= rest - 1
        return out

    def min_exp(self) -> int | None:
        return self.offset if self else None

    def max_exp(self) -> int | None:
        return self.offset + (self.lo | self.hi).bit_length() - 1 if self else None

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        base = min(self.offset, other.offset)
        a, b = self.offset - base, other.offset - base
        lo = (self.lo << a) ^ (other.lo << b)
        hi = (self.hi << a) ^ (other.hi << b)
        return _make(*_stored_form(lo, hi, base))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a0, a1, b0, b1 = self.lo, self.hi, other.lo, other.hi
        if not (a0 or a1) or not (b0 or b1):
            return _ZERO
        # Both constant terms are nonzero and GF(4) has no zero divisors,
        # so the product is already in stored form.
        offset = self.offset + other.offset
        # (A0 + wA1)(B0 + wB1) = (A0B0 + A1B1) + w((A0 + A1)(B0 + B1) + A0B0):
        # three carry-less products, as w^2 = w + 1.
        low = _clmul(a0, b0)
        high = _clmul(a1, b1)
        mixed = _clmul(a0 ^ a1, b0 ^ b1)
        return _make(low ^ high, mixed ^ low, offset)

    def subs_inverse(self) -> "LaurentPoly":
        """Substitute D -> D^-1 (negate every exponent)."""
        if not self:
            return _ZERO
        # Reading the width binary digits backwards reverses them; the top
        # bit of lo | hi becomes bit 0.
        width = (self.lo | self.hi).bit_length()
        return _make(
            int(f"{self.lo:0{width}b}"[::-1], 2),
            int(f"{self.hi:0{width}b}"[::-1], 2),
            -(self.offset + width - 1),
        )

    def conj(self) -> "LaurentPoly":
        """Conjugate every coefficient: a + wb -> (a + b) + wb."""
        return _make(self.lo ^ self.hi, self.hi, self.offset)

    # -- housekeeping ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.lo, self.hi, self.offset) == (other.lo, other.hi, other.offset)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.offset))

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self:
            return "0"
        return "+".join(
            _COEFF_SYMBOL[c] if e == 0 else f"{_COEFF_PREFIX[c]}D" + (f"^{e}" if e != 1 else "")
            for e, c in self.terms().items()
        )


def _stored_form(lo: int, hi: int, offset: int) -> tuple[int, int, int]:
    """Drop the low zero bits of both planes, so that bit 0 of ``lo | hi`` is set."""
    both = lo | hi
    if not both:
        return 0, 0, 0
    shift = (both & -both).bit_length() - 1
    return lo >> shift, hi >> shift, offset + shift


def _make(lo: int, hi: int, offset: int) -> LaurentPoly:
    """Wrap planes already in stored form (bit 0 of ``lo | hi`` set)."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly.lo, poly.hi, poly.offset = lo, hi, offset
    return poly


_ZERO = _make(0, 0, 0)
_ONE = _make(1, 0, 0)


class LaurentMatrix:
    """Immutable rectangular matrix of delay polynomials."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(
        self, entries: Sequence[Sequence[LaurentPoly]], cols: int | None = None
    ):
        grid = tuple(tuple(row) for row in entries)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        cols = _dimension(cols)
        for i, row in enumerate(grid):
            if len(row) != cols:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {cols}")
            for j, value in enumerate(row):
                if not isinstance(value, LaurentPoly):
                    raise ValueError(f"entry ({i},{j}) is not a LaurentPoly: {value!r}")
        self.rows = len(grid)
        self.cols = cols
        self._entries = grid

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LaurentMatrix":
        rows, cols = _dimension(rows), _dimension(cols)
        zero = LaurentPoly.zero()
        return cls(tuple((zero,) * cols for _ in range(rows)), cols=cols)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._entries) == (
            other.rows,
            other.cols,
            other._entries,
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"LaurentMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        return "\n".join(", ".join(str(p) for p in row) for row in self._entries)


def _aligned(rows: Sequence[Sequence[LaurentPoly]]) -> tuple[int, list[list]]:
    """The least offset of all entries, and each entry's (lo, hi) planes
    shifted to it, or None for a zero entry."""
    base = min((p.offset for row in rows for p in row if p), default=0)
    return base, [
        [(p.lo << p.offset - base, p.hi << p.offset - base) if p else None for p in row]
        for row in rows
    ]


def _gram(
    a_rows: Sequence[Sequence[LaurentPoly]], b_rows: Sequence[Sequence[LaurentPoly]]
) -> LaurentMatrix:
    """The matrix whose (i, j) entry is sum_k a_rows[i][k] * b_rows[j][k](D^-1).

    With each side aligned to its own least offset, every product in the
    matrix has the same offset, so an entry's products are XOR-summed as
    plain ints, plane by plane as in ``LaurentPoly.__mul__``, and one
    polynomial is built per entry.  The b side is substituted D -> D^-1
    before alignment.
    """
    a_base, left = _aligned(a_rows)
    b_base, right = _aligned([[p.subs_inverse() for p in row] for row in b_rows])
    base = a_base + b_base
    grid = []
    for a in left:
        row = []
        for b in right:
            lo = hi = 0
            for x, y in zip(a, b):
                if x and y:
                    low = _clmul(x[0], y[0])
                    lo ^= low ^ _clmul(x[1], y[1])
                    hi ^= _clmul(x[0] ^ x[1], y[0] ^ y[1]) ^ low
            row.append(_make(*_stored_form(lo, hi, base)))
        grid.append(row)
    return LaurentMatrix(grid, cols=len(right))


def shifted_symplectic_matrix(hz: LaurentMatrix, hx: LaurentMatrix) -> LaurentMatrix:
    """Pairwise products with the partner row evaluated at D^-1.

    The (i, j) entry is the product of row i of (HX | HZ) with row j of
    (HZ | HX) at D^-1, so the result satisfies M(D) == M^T(D^-1)
    entrywise, the shifted analogue of symmetry, by construction.
    """
    if (hz.rows, hz.cols) != (hx.rows, hx.cols):
        raise ShapeError("Z and X parts must have identical shape")
    z_rows, x_rows = hz._entries, hx._entries
    return _gram(
        [x + z for x, z in zip(x_rows, z_rows)], [z + x for z, x in zip(z_rows, x_rows)]
    )


def _exact_quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """``a / b`` in GF(4)[D, D^-1], where ``b`` must divide ``a``.

    In stored form both are D^offset times a polynomial with a nonzero
    constant term, so the quotient is a long division from the low end by
    shift and XOR.  A nonzero remainder raises: it means the elimination
    that asked for the division is wrong, and truncating would hide that.
    """
    b0, b1 = b.lo, b.hi
    if not (b0 or b1):
        raise InternalInvariantError("exact division by the zero polynomial")
    r0, r1 = a.lo, a.hi
    if not (r0 or r1):
        return _ZERO
    top = (r0 | r1).bit_length() - (b0 | b1).bit_length()  # quotient degree
    # s*b for s = 1, w, v, keyed by their constant coefficient:
    # w(a + wb) = b + w(a + b) and v(a + wb) = (a + b) + wa.
    multiples = {}
    for s, m0, m1 in ((1, b0, b1), (2, b1, b0 ^ b1), (3, b0 ^ b1, b0)):
        multiples[(m0 & 1) | (m1 & 1) << 1] = s, m0, m1
    q0 = q1 = 0
    while r0 or r1:
        rest = r0 | r1
        j = (rest & -rest).bit_length() - 1
        if j > top:
            break
        s, m0, m1 = multiples[(r0 >> j & 1) | (r1 >> j & 1) << 1]
        r0 ^= m0 << j
        r1 ^= m1 << j
        q0 |= (s & 1) << j
        q1 |= (s >> 1) << j
    if r0 or r1:
        raise InternalInvariantError(f"{b} does not divide {a}")
    return _make(q0, q1, a.offset - b.offset)


def laurent_rank(m: LaurentMatrix) -> int:
    """Rank over the field of rational functions in D.

    Bareiss's fraction-free elimination with exact division (Bareiss
    1968): the pivot is the nonzero entry of least span in the pivot
    column, and each lower row is replaced by
    ``(pivot * row + entry * pivot_row) / previous_pivot``.  The division
    is exact, so after k pivots every entry is a (k+1)-minor of the input
    (up to row order) and its span is at most k+1 times the input span:
    the cost is polynomial in the size and the exponents.
    """
    work = [list(row) for row in m._entries]
    nrows, ncols = m.rows, m.cols
    previous = _ONE
    rank = 0
    for col in range(ncols):
        spans = [
            ((p.lo | p.hi).bit_length(), r)
            for r in range(rank, nrows)
            if (p := work[r][col])
        ]
        if not spans:
            continue
        best = min(spans)[1]
        work[rank], work[best] = work[best], work[rank]
        pivot_row = work[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, nrows):
            row = work[r]
            entry = row[col]
            for j in range(col + 1, ncols):
                row[j] = _exact_quotient(
                    pivot * row[j] + entry * pivot_row[j], previous
                )
        previous = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def conv_ebits(hz: LaurentMatrix, hx: LaurentMatrix) -> int:
    """Conjectured ebits per frame for a convolutional generator set.

    Half the rational-function rank of the shifted product matrix.  Unlike
    the block product matrix, that matrix may have nonzero diagonal
    entries (the row ``1 | D`` gives D + D^-1), so its rank may be odd;
    an odd rank raises :class:`OddRankError` rather than truncating.
    """
    r = laurent_rank(shifted_symplectic_matrix(hz, hx))
    if r % 2:
        raise OddRankError(
            f"shifted product matrix has odd rank {r}, so the conjectured "
            f"count rank/2 is not a whole number of ebits per frame"
        )
    return r // 2


def gf4_conv_ebits(h: LaurentMatrix) -> int:
    """Conjectured per-frame ebits for a quaternary convolutional import.

    Rank of H(D) @ H†(D^-1), where † conjugate-transposes and the
    D -> D^-1 substitution applies to the conjugated transpose.
    """
    rows = h._entries
    return laurent_rank(_gram(rows, [[p.conj() for p in row] for row in rows]))


def css_conv_ebits(h1: LaurentMatrix, h2: LaurentMatrix) -> int:
    """Per-frame ebits for a convolutional import of two binary codes."""
    if h1.cols != h2.cols:
        raise ShapeError(
            f"parity checks have different lengths: {h1.cols} vs {h2.cols}"
        )
    return laurent_rank(_gram(h1._entries, h2._entries))
