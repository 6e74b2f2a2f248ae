"""Matrices that several test files build: random draws, independent
subsets and constant Laurent lifts."""

from itertools import compress

from ebitcalc.gf2 import BinMatrix, independent_flags
from ebitcalc.gf4 import GF4Matrix, gf4_rank
from ebitcalc.laurent import LaurentMatrix, LaurentPoly
from ebitcalc.symplectic import QuantumCheckMatrix


def random_bin_matrix(rng, rows, cols):
    """Uniformly random binary matrix."""
    return BinMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def independent_rows(h):
    """The generators of ``h`` outside the span of the rows above them: a
    basis of the group ``h`` generates."""
    stacked = h.stacked()
    words = [stacked.row_bits(i) for i in range(stacked.rows)]
    kept = list(compress(words, independent_flags(words)))
    return QuantumCheckMatrix.from_stacked(BinMatrix(len(kept), stacked.cols, kept))


def random_gf4_matrix(rng, rows, cols, full_row_rank=False):
    """Uniformly random GF(4) matrix, optionally resampled to full row rank."""
    while True:
        lines = ["".join("01wv"[rng.randrange(4)] for _ in range(cols)) for _ in range(rows)]
        m = GF4Matrix.from_strings(lines, cols)
        if not full_row_rank or gf4_rank(m) == rows:
            return m


def constant_laurent(m):
    """A binary or GF(4) matrix as delay polynomials of degree 0."""
    return LaurentMatrix(
        [[LaurentPoly([(0, m.entry(i, j))]) for j in range(m.cols)] for i in range(m.rows)],
        cols=m.cols,
    )
