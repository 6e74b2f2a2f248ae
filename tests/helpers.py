"""Matrices that several test files build: random draws and constant Laurent lifts."""

from ebitcalc.gf2 import BinMatrix
from ebitcalc.gf4 import GF4Matrix, gf4_rank
from ebitcalc.laurent import LaurentMatrix, LaurentPoly


def random_bin_matrix(rng, rows, cols):
    """Uniformly random binary matrix."""
    return BinMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


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
