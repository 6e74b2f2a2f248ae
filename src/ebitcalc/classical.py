"""Imports of classical block codes as entanglement-assisted generator sets.

Two binary parity checks become pure-Z and pure-X generator blocks; a
quaternary parity check expands through the standard isomorphism between
GF(4) symbols and symplectic bit pairs.
"""

from __future__ import annotations

from .errors import ShapeError
from .gf2 import BinMatrix, rank
from .gf4 import GF4Matrix, gf4_rank
from .symplectic import CodeParameters, QuantumCheckMatrix

__all__ = [
    "css_construct",
    "css_ebits",
    "css_parameters",
    "gf4_symplectic_rows",
    "gf4_ebits",
    "gf4_parameters",
]


def css_construct(h1: BinMatrix, h2: BinMatrix) -> QuantumCheckMatrix:
    """Block generator set from two parity checks over the same length.

    Rows of ``h1`` become pure-Z generators (bit flips), rows of ``h2``
    pure-X generators (phase flips).
    """
    if h1.cols != h2.cols:
        raise ShapeError(
            f"parity checks have different lengths: {h1.cols} vs {h2.cols}"
        )
    n = h1.cols
    hz = h1.vstack(BinMatrix.zeros(h2.rows, n))
    hx = BinMatrix.zeros(h1.rows, n).vstack(h2)
    return QuantumCheckMatrix(hz, hx)


def css_ebits(h1: BinMatrix, h2: BinMatrix) -> int:
    """Ebits consumed by the two-parity-check import: rank of h1 @ h2^T."""
    if h1.cols != h2.cols:
        raise ShapeError(
            f"parity checks have different lengths: {h1.cols} vs {h2.cols}"
        )
    if not (h1.rows and h2.rows):  # rank 0, without a transpose of a zero row per column
        return 0
    return rank(h1 @ h2.transpose())


def css_parameters(
    h1: BinMatrix,
    h2: BinMatrix,
    d1: int | None = None,
    d2: int | None = None,
) -> CodeParameters:
    """Parameters of the two-parity-check import.

    Code dimensions are inferred from parity-check ranks, not trusted
    from any header.  The distance is min(d1, d2) when both are given.
    """
    return CodeParameters(
        n=h1.cols,
        ebits=css_ebits(h1, h2),
        generators=rank(h1) + rank(h2),
        distance=min(d1, d2) if d1 is not None and d2 is not None else None,
    )


def gf4_symplectic_rows(h: GF4Matrix) -> tuple[BinMatrix, BinMatrix]:
    """Binary (Z, X) expansion of the stacked [w*H; v*H] block.

    The 2r binary rows span a space of dimension twice the GF(4) rank of
    H, so they are independent exactly when the r quaternary rows are.
    """
    # An entry x*w + z*v expands to the bit pair (Z, X) = (z, x).  With
    # a + wb = (a + b)w + av, a matrix lo + w*hi has Z = lo and X = lo + hi;
    # w*H has planes (hi, lo + hi) and v*H has planes (lo + hi, lo).
    lo_plus_hi = h.lo + h.hi
    return h.hi.vstack(lo_plus_hi), h.lo.vstack(h.hi)


def gf4_ebits(h: GF4Matrix) -> int:
    """Ebits consumed by the quaternary import: rank over GF(4) of H @ H†."""
    if not h.rows:  # rank 0, without an H† of a zero row per column
        return 0
    return gf4_rank(h @ h.conj().transpose())


def gf4_parameters(h: GF4Matrix) -> CodeParameters:
    """Parameters of the quaternary import; dimension inferred from rank.

    No distance is reported for quaternary imports.
    """
    # a rank-r quaternary check expands to 2r independent binary generators
    return CodeParameters(n=h.cols, ebits=gf4_ebits(h), generators=2 * gf4_rank(h))
