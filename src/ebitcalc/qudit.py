"""Edit counts for qudit generator sets over a prime modulus.

The qudit analogue replaces the XOR in the pairwise product with
subtraction mod d, giving an antisymmetric matrix over Z_d whose rank is
even; half of it is the number of maximally entangled d-level pairs the
generators consume.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import InternalInvariantError, ShapeError, UnsupportedModulusError

__all__ = ["ModMatrix", "mod_rank", "qudit_ebits"]


# The first 13 primes: as Miller-Rabin bases they admit no strong
# pseudoprime below 3.3e24 (Sorenson & Webster 2015), far above int64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(d: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for d < 3.3e24."""
    if d < 2:
        return False
    for p in _WITNESSES:
        if d % p == 0:
            return d == p
    odd, twos = d - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _WITNESSES:
        x = pow(a, odd, d)
        if x in (1, d - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % d
            if x == d - 1:
                break
        else:
            return False
    return True


_INT64_MAX = (1 << 63) - 1


def _exact(arr: np.ndarray, d: int, terms: int = 1) -> np.ndarray:
    """``arr`` in a dtype whose sums of ``terms`` residue products mod d are exact.

    int64 while ``terms * (d - 1)**2`` fits, Python ints beyond that, so a
    large prime modulus is slower but never wraps around.
    """
    if terms * (d - 1) ** 2 <= _INT64_MAX:
        return arr
    return arr.astype(object)


class ModMatrix:
    """Immutable matrix of residues modulo a prime."""

    __slots__ = ("_entries", "modulus")

    def __init__(self, entries: np.ndarray | Sequence[Sequence[int]], modulus: int):
        if modulus > _INT64_MAX:
            raise UnsupportedModulusError(
                f"modulus {modulus} does not fit the int64 residue storage"
            )
        if not _is_prime(modulus):
            raise UnsupportedModulusError(
                f"modulus {modulus} is not prime; rank over Z_d needs a field"
            )
        try:
            arr = np.array(entries, dtype=np.int64) % modulus
        except OverflowError:  # an entry beyond int64: reduce it as a Python int
            arr = (np.array(entries, dtype=object) % modulus).astype(np.int64)
        if arr.ndim != 2:
            raise ShapeError("ModMatrix needs a 2-D entry grid")
        arr.setflags(write=False)
        self._entries = arr
        self.modulus = modulus

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int) -> "ModMatrix":
        if rows:
            return cls(rows, modulus)
        return cls(np.zeros((0, 0), dtype=np.int64), modulus)

    @property
    def rows(self) -> int:
        return self._entries.shape[0]

    @property
    def cols(self) -> int:
        return self._entries.shape[1]

    def entry(self, i: int, j: int) -> int:
        return int(self._entries[i, j])

    def to_array(self) -> np.ndarray:
        return self._entries.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModMatrix):
            return NotImplemented
        return self.modulus == other.modulus and bool(
            np.array_equal(self._entries, other._entries)
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self._entries.shape, self._entries.tobytes()))

    def __repr__(self) -> str:
        return f"ModMatrix({self.rows}x{self.cols} mod {self.modulus})"


def mod_rank(m: ModMatrix) -> int:
    """Rank over the field Z_d by forward elimination with modular inverses."""
    d = m.modulus
    work = _exact(m.to_array(), d)
    nrows, ncols = work.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        hits = np.flatnonzero(work[rank:, col])
        if not hits.size:
            continue
        hit = rank + hits[0]
        work[[rank, hit]] = work[[hit, rank]]
        pivot_row = work[rank, col:] * pow(int(work[rank, col]), -1, d) % d
        below = work[rank + 1 :, col:]
        below -= np.outer(below[:, 0], pivot_row)
        below %= d
        rank += 1
    return rank


def qudit_ebits(hz: ModMatrix, hx: ModMatrix) -> int:
    """Edits consumed by a qudit generator set (HZ | HX) over prime d.

    Half the Z_d rank of HX @ HZ^T - HZ @ HX^T; antisymmetry and even
    rank are verified, never assumed.
    """
    if hz.modulus != hx.modulus:
        raise ShapeError(f"moduli differ: {hz.modulus} vs {hx.modulus}")
    if (hz.rows, hz.cols) != (hx.rows, hx.cols):
        raise ShapeError("Z and X parts must have identical shape")
    d = hz.modulus
    terms = max(hz.cols, 1)
    half = _exact(hx.to_array(), d, terms) @ _exact(hz.to_array(), d, terms).T
    omega = (half - half.T) % d
    if np.any((omega + omega.T) % d):
        raise InternalInvariantError("qudit product matrix is not antisymmetric")
    r = mod_rank(ModMatrix(omega, d))
    if r % 2:
        raise InternalInvariantError(f"qudit product matrix has odd rank {r}")
    return r // 2
