"""Edit counts for qudit generator sets over a prime modulus.

The qudit analogue replaces the XOR in the pairwise product with
subtraction mod d, giving an antisymmetric matrix over Z_d whose rank is
even; half of it is the number of maximally entangled d-level pairs the
generators consume.

The arithmetic runs on Python ints in the layout of ``BinMatrix``: a row
(or a packed column) is one int holding one lane per entry, each lane a
whole number of bytes.  Lanes only ever receive non-negative sums, so
they never borrow, and each is wide enough that it never carries into
the next:

- the product HX·HZᵀ adds n products of residues, so its lanes hold at
  most n·(d−1)²;
- elimination adds (d − f)·pivot, the pivot row reduced and scaled so
  its pivot entry is 1, to each row below at most once per pivot, so a
  lane holds at most (d−1) + min(rows, cols)·(d−1)² before it is read
  mod d.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import index, mul

from .errors import InternalInvariantError, ShapeError, UnsupportedModulusError, _dimension

__all__ = ["ModMatrix", "mod_rank", "qudit_ebits"]


# The first 13 primes: as Miller-Rabin bases they admit no strong
# pseudoprime below psi_13 (Sorenson & Webster 2015), which is composite
# yet passes, so the modulus is capped below it.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _is_prime(d: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for d < psi_13."""
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


def _lane_bytes(bound: int) -> int:
    """Bytes of a lane that holds every sum up to ``bound``."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(values: Sequence[int], width: int) -> int:
    """``values`` as one int, value j in the ``width``-byte lane j."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _unpack(word: int, count: int, width: int) -> list[int]:
    """The ``count`` lanes of ``width`` bytes that ``word`` holds."""
    raw = word.to_bytes(count * width, "little")
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


class ModMatrix:
    """Immutable matrix of residues modulo a prime.

    ``cols`` defaults to the length of the first row; give it for a
    matrix with no rows.
    """

    __slots__ = ("_entries", "cols", "modulus")

    def __init__(self, entries: Sequence[Sequence[int]], modulus: int, cols: int | None = None):
        try:
            modulus = index(modulus)
        except TypeError:
            raise UnsupportedModulusError(f"modulus {modulus!r} is not an integer") from None
        if modulus >= _PSI_13:
            raise UnsupportedModulusError(
                f"modulus {modulus} is not below the cap of {_PSI_13}, from which on "
                "the primality test is not a proof"
            )
        if not _is_prime(modulus):
            raise UnsupportedModulusError(
                f"modulus {modulus} is not prime; rank over Z_d needs a field"
            )
        try:
            rows = [tuple(row) for row in entries]
        except TypeError:
            raise ShapeError("ModMatrix needs a 2-D entry grid") from None
        try:
            grid = tuple(tuple([index(v) % modulus for v in row]) for row in rows)
        except TypeError:
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if not hasattr(v, "__index__"):
                        raise ValueError(f"entry ({i},{j}) is not an integer: {v!r}") from None
            raise
        if cols is None:
            cols = len(grid[0]) if grid else 0
        cols = _dimension(cols)
        if any(len(row) != cols for row in grid):
            raise ShapeError(f"ModMatrix rows need {cols} entries each")
        self._entries = grid
        self.cols = cols
        self.modulus = modulus

    @property
    def rows(self) -> int:
        return len(self._entries)

    def entry(self, i: int, j: int) -> int:
        return self._entries[i][j]

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self._entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModMatrix):
            return NotImplemented
        return (self.modulus, self.cols, self._entries) == (
            other.modulus,
            other.cols,
            other._entries,
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"ModMatrix({self.rows}x{self.cols} mod {self.modulus})"


def mod_rank(m: ModMatrix) -> int:
    """Rank over the field Z_d by forward elimination on packed rows."""
    d, cols = m.modulus, m.cols
    width = _lane_bytes(d - 1 + min(m.rows, cols) * (d - 1) ** 2)
    bits = 8 * width
    mask = (1 << bits) - 1
    work = [_pack(row, width) for row in m._entries]
    rank = 0
    for col in range(cols):
        if rank == len(work):
            break
        shift = bits * col
        heads = [(word >> shift & mask) % d for word in work[rank:]]
        hit = next((i for i, f in enumerate(heads) if f), None)
        if hit is None:
            continue
        work[rank], work[rank + hit] = work[rank + hit], work[rank]
        heads[0], heads[hit] = heads[hit], heads[0]
        inverse = pow(heads[0], -1, d)
        # lanes left of col are 0 mod d, so only the rest are reduced
        lanes = _unpack(work[rank] >> shift, cols - col, width)
        pivot = _pack([v * inverse % d for v in lanes], width) << shift
        for r, f in enumerate(heads[1:], rank + 1):
            if f:
                work[r] += (d - f) * pivot
        rank += 1
    return rank


def qudit_ebits(hz: ModMatrix, hx: ModMatrix) -> int:
    """Edits consumed by a qudit generator set (HZ | HX) over prime d.

    Half the Z_d rank of HX @ HZ^T - HZ @ HX^T, which is antisymmetric
    by construction; the even rank is verified, never assumed.
    """
    if hz.modulus != hx.modulus:
        raise ShapeError(f"moduli differ: {hz.modulus} vs {hx.modulus}")
    if (hz.rows, hz.cols) != (hx.rows, hx.cols):
        raise ShapeError("Z and X parts must have identical shape")
    d, m = hz.modulus, hz.rows
    width = _lane_bytes(hz.cols * (d - 1) ** 2)
    # lane j of packed column k of HZ is HZ[j, k], so the HX-weighted sum
    # of the packed columns is one row of HX @ HZ^T
    z_columns = [_pack(column, width) for column in zip(*hz._entries)]
    half = [_unpack(sum(map(mul, row, z_columns)), m, width) for row in hx._entries]
    omega = [[(a - b) % d for a, b in zip(row, column)] for row, column in zip(half, zip(*half))]
    r = mod_rank(ModMatrix(omega, d, m))
    if r % 2:
        raise InternalInvariantError(f"qudit product matrix has odd rank {r}")
    return r // 2
