"""Quantum check matrices and the entanglement cost of their generators.

A generator set on ``n`` qubits is a pair of binary matrices (Z part,
X part).  Two generators anticommute exactly when their symplectic
product is 1; the minimum number of ebits the set consumes equals half
the rank of the matrix of all pairwise products.  The same count falls
out of the symplectic Gram-Schmidt procedure, which row-reduces the
generators into anticommuting pairs plus a mutually commuting remainder.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import InternalInvariantError, ParseError, ShapeError
from .gf2 import BinMatrix, rank

__all__ = [
    "QuantumCheckMatrix",
    "SgsopResult",
    "CodeParameters",
    "symplectic_product_table",
    "ebit_count",
    "symplectic_gram_schmidt",
    "code_parameters",
]

# Each Pauli letter's Z part and X part as a binary digit.
_Z_DIGITS = str.maketrans("IXZY", "0011")
_X_DIGITS = str.maketrans("IXZY", "0101")
_STRIP_PAULI = str.maketrans("", "", "IXZY")  # whatever survives is no Pauli letter


class QuantumCheckMatrix(namedtuple("QuantumCheckMatrix", "hz hx")):
    """Pauli generator list as a (Z part | X part) pair of binary matrices.

    Rows, read as length-2n symplectic vectors, may depend on each other:
    every count is that of the group the rows generate, which any basis
    of their span gives as well.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, hz: BinMatrix, hx: BinMatrix):
        self = super().__new__(cls, hz, hx)
        self.__post_init__()  # a method of its own, which the benchmark's tracer times
        return self

    def __post_init__(self):
        if (self.hz.rows, self.hz.cols) != (self.hx.rows, self.hx.cols):
            raise ShapeError("Z and X parts must have identical shape")

    @property
    def n(self) -> int:
        """Number of physical qubits."""
        return self.hz.cols

    @property
    def generators(self) -> int:
        return self.hz.rows

    def stacked(self) -> BinMatrix:
        """The generators as one (Z | X) matrix with 2n columns."""
        return self.hz.hstack(self.hx)

    @classmethod
    def from_stacked(cls, m: BinMatrix) -> "QuantumCheckMatrix":
        if m.cols % 2:
            raise ShapeError("stacked form needs an even column count")
        return cls(*m.hsplit(m.cols // 2))

    @classmethod
    def from_pauli_strings(cls, labels: Sequence[str]) -> "QuantumCheckMatrix":
        """Build from strings over I, X, Z, Y (one qubit per character)."""
        for label in labels:
            stray = label.translate(_STRIP_PAULI)
            if stray:
                raise ParseError(f"invalid Pauli character {stray[0]!r} in label {label!r}")
        return cls(
            BinMatrix.from_strings([label.translate(_Z_DIGITS) for label in labels]),
            BinMatrix.from_strings([label.translate(_X_DIGITS) for label in labels]),
        )


def symplectic_product_table(hz: BinMatrix, hx: BinMatrix) -> BinMatrix:
    """Pairwise symplectic products of raw (Z | X) rows.

    Accepts any matching pair, including dependent or all-zero rows.  The
    result is symmetric with zero diagonal, hence of even rank.
    """
    if (hz.rows, hz.cols) != (hx.rows, hx.cols):
        raise ShapeError("Z and X parts must have identical shape")
    if not hz.rows:  # the same 0 x 0 table, without a transpose of a zero row per column
        return BinMatrix.zeros(0, 0)
    half = hx @ hz.transpose()
    return half + half.transpose()


def ebit_count(h: QuantumCheckMatrix) -> int:
    """Minimum number of ebits the generator set consumes.

    Half the rank of the pairwise product matrix; the rank is provably
    even, and an odd value raises rather than truncating.
    """
    r = rank(symplectic_product_table(h.hz, h.hx))
    if r % 2:
        raise InternalInvariantError(f"pairwise product matrix has odd rank {r}")
    return r // 2


class SgsopResult(
    namedtuple("SgsopResult", "transform transformed pairs isotropic ebits")
):
    """Outcome of the symplectic Gram-Schmidt procedure.

    ``transform`` is the invertible row-operation matrix with
    ``transform @ input.stacked() == transformed.stacked()``.  Pair rows
    occupy the leading positions (0,1), (2,3), ...; ``isotropic`` lists
    the trailing rows that commute with everything.
    """

    __slots__ = ()


def symplectic_gram_schmidt(h: QuantumCheckMatrix) -> SgsopResult:
    """Row-reduce the generators into anticommuting pairs plus a commuting tail.

    Scanning top-down, the first unprocessed row that anticommutes with
    some later row is paired with the smallest such partner; the pair is
    swapped into the next two leading slots and every remaining row r
    gets the first pair row added when r anticommutes with the second,
    and vice versa, clearing its products against the pair.  Rows with
    all-zero products accumulate at the bottom.  Row operations never
    change the generated group, only the product relations.

    A row the scan passes over commutes with every unpaired row from then
    on (with later rows by the scan, with earlier ones by symmetry), so
    its clearing coefficients stay 0.  Skipping such rows keeps every
    pair and row operation and bounds the work at O(m^2 + c*m) products
    for c pairs.  Products come from the procedure's own ``sprod``, never
    from :func:`symplectic_product_table`, so the two routes stay apart.
    """
    m = h.generators
    n = h.n
    z = [h.hz.row_bits(i) for i in range(m)]
    x = [h.hx.row_bits(i) for i in range(m)]
    g = [1 << i for i in range(m)]
    isotropic = [False] * m

    def sprod(i: int, j: int) -> int:
        return ((z[i] & x[j]).bit_count() + (x[i] & z[j]).bit_count()) & 1

    def swap(i: int, j: int) -> None:
        if i != j:
            z[i], z[j] = z[j], z[i]
            x[i], x[j] = x[j], x[i]
            g[i], g[j] = g[j], g[i]
            isotropic[i], isotropic[j] = isotropic[j], isotropic[i]

    pairs: list[tuple[int, int]] = []
    done = 0
    while True:
        found = None
        for i in range(done, m):
            if isotropic[i]:
                continue
            for j in range(i + 1, m):
                if not isotropic[j] and sprod(i, j):
                    found = (i, j)
                    break
            if found:
                break
            isotropic[i] = True
        if found is None:
            break
        i, j = found
        swap(done, i)
        swap(done + 1, j)
        a, b = done, done + 1
        for r in range(done + 2, m):
            if isotropic[r]:
                continue
            hit_a = sprod(r, b)
            hit_b = sprod(r, a)
            if hit_a:
                z[r] ^= z[a]
                x[r] ^= x[a]
                g[r] ^= g[a]
            if hit_b:
                z[r] ^= z[b]
                x[r] ^= x[b]
                g[r] ^= g[b]
        pairs.append((a, b))
        done += 2

    transformed = QuantumCheckMatrix(BinMatrix(m, n, z), BinMatrix(m, n, x))
    return SgsopResult(
        transform=BinMatrix(m, m, g),
        transformed=transformed,
        pairs=tuple(pairs),
        isotropic=tuple(range(done, m)),
        ebits=len(pairs),
    )


class CodeParameters(
    namedtuple("CodeParameters", "n generators ebits distance", defaults=(None,))
):
    """Resource summary [[n, logical(, distance); ebits]] of a generator set.

    ``generators`` is the dimension of the group the rows generate, the
    rank of the rows: that many independent generators on ``n`` qubits
    that consume ``ebits`` ebits encode ``n - generators + ebits``
    logical qubits.
    ``distance`` is pass-through metadata, never computed here.
    """

    __slots__ = ()

    @property
    def logical(self) -> int:
        return self.n - self.generators + self.ebits

    @property
    def ancillas(self) -> int:
        return self.generators - 2 * self.ebits

    def bracket(self) -> str:
        if self.distance is None:
            return f"[[{self.n}, {self.logical}; {self.ebits}]]"
        return f"[[{self.n}, {self.logical}, {self.distance}; {self.ebits}]]"


def code_parameters(h: QuantumCheckMatrix) -> CodeParameters:
    """Qubit/ebit/ancilla bookkeeping for the group a generator set generates."""
    return CodeParameters(h.n, rank(h.stacked()), ebit_count(h))
