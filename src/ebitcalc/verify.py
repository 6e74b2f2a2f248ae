"""Independent brute-force oracles and cross-check harnesses.

Every rank claim in the package can be replayed here by a different
method: span enumeration over GF(2) or GF(4), exact rational
elimination, or random evaluation of delay polynomials in a large
binary extension field.  :func:`verify_code` replays the ebit formula
against the pairing procedure (and the enumeration oracle when small
enough) on a single generator set; :func:`run_random_sweep` does so in
bulk with a fixed default seed so failures reproduce.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import InternalInvariantError, SizeLimitError
from .gf2 import BinMatrix, rank
from .gf4 import GF4Matrix, _MUL, gf4_rank
from .symplectic import (
    QuantumCheckMatrix,
    ebit_count,
    standard_form_matrix,
    symplectic_gram_schmidt,
    symplectic_product_matrix,
)

TYPE_CHECKING = False  # type checkers read it as true
if TYPE_CHECKING:
    from .laurent import LaurentMatrix

__all__ = [
    "DEFAULT_SEED",
    "VerificationReport",
    "SweepResult",
    "product_matrix_by_popcount",
    "rank_by_span_enumeration",
    "gf4_rank_by_span_enumeration",
    "rational_rank",
    "BinaryExtField",
    "laurent_rank_by_evaluation",
    "verify_code",
    "run_random_sweep",
    "random_bin_matrix",
    "random_full_rank_matrix",
    "random_check_matrix",
    "random_gf4_matrix",
]

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# span-enumeration oracles


def product_matrix_by_popcount(h: QuantumCheckMatrix) -> BinMatrix:
    """Pairwise symplectic products, one popcount per pair: the oracles' own
    product, sharing no code with the formula's ``symplectic_product_table``."""
    z = [h.hz.row_bits(i) for i in range(h.generators)]
    x = [h.hx.row_bits(i) for i in range(h.generators)]
    return BinMatrix.from_rows(
        [
            [((zi & xj).bit_count() + (xi & zj).bit_count()) & 1 for zj, xj in zip(z, x)]
            for zi, xi in zip(z, x)
        ]
    )


def _vanishing_combinations(choices: list[list[int]]) -> int:
    """Ways of taking one word from each entry of ``choices`` whose XOR is 0.

    Each half of the rows is enumerated in full and the combinations
    whose two halves have equal sums are counted (Horowitz & Sahni,
    JACM 1974), so r rows cost two tallies of about 2^(r/2) sums each.
    """

    def sums(half: list[list[int]]) -> Counter:
        partial = [0]
        for options in half:
            partial = [s ^ w for s in partial for w in options]
        return Counter(partial)

    left = sums(choices[: len(choices) // 2])
    right = sums(choices[len(choices) // 2 :])
    return sum(count * right[s] for s, count in left.items())


def rank_by_span_enumeration(m: BinMatrix) -> int:
    """GF(2) rank by counting which of the 2^rows row combinations vanish.

    Exactly 2^(rows - rank) of them do, so the count needs no elimination.
    """
    if m.rows > 20:
        raise SizeLimitError(f"span enumeration limited to 20 rows, got {m.rows}")
    vanishing = _vanishing_combinations([[0, m.row_bits(i)] for i in range(m.rows)])
    return m.rows - (vanishing.bit_length() - 1)


def gf4_rank_by_span_enumeration(m: GF4Matrix) -> int:
    """GF(4) rank by counting which of the 4^rows row combinations vanish:
    exactly 4^(rows - rank) of them do."""
    if m.rows > 10:
        raise SizeLimitError(f"span enumeration limited to 10 rows, got {m.rows}")
    # Rows pack into ints two bits per entry; GF(4) addition is then a
    # plain XOR because the 2-bit lanes never carry.
    multiples = [
        [
            sum(_MUL[scale][m.entry(i, j)] << (2 * j) for j in range(m.cols))
            for scale in range(4)
        ]
        for i in range(m.rows)
    ]
    vanishing = _vanishing_combinations(multiples)
    return m.rows - (vanishing.bit_length() - 1) // 2


def _forward_rank(rows: list[list], clear: Callable[[list, list, int], list]) -> int:
    """Rank by forward elimination; ``clear(row, pivot_row, col)`` returns
    ``row`` with its entry in ``col`` cancelled by a multiple of ``pivot_row``."""
    pivot_row = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col]:
                rows[r] = clear(rows[r], rows[pivot_row], col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivot_row


def rational_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank over the rationals by fraction-based elimination."""

    def clear(row: list, pivot_row: list, col: int) -> list:
        factor = row[col] / pivot_row[col]
        return [a - factor * b for a, b in zip(row, pivot_row)]

    return _forward_rank([[Fraction(x) for x in row] for row in rows], clear)


# ---------------------------------------------------------------------------
# evaluation oracle for delay-polynomial matrices

# Standard primitive polynomials, condensed exponent form.
_PRIMITIVE_POLYS = {
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 6, 5, 3, 2, 1, 0),
    12: (12, 7, 6, 5, 3, 1, 0),
    16: (16, 5, 3, 2, 0),
}


class BinaryExtField:
    """Arithmetic in GF(2^m) for the supported degrees."""

    def __init__(self, degree: int):
        if degree not in _PRIMITIVE_POLYS:
            supported = sorted(_PRIMITIVE_POLYS)
            raise ValueError(f"degree {degree} unsupported; choose one of {supported}")
        self.degree = degree
        self.order = 1 << degree
        poly = 0
        for e in _PRIMITIVE_POLYS[degree]:
            poly |= 1 << e
        self._poly = poly

    def mul(self, a: int, b: int) -> int:
        acc = 0
        top = 1 << self.degree
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self._poly
        return acc

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 2)

    def gf4_embedding(self) -> tuple[int, int, int, int]:
        """Images of the four GF(4) elements inside this field.

        Needs an even degree; the cube root of unity is x^((2^m - 1)/3)
        for the primitive element x.
        """
        if self.degree % 2:
            raise ValueError("GF(4) embeds only in even-degree extensions")
        w = self.pow(2, (self.order - 1) // 3)
        return (0, 1, w, self.mul(w, w))


def _field_rank(field: BinaryExtField, rows: list[list[int]]) -> int:
    def clear(row: list[int], pivot_row: list[int], col: int) -> list[int]:
        factor = field.mul(row[col], field.inv(pivot_row[col]))
        return [a ^ field.mul(factor, b) for a, b in zip(row, pivot_row)]

    return _forward_rank(rows, clear)


def _evaluate_matrix(
    m: LaurentMatrix, field: BinaryExtField, point: int
) -> list[list[int]]:
    embed = (0, 1, 1, 1) if m.is_binary() else field.gf4_embedding()
    inv_point = field.inv(point)
    powers: dict[int, int] = {0: 1}

    def power(e: int) -> int:
        cached = powers.get(e)
        if cached is None:
            base = point if e >= 0 else inv_point
            cached = field.pow(base, abs(e))
            powers[e] = cached
        return cached

    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            total = 0
            for e, c in m.entry(i, j).terms().items():
                total ^= field.mul(embed[c], power(e))
            row.append(total)
        out.append(row)
    return out


def laurent_rank_by_evaluation(
    m: LaurentMatrix,
    trials: int = 5,
    field_degree: int = 16,
    rng: random.Random | None = None,
) -> int:
    """Max rank of M(a) over random nonzero points a in GF(2^m).

    Always a lower bound on the rational-function rank; equal with high
    probability once the field is large next to the entry degrees.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if field_degree < 8:
        raise ValueError("field degree must be at least 8")
    field = BinaryExtField(field_degree)
    if rng is None:
        rng = random.Random(DEFAULT_SEED)
    best = 0
    for _ in range(trials):
        point = rng.randrange(1, field.order)
        best = max(best, _field_rank(field, _evaluate_matrix(m, field, point)))
    return best


# ---------------------------------------------------------------------------
# formula vs procedure cross-check


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "subject formula_value procedure_value oracle_value agreement details",
    )
):
    """One generator set checked by every applicable route.

    ``oracle_value`` is None when span enumeration was skipped.
    """

    __slots__ = ()


def verify_code(h: QuantumCheckMatrix) -> VerificationReport:
    """Replay the ebit count by formula, by pairing procedure, and (for
    at most 20 generators) by span enumeration.

    Structural guarantees of the pairing procedure -- exact paired
    standard form, invertible transform, preserved row space -- are
    asserted outright; a violation raises instead of lowering the
    report's agreement flag.
    """
    formula = ebit_count(h)
    result = symplectic_gram_schmidt(h)
    procedure = result.ebits

    if symplectic_product_matrix(result.transformed) != standard_form_matrix(
        h.generators, procedure
    ):
        raise InternalInvariantError(
            "transformed products deviate from the paired standard form"
        )
    if rank(result.transform) != h.generators:
        raise InternalInvariantError("row transform is not invertible")
    if result.transform @ h.stacked() != result.transformed.stacked():
        raise InternalInvariantError("transform does not reproduce the output rows")
    if rank(h.stacked().vstack(result.transformed.stacked())) != h.generators:
        raise InternalInvariantError("row space changed under the pairing procedure")

    oracle = None
    if h.generators <= 20:
        r = rank_by_span_enumeration(product_matrix_by_popcount(h))
        if r % 2:
            raise InternalInvariantError(f"enumerated product rank {r} is odd")
        oracle = r // 2

    values = {formula, procedure}
    if oracle is not None:
        values.add(oracle)
    agreement = len(values) == 1
    parts = [f"formula {formula}", f"procedure {procedure}"]
    parts.append("enumeration skipped" if oracle is None else f"enumeration {oracle}")
    details = ", ".join(parts)
    return VerificationReport(
        subject=f"{h.generators} generators on {h.n} qubits",
        formula_value=formula,
        procedure_value=procedure,
        oracle_value=oracle,
        agreement=agreement,
        details=details,
    )


class SweepResult(namedtuple("SweepResult", "seed cases failures")):
    """Aggregate of a seeded randomized verification sweep."""

    __slots__ = ()

    @property
    def agreement(self) -> bool:
        return not self.failures


def run_random_sweep(count: int, max_n: int, seed: int = DEFAULT_SEED) -> SweepResult:
    """Run :func:`verify_code` on ``count`` random generator sets.

    Qubit counts are uniform in 1..max_n and generator counts uniform in
    1..2n; the seed is recorded so any failure replays exactly.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if max_n < 1:
        raise ValueError("max_n must be positive")
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        n = rng.randint(1, max_n)
        generators = rng.randint(1, 2 * n)
        h = random_check_matrix(rng, n, generators)
        report = verify_code(h)
        if not report.agreement:
            failures.append(f"case {index} ({report.subject}): {report.details}")
    return SweepResult(seed=seed, cases=count, failures=tuple(failures))


# ---------------------------------------------------------------------------
# random instance generators for sweeps and tests


def random_bin_matrix(rng: random.Random, rows: int, cols: int) -> BinMatrix:
    """Uniformly random binary matrix."""
    return BinMatrix(rows, cols, (rng.getrandbits(cols) if cols else 0 for _ in range(rows)))


def random_full_rank_matrix(rng: random.Random, rows: int, cols: int) -> BinMatrix:
    """Random binary matrix with independent rows (requires rows <= cols)."""
    if rows > cols:
        raise ValueError("cannot have more independent rows than columns")
    words: list[int] = []
    basis: dict[int, int] = {}
    while len(words) < rows:
        w = rng.getrandbits(cols)
        t = w
        while t:
            p = t.bit_length() - 1
            found = basis.get(p)
            if found is None:
                basis[p] = t
                words.append(w)
                break
            t ^= found
    return BinMatrix(rows, cols, words)


def random_check_matrix(rng: random.Random, n: int, generators: int) -> QuantumCheckMatrix:
    """Random generator set with independent rows on n qubits."""
    if generators > 2 * n:
        raise ValueError(f"at most {2 * n} independent generators exist on {n} qubits")
    stacked = random_full_rank_matrix(rng, generators, 2 * n)
    return QuantumCheckMatrix.from_stacked(stacked)


def random_gf4_matrix(
    rng: random.Random, rows: int, cols: int, full_row_rank: bool = False
) -> GF4Matrix:
    """Uniformly random GF(4) matrix, optionally resampled to full row rank."""
    while True:
        m = GF4Matrix.from_rows(
            [[rng.randrange(4) for _ in range(cols)] for _ in range(rows)]
        )
        if not full_row_rank or gf4_rank(m) == rows:
            return m
