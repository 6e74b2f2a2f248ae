"""Independent brute-force oracles and cross-check harnesses.

Every rank claim in the package can be replayed here by a different
method: span enumeration over GF(2) or GF(4), exact rational
elimination, or random evaluation of delay polynomials in GF(2^16).
:func:`verify_code` replays the ebit formula against the pairing
procedure (and the enumeration oracle when small enough) on a single
generator set, and checks the procedure's output with XORs and
popcounts only, never with the formula's GF(2) kernels;
:func:`run_random_sweep` does so in bulk with a fixed default seed so
failures reproduce.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Callable, Sequence
from functools import cache
from itertools import compress, islice, tee

from .errors import InternalInvariantError, SizeLimitError
from .gf2 import BinMatrix, independent_flags
from .symplectic import QuantumCheckMatrix, ebit_count, symplectic_gram_schmidt

# Only the oracles that tests call load gf4 and fractions (which pulls in
# decimal and numbers), so a file check never does.
TYPE_CHECKING = False  # type checkers read it as true
if TYPE_CHECKING:
    from fractions import Fraction

    from .gf4 import GF4Matrix
    from .laurent import LaurentMatrix

__all__ = [
    "DEFAULT_SEED",
    "VerificationReport",
    "SweepResult",
    "product_matrix_by_popcount",
    "rank_by_span_enumeration",
    "gf4_rank_by_span_enumeration",
    "rational_rank",
    "laurent_rank_by_evaluation",
    "verify_code",
    "run_random_sweep",
    "random_full_rank_matrix",
    "random_check_matrix",
]

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# span-enumeration oracles


def product_matrix_by_popcount(h: QuantumCheckMatrix) -> BinMatrix:
    """Pairwise symplectic products by popcount: the oracles' own product,
    sharing no code with the formula's ``symplectic_product_table``.  The
    matrix is symmetric with zero diagonal, so each pair i < j is
    computed once and sets both of its bits."""
    m = h.generators
    z = [h.hz.row_bits(i) for i in range(m)]
    x = [h.hx.row_bits(i) for i in range(m)]
    rows = [0] * m
    for i in range(m):
        zi, xi = z[i], x[i]
        for j in range(i + 1, m):
            if ((zi & x[j]).bit_count() + (xi & z[j]).bit_count()) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BinMatrix(m, m, rows)


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
    from .gf4 import gf4_mul

    if m.rows > 10:
        raise SizeLimitError(f"span enumeration limited to 10 rows, got {m.rows}")
    # Rows pack into ints two bits per entry; GF(4) addition is then a
    # plain XOR because the 2-bit lanes never carry.
    multiples = [
        [
            sum(gf4_mul(scale, m.entry(i, j)) << (2 * j) for j in range(m.cols))
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
    from fractions import Fraction

    def clear(row: list, pivot_row: list, col: int) -> list:
        factor = row[col] / pivot_row[col]
        return [a - factor * b for a, b in zip(row, pivot_row)]

    return _forward_rank([[Fraction(x) for x in row] for row in rows], clear)


# ---------------------------------------------------------------------------
# evaluation oracle for delay-polynomial matrices

# GF(2^16) under the primitive polynomial x^16 + x^5 + x^3 + x^2 + 1, so
# every nonzero element is a power of x and multiplies by adding logs.
_GROUP = (1 << 16) - 1
_POLY = 0x1002D
# Logs of the GF(4) codes 1, w, v: w = x^(_GROUP/3) is a cube root of unity.
_GF4_LOGS = (None, 0, _GROUP // 3, 2 * _GROUP // 3)


@cache
def _field_tables() -> tuple[memoryview, memoryview]:
    """Antilog and log tables of GF(2^16), built on first use.  The antilog
    table runs twice round the group, so a sum of two logs indexes it as is."""
    exp = memoryview(bytearray(4 * _GROUP)).cast("H")
    log = memoryview(bytearray(2 * (_GROUP + 1))).cast("H")
    a = 1
    for i in range(_GROUP):
        exp[i] = exp[i + _GROUP] = a
        log[a] = i
        a <<= 1
        if a >> 16:
            a ^= _POLY
    return exp.toreadonly(), log.toreadonly()


def _field_rank(rows: list[list[int]]) -> int:
    exp, log = _field_tables()

    def clear(row: list[int], pivot_row: list[int], col: int) -> list[int]:
        factor = (log[row[col]] - log[pivot_row[col]]) % _GROUP
        return [a ^ exp[factor + log[b]] if b else a for a, b in zip(row, pivot_row)]

    return _forward_rank(rows, clear)


def _evaluate_matrix(terms: list[list[dict[int, int]]], point: int) -> list[list[int]]:
    """M(a) at a = ``point``, from the ``terms()`` of each entry of M: a
    term c D^e maps to x^(log c + e log a)."""
    exp, log = _field_tables()
    step = log[point]
    out = []
    for terms_row in terms:
        row = []
        for entry in terms_row:
            total = 0
            for e, c in entry.items():
                total ^= exp[(_GF4_LOGS[c] + e * step) % _GROUP]
            row.append(total)
        out.append(row)
    return out


def laurent_rank_by_evaluation(
    m: LaurentMatrix, trials: int = 5, rng: random.Random | None = None
) -> int:
    """Max rank of M(a) over random nonzero points a in GF(2^16).

    Always a lower bound on the rational-function rank; equal with high
    probability once the field is large next to the entry degrees.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if rng is None:
        rng = random.Random(DEFAULT_SEED)
    terms = [[m.entry(i, j).terms() for j in range(m.cols)] for i in range(m.rows)]
    best = 0
    for _ in range(trials):
        point = rng.randrange(1, _GROUP + 1)
        best = max(best, _field_rank(_evaluate_matrix(terms, point)))
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

    The procedure's m x m transform T and output H' pass three checks
    made of XORs and popcounts alone, and a failure raises: row i of H'
    must be the XOR of the input rows that row i of T picks (T H = H'),
    each row of T must bring in exactly one column that no earlier row
    has, as every row the procedure builds does, and the products of H'
    must be the c pairs' anticommuting blocks, then zeros.

    That proves the count c with no elimination.  With its columns
    ordered by first appearance T is unit lower-triangular, so
    invertible; H and H' span the same rows, Omega' = T Omega T^t, and
    rank Omega = rank Omega' = 2c.
    """
    formula = ebit_count(h)
    result = symplectic_gram_schmidt(h)
    procedure = result.ebits

    m = h.generators
    if (result.transform.rows, result.transform.cols) != (m, m):
        raise InternalInvariantError(f"transform is not {m} x {m}")
    stacked = h.stacked()
    inputs = [stacked.row_bits(i) for i in range(m)]
    masks = [result.transform.row_bits(i) for i in range(m)]
    replayed = []
    for mask in masks:
        row = 0
        while mask:
            low = mask & -mask
            row ^= inputs[low.bit_length() - 1]
            mask ^= low
        replayed.append(row)
    if BinMatrix(len(replayed), stacked.cols, replayed) != result.transformed.stacked():
        raise InternalInvariantError("transform does not reproduce the output rows")
    seen = 0
    for i, mask in enumerate(masks):
        if (mask & ~seen).bit_count() != 1:
            raise InternalInvariantError(f"transform row {i} brings in no single new column")
        seen |= mask
    products = product_matrix_by_popcount(result.transformed)
    paired = [1 << (i ^ 1) for i in range(2 * procedure)]
    paired += [0] * (m - 2 * procedure)
    if [products.row_bits(i) for i in range(products.rows)] != paired:
        raise InternalInvariantError(
            "transformed products deviate from the paired standard form"
        )

    oracle = None
    if m <= 20:
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

    Qubit counts are uniform in 1..max_n, for max_n up to 2048, and
    generator counts uniform in 1..2n; the seed is recorded so any failure
    replays exactly.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if max_n < 1:
        raise ValueError("max_n must be positive")
    if max_n > 2048:
        raise SizeLimitError(f"random sweeps limited to 2048 qubits, got max_n {max_n}")
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


def random_full_rank_matrix(rng: random.Random, rows: int, cols: int) -> BinMatrix:
    """Random binary matrix with independent rows (requires rows <= cols)."""
    if rows > cols:
        raise ValueError("cannot have more independent rows than columns")
    draws, tested = tee(iter(lambda: rng.getrandbits(cols), None))
    # compress takes each draw before its flag, and islice stops at the
    # last kept row, so no draw is made past it.
    return BinMatrix(rows, cols, islice(compress(draws, independent_flags(tested)), rows))


def random_check_matrix(rng: random.Random, n: int, generators: int) -> QuantumCheckMatrix:
    """Random generator set with independent rows on n qubits."""
    if generators > 2 * n:
        raise ValueError(f"at most {2 * n} independent generators exist on {n} qubits")
    stacked = random_full_rank_matrix(rng, generators, 2 * n)
    return QuantumCheckMatrix.from_stacked(stacked)

