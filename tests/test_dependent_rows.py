"""Dependent generator rows change no count: each kind counts the group its rows generate.

If H = A·B, with A of full column rank and B of full row rank, then
rank(H Λ Hᵀ) = rank(B Λ Bᵀ), so a spanning set has the product rank of
any basis of its span, over every field here.  Each property draws a
random set, appends rows made from it (copies, sums, scalar multiples
and zero rows), shuffles the rows, and checks that every count of the
larger set is that of the set it was made from.
"""

from functools import reduce
from operator import xor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc.classical import css_ebits, css_parameters, gf4_ebits, gf4_parameters
from ebitcalc.gf2 import BinMatrix, rank
from ebitcalc.gf4 import GF4Matrix, gf4_mul
from ebitcalc.qudit import ModMatrix, qudit_ebits
from ebitcalc.symplectic import (
    QuantumCheckMatrix,
    code_parameters,
    ebit_count,
    symplectic_gram_schmidt,
)
from ebitcalc.verify import verify_code
from helpers import independent_rows


@st.composite
def _extended(draw, rows, size, combine):
    """``rows`` with up to 6 combinations of them added, in a
    random order; each combination has coefficients in range(size), so
    all-zero coefficients give a zero row and a single 1 a copy."""
    coefficients = st.lists(st.integers(0, size - 1), min_size=len(rows), max_size=len(rows))
    extra = [combine(rows, c) for c in draw(st.lists(coefficients, max_size=6))]
    return draw(st.permutations(rows + extra))


def _xor_sum(words, coefficients):
    return reduce(xor, (w for w, c in zip(words, coefficients) if c), 0)


@st.composite
def _binary_sets(draw):
    """A random (Z | X) set on n <= 6 qubits, and it with dependent rows
    added: at most 16 rows in all."""
    n = draw(st.integers(1, 6))
    words = draw(st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=10))
    extended = draw(_extended(words, 2, _xor_sum))
    return [QuantumCheckMatrix.from_stacked(BinMatrix(len(w), 2 * n, w)) for w in (words, extended)]


def _pauli_sets(base, extended):
    return [QuantumCheckMatrix.from_pauli_strings(labels) for labels in (base, extended)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_binary_sets())
@example(_pauli_sets(["XZ", "ZX"], ["XZ", "ZX", "XZ", "II", "YY"]))  # copy, zero row, sum
@example(_pauli_sets(["Z", "X"], ["Z", "X", "Y", "I", "Z"]))  # more than 2n rows
@example(_pauli_sets(["II"], ["II", "II"]))  # only zero rows
def test_binary_counts_ignore_dependent_rows_property(sets):
    base, extended = sets
    basis = independent_rows(extended)
    c = ebit_count(basis)
    assert ebit_count(base) == ebit_count(extended) == c
    assert symplectic_gram_schmidt(extended).ebits == c
    assert verify_code(extended).agreement
    p = code_parameters(extended)
    assert p == code_parameters(base) == code_parameters(basis)
    assert p.generators == rank(extended.stacked()) == basis.generators
    assert p.logical >= 0 and p.ancillas >= 0


def _mod_combination(d):
    def combine(rows, coefficients):
        return [sum(c * v for c, v in zip(coefficients, column)) % d for column in zip(*rows)]

    return combine


@st.composite
def _qudit_sets(draw):
    d = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    rows = draw(st.lists(row, max_size=8))
    extended = draw(_extended(rows, d, _mod_combination(d)))
    # a row with no base rows to combine has zero entries
    extended = [r or [0] * (2 * n) for r in extended]
    return [
        (ModMatrix([r[:n] for r in s], d, n), ModMatrix([r[n:] for r in s], d, n))
        for s in (rows, extended)
    ]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_qudit_sets())
def test_qudit_count_ignores_dependent_rows_property(sets):
    (base_z, base_x), (z, x) = sets
    assert qudit_ebits(z, x) == qudit_ebits(base_z, base_x)


def _gf4_combination(rows, coefficients):
    return [
        reduce(xor, (gf4_mul(c, v) for c, v in zip(coefficients, column)), 0)
        for column in zip(*rows)
    ]


@st.composite
def _gf4_sets(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=8))
    extended = [r or [0] * n for r in draw(_extended(rows, 4, _gf4_combination))]
    return [
        GF4Matrix.from_strings(["".join("01wv"[v] for v in r) for r in s], n)
        for s in (rows, extended)
    ]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_gf4_sets())
def test_gf4_count_ignores_dependent_rows_property(sets):
    base, extended = sets
    assert gf4_ebits(extended) == gf4_ebits(base)
    assert gf4_parameters(extended) == gf4_parameters(base)
    assert gf4_parameters(extended).logical >= 0


@st.composite
def _css_sets(draw):
    n = draw(st.integers(1, 8))
    words = st.lists(st.integers(0, (1 << n) - 1), max_size=8)
    h1, h2 = draw(words), draw(words)
    pairs = [(h, draw(_extended(h, 2, _xor_sum))) for h in (h1, h2)]
    return [[BinMatrix(len(w), n, w) for w in pair] for pair in pairs]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_css_sets())
def test_css_count_ignores_dependent_rows_property(sets):
    (h1, e1), (h2, e2) = sets
    assert css_ebits(e1, e2) == css_ebits(h1, h2)
    assert css_parameters(e1, e2) == css_parameters(h1, h2)
    assert css_parameters(e1, e2).logical >= 0
