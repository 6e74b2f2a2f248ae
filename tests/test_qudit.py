"""Tests for edit counts over prime moduli."""

import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc.errors import ShapeError, UnsupportedModulusError
from ebitcalc.gf2 import BinMatrix, rank
from ebitcalc.qudit import ModMatrix, mod_rank, qudit_ebits
from ebitcalc.symplectic import ebit_count, symplectic_product_table
from ebitcalc.verify import random_check_matrix


def _random_mod_pair(rng, d, generators, n):
    hz = ModMatrix(
        [[rng.randrange(d) for _ in range(n)] for _ in range(generators)], d
    )
    hx = ModMatrix(
        [[rng.randrange(d) for _ in range(n)] for _ in range(generators)], d
    )
    return hz, hx


def test_single_generator_needs_no_edit():
    hz = ModMatrix([[1]], 3)
    hx = ModMatrix([[0]], 3)
    assert qudit_ebits(hz, hx) == 0


def test_anticommuting_pair_mod_three():
    hz = ModMatrix([[1], [0]], 3)
    hx = ModMatrix([[0], [1]], 3)
    assert qudit_ebits(hz, hx) == 1


def test_composite_modulus_rejected():
    for d in (4, 6, 9, 1, 0):
        with pytest.raises(UnsupportedModulusError):
            ModMatrix([[1]], d)


def test_primality_is_exact_on_small_moduli():
    primes = [d for d in range(2, 2000) if all(d % f for f in range(2, int(d**0.5) + 1))]
    accepted = []
    for d in range(2000):
        try:
            ModMatrix([[1]], d)
        except UnsupportedModulusError:
            continue
        accepted.append(d)
    assert accepted == primes


def test_pseudoprime_moduli_rejected():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
    for d in (561, 3215031751):
        with pytest.raises(UnsupportedModulusError):
            ModMatrix([[1]], d)


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    m = ModMatrix([[1]], 2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert m.modulus == 2**61 - 1


# psi_13 is the least number that passes Miller-Rabin to the first 13
# prime bases without being prime, so below it the test is a proof.
PSI_13 = 3317044064679887385961981


def test_modulus_from_psi13_rejected():
    assert PSI_13 == 1287836182261 * 2575672364521
    for d in (PSI_13, PSI_13 + 1, 2**89 - 1):  # the last is prime
        with pytest.raises(UnsupportedModulusError, match="not a proof"):
            ModMatrix([[1]], d)
    assert ModMatrix([[1]], 2**64 - 59).modulus == 2**64 - 59  # prime, above int64


@pytest.mark.parametrize("value", [2.7, 2.0, "3"])
def test_non_integer_entries_rejected(value):
    with pytest.raises(ValueError, match=r"entry \(1,0\) is not an integer"):
        ModMatrix([[1, 0], [value, 1]], 5)


def test_non_integer_modulus_rejected():
    with pytest.raises(UnsupportedModulusError, match="not an integer"):
        ModMatrix([[1]], 7.0)


def test_numpy_integer_entries_accepted():
    m = ModMatrix([[np.int64(8), np.int64(-1)]], np.int64(7))
    assert (m.modulus, m.to_rows()) == (7, [[1, 6]])


def _python_rank(rows, d):
    """Rank over Z_d by elimination on Python ints, which cannot overflow."""
    work = [[v % d for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        hit = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if hit is None:
            continue
        work[rank], work[hit] = work[hit], work[rank]
        inv = pow(work[rank][col], -1, d)
        work[rank] = [v * inv % d for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(v - f * p) % d for v, p in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_large_modulus_products_do_not_wrap():
    # omega[0, 1] = -(d-1)^2 = -1 mod d, but (d-1)^2 wraps to 4d in int64
    d = 2**61 - 1
    hz = ModMatrix([[-1], [0]], d)
    hx = ModMatrix([[0], [-1]], d)
    assert qudit_ebits(hz, hx) == 1
    assert mod_rank(ModMatrix([[d - 1, d - 1], [1, d - 1]], d)) == 2
    # each product fits int64 at this d, but their sum (d-1)^2 + (d-2)(d+1)/2,
    # which is 0 mod d, does not: wrapped, it would read as one edit
    d = 3037000493
    hz = ModMatrix([[d - 1, d - 2], [0, 0]], d)
    hx = ModMatrix([[0, 0], [d - 1, (d + 1) // 2]], d)
    assert qudit_ebits(hz, hx) == 0


# 3037000493 is the largest prime with (d-1)^2 in int64, so one product fits
# int64 and a sum of two does not; 2**63 - 25 is the largest prime in int64.
@pytest.mark.parametrize("d", [3037000493, 2**61 - 1, 2**63 - 25])
@pytest.mark.parametrize("seed", range(6))
def test_large_modulus_agrees_with_python_ints(d, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    generators = rng.randint(1, 2 * n)
    pick = lambda: rng.choice([0, 1, d - 1, d - 2, rng.randrange(d)])  # noqa: E731
    z = [[pick() for _ in range(n)] for _ in range(generators)]
    x = [[pick() for _ in range(n)] for _ in range(generators)]
    omega = [
        [sum(a * b - c * e for c, a, b, e in zip(z[i], x[i], z[j], x[j])) for j in range(generators)]
        for i in range(generators)
    ]
    count = qudit_ebits(ModMatrix(z, d), ModMatrix(x, d))
    assert count == _python_rank(omega, d) // 2
    assert mod_rank(ModMatrix(z, d)) == _python_rank(z, d)


@pytest.mark.parametrize("seed", range(3))
def test_proportional_rows_commute_at_large_modulus(seed):
    # row 2 = 2 * row 1, so the exact product matrix is zero
    d = 3037000493
    rng = random.Random(seed)
    z = [rng.randrange(d) for _ in range(40)]
    x = [rng.randrange(d) for _ in range(40)]
    hz = ModMatrix([z, [2 * v for v in z]], d)
    hx = ModMatrix([x, [2 * v for v in x]], d)
    assert qudit_ebits(hz, hx) == 0


def test_entries_beyond_int64_reduced_mod_d():
    m = ModMatrix([[10**30, -(10**30)]], 7)
    assert (m.entry(0, 0), m.entry(0, 1)) == (10**30 % 7, -(10**30) % 7)


def test_shape_and_modulus_mismatch():
    with pytest.raises(ShapeError):
        qudit_ebits(ModMatrix([[1]], 3), ModMatrix([[1]], 5))
    with pytest.raises(ShapeError):
        qudit_ebits(ModMatrix([[1]], 3), ModMatrix([[1, 0]], 3))
    with pytest.raises(ShapeError):
        qudit_ebits(ModMatrix([], 3, 1), ModMatrix([], 3, 2))
    for ragged in ([[1], [1, 0]], [1, 0]):
        with pytest.raises(ShapeError):
            ModMatrix(ragged, 3)
    with pytest.raises(ShapeError):
        ModMatrix([[1]], 3, 2)


def test_negative_column_count_rejected():
    with pytest.raises(ShapeError):
        ModMatrix([], 3, -1)


@pytest.mark.parametrize(
    "cols, expected",
    [(np.int64(2), 2), (True, 1), (1.5, None), (2.0, None), ("2", None)],
    ids=["numpy-int", "bool", "float", "integral-float", "str"],
)
def test_column_count_must_be_an_integer(cols, expected):
    if expected is None:
        with pytest.raises(ShapeError, match="nonnegative integers"):
            ModMatrix([], 3, cols)
    else:
        m = ModMatrix([], 3, cols)
        assert (m.cols, type(m.cols)) == (expected, int)


def test_equal_grids_compare_and_hash_equal():
    m = ModMatrix([[1, 2], [0, 1]], 3)
    same = ModMatrix([[4, -1], [3, 1]], 3)
    assert m == same and hash(m) == hash(same)
    assert m != ModMatrix([[1, 2], [0, 2]], 3)
    assert ModMatrix([[1, 0]], 3) != ModMatrix([[1, 0]], 5)
    assert ModMatrix([], 3, cols=2) == ModMatrix([], 3, cols=2)
    assert ModMatrix([], 3, cols=2) != ModMatrix([], 3, cols=4)
    assert m != m.to_rows() and m != "ModMatrix"


def test_entries_reduced_mod_d():
    m = ModMatrix([[5, -1]], 3)
    assert (m.entry(0, 0), m.entry(0, 1)) == (2, 2)


def test_mod_rank_examples():
    assert mod_rank(ModMatrix([[1, 2], [2, 4]], 5)) == 1
    assert mod_rank(ModMatrix([[1, 0], [0, 1]], 7)) == 2
    assert mod_rank(ModMatrix([[0, 0], [0, 0]], 3)) == 0


@pytest.mark.parametrize("seed", range(30))
def test_mod_two_agrees_with_binary_count(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
    hz = ModMatrix(h.hz.to_rows(), 2)
    hx = ModMatrix(h.hx.to_rows(), 2)
    assert qudit_ebits(hz, hx) == ebit_count(h)


@st.composite
def _binary_pairs(draw):
    """(Z rows, X rows, n) as digit strings: any rows, dependent or zero ones included."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 12))
    block = st.lists(st.text("01", min_size=n, max_size=n), min_size=m, max_size=m)
    return draw(block), draw(block), n


@settings(derandomize=True, max_examples=100)
@given(_binary_pairs())
@example(([], [], 0))
@example(([], [], 3))
@example((["", ""], ["", ""], 0))
@example((["1"], ["1"], 1))
def test_mod_two_equals_binary_count_property(pair):
    z, x, n = pair
    hz, hx = BinMatrix.from_strings(z, n), BinMatrix.from_strings(x, n)
    qz, qx = (ModMatrix([list(map(int, line)) for line in v], 2, n) for v in (z, x))
    assert 2 * qudit_ebits(qz, qx) == rank(symplectic_product_table(hz, hx))


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("seed", range(10))
def test_product_antisymmetric_and_even_rank(d, seed):
    rng = random.Random(100 * d + seed)
    n = rng.randint(1, 6)
    hz, hx = _random_mod_pair(rng, d, rng.randint(1, 2 * n), n)
    z, x = np.array(hz.to_rows()), np.array(hx.to_rows())
    omega = (x @ z.T - z @ x.T) % d
    assert not ((omega + omega.T) % d).any()
    assert np.diag(omega).sum() == 0
    r = mod_rank(ModMatrix(omega, d))
    assert r % 2 == 0
    assert qudit_ebits(hz, hx) == r // 2


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("seed", range(5))
def test_row_scaling_leaves_count_unchanged(d, seed):
    rng = random.Random(999 * d + seed)
    n = rng.randint(1, 5)
    generators = rng.randint(1, 2 * n)
    hz, hx = _random_mod_pair(rng, d, generators, n)
    row = rng.randrange(generators)
    factor = rng.randrange(1, d)

    def scaled(m):
        grid = m.to_rows()
        grid[row] = [v * factor for v in grid[row]]
        return ModMatrix(grid, d)

    assert qudit_ebits(scaled(hz), scaled(hx)) == qudit_ebits(hz, hx)


# The lanes of the packed rows are whole bytes; at these primes the lane
# widths of the product and of elimination cross byte boundaries.
_LANE_PRIMES = [2, 3, 5, 7, 17, 251, 257, 65521, 2**31 - 1, 2**61 - 1]


@st.composite
def _residue_grids(draw, blocks=1):
    """(rows, n, d): any grid of ``blocks * n`` residue columns, 0 rows or 0
    columns included."""
    d = draw(st.sampled_from(_LANE_PRIMES))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.sampled_from([0, 1, d - 1]) | st.integers(0, d - 1)
    row = st.lists(entry, min_size=blocks * n, max_size=blocks * n)
    return draw(st.lists(row, min_size=m, max_size=m)), n, d


@settings(derandomize=True, max_examples=300)
@given(_residue_grids())
@example(([], 0, 3))
@example(([], 4, 2**61 - 1))
@example(([[], [], []], 0, 5))
@example(([[2**61 - 2, 1], [1, 2**61 - 2]], 2, 2**61 - 1))
@example(([[256] * 2] * 5, 2, 257))  # more rows than columns
@example(([[65520] * 5] * 2, 5, 65521))  # more columns than rows
@example(([[250] * 7] * 7, 7, 251))
def test_mod_rank_equals_python_rank_property(grid):
    rows, n, d = grid
    m = ModMatrix(rows, d, n)
    assert (m.rows, m.cols) == (len(rows), n)
    assert mod_rank(m) == _python_rank(rows, d)


@settings(derandomize=True, max_examples=300)
@given(_residue_grids(blocks=2))
@example(([], 3, 7))
@example(([[], []], 0, 17))
@example(([[2**61 - 2] * 6] * 5, 3, 2**61 - 1))
@example(([[1, 0, 2**31 - 2, 0], [0, 1, 0, 2**31 - 2]], 2, 2**31 - 1))
def test_qudit_ebits_equals_numpy_reference_property(grid):
    # numpy builds the reference product matrix on Python ints (object
    # dtype), so it is exact at every modulus
    rows, n, d = grid
    z = np.array([row[:n] for row in rows], dtype=object).reshape(len(rows), n)
    x = np.array([row[n:] for row in rows], dtype=object).reshape(len(rows), n)
    omega = (x @ z.T - z @ x.T) % d
    count = qudit_ebits(ModMatrix(z.tolist(), d, n), ModMatrix(x.tolist(), d, n))
    assert 2 * count == _python_rank(omega.tolist(), d)


def test_benchmark_shape_is_fast():
    # the shape of the benchmark's qudit calls: 110 generators on 128 qudits
    hz, hx = _random_mod_pair(random.Random(7), 7, 110, 128)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        count = qudit_ebits(hz, hx)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
    assert count == 55
