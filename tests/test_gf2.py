"""Tests for the bit-packed GF(2) matrix core."""

import bisect
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc.errors import ShapeError
from ebitcalc.gf2 import (
    BinMatrix,
    bits_to_word,
    independent_flags,
    rank,
    row_reduce,
    word_to_bits,
)
from ebitcalc.verify import rank_by_span_enumeration
from helpers import random_bin_matrix


@st.composite
def bin_matrices(draw, max_side=9):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BinMatrix(rows, cols, words)


# Empty and single-entry shapes are tried on every run, not left to chance.
EDGE_SHAPES = [
    BinMatrix.zeros(0, 4),
    BinMatrix.zeros(4, 0),
    BinMatrix.zeros(0, 0),
    BinMatrix(1, 1, [0]),
    BinMatrix(1, 1, [1]),
]


def with_edge_shapes(test):
    for m in EDGE_SHAPES:
        test = example(m)(test)
    return test


# Sides on both sides of a product block (8 right-hand rows) and of a
# 64-bit word, among all sides up to 140.
KERNEL_SIDES = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 129]), st.integers(0, 140))
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def kernel_matrices(draw):
    """Random matrices on KERNEL_SIDES: tall, wide, one tile or several."""
    rows, cols, seed = draw(KERNEL_SIDES), draw(KERNEL_SIDES), draw(SEEDS)
    return random_bin_matrix(random.Random(seed), rows, cols)


SMALL_AND_KERNEL_MATRICES = st.one_of(bin_matrices(), kernel_matrices())

# Constant 5x5 matrix reused across modules: ones at (0,1),(1,0),(3,4),(4,3).
SHIFTED_5X5 = ["01000", "10000", "00000", "00001", "00010"]


def _random_invertible(rng, n):
    data = [1 << i for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            data[j] ^= data[i]
    rng.shuffle(data)
    return BinMatrix(n, n, data)


def test_matmul_identity():
    rng = random.Random(1)
    m = random_bin_matrix(rng, 3, 6)
    assert BinMatrix.identity(3) @ m == m


def test_matmul_one_plus_one_cancels():
    row = BinMatrix.from_strings(["11"])
    assert row @ row.transpose() == BinMatrix.from_strings(["0"])


def test_matmul_hand_example():
    a = BinMatrix.from_strings(["10", "11"])
    b = BinMatrix.from_strings(["11", "01"])
    assert (a @ b).to_rows() == [[1, 1], [1, 0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        BinMatrix.zeros(2, 3) @ BinMatrix.zeros(2, 3)


def test_row_reduce_zero_matrix():
    red = row_reduce(BinMatrix.zeros(4, 4))
    assert red.rank == 0
    assert red.pivots == ()
    assert red.reduced == BinMatrix.zeros(4, 4)


def test_row_reduce_identity():
    red = row_reduce(BinMatrix.identity(5))
    assert red.rank == 5
    assert red.transform == BinMatrix.identity(5)
    assert red.reduced == BinMatrix.identity(5)


def test_row_reduce_shifted_5x5_rank_four():
    assert row_reduce(BinMatrix.from_strings(SHIFTED_5X5)).rank == 4


@pytest.mark.parametrize("seed", range(8))
def test_row_reduce_contract(seed):
    rng = random.Random(seed)
    m = random_bin_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
    red = row_reduce(m)
    # transform reproduces the reduced form and is invertible
    assert red.transform @ m == red.reduced
    assert row_reduce(red.transform).rank == m.rows
    # reduced row-echelon structure
    assert list(red.pivots) == sorted(red.pivots)
    for r, c in enumerate(red.pivots):
        col = [red.reduced.entry(i, c) for i in range(m.rows)]
        assert col == [1 if i == r else 0 for i in range(m.rows)]
    for i in range(red.rank, m.rows):
        assert red.reduced.row_bits(i) == 0
    assert red.rank == len(red.pivots) == rank(m)


def test_rank_identity_and_swap():
    assert rank(BinMatrix.identity(7)) == 7
    assert rank(BinMatrix.from_strings(["01", "10"])) == 2


def test_rank_duplicate_rows():
    m = BinMatrix.from_strings(["011", "100", "100"])
    assert rank(m) == 2
    assert rank_by_span_enumeration(m) == 2


@pytest.mark.parametrize("seed", range(10))
def test_rank_transpose_invariant(seed):
    rng = random.Random(100 + seed)
    m = random_bin_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
    assert rank(m) == rank(m.transpose())


@pytest.mark.parametrize("seed", range(10))
def test_rank_direct_sum_adds(seed):
    rng = random.Random(200 + seed)
    a = random_bin_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
    b = random_bin_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    # block diagonal: b's rows shifted past a's columns
    words = [a.row_bits(i) for i in range(a.rows)]
    words += [b.row_bits(i) << a.cols for i in range(b.rows)]
    assert rank(BinMatrix(a.rows + b.rows, a.cols + b.cols, words)) == rank(a) + rank(b)


@pytest.mark.parametrize("seed", range(10))
def test_rank_invariant_under_invertible_transform(seed):
    rng = random.Random(300 + seed)
    m = random_bin_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    t = _random_invertible(rng, m.rows)
    assert rank(t @ m) == rank(m)


def test_empty_matrices_are_legal():
    for m in (BinMatrix.zeros(0, 5), BinMatrix.zeros(5, 0), BinMatrix.zeros(0, 0)):
        assert rank(m) == 0
        assert row_reduce(m).rank == 0
    tall = BinMatrix.zeros(3, 0)
    wide = BinMatrix.zeros(0, 4)
    assert (tall @ wide).to_rows() == [[0, 0, 0, 0]] * 3
    assert (wide @ BinMatrix.zeros(4, 2)).rows == 0


def test_empty_rows_cost_nothing_per_column():
    # A column sweep over 10^7 columns with no rows takes seconds.
    m = BinMatrix(0, 10**7, ())
    start = time.perf_counter()
    assert row_reduce(m).rank == 0
    assert rank(m) == 0
    assert time.perf_counter() - start < 0.5


def test_string_round_trip():
    m = BinMatrix.from_strings(["0110", "1001"])
    assert m.to_strings() == ["0110", "1001"]
    assert BinMatrix.from_strings(m.to_strings()) == m
    assert m.entry(0, 1) == 1
    assert m.entry(1, 1) == 0


def test_transpose_involution():
    rng = random.Random(4)
    m = random_bin_matrix(rng, 5, 3)
    assert m.transpose().transpose() == m


def test_stacking_shapes():
    a = BinMatrix.from_strings(["10", "01"])
    b = BinMatrix.from_strings(["11", "00"])
    assert a.hstack(b).to_strings() == ["1011", "0100"]
    assert a.vstack(b).to_strings() == ["10", "01", "11", "00"]
    with pytest.raises(ShapeError):
        a.hstack(BinMatrix.zeros(3, 2))
    with pytest.raises(ShapeError):
        a.vstack(BinMatrix.zeros(2, 3))


@st.composite
def _row_matched_pairs(draw):
    a = draw(bin_matrices())
    cols = draw(st.integers(0, 9))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=a.rows, max_size=a.rows))
    return a, BinMatrix(a.rows, cols, words)


@settings(derandomize=True, max_examples=150)
@given(_row_matched_pairs())
@example((BinMatrix.zeros(3, 0), BinMatrix(3, 2, [1, 2, 3])))
@example((BinMatrix(3, 2, [1, 2, 3]), BinMatrix.zeros(3, 0)))
@example((BinMatrix.zeros(0, 2), BinMatrix.zeros(0, 3)))
def test_hsplit_undoes_hstack_property(pair):
    a, b = pair
    assert a.hstack(b).hsplit(a.cols) == (a, b)


def test_hsplit_rejects_a_split_outside_the_columns():
    m = BinMatrix.identity(3)
    for cols in (-1, 4):
        with pytest.raises(ShapeError, match=f"split 3 columns at {cols}"):
            m.hsplit(cols)


def test_first_dependent_row():
    # the first False flag: a zero row, or a row in the span of those above
    assert list(independent_flags([1, 2, 4])) == [True, True, True]
    assert list(independent_flags([0, 1])) == [False, True]
    assert list(independent_flags([3, 1, 2])) == [True, True, False]


def test_bad_entries_rejected():
    with pytest.raises(ShapeError):
        BinMatrix(1, 2, [4])  # bit outside the two columns
    # zeros and identity skip the per-word check, not the shape check
    for build in (lambda: BinMatrix.zeros(-1, 2), lambda: BinMatrix.identity(-1)):
        with pytest.raises(ShapeError, match="nonnegative"):
            build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BinMatrix.zeros(2, 1.5), ShapeError, "got 1.5"),
        (lambda: BinMatrix(2, 1.5, [1, 0]), ShapeError, "got 1.5"),
        (lambda: BinMatrix.identity("2"), ShapeError, "got '2'"),
        (lambda: BinMatrix(2, 3, [0, 1.0]), ValueError, "row 1 is not an integer: 1.0"),
        (lambda: BinMatrix(1, 3, ["1"]), ValueError, "row 0 is not an integer: '1'"),
    ],
    ids=["zeros-cols", "cols", "identity", "float-word", "str-word"],
)
def test_non_integer_dimensions_and_words_rejected(build, error, message):
    # Each ended in AttributeError or TypeError, or built a matrix with a
    # float column count that rank then miscounted.
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("integer", [int, np.int64, np.uint8, bool], ids=lambda t: t.__name__)
def test_integer_like_dimensions_and_words_stored_as_ints(integer):
    one = integer(1)
    m = BinMatrix(one + one, 3 * one, [5 * one, one])
    assert m == BinMatrix.from_strings(["101", "100"])
    assert {type(v) for v in (m.rows, m.cols, m.row_bits(0), m.row_bits(1))} == {int}
    assert (rank(m), m.transpose().rows) == (2, 3)


def test_bits_and_words_round_trip():
    assert bits_to_word("") == 0
    assert bits_to_word("1") == 1
    assert bits_to_word("0010") == 4  # character j is bit j
    assert word_to_bits(4, 4) == "0010"
    assert word_to_bits(0, 0) == ""
    assert word_to_bits(0, 3) == "000"


def test_bits_to_word_names_first_stray_character():
    with pytest.raises(ValueError, match="invalid binary digit 'x'"):
        bits_to_word("01x1y")
    # int(..., 2) alone would accept all of these
    for text in (" 1", "1_0", "+1", "0b1", "-1"):
        with pytest.raises(ValueError, match="invalid binary digit"):
            bits_to_word(text)


def test_from_strings_rejects_bad_rows():
    with pytest.raises(ShapeError):
        BinMatrix.from_strings(["10", "1"])
    with pytest.raises(ValueError):
        BinMatrix.from_strings(["12"])
    assert BinMatrix.from_strings([]) == BinMatrix.zeros(0, 0)
    assert BinMatrix.from_strings([], cols=3) == BinMatrix.zeros(0, 3)


def test_transpose_of_empty_shapes():
    assert BinMatrix.zeros(0, 3).transpose() == BinMatrix.zeros(3, 0)
    assert BinMatrix.zeros(3, 0).transpose() == BinMatrix.zeros(0, 3)
    assert BinMatrix.zeros(0, 0).transpose() == BinMatrix.zeros(0, 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SMALL_AND_KERNEL_MATRICES)
@with_edge_shapes
def test_transpose_involution_property(m):
    assert m.transpose().transpose() == m


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SMALL_AND_KERNEL_MATRICES)
@with_edge_shapes
def test_transpose_swaps_entries(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    for i in range(m.rows):
        for j in range(m.cols):
            assert t.entry(j, i) == m.entry(i, j)


@settings(derandomize=True, max_examples=150)
@given(bin_matrices())
@with_edge_shapes
def test_strings_round_trip_property(m):
    strings = m.to_strings()
    assert all(len(line) == m.cols for line in strings)
    assert BinMatrix.from_strings(strings, cols=m.cols) == m
    assert strings == ["".join(map(str, row)) for row in m.to_rows()]


def test_entry_and_row_bits_reject_rows_out_of_range():
    m = BinMatrix.from_strings(["10", "01"])
    for i in (-1, -2, 2, 10):
        with pytest.raises(IndexError, match=rf"row {i} out of range"):
            m.entry(i, 1)
        with pytest.raises(IndexError, match=rf"row {i} out of range"):
            m.row_bits(i)
    with pytest.raises(IndexError, match="column -1 out of range"):
        m.entry(0, -1)
    with pytest.raises(IndexError, match="row 0 out of range"):
        BinMatrix.zeros(0, 3).row_bits(0)
    assert [m.entry(i, 1) for i in range(2)] == [0, 1]


# The references below read and compare entries through to_rows(), so
# neither touches the product or transpose kernel.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(KERNEL_SIDES, KERNEL_SIDES, SEEDS)
@example(0, 9, 0)
@example(9, 0, 0)
@example(1, 300, 1)
@example(300, 1, 2)
@example(129, 65, 3)
def test_transpose_matches_entry_swap(rows, cols, seed):
    m = random_bin_matrix(random.Random(seed), rows, cols)
    entries = m.to_rows()
    swapped = [[entries[i][j] for i in range(rows)] for j in range(cols)]
    t = m.transpose()
    assert (t.rows, t.cols, t.to_rows()) == (cols, rows, swapped)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(KERNEL_SIDES, KERNEL_SIDES, KERNEL_SIDES, SEEDS)
@example(0, 9, 5, 0)
@example(5, 0, 9, 0)
@example(5, 9, 0, 0)
@example(1, 300, 9, 1)
@example(300, 1, 300, 2)
@example(9, 300, 1, 3)
@example(65, 129, 64, 4)
def test_matmul_matches_entrywise_product(rows, inner, cols, seed):
    rng = random.Random(seed)
    a = random_bin_matrix(rng, rows, inner)
    b = random_bin_matrix(rng, inner, cols)
    columns = list(zip(*b.to_rows())) if inner else [()] * cols
    product = [[sum(x & y for x, y in zip(row, col)) & 1 for col in columns] for row in a.to_rows()]
    p = a @ b
    assert (p.rows, p.cols, p.to_rows()) == (rows, cols, product)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(KERNEL_SIDES, KERNEL_SIDES, SEEDS)
@example(0, 9, 0)
@example(9, 0, 0)
@example(300, 9, 1)
@example(9, 300, 2)
@example(129, 65, 3)
def test_rank_and_first_dependent_row_match_row_reduce(rows, cols, seed):
    # Some rows are planted as the sum of a few earlier ones (none: a zero row).
    rng = random.Random(seed)
    words = [rng.getrandbits(cols) for _ in range(rows)]
    for i in range(rows):
        if rng.random() < 0.1:
            words[i] = 0
            for k in rng.sample(range(i), min(i, rng.randrange(4))):
                words[i] ^= words[k]
    m = BinMatrix(rows, cols, words)
    assert rank(m) == row_reduce(m).rank

    def prefix_dependent(k):
        return row_reduce(BinMatrix(k, cols, words[:k])).rank < k

    # the shortest prefix whose rank stops growing ends in the first dependent row
    shortest = bisect.bisect_left(range(rows + 1), True, key=prefix_dependent)
    assert [*independent_flags(words), False].index(False) == shortest - 1


@pytest.mark.parametrize("rows, cols", [(2**20, 1), (1, 2**20)])
def test_thin_transpose_is_fast_and_small(rows, cols):
    # Through one '0'/'1' string per row, 2^20 x 1 took 1.0-1.75 s and
    # peaked at 128 MB; the block-swap transpose takes 0.02-0.13 s here.
    m = random_bin_matrix(random.Random(rows), rows, cols)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        t = m.transpose()
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.5, f"transpose took {min(elapsed):.2f} s"
    tracemalloc.start()
    try:
        m.transpose()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10**6, f"transpose peaked at {peak / 1e6:.1f} MB"
    # one row and one column hold the same bits in the same order
    assert (t.rows, t.cols) == (cols, rows)
    assert "".join(t.to_strings()) == "".join(m.to_strings())


def test_product_with_many_short_left_rows_stays_small():
    # The result alone takes about 13 MB; holding one bytes object per
    # left row as well peaked at 32.5 MB.
    rng = random.Random(18)
    a = random_bin_matrix(rng, 2**18, 4)
    b = random_bin_matrix(rng, 4, 64)
    tracemalloc.start()
    try:
        product = a @ b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (product.rows, product.cols) == (2**18, 64)
    for _ in range(500):
        i = rng.randrange(2**18)
        expected = 0
        for k in range(4):
            if a.entry(i, k):
                expected ^= b.row_bits(k)
        assert product.row_bits(i) == expected
    assert peak < 20 * 10**6, f"product peaked at {peak / 1e6:.1f} MB"
