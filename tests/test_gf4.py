"""Tests for GF(4) scalar arithmetic and quaternary matrices."""

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc import gf4
from ebitcalc.classical import gf4_symplectic_rows
from ebitcalc.errors import InternalInvariantError, ShapeError
from ebitcalc.formats import parse_gf4
from ebitcalc.gf2 import BinMatrix, rank
from ebitcalc.gf4 import GF4Matrix, gf4_mul, gf4_rank
from ebitcalc.symplectic import QuantumCheckMatrix, symplectic_product_table
from ebitcalc.verify import gf4_rank_by_span_enumeration
from helpers import random_gf4_matrix

# The codes of 0, 1, w and v = w + 1.
ZERO, ONE, OMEGA, OMEGA_BAR = 0, 1, 2, 3
ELEMENTS = (ZERO, ONE, OMEGA, OMEGA_BAR)
# Addition is XOR of the codes; conjugation fixes 0 and 1 and swaps w and v.
CONJ = (ZERO, ONE, OMEGA_BAR, OMEGA)


def test_field_axioms_exhaustive():
    for a, b in itertools.product(ELEMENTS, repeat=2):
        assert gf4_mul(a, b) == gf4_mul(b, a)
    for a, b, c in itertools.product(ELEMENTS, repeat=3):
        assert gf4_mul(a, gf4_mul(b, c)) == gf4_mul(gf4_mul(a, b), c)
        assert gf4_mul(a, b ^ c) == gf4_mul(a, b) ^ gf4_mul(a, c)
    for a in ELEMENTS:
        assert gf4_mul(a, ONE) == a
        assert gf4_mul(a, ZERO) == ZERO
        if a != ZERO:  # a field: every nonzero element has an inverse
            assert any(gf4_mul(a, b) == ONE for b in ELEMENTS)


def test_omega_relations():
    assert gf4_mul(OMEGA, OMEGA) == OMEGA_BAR  # w^2 = v
    assert OMEGA ^ ONE == OMEGA_BAR  # v = w + 1
    assert gf4_mul(OMEGA, gf4_mul(OMEGA, OMEGA)) == ONE  # w^3 = 1
    assert gf4_mul(OMEGA, OMEGA_BAR) == ONE


def test_conjugation_is_squaring():
    for a in ELEMENTS:
        assert CONJ[a] == gf4_mul(a, a)
    assert GF4Matrix.from_strings(["01wv"]).conj() == GF4Matrix.from_strings(["01vw"])


def test_matrix_string_round_trip():
    m = GF4Matrix.from_strings(["10w1", "01vw"])
    assert str(m).split("\n") == ["10w1", "01vw"]
    assert m.entry(1, 2) == OMEGA_BAR


@pytest.mark.parametrize("seed", range(10))
def test_matmul_matches_scalar_loop(seed):
    rng = random.Random(seed)
    a = random_gf4_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    b = random_gf4_matrix(rng, a.cols, rng.randint(1, 5))
    product = a @ b
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc ^= gf4_mul(a.entry(i, k), b.entry(k, j))
            assert product.entry(i, j) == acc


def test_matmul_is_one_binary_product(monkeypatch):
    # (lo | hi) @ R(N) holds the product's planes side by side.
    shapes = []
    binary_product = BinMatrix.__matmul__

    def counted(left, right):
        shapes.append((left.rows, left.cols, right.cols))
        return binary_product(left, right)

    monkeypatch.setattr(BinMatrix, "__matmul__", counted)
    a = GF4Matrix.from_strings(["1wv", "v01"])
    b = GF4Matrix.from_strings(["w1", "0v", "11"])
    assert a @ b == GF4Matrix.from_strings(["1v", "0w"])
    assert shapes == [(2, 6, 4)]


def test_expansion_and_oracle_use_neither_regular_form_nor_product(monkeypatch):
    # The expansion certifies the quaternary formula, and the enumeration
    # oracle certifies gf4_rank, so neither may share the formula's code.
    m = GF4Matrix.from_strings(["10w1", "01vw", "wv11"])
    expected = (
        gf4_symplectic_rows(m),
        QuantumCheckMatrix(*gf4_symplectic_rows(m)),
        gf4_rank_by_span_enumeration(m),
    )

    def refuse(*args):
        raise AssertionError("the GF(4) product path was called")

    monkeypatch.setattr(gf4, "_regular", refuse)
    monkeypatch.setattr(GF4Matrix, "__matmul__", refuse)
    with pytest.raises(AssertionError):
        gf4_rank(m)
    assert (
        gf4_symplectic_rows(m),
        QuantumCheckMatrix(*gf4_symplectic_rows(m)),
        gf4_rank_by_span_enumeration(m),
    ) == expected


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        GF4Matrix.zeros(2, 3) @ GF4Matrix.zeros(2, 3)


def test_rank_examples():
    assert gf4_rank(GF4Matrix.identity(2)) == 2
    # [w] and [v] rows are proportional
    assert gf4_rank(GF4Matrix.from_strings(["w", "v"])) == 1
    assert gf4_rank(GF4Matrix.zeros(3, 3)) == 0


def test_rank_proportional_rows_oracle_value():
    # enumeration fixes the ground truth: second row is v times the first
    m = GF4Matrix.from_strings(["1w", "v1"])
    assert gf4_rank_by_span_enumeration(m) == 1
    assert gf4_rank(m) == 1


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_span_enumeration(seed):
    rng = random.Random(500 + seed)
    m = random_gf4_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
    assert gf4_rank(m) == gf4_rank_by_span_enumeration(m)


@pytest.mark.parametrize("seed", range(8))
def test_rank_transpose_invariant(seed):
    rng = random.Random(900 + seed)
    m = random_gf4_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert gf4_rank(m) == gf4_rank(m.transpose())


def test_entries_validated():
    with pytest.raises(ValueError, match="invalid GF\\(4\\) symbol '4'"):
        GF4Matrix.from_strings(["04"])


def test_rank_rejects_an_odd_binary_rank(monkeypatch):
    # The rows of M and w*M span a GF(4) space, so their GF(2) rank is
    # even; halving an odd one would silently truncate.
    monkeypatch.setattr(gf4, "rank", lambda m: 3)
    with pytest.raises(InternalInvariantError, match="rank 3"):
        gf4_rank(GF4Matrix.from_strings(["1w"]))


def test_rank_of_empty_rows_costs_nothing_per_column():
    # A column sweep over 10^7 columns with no rows takes seconds.
    m = GF4Matrix.zeros(0, 10**7)
    start = time.perf_counter()
    assert gf4_rank(m) == 0
    assert time.perf_counter() - start < 0.5


def test_planes_hold_the_coefficients_of_one_and_omega():
    m = GF4Matrix.from_strings(["01wv"])
    assert m.lo.to_strings() == ["0101"]
    assert m.hi.to_strings() == ["0011"]
    assert GF4Matrix(m.lo, m.hi) == m


def test_constructor_takes_two_binary_planes_of_one_shape():
    lo = BinMatrix.from_strings(["0101"])
    with pytest.raises(ShapeError, match="identical shape"):
        GF4Matrix(lo, lo.transpose())
    for planes in ((lo, [[0, 0, 1, 1]]), ([[0, 1, 0, 1]], lo), ("0101", "0011")):
        with pytest.raises(TypeError, match="BinMatrix"):
            GF4Matrix(*planes)


# -- properties of the two-plane representation ------------------------


@st.composite
def gf4_matrices(draw, rows=None, max_side=6):
    rows = draw(st.integers(0, max_side)) if rows is None else rows
    cols = draw(st.integers(0, max_side))
    line = st.text("01wv", min_size=cols, max_size=cols)
    return GF4Matrix.from_strings(draw(st.lists(line, min_size=rows, max_size=rows)), cols)


@st.composite
def gf4_products(draw):
    a = draw(gf4_matrices())
    return a, draw(gf4_matrices(rows=a.cols))


# Empty and single-entry shapes are tried on every run, not left to chance.
EDGE_SHAPES = [
    GF4Matrix.zeros(0, 4),
    GF4Matrix.zeros(4, 0),
    GF4Matrix.zeros(0, 0),
    GF4Matrix.from_strings(["w"]),
]


def with_edge_shapes(test):
    for m in EDGE_SHAPES:
        test = example(m)(test)
    return test


@settings(derandomize=True, max_examples=150)
@given(gf4_products())
@example((GF4Matrix.zeros(0, 3), GF4Matrix.zeros(3, 2)))
@example((GF4Matrix.zeros(3, 0), GF4Matrix.zeros(0, 3)))
@example((GF4Matrix.zeros(2, 3), GF4Matrix.zeros(3, 0)))
@example((GF4Matrix.from_strings(["w"]), GF4Matrix.from_strings(["v"])))
def test_matmul_matches_scalar_loop_property(pair):
    a, b = pair
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc ^= gf4_mul(a.entry(i, k), b.entry(k, j))
            assert product.entry(i, j) == acc


@settings(derandomize=True, max_examples=150)
@given(gf4_matrices())
@with_edge_shapes
def test_rank_transpose_invariant_property(m):
    assert gf4_rank(m) == gf4_rank(m.transpose())


@settings(derandomize=True, max_examples=150)
@given(gf4_matrices())
@with_edge_shapes
def test_hermitian_rank_is_half_the_binary_rank_property(h):
    # The paper's quaternary corollary: rank over GF(4) of H H-dagger is
    # half the GF(2) rank of the symplectic products of the expansion.
    z, x = gf4_symplectic_rows(h)
    assert 2 * gf4_rank(h @ h.conj().transpose()) == rank(symplectic_product_table(z, x))


@settings(derandomize=True, max_examples=150)
@given(gf4_matrices())
@with_edge_shapes
def test_expansion_maps_each_entry_to_its_bit_pair_property(h):
    # Row block b of the expansion holds s*H for s = w, then v, and an
    # entry x*w + z*v of it becomes the bit pair (Z, X) = (z, x).
    bit_pair = {
        gf4_mul(x, OMEGA) ^ gf4_mul(z, OMEGA_BAR): (z, x)
        for x in (0, 1)
        for z in (0, 1)
    }
    hz, hx = gf4_symplectic_rows(h)
    assert (hz.rows, hz.cols) == (hx.rows, hx.cols) == (2 * h.rows, h.cols)
    for b, s in enumerate((OMEGA, OMEGA_BAR)):
        for i in range(h.rows):
            for j in range(h.cols):
                row = b * h.rows + i
                expected = bit_pair[gf4_mul(s, h.entry(i, j))]
                assert (hz.entry(row, j), hx.entry(row, j)) == expected


@settings(derandomize=True, max_examples=150)
@given(gf4_matrices())
@with_edge_shapes
def test_parse_and_str_round_trip_property(m):
    body = str(m).split("\n") if m.rows and m.cols else [""] * m.rows
    text = "\n".join([f"gf4 {m.rows} {m.cols}", *body]) + "\n"
    assert parse_gf4(text) == m
