"""Tests for the binary-pair (CSS) and quaternary classical-code imports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitcalc.classical import (
    css_construct,
    css_ebits,
    css_parameters,
    gf4_ebits,
    gf4_parameters,
    gf4_symplectic_rows,
)
from ebitcalc.errors import ShapeError
from ebitcalc.gf2 import BinMatrix, rank
from ebitcalc.gf4 import GF4Matrix, gf4_mul, gf4_rank
from ebitcalc.symplectic import (
    QuantumCheckMatrix,
    code_parameters,
    ebit_count,
    symplectic_product_table,
)
from ebitcalc.verify import gf4_rank_by_span_enumeration, random_full_rank_matrix
from helpers import random_gf4_matrix

HAMMING_7_4 = BinMatrix.from_strings(["0001111", "0110011", "1010101"])

# gamma inverse per qubit: (z, x) -> w*x + v*z
_GAMMA_INV = {(0, 0): 0, (0, 1): 2, (1, 0): 3, (1, 1): 1}
# conj(x) = x^2 and tr(x) = x + conj(x), indexed by the codes 0, 1, w, v
_CONJ = (0, 1, 3, 2)
_TRACE = (0, 0, 1, 1)


def test_css_construct_repetition():
    h = css_construct(BinMatrix.from_strings(["11"]), BinMatrix.from_strings(["11"]))
    assert h.hz.to_strings() == ["11", "00"]
    assert h.hx.to_strings() == ["00", "11"]


def test_css_construct_single_ones():
    h = css_construct(BinMatrix.from_strings(["10"]), BinMatrix.from_strings(["10"]))
    assert h.hz.to_strings() == ["10", "00"]
    assert h.hx.to_strings() == ["00", "10"]


def test_css_construct_steane():
    h = css_construct(HAMMING_7_4, HAMMING_7_4)
    assert h.generators == 6
    assert h.n == 7
    # dual-containing import: everything commutes
    assert symplectic_product_table(*h) == BinMatrix.zeros(6, 6)


def test_css_construct_shape_mismatch():
    with pytest.raises(ShapeError):
        css_construct(BinMatrix.zeros(1, 2), BinMatrix.zeros(1, 3))


def test_css_ebits_examples():
    assert css_ebits(BinMatrix.from_strings(["11"]), BinMatrix.from_strings(["11"])) == 0
    assert css_ebits(BinMatrix.from_strings(["10"]), BinMatrix.from_strings(["10"])) == 1
    assert css_ebits(HAMMING_7_4, HAMMING_7_4) == 0


def test_css_parameters_steane():
    p = css_parameters(HAMMING_7_4, HAMMING_7_4, 3, 3)
    assert p.bracket() == "[[7, 1, 3; 0]]"
    assert (p.n, p.logical, p.ebits, p.ancillas, p.distance) == (7, 1, 0, 6, 3)


def test_css_parameters_small_cases():
    ten = BinMatrix.from_strings(["10"])
    p = css_parameters(ten, ten)
    assert p.bracket() == "[[2, 1; 1]]"
    assert p.ancillas == 0
    rep = BinMatrix.from_strings(["11"])
    assert css_parameters(rep, rep).bracket() == "[[2, 0; 0]]"
    # distance only reported when both are supplied
    assert css_parameters(ten, ten, d1=3).distance is None


def test_css_degenerate_empty_parity_check():
    # a full-space code (k = n) contributes an empty generator block
    empty = BinMatrix.zeros(0, 3)
    h2 = BinMatrix.from_strings(["101"])
    assert css_ebits(empty, h2) == 0
    q = css_construct(empty, h2)
    assert q.generators == 1
    p = css_parameters(empty, h2)
    assert (p.n, p.logical, p.ebits, p.ancillas) == (3, 2, 0, 1)


@pytest.mark.parametrize("n", [0, 1, 5, 70])
def test_empty_sides_give_empty_products_of_rank_zero(n):
    # An empty side's transpose is an n x 0 matrix, so each product
    # comes out with no rows or no columns, and with rank 0.
    empty, full = BinMatrix.zeros(0, n), BinMatrix.identity(n)
    assert symplectic_product_table(empty, empty) == BinMatrix.zeros(0, 0)
    assert empty @ full.transpose() == BinMatrix.zeros(0, n)
    assert full @ empty.transpose() == BinMatrix.zeros(n, 0)
    assert css_ebits(empty, full) == css_ebits(full, empty) == 0
    quaternary = GF4Matrix.zeros(0, n)
    assert quaternary @ quaternary.conj().transpose() == GF4Matrix.zeros(0, 0)
    assert gf4_ebits(quaternary) == 0


@pytest.mark.parametrize("seed", range(25))
def test_css_formula_matches_construction(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    h1 = random_full_rank_matrix(rng, rng.randint(1, n), n)
    h2 = random_full_rank_matrix(rng, rng.randint(1, n), n)
    assert css_ebits(h1, h2) == ebit_count(css_construct(h1, h2))
    assert css_ebits(h1, h2) == css_ebits(h2, h1)


@settings(derandomize=True, max_examples=100)
@given(st.randoms(use_true_random=False), st.integers(1, 8), st.data())
def test_import_parameters_equal_those_of_the_imported_set(rng, n, data):
    # the [[n, k; c]] of each import is that of the generator set it builds
    rows = st.integers(0, min(6, n))
    h1 = random_full_rank_matrix(rng, data.draw(rows), n)
    h2 = random_full_rank_matrix(rng, data.draw(rows), n)
    assert css_parameters(h1, h2) == code_parameters(css_construct(h1, h2))
    h = random_gf4_matrix(rng, data.draw(rows), n, full_row_rank=True)
    assert gf4_parameters(h) == code_parameters(QuantumCheckMatrix(*gf4_symplectic_rows(h)))


@pytest.mark.parametrize("seed", range(10))
def test_dual_containing_needs_no_ebits(seed):
    # build h with h @ h^T = 0 by duplicating columns
    rng = random.Random(50 + seed)
    half = random_full_rank_matrix(rng, rng.randint(1, 4), rng.randint(4, 6))
    h = half.hstack(half)
    assert css_ebits(h, h) == 0


def test_gamma_map_of_one():
    q = QuantumCheckMatrix(*gf4_symplectic_rows(GF4Matrix.from_strings(["1"])))
    assert (q.hz.to_strings(), q.hx.to_strings()) == (["0", "1"], ["1", "0"])


def test_gamma_map_of_omega():
    q = QuantumCheckMatrix(*gf4_symplectic_rows(GF4Matrix.from_strings(["w"])))
    assert (q.hz.to_strings(), q.hx.to_strings()) == (["1", "1"], ["0", "1"])


def test_gamma_map_two_columns():
    q = QuantumCheckMatrix(*gf4_symplectic_rows(GF4Matrix.from_strings(["01"])))
    assert (q.hz.to_strings(), q.hx.to_strings()) == (["00", "01"], ["01", "00"])


def test_gf4_expansion_of_dependent_rows():
    # rows [w] and [v] are GF(4)-proportional, so their four binary rows
    # span two dimensions, and both imports count that group
    m = GF4Matrix.from_strings(["w", "v"])
    q = QuantumCheckMatrix(*gf4_symplectic_rows(m))
    assert q.generators == 4
    assert code_parameters(q) == gf4_parameters(m) == (1, 2, 1, None)
    assert ebit_count(q) == gf4_ebits(m) == 1


def test_gf4_ebits_examples():
    assert gf4_ebits(GF4Matrix.from_strings(["1"])) == 1
    assert gf4_ebits(GF4Matrix.from_strings(["1w"])) == 0


def test_gf4_ebits_two_by_four():
    # hand computation: H @ H† is the 2x2 identity, rank 2
    m = GF4Matrix.from_strings(["10w1", "01vw"])
    product = m @ m.conj().transpose()
    assert product == GF4Matrix.identity(2)
    assert gf4_rank_by_span_enumeration(product) == 2
    assert gf4_ebits(m) == 2
    assert gf4_ebits(m) == ebit_count(QuantumCheckMatrix(*gf4_symplectic_rows(m)))


def test_gf4_parameters_examples():
    assert gf4_parameters(GF4Matrix.from_strings(["1"])).bracket() == "[[1, 0; 1]]"
    assert gf4_parameters(GF4Matrix.from_strings(["1w"])).bracket() == "[[2, 0; 0]]"
    assert gf4_parameters(GF4Matrix.from_strings(["10w1", "01vw"])).bracket() == "[[4, 2; 2]]"


@pytest.mark.parametrize("seed", range(25))
def test_expansion_rank_identity(seed):
    # rank of the expanded product table is twice the GF(4) rank of H @ H†,
    # with or without independent rows
    rng = random.Random(700 + seed)
    m = random_gf4_matrix(rng, rng.randint(1, 5), rng.randint(1, 8))
    hz, hx = gf4_symplectic_rows(m)
    omega = symplectic_product_table(hz, hx)
    assert rank(omega) == 2 * gf4_rank(m @ m.conj().transpose())


@pytest.mark.parametrize("seed", range(15))
def test_gf4_count_matches_expansion(seed):
    rng = random.Random(800 + seed)
    cols = rng.randint(2, 8)
    m = random_gf4_matrix(rng, rng.randint(1, min(4, cols)), cols, full_row_rank=True)
    assert gf4_ebits(m) == ebit_count(QuantumCheckMatrix(*gf4_symplectic_rows(m)))


@pytest.mark.parametrize("seed", range(10))
def test_trace_product_equals_symplectic_product(seed):
    rng = random.Random(900 + seed)
    n = rng.randint(1, 8)
    z1, x1 = [rng.getrandbits(1) for _ in range(n)], [rng.getrandbits(1) for _ in range(n)]
    z2, x2 = [rng.getrandbits(1) for _ in range(n)], [rng.getrandbits(1) for _ in range(n)]
    symplectic = sum(z1[k] * x2[k] + x1[k] * z2[k] for k in range(n)) % 2
    g1 = [_GAMMA_INV[z, x] for z, x in zip(z1, x1)]
    g2 = [_GAMMA_INV[z, x] for z, x in zip(z2, x2)]
    trace_sum = 0
    for a, b in zip(g1, g2):
        trace_sum ^= _TRACE[gf4_mul(a, _CONJ[b])]
    assert trace_sum == symplectic
