"""Tests for delay-polynomial matrices and the convolutional count formulas."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc import (
    BinMatrix,
    DegreeLimitError,
    GF4Matrix,
    InternalInvariantError,
    LaurentCheckMatrix,
    LaurentMatrix,
    LaurentPoly,
    OddRankError,
    ShapeError,
    conv_ebits,
    css_conv_ebits,
    ebit_count,
    gf4_conj,
    gf4_conv_ebits,
    gf4_ebits,
    gf4_mul,
    gf4_rank,
    laurent_rank,
    rank,
    shifted_symplectic_matrix,
)
from ebitcalc.formats import parse_conv_pair, parse_poly
from ebitcalc.laurent import _exact_quotient, _gram
from ebitcalc.verify import (
    laurent_rank_by_evaluation,
    random_check_matrix,
    random_gf4_matrix,
)

DATA = Path(__file__).parent / "data"

ONE_PLUS_D = LaurentPoly.from_exponents([0, 1])

SHIFTED_5X5_EXPECTED = BinMatrix.from_rows(
    [
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ]
)


def _golden_pair() -> LaurentCheckMatrix:
    return parse_conv_pair((DATA / "conv5x5.conv").read_text())


def _random_poly(rng, lo=-3, hi=3, gf4=False):
    if rng.random() < 0.45:
        return LaurentPoly.zero()
    terms = [
        (rng.randint(lo, hi), rng.randrange(1, 4) if gf4 else 1)
        for _ in range(rng.randint(1, 3))
    ]
    return LaurentPoly(terms)


def _random_laurent_pair(rng, max_n=6, gf4=False):
    n = rng.randint(1, max_n)
    generators = rng.randint(1, min(2 * n, 6))
    hz = LaurentMatrix(
        [[_random_poly(rng, gf4=gf4) for _ in range(n)] for _ in range(generators)]
    )
    hx = LaurentMatrix(
        [[_random_poly(rng, gf4=gf4) for _ in range(n)] for _ in range(generators)]
    )
    return LaurentCheckMatrix(hz, hx)


# -- arithmetic -------------------------------------------------------------


def test_characteristic_two_addition():
    assert not ONE_PLUS_D + ONE_PLUS_D


def test_substitute_inverse():
    assert ONE_PLUS_D.subs_inverse() == LaurentPoly.from_exponents([0, -1])


def test_cross_term_product():
    # (1+D)(1+1/D) = 1 + 1/D + D + 1 = D + 1/D
    product = ONE_PLUS_D * LaurentPoly.from_exponents([0, -1])
    assert product == LaurentPoly.from_exponents([1, -1])


def test_poly_string_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        p = _random_poly(rng, lo=-5, hi=5, gf4=True)
        assert parse_poly(str(p), gf4=True) == p


def test_gf4_coefficient_product():
    w_d = LaurentPoly([(1, 2)])  # w*D
    v_dinv = LaurentPoly([(-1, 3)])  # v*D^-1
    assert w_d * v_dinv == LaurentPoly.one()  # w*v = 1, exponents cancel


def test_shifted_product_of_golden_pair_is_the_constant_matrix():
    omega = shifted_symplectic_matrix(_golden_pair())
    assert omega == LaurentMatrix.from_constant_binary(SHIFTED_5X5_EXPECTED)


def test_shifted_product_of_zero_matrix():
    zero = LaurentCheckMatrix(LaurentMatrix.zeros(3, 2), LaurentMatrix.zeros(3, 2))
    assert shifted_symplectic_matrix(zero) == LaurentMatrix.zeros(3, 3)


def test_shifted_product_constant_pair():
    h = LaurentCheckMatrix.from_constant(
        BinMatrix.from_strings(["1", "0"]), BinMatrix.from_strings(["0", "1"])
    )
    omega = shifted_symplectic_matrix(h)
    assert omega == LaurentMatrix.from_constant_binary(
        BinMatrix.from_rows([[0, 1], [1, 0]])
    )


@pytest.mark.parametrize("seed", range(15))
def test_shifted_symmetry_invariant(seed):
    rng = random.Random(seed)
    omega = shifted_symplectic_matrix(_random_laurent_pair(rng))
    assert all(
        omega.entry(i, j) == omega.entry(j, i).subs_inverse()
        for i in range(omega.rows)
        for j in range(omega.cols)
    )


# -- rank -------------------------------------------------------------------


def test_rank_proportional_rows():
    d = LaurentPoly.from_exponents([1])
    dinv = LaurentPoly.from_exponents([-1])
    one = LaurentPoly.one()
    m = LaurentMatrix([[one, d], [dinv, one]])
    assert laurent_rank(m) == 1


def test_rank_nonzero_diagonal():
    zero = LaurentPoly.zero()
    m = LaurentMatrix(
        [
            [LaurentPoly.from_exponents([1]), zero, zero],
            [zero, LaurentPoly.from_exponents([-1]), zero],
            [zero, zero, ONE_PLUS_D],
        ]
    )
    assert laurent_rank(m) == 3


def test_rank_of_golden_shifted_matrix_is_four():
    assert laurent_rank(shifted_symplectic_matrix(_golden_pair())) == 4


def test_conv_ebits_golden_pair():
    assert conv_ebits(_golden_pair()) == 2


def test_conv_ebits_commuting_per_frame():
    # pure-Z rows commute with themselves frame to frame
    hz = LaurentMatrix([[ONE_PLUS_D, LaurentPoly.from_exponents([-2])]])
    hx = LaurentMatrix.zeros(1, 2)
    assert conv_ebits(LaurentCheckMatrix(hz, hx)) == 0


def test_conv_ebits_constant_pair():
    h = LaurentCheckMatrix.from_constant(
        BinMatrix.from_strings(["1", "0"]), BinMatrix.from_strings(["0", "1"])
    )
    assert conv_ebits(h) == 1


def test_conv_ebits_odd_shifted_rank_is_a_domain_error():
    # The row 1 | D has the diagonal product D + D^-1, so the shifted
    # product matrix has rank 1: a fact about the input, not a broken
    # invariant, and no whole number of ebits per frame.
    h = LaurentCheckMatrix(
        LaurentMatrix([[LaurentPoly.from_exponents([0])]]),
        LaurentMatrix([[LaurentPoly.from_exponents([1])]]),
    )
    assert laurent_rank(shifted_symplectic_matrix(h)) == 1
    with pytest.raises(OddRankError, match="odd rank 1") as caught:
        conv_ebits(h)
    assert not isinstance(caught.value, InternalInvariantError)


# -- quaternary and two-code convolutional variants --------------------------


def test_gf4_conv_singletons():
    assert gf4_conv_ebits(LaurentMatrix([[LaurentPoly.one()]])) == 1
    assert gf4_conv_ebits(LaurentMatrix([[LaurentPoly([(0, 2)])]])) == 1


def test_gf4_conv_self_cancelling_row():
    m = LaurentMatrix([[ONE_PLUS_D, LaurentPoly.from_exponents([0, -1])]])
    assert gf4_conv_ebits(m) == 0


def test_gf4_conv_fixture_value_backed_by_evaluation():
    row = [ONE_PLUS_D, LaurentPoly([(-1, 2)])]
    m = LaurentMatrix([row])
    product = LaurentMatrix(
        [[LaurentPoly(_reference_gram([row], [[p.conj() for p in row]])[0][0])]]
    )
    rng = random.Random(11)
    assert laurent_rank_by_evaluation(product, trials=5, rng=rng) == 1
    assert gf4_conv_ebits(m) == 1


def test_css_conv_examples():
    one_plus_d = LaurentMatrix([[ONE_PLUS_D]])
    assert css_conv_ebits(one_plus_d, one_plus_d) == 1
    ones = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.one()]])
    assert css_conv_ebits(ones, ones) == 0
    h1 = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()]])
    h2 = LaurentMatrix([[LaurentPoly.zero(), LaurentPoly.one()]])
    assert css_conv_ebits(h1, h2) == 0
    with pytest.raises(ShapeError):
        css_conv_ebits(one_plus_d, ones)


# -- degeneration and evaluation bound ---------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_constant_entries_degenerate_to_binary_count(seed):
    rng = random.Random(600 + seed)
    n = rng.randint(1, 8)
    h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
    assert conv_ebits(LaurentCheckMatrix.from_constant(h.hz, h.hx)) == ebit_count(h)


@pytest.mark.parametrize("seed", range(10))
def test_constant_gf4_degenerates_to_block_count(seed):
    rng = random.Random(70 + seed)
    m = random_gf4_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
    assert gf4_conv_ebits(_constant_gf4(m)) == gf4_ebits(m)


@pytest.mark.parametrize("seed", range(10))
def test_evaluation_never_exceeds_symbolic_rank(seed):
    rng = random.Random(40 + seed)
    omega = shifted_symplectic_matrix(_random_laurent_pair(rng))
    symbolic = laurent_rank(omega)
    evaluated = laurent_rank_by_evaluation(omega, trials=5, rng=rng)
    assert evaluated <= symbolic


def test_degree_limit_enforced():
    with pytest.raises(DegreeLimitError):
        LaurentMatrix([[LaurentPoly.from_exponents([65])]])
    with pytest.raises(DegreeLimitError):
        LaurentMatrix([[LaurentPoly.from_exponents([-65])]])
    # 64 itself is allowed
    LaurentMatrix([[LaurentPoly.from_exponents([64, -64])]])


def test_check_matrix_shape_mismatch():
    with pytest.raises(ShapeError):
        LaurentCheckMatrix(LaurentMatrix.zeros(2, 2), LaurentMatrix.zeros(2, 3))


# -- properties of the packed representation ---------------------------------


def _merge(pairs) -> dict[int, int]:
    """Dict-of-terms reference: XOR-merge (exponent, coeff) pairs, drop zeros."""
    out: dict[int, int] = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) ^ c
    return {e: c for e, c in out.items() if c}


def _reference_product(a: dict, b: dict) -> dict:
    return _merge(
        (e1 + e2, gf4_mul(c1, c2)) for e1, c1 in a.items() for e2, c2 in b.items()
    )


term_lists = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(0, 3)), max_size=6
)


@settings(derandomize=True, max_examples=300)
@given(term_lists, term_lists)
@example([], [])
@example([(3, 2)], [(-3, 3)])
@example([(0, 1), (0, 1)], [(2, 1), (2, 3)])
def test_poly_operations_match_dict_reference_property(ta, tb):
    a, b = LaurentPoly(ta), LaurentPoly(tb)
    ra, rb = _merge(ta), _merge(tb)
    assert a.terms() == ra
    assert (a.min_exp(), a.max_exp()) == (
        (min(ra), max(ra)) if ra else (None, None)
    )
    assert a.is_binary() == all(c == 1 for c in ra.values())
    assert bool(a) == bool(ra)
    assert (a + b).terms() == _merge([*ra.items(), *rb.items()])
    assert (a * b).terms() == _reference_product(ra, rb)
    assert a.subs_inverse().terms() == {-e: c for e, c in ra.items()}
    assert a.conj().terms() == {e: gf4_conj(c) for e, c in ra.items()}
    # equal values compare and hash equal whatever terms built them
    same = LaurentPoly(reversed(list(ra.items())))
    assert same == a and hash(same) == hash(a)
    assert parse_poly(str(a), gf4=True) == a


def _grids(gf4: bool, rows=None, cols=None, max_side=5):
    side = st.integers(0, max_side)
    coeff = st.integers(1, 3) if gf4 else st.just(1)
    poly = st.lists(st.tuples(st.integers(-3, 3), coeff), max_size=3).map(LaurentPoly)

    @st.composite
    def build(draw):
        r = draw(side) if rows is None else rows
        c = draw(side) if cols is None else cols
        grid = [[draw(poly) for _ in range(c)] for _ in range(r)]
        return LaurentMatrix(grid, cols=c)

    return build()


def _low_rank_products(gf4: bool):
    # sum_k A_ik B_jk(D^-1) over k <= 2 terms has rank at most k.
    @st.composite
    def build(draw):
        k = draw(st.integers(0, 2))
        a, b = draw(_grids(gf4, cols=k)), draw(_grids(gf4, cols=k))
        return _gram(a._entries, b._entries)

    return build()


def _reference_gram(a_rows, b_rows) -> list[list[dict]]:
    """Terms of sum_k a_ik * b_jk(D^-1), multiplied term by term."""
    return [
        [
            _merge(
                (e1 - e2, gf4_mul(c1, c2))
                for x, y in zip(a, b)
                for e1, c1 in x.terms().items()
                for e2, c2 in y.terms().items()
            )
            for b in b_rows
        ]
        for a in a_rows
    ]


def _constant_gf4(m: GF4Matrix) -> LaurentMatrix:
    return LaurentMatrix(
        [
            [LaurentPoly([(0, m.entry(i, j))]) for j in range(m.cols)]
            for i in range(m.rows)
        ],
        cols=m.cols,
    )


@settings(derandomize=True, max_examples=60)
@given(
    st.integers(0, 4).flatmap(
        lambda k: st.tuples(
            _grids(True, cols=k), st.one_of(_grids(False, cols=k), _grids(True, cols=k))
        )
    )
)
@example((LaurentMatrix.zeros(0, 3), LaurentMatrix.zeros(2, 3)))
@example((LaurentMatrix.zeros(2, 3), LaurentMatrix.zeros(0, 3)))
@example((LaurentMatrix.zeros(2, 0), LaurentMatrix.zeros(3, 0)))
@example((LaurentMatrix.zeros(0, 0), LaurentMatrix.zeros(0, 0)))
# w*D^64 times (v*D^-64)(D^-1) is D^128, outside the input window
@example(
    (
        LaurentMatrix([[LaurentPoly([(64, 2)])]]),
        LaurentMatrix([[LaurentPoly([(-64, 3)])]]),
    )
)
def test_gram_matches_dict_reference_property(pair):
    a, b = pair
    product = _gram(a._entries, b._entries)
    assert (product.rows, product.cols) == (a.rows, b.rows)
    assert [
        [product.entry(i, j).terms() for j in range(b.rows)] for i in range(a.rows)
    ] == _reference_gram(a._entries, b._entries)


# Empty and single-entry shapes are tried on every run, not left to chance.
EDGE_MATRICES = [
    LaurentMatrix.zeros(0, 3),
    LaurentMatrix.zeros(3, 0),
    LaurentMatrix([[LaurentPoly.from_exponents([-1, 2])]]),
    LaurentMatrix([[LaurentPoly([(-2, 2)])]]),
]


def with_edge_matrices(test):
    for m in EDGE_MATRICES:
        test = example(m)(test)
    return test


any_matrix = st.one_of(
    _grids(False), _grids(True), _low_rank_products(False), _low_rank_products(True)
)


@settings(derandomize=True, max_examples=200)
@given(any_matrix)
@with_edge_matrices
def test_rank_transpose_invariant_property(m):
    transpose = LaurentMatrix(
        [[m.entry(i, j) for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )
    assert laurent_rank(m) == laurent_rank(transpose)


@settings(derandomize=True, max_examples=200)
@given(any_matrix)
@with_edge_matrices
def test_rank_equals_evaluation_oracle_property(m):
    # Entry spans are at most 12 and sides at most 5, so a nonzero minor
    # vanishes at one of 2^16 - 1 points with probability below 1/1000.
    r = laurent_rank(m)
    assert r <= min(m.rows, m.cols)
    assert r == laurent_rank_by_evaluation(m, field_degree=16)


def _constant_grids():
    @st.composite
    def build(draw):
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        entry = st.integers(0, 3)
        return rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return build()


@settings(derandomize=True, max_examples=200)
@given(_constant_grids())
@example((0, 3, []))
@example((3, 0, [[], [], []]))
@example((1, 1, [[2]]))
@example((1, 1, [[1]]))
def test_constant_entries_give_the_block_ranks_property(shape):
    rows, cols, grid = shape
    m = GF4Matrix(grid) if rows else GF4Matrix.zeros(0, cols)
    assert laurent_rank(LaurentMatrix.from_constant_binary(m.lo)) == rank(m.lo)
    assert laurent_rank(_constant_gf4(m)) == gf4_rank(m)


# -- regression bounds: the elimination is polynomial -------------------------


def _random_dense(rng, n, max_exp, gf4=False):
    def poly():
        return LaurentPoly(
            (rng.randint(-max_exp, max_exp), rng.randrange(1, 4) if gf4 else 1)
            for _ in range(2 * max_exp + 1)
        )

    return LaurentMatrix([[poly() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize(
    "n,max_exp,bound", [(12, 4, 1.0), (24, 10, 10.0)], ids=["12x12", "24x24"]
)
def test_dense_rank_time_bound(n, max_exp, bound):
    # Elimination without division doubled entry degrees at each pivot, so
    # its cost grew exponentially with the rank; Bareiss keeps every entry
    # a minor, of span at most n times the input span.
    m = _random_dense(random.Random(n), n, max_exp)
    start = time.perf_counter()
    r = laurent_rank(m)
    assert time.perf_counter() - start < bound
    assert r == laurent_rank_by_evaluation(m, field_degree=16)


def _mixed_conv_text(rng, pairs: int, n: int, max_exp: int, moves: int) -> str:
    """A conv file of 2*pairs generators needing exactly ``pairs`` ebits.

    Starts from Z and X on each of the first ``pairs`` qubits and applies
    moves that keep the count: delayed CNOTs (x_b += D^t x_a with
    z_a += D^-t z_b), Hadamards, phases (z_a += x_a) and row additions
    (row_p += D^t row_q), skipping any that leave the exponent window.
    Polynomials are bit masks, bit ``max_exp + e`` standing for D^e.
    """
    window = (1 << (2 * max_exp + 1)) - 1
    low = 2  # |t| <= 2: padding keeps right shifts exact
    one = 1 << (max_exp + low)
    unit = [[one if j == i else 0 for j in range(n)] for i in range(pairs)]
    zero = [[0] * n for _ in range(pairs)]
    z, x = unit + zero, [row[:] for row in zero] + [row[:] for row in unit]

    def shift(v, t):
        return v << t if t >= 0 else v >> -t

    def ok(vs):
        return all(v & ~(window << low) == 0 for v in vs)

    for _ in range(moves):
        kind, t = rng.randrange(4), rng.randint(-2, 2)
        if kind == 0:
            a, b = rng.sample(range(n), 2)
            nx = [row[b] ^ shift(row[a], t) for row in x]
            nz = [row[a] ^ shift(row[b], -t) for row in z]
            if ok(nx) and ok(nz):
                for row, v in zip(x, nx):
                    row[b] = v
                for row, v in zip(z, nz):
                    row[a] = v
        elif kind == 1:
            a = rng.randrange(n)
            for zr, xr in zip(z, x):
                zr[a], xr[a] = xr[a], zr[a]
        elif kind == 2:
            a = rng.randrange(n)
            nz = [zr[a] ^ xr[a] for zr, xr in zip(z, x)]
            for row, v in zip(z, nz):
                row[a] = v
        else:
            p, q = rng.sample(range(2 * pairs), 2)
            nz = [u ^ shift(v, t) for u, v in zip(z[p], z[q])]
            nx = [u ^ shift(v, t) for u, v in zip(x[p], x[q])]
            if ok(nz) and ok(nx):
                z[p], x[p] = nz, nx

    def text(v):
        exps = [j - max_exp - low for j in range(v.bit_length()) if v >> j & 1]
        return "+".join(f"D^{e}" for e in exps) or "0"

    rows = [
        ", ".join(map(text, zr)) + " | " + ", ".join(map(text, xr))
        for zr, xr in zip(z, x)
    ]
    return "\n".join([f"conv {2 * pairs} {n}", *rows]) + "\n"


@pytest.mark.parametrize("seed", range(3))
def test_rank_ten_conv_set_time_bound(seed):
    h = parse_conv_pair(_mixed_conv_text(random.Random(seed), 5, 8, 10, 1500))
    start = time.perf_counter()
    assert conv_ebits(h) == 5
    assert time.perf_counter() - start < 1.0


def test_exact_quotient_divides_or_raises():
    one_plus_d = LaurentPoly.from_exponents([0, 1])
    a = LaurentPoly.from_exponents([-3, 5]) * LaurentPoly([(2, 2)])
    v_d4 = LaurentPoly([(4, 3)])
    assert _exact_quotient(a * one_plus_d, one_plus_d) == a
    assert _exact_quotient(a, v_d4) * v_d4 == a
    assert not _exact_quotient(LaurentPoly.zero(), one_plus_d)
    with pytest.raises(InternalInvariantError):
        _exact_quotient(LaurentPoly.from_exponents([0, 2, 3]), one_plus_d)
    with pytest.raises(InternalInvariantError):
        _exact_quotient(one_plus_d, LaurentPoly.from_exponents([0, 1, 2]))
    # 1 + wD^2 is w, not 0, at v, the root of 1 + wD
    with pytest.raises(InternalInvariantError):
        _exact_quotient(LaurentPoly([(0, 1), (2, 2)]), LaurentPoly([(0, 1), (1, 2)]))
    with pytest.raises(InternalInvariantError):
        _exact_quotient(one_plus_d, LaurentPoly.zero())
