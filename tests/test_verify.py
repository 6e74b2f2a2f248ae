"""Tests for the brute-force oracles and the cross-check harness."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc import gf2, symplectic, verify
from ebitcalc.errors import InternalInvariantError, SizeLimitError
from ebitcalc.gf2 import BinMatrix, rank
from ebitcalc.gf4 import GF4Matrix, gf4_rank
from ebitcalc.laurent import LaurentMatrix, LaurentPoly, MAX_EXPONENT
from ebitcalc.symplectic import QuantumCheckMatrix, ebit_count, symplectic_gram_schmidt
from ebitcalc.verify import (
    DEFAULT_SEED,
    gf4_rank_by_span_enumeration,
    laurent_rank_by_evaluation,
    product_matrix_by_popcount,
    random_check_matrix,
    random_full_rank_matrix,
    rank_by_span_enumeration,
    rational_rank,
    run_random_sweep,
    verify_code,
)
from helpers import constant_laurent, random_bin_matrix, random_gf4_matrix

SHIFTED_5X5 = BinMatrix.from_strings(["01000", "10000", "00000", "00001", "00010"])


def test_span_enumeration_examples():
    assert rank_by_span_enumeration(BinMatrix.identity(3)) == 3
    assert rank_by_span_enumeration(BinMatrix.from_strings(["11", "11"])) == 1
    assert rank_by_span_enumeration(SHIFTED_5X5) == 4
    assert rank_by_span_enumeration(BinMatrix.zeros(0, 4)) == 0


def test_span_enumeration_size_limit():
    with pytest.raises(SizeLimitError):
        rank_by_span_enumeration(BinMatrix.zeros(21, 3))


def test_span_enumeration_wide_matrix_fallback():
    m = BinMatrix.identity(3).hstack(BinMatrix.zeros(3, 70))
    assert rank_by_span_enumeration(m) == 3


def test_gf4_span_enumeration_examples():
    assert gf4_rank_by_span_enumeration(GF4Matrix.identity(2)) == 2
    assert gf4_rank_by_span_enumeration(GF4Matrix.from_strings(["w", "v"])) == 1
    with pytest.raises(SizeLimitError):
        gf4_rank_by_span_enumeration(GF4Matrix.zeros(11, 2))


def test_gf4_span_enumeration_wide_matrix_fallback():
    rng = random.Random(3)
    m = random_gf4_matrix(rng, 3, 35)
    assert gf4_rank_by_span_enumeration(m) == gf4_rank(m)


def _oracle_shapes(rng, limit, wide, seed):
    """(rows, inner, cols, pad) of a product of a random rows x inner factor
    and a random inner x cols factor behind ``pad`` zero columns: a random
    shape, one at the row limit whose rank lies wholly past column ``wide``
    (full for every third seed), and the 0-column and 0-row shapes.  An
    inner width below the row count forces dependent rows."""
    rows = rng.randint(0, limit)
    return [
        (rows, rng.randint(0, rows), rng.randint(1, wide + 16), 0),
        (limit, limit - seed % 3, limit + seed, wide),
        (seed % (limit + 1), seed % 4, 0, 0),
        (0, seed % 4, seed, 0),
    ]


def _padded_bits(rng, rows, cols, pad=0):
    return BinMatrix.zeros(rows, pad).hstack(random_bin_matrix(rng, rows, cols))


@pytest.mark.parametrize("seed", range(20))
def test_binary_oracle_matches_elimination(seed):
    rng = random.Random(seed)
    for rows, inner, cols, pad in _oracle_shapes(rng, 20, 64, seed):
        m = _padded_bits(rng, rows, inner) @ _padded_bits(rng, inner, cols, pad)
        assert rank_by_span_enumeration(m) == rank(m) <= inner


@pytest.mark.parametrize("seed", range(12))
def test_gf4_oracle_matches_elimination(seed):
    rng = random.Random(300 + seed)

    def factor(rows, cols, pad=0):
        return GF4Matrix(
            _padded_bits(rng, rows, cols, pad), _padded_bits(rng, rows, cols, pad)
        )

    for rows, inner, cols, pad in _oracle_shapes(rng, 10, 32, seed):
        m = factor(rows, inner) @ factor(inner, cols, pad)
        assert gf4_rank_by_span_enumeration(m) == gf4_rank(m) <= inner


def test_rational_rank_fractions():
    assert rational_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert rational_rank([[3]]) == 1


# x^16 + x^5 + x^3 + x^2 + 1, the modulus of the evaluation oracle's field
POLY_16 = 0x1002D
GROUP_16 = (1 << 16) - 1


def _gf_mul(a, b):
    """Shift-and-add product in GF(2^16): the reference for the log tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> 16:
            a ^= POLY_16
    return acc


def _gf_inv(a):
    """a^(2^16 - 2), square and multiply."""
    result = 1
    for bit in bin(GROUP_16 - 1)[2:]:
        result = _gf_mul(result, result)
        if bit == "1":
            result = _gf_mul(result, a)
    return result


def test_binary_ext_field_axioms():
    # Each antilog entry is x times the one before, and the first 2^16 - 1
    # hit every nonzero element once, so x is primitive and the quotient is
    # a field; the log table inverts the antilog table.
    exp, log = verify._field_tables()
    assert exp[0] == 1
    assert all(exp[i + 1] == _gf_mul(exp[i], 2) for i in range(2 * GROUP_16 - 1))
    assert sorted(exp[:GROUP_16]) == list(range(1, GROUP_16 + 1))
    assert all(log[exp[i]] == i for i in range(GROUP_16))
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(1, GROUP_16 + 1), rng.randrange(1, GROUP_16 + 1)
        assert exp[log[a] + log[b]] == _gf_mul(a, b)
        assert _gf_mul(a, _gf_inv(a)) == 1


def test_binary_ext_field_gf4_embedding():
    # w = x^((2^16 - 1)/3) is a primitive cube root of unity, and the GF(4)
    # codes 1, w, v map to 1, w, w + 1.
    exp, _ = verify._field_tables()
    w = exp[GROUP_16 // 3]
    assert w != 1
    assert _gf_mul(w, w) == w ^ 1
    assert _gf_mul(w, w ^ 1) == 1
    assert [exp[g] for g in verify._GF4_LOGS[1:]] == [1, w, w ^ 1]


def _evaluate(p, point):
    return verify._evaluate_matrix([[p.terms()]], point)[0][0]


gf4_polys = st.lists(
    st.tuples(st.integers(-MAX_EXPONENT, MAX_EXPONENT), st.integers(1, 3)), max_size=6
).map(LaurentPoly)


@settings(derandomize=True, max_examples=200)
@given(gf4_polys, gf4_polys, st.integers(1, GROUP_16))
def test_evaluation_is_a_ring_homomorphism(p, q, point):
    # This pins the GF(4) embedding and the negative powers, which a
    # comparison of ranks can miss.
    assert _evaluate(p * q, point) == _gf_mul(_evaluate(p, point), _evaluate(q, point))
    assert _evaluate(p + q, point) == _evaluate(p, point) ^ _evaluate(q, point)
    assert _evaluate(p.subs_inverse(), point) == _evaluate(p, _gf_inv(point))


def test_evaluation_oracle_examples():
    d = LaurentPoly([(1, 1)])
    zero = LaurentPoly.zero()
    diag = LaurentMatrix([[d, zero], [zero, LaurentPoly([(0, 1), (1, 1)])]])
    assert laurent_rank_by_evaluation(diag, trials=3) == 2
    assert laurent_rank_by_evaluation(LaurentMatrix.zeros(2, 2), trials=2) == 0
    constant = constant_laurent(SHIFTED_5X5)
    assert laurent_rank_by_evaluation(constant, trials=1) == 4


def test_evaluation_oracle_validates_arguments():
    m = LaurentMatrix.zeros(1, 1)
    with pytest.raises(ValueError):
        laurent_rank_by_evaluation(m, trials=0)


def test_verify_single_qubit_pair():
    report = verify_code(QuantumCheckMatrix.from_pauli_strings(["Z", "X"]))
    assert report.formula_value == 1
    assert report.procedure_value == 1
    assert report.oracle_value == 1
    assert report.agreement


def test_verify_five_qubit_code():
    labels = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    report = verify_code(QuantumCheckMatrix.from_pauli_strings(labels))
    assert (report.formula_value, report.procedure_value, report.oracle_value) == (0, 0, 0)
    assert report.agreement


def test_verify_skips_oracle_beyond_twenty_generators():
    rng = random.Random(8)
    h = random_check_matrix(rng, 11, 22)
    report = verify_code(h)
    assert report.oracle_value is None
    assert report.agreement


def test_sweep_is_reproducible():
    a = run_random_sweep(30, 6, seed=77)
    b = run_random_sweep(30, 6, seed=77)
    assert a == b
    assert a.seed == 77
    assert a.cases == 30
    assert a.agreement


def test_sweep_bounds_max_n_before_drawing(monkeypatch):
    monkeypatch.setattr(verify, "random_check_matrix", None)  # any draw would fail
    with pytest.raises(SizeLimitError, match="limited to 2048 qubits, got max_n 2049"):
        run_random_sweep(1, 2049)
    with pytest.raises(SizeLimitError):
        run_random_sweep(1, 10**8)


def test_sweep_default_seed_recorded():
    sweep = run_random_sweep(5, 4)
    assert sweep.seed == DEFAULT_SEED


def test_thousand_case_sweep_with_oracle():
    sweep = run_random_sweep(1000, 12)
    assert sweep.cases == 1000
    assert sweep.failures == ()


def test_random_generators_validate():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_check_matrix(rng, 2, 5)
    with pytest.raises(ValueError):
        random_full_rank_matrix(rng, 4, 3)
    m = random_full_rank_matrix(rng, 5, 9)
    # the generator shares gf2's XOR basis, so its rank is read by the oracle
    assert rank_by_span_enumeration(m) == 5


@pytest.mark.parametrize(
    "seed, rows, cols, words, next_draw",
    [
        (0, 6, 8, [216, 98, 194, 227, 107, 10], 66),
        # draws 128 and 170 fall in the span of the rows before them
        (1729, 8, 8, [255, 167, 226, 11, 105, 117, 43, 14], 46),
    ],
)
def test_random_full_rank_matrix_is_pinned(seed, rows, cols, words, next_draw):
    # Seeded sweeps and replay lines depend on these words, and on the
    # generator making no draw past the last row it keeps.
    rng = random.Random(seed)
    m = random_full_rank_matrix(rng, rows, cols)
    assert [m.row_bits(i) for i in range(m.rows)] == words
    assert rng.getrandbits(cols) == next_draw


def test_enumeration_oracle_builds_its_own_products(monkeypatch):
    h = random_check_matrix(random.Random(20), 12, 20)
    products = product_matrix_by_popcount(h)
    count = ebit_count(h)
    assert count > 0
    # A wrong but symmetric product
    monkeypatch.setattr(
        symplectic, "symplectic_product_table", lambda hz, hx: BinMatrix.zeros(20, 20)
    )
    assert ebit_count(h) == 0  # the formula reads the patched product
    assert product_matrix_by_popcount(h) == products
    report = verify_code(h)
    assert report.oracle_value == report.procedure_value == count
    assert not report.agreement


def test_oracles_use_neither_gf2_kernel(monkeypatch):
    h = random_check_matrix(random.Random(22), 10, 16)
    m = random_bin_matrix(random.Random(23), 14, 9)
    g = random_gf4_matrix(random.Random(24), 7, 9)

    def oracles():
        return (
            product_matrix_by_popcount(h),
            rank_by_span_enumeration(m),
            gf4_rank_by_span_enumeration(g),
            symplectic_gram_schmidt(h),
        )

    before = oracles()

    def refuse(*args):
        raise AssertionError("an oracle called a production GF(2) kernel")

    monkeypatch.setattr(BinMatrix, "__matmul__", refuse)
    monkeypatch.setattr(BinMatrix, "transpose", refuse)
    with pytest.raises(AssertionError, match="production GF"):
        ebit_count(h)  # the formula goes through both kernels
    assert oracles() == before


def _verify_with_pairing(monkeypatch, h, tamper):
    """verify_code(h) with the pairing procedure's result passed through tamper."""
    honest = symplectic_gram_schmidt(h)
    monkeypatch.setattr(verify, "symplectic_gram_schmidt", lambda _: tamper(honest))
    return verify_code(h)


def _permute_rows(m: BinMatrix, order: list[int]) -> BinMatrix:
    return BinMatrix(m.rows, m.cols, [m.row_bits(i) for i in order])


def _flip_transform_bit(result):
    words = [result.transform.row_bits(i) for i in range(result.transform.rows)]
    words[1] ^= 1 << 3
    return result._replace(transform=BinMatrix(len(words), len(words), words))


def _swap_rows_0_and_2(result):
    order = [2, 1, 0, *range(3, result.transform.rows)]
    hz, hx = result.transformed
    return result._replace(
        transform=_permute_rows(result.transform, order),
        transformed=QuantumCheckMatrix(_permute_rows(hz, order), _permute_rows(hx, order)),
    )


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_flip_transform_bit, "transform does not reproduce the output rows"),
        (_swap_rows_0_and_2, "paired standard form"),
        (lambda r: r._replace(ebits=r.ebits - 1), "paired standard form"),
        (lambda r: r._replace(ebits=r.ebits + 1), "paired standard form"),
    ],
    ids=["flipped-transform-bit", "rows-0-and-2-swapped", "ebits-less-one", "ebits-plus-one"],
)
def test_verify_rejects_a_doctored_pairing(monkeypatch, tamper, message):
    h = random_check_matrix(random.Random(31), 8, 10)
    assert 2 <= ebit_count(h) <= 4  # two pairs to swap, room for one more
    assert _verify_with_pairing(monkeypatch, h, lambda r: r) == verify_code(h)
    with pytest.raises(InternalInvariantError, match=message):
        _verify_with_pairing(monkeypatch, h, tamper)


def _repeat_last_isotropic_row(result):
    # T H = H' and the standard form still hold, but T is singular; the
    # constructor, which would find H' dependent, is bypassed
    order = [*range(result.transform.rows - 1), result.transform.rows - 2]
    hz, hx = result.transformed
    rows = (_permute_rows(hz, order), _permute_rows(hx, order))
    return result._replace(
        transform=_permute_rows(result.transform, order),
        transformed=tuple.__new__(QuantumCheckMatrix, rows),
    )


def test_verify_rejects_a_singular_transform(monkeypatch):
    h = random_check_matrix(random.Random(31), 8, 10)
    assert h.generators - 2 * ebit_count(h) == 2  # two isotropic rows
    with pytest.raises(InternalInvariantError, match="no single new column"):
        _verify_with_pairing(monkeypatch, h, _repeat_last_isotropic_row)


@pytest.mark.parametrize("n, generators", [(256, 192), (10, 16)])
def test_verify_code_runs_none_of_the_formula_kernels(monkeypatch, n, generators):
    h = random_check_matrix(random.Random(generators), n, generators)
    before = verify_code(h)
    count = ebit_count(h)

    def refuse(*args):
        raise AssertionError("verify_code called a kernel of the formula")

    monkeypatch.setattr(BinMatrix, "__matmul__", refuse)
    monkeypatch.setattr(BinMatrix, "transpose", refuse)
    kernels = (gf2.rank, symplectic.symplectic_product_table)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ebitcalc":
            for key, value in list(vars(module).items()):
                if any(value is kernel for kernel in kernels):
                    monkeypatch.setattr(module, key, refuse)
    with pytest.raises(AssertionError, match="kernel of the formula"):
        ebit_count(h)  # the formula goes through the patched kernels
    monkeypatch.setattr(verify, "ebit_count", lambda _: count)
    assert verify_code(h) == before


@st.composite
def _generator_sets(draw):
    """Up to 20 random (Z | X) rows on up to 10 qubits, dependent ones included."""
    n = draw(st.integers(1, 10))
    words = draw(st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=20))
    return QuantumCheckMatrix.from_stacked(BinMatrix(len(words), 2 * n, words))


# A 20-generator enumeration takes about a second; the test above runs one.
@settings(derandomize=True, max_examples=40, deadline=None)
@given(_generator_sets())
@example(QuantumCheckMatrix(BinMatrix.zeros(0, 3), BinMatrix.zeros(0, 3)))
def test_formula_procedure_and_enumeration_agree_property(h):
    formula = ebit_count(h)
    assert symplectic_gram_schmidt(h).ebits == formula
    assert rank_by_span_enumeration(product_matrix_by_popcount(h)) == 2 * formula
