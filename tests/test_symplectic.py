"""Tests for check matrices, the ebit formula, and the pairing procedure."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc import symplectic
from ebitcalc.errors import ParseError, ShapeError
from ebitcalc.formats import format_qcheck, parse_qcheck
from ebitcalc.gf2 import BinMatrix, rank, row_reduce
from ebitcalc.symplectic import (
    QuantumCheckMatrix,
    code_parameters,
    ebit_count,
    symplectic_gram_schmidt,
    symplectic_product_table,
)
from ebitcalc.verify import (
    product_matrix_by_popcount,
    random_check_matrix,
    rank_by_span_enumeration,
)
from helpers import independent_rows, random_bin_matrix

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def _single_qubit_pair():
    return QuantumCheckMatrix.from_pauli_strings(["Z", "X"])


def _three_row_example():
    # rows (00|10), (10|00), (11|00) on two qubits
    hz = BinMatrix.from_strings(["00", "10", "11"])
    hx = BinMatrix.from_strings(["10", "00", "00"])
    return QuantumCheckMatrix(hz, hx)


def test_single_qubit_pair_product_matrix():
    h = _single_qubit_pair()
    assert symplectic_product_table(*h).to_rows() == [[0, 1], [1, 0]]
    assert ebit_count(h) == 1


def test_all_zero_product_table():
    # raw table accepts degenerate inputs that are not valid generator sets
    omega = symplectic_product_table(BinMatrix.zeros(3, 4), BinMatrix.zeros(3, 4))
    assert omega == BinMatrix.zeros(3, 3)


def test_five_qubit_code_commutes():
    h = QuantumCheckMatrix.from_pauli_strings(FIVE_QUBIT)
    # the oracle's popcount products, independent of matmul
    assert product_matrix_by_popcount(h) == BinMatrix.zeros(4, 4)
    assert symplectic_product_table(*h) == BinMatrix.zeros(4, 4)
    assert ebit_count(h) == 0


def test_three_row_example_counts():
    h = _three_row_example()
    omega = symplectic_product_table(*h)
    assert omega.to_rows() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    assert rank_by_span_enumeration(omega) == 2
    assert ebit_count(h) == 1


def test_sgsop_single_qubit_pair():
    result = symplectic_gram_schmidt(_single_qubit_pair())
    assert result.transform == BinMatrix.identity(2)
    assert result.pairs == ((0, 1),)
    assert result.isotropic == ()
    assert result.ebits == 1


def test_sgsop_commuting_set_is_all_isotropic():
    h = QuantumCheckMatrix.from_pauli_strings(FIVE_QUBIT)
    result = symplectic_gram_schmidt(h)
    assert result.pairs == ()
    assert result.isotropic == (0, 1, 2, 3)
    assert result.ebits == 0
    assert symplectic_product_table(*result.transformed) == BinMatrix.zeros(4, 4)


def test_sgsop_three_row_example_trace():
    # hand trace: rows 0,1 pair up; row 2 gets row 1 added, leaving (01|00)
    result = symplectic_gram_schmidt(_three_row_example())
    assert result.ebits == 1
    assert result.pairs == ((0, 1),)
    assert result.isotropic == (2,)
    assert result.transformed.hz.to_strings() == ["00", "10", "01"]
    assert result.transformed.hx.to_strings() == ["10", "00", "00"]
    assert result.transform.to_strings() == ["100", "010", "011"]
    assert symplectic_product_table(*result.transformed) == BinMatrix(3, 3, [0b10, 0b01, 0])


def test_code_parameters_examples():
    assert code_parameters(_single_qubit_pair()).bracket() == "[[1, 0; 1]]"
    five = code_parameters(QuantumCheckMatrix.from_pauli_strings(FIVE_QUBIT))
    assert (five.n, five.logical, five.ebits, five.ancillas) == (5, 1, 0, 4)
    assert five.bracket() == "[[5, 1; 0]]"


def test_construction_accepts_dependent_rows():
    # the third row is the sum of the first two: the set generates the
    # group of its first two rows, and every count is that group's
    h = QuantumCheckMatrix.from_pauli_strings(["ZI", "IZ", "ZZ"])
    assert h.generators == 3
    p = code_parameters(h)
    assert (p.generators, p.ebits, p.logical, p.ancillas) == (2, 0, 0, 2)
    assert symplectic_gram_schmidt(h).isotropic == (0, 1, 2)


def test_construction_accepts_zero_row():
    # a zero row generates nothing: the counts are those of the other row
    h = QuantumCheckMatrix.from_pauli_strings(["II", "ZX"])
    assert h.generators == 2
    p = code_parameters(h)
    assert (p.generators, p.ebits, p.logical, p.ancillas) == (1, 0, 1, 1)
    assert symplectic_gram_schmidt(h).isotropic == (0, 1)


def test_more_than_2n_generators_always_dependent():
    # Z, X and Y on one qubit: the group of the first two, which anticommute
    h = QuantumCheckMatrix.from_pauli_strings(["Z", "X", "Y"])
    assert h.generators == 3
    assert code_parameters(h) == (1, 2, 1, None)
    assert code_parameters(h).bracket() == "[[1, 0; 1]]"
    assert symplectic_gram_schmidt(h).ebits == 1


def test_construction_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        QuantumCheckMatrix(BinMatrix.zeros(2, 3), BinMatrix.zeros(2, 2))


@pytest.mark.parametrize("label, ch", [("XQ", "Q"), ("x", "x")])
def test_pauli_strings_reject_unknown_characters(label, ch):
    with pytest.raises(ParseError, match=f"invalid Pauli character '{ch}' in label '{label}'"):
        QuantumCheckMatrix.from_pauli_strings(["ZI", label])


def test_pauli_strings_reject_unequal_lengths():
    with pytest.raises(ShapeError, match="row 1 has 1 entries, expected 2"):
        QuantumCheckMatrix.from_pauli_strings(["XZ", "Y"])


def test_stacked_round_trip():
    h = _three_row_example()
    assert QuantumCheckMatrix.from_stacked(h.stacked()) == h


def test_stacked_form_needs_even_column_count():
    with pytest.raises(ShapeError, match="even column count"):
        QuantumCheckMatrix.from_stacked(BinMatrix.from_strings(["011"]))


def test_empty_generator_set():
    h = QuantumCheckMatrix(BinMatrix.zeros(0, 2), BinMatrix.zeros(0, 2))
    assert ebit_count(h) == 0
    result = symplectic_gram_schmidt(h)
    assert result.pairs == () and result.isotropic == ()
    assert code_parameters(h).bracket() == "[[2, 2; 0]]"


@pytest.mark.parametrize("seed", range(40))
def test_procedure_matches_formula(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 10)
    h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
    result = symplectic_gram_schmidt(h)
    c = ebit_count(h)
    assert result.ebits == c
    assert len(result.pairs) * 2 + len(result.isotropic) == h.generators
    # transform acts from the left and is invertible
    assert result.transform @ h.stacked() == result.transformed.stacked()
    assert rank(result.transform) == h.generators
    # exact paired standard form
    m = h.generators
    assert symplectic_product_table(*result.transformed) == BinMatrix(
        m, m, [1 << (i ^ 1) if i < 2 * c else 0 for i in range(m)]
    )
    # conjugation identity for the product matrix
    g = result.transform
    assert (
        g @ symplectic_product_table(*h) @ g.transpose()
        == symplectic_product_table(*result.transformed)
    )
    # row space is preserved (reduced echelon forms are canonical)
    assert (
        row_reduce(h.stacked()).reduced
        == row_reduce(result.transformed.stacked()).reduced
    )


@pytest.mark.parametrize("seed", range(15))
def test_product_matrix_symmetric_zero_diagonal(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 10)
    h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
    omega = symplectic_product_table(*h)
    assert omega == omega.transpose()
    assert all(omega.entry(i, i) == 0 for i in range(h.generators))
    assert rank(omega) % 2 == 0


@pytest.mark.parametrize("seed", range(15))
def test_row_permutation_leaves_count_unchanged(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(1, 8)
    h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
    order = list(range(h.generators))
    rng.shuffle(order)
    permuted = QuantumCheckMatrix(
        BinMatrix(h.generators, n, (h.hz.row_bits(i) for i in order)),
        BinMatrix(h.generators, n, (h.hx.row_bits(i) for i in order)),
    )
    assert ebit_count(permuted) == ebit_count(h)


@pytest.mark.parametrize("seed", range(15))
def test_logical_count_is_nonnegative_for_valid_sets(seed):
    # independence forces generators - ebits <= n, so logical >= 0
    rng = random.Random(4000 + seed)
    n = rng.randint(1, 10)
    p = code_parameters(random_check_matrix(rng, n, rng.randint(1, 2 * n)))
    assert p.logical >= 0
    assert p.ancillas >= 0
    assert p.logical == p.n - (p.ancillas + 2 * p.ebits) + p.ebits


def _reference_sgsop(h):
    """The pairing procedure as a plain double loop that rescans every row
    for every pair, with no isotropic-row skip: (pairs, isotropic,
    transform rows, transformed Z rows, transformed X rows)."""
    m = h.generators
    z = [h.hz.row_bits(i) for i in range(m)]
    x = [h.hx.row_bits(i) for i in range(m)]
    g = [1 << i for i in range(m)]

    def sprod(i, j):
        return ((z[i] & x[j]).bit_count() + (x[i] & z[j]).bit_count()) & 1

    def swap(i, j):
        for rows in (z, x, g):
            rows[i], rows[j] = rows[j], rows[i]

    pairs = []
    done = 0
    while True:
        found = next(
            ((i, j) for i in range(done, m) for j in range(i + 1, m) if sprod(i, j)),
            None,
        )
        if found is None:
            break
        swap(done, found[0])
        swap(done + 1, found[1])
        a, b = done, done + 1
        for r in range(done + 2, m):
            hit_a, hit_b = sprod(r, b), sprod(r, a)
            for rows in (z, x, g):
                if hit_a:
                    rows[r] ^= rows[a]
                if hit_b:
                    rows[r] ^= rows[b]
        pairs.append((a, b))
        done += 2
    return tuple(pairs), tuple(range(done, m)), g, z, x


def _outcome(result):
    t = result.transformed
    return (
        result.pairs,
        result.isotropic,
        [result.transform.row_bits(i) for i in range(result.transform.rows)],
        [t.hz.row_bits(i) for i in range(t.generators)],
        [t.hx.row_bits(i) for i in range(t.generators)],
    )


def _commuting_first_set(rng, n, c, k, layers=12):
    """Generator set on n qubits needing exactly c ebits, its k commuting
    rows listed first.

    Starts from c pairs (Z_i, X_i) and k rows Z_{c+j}, then scrambles the
    qubits with layers of CNOTs, Hadamards and phases, each acting on
    every row word at once and preserving every symplectic product.  The
    commuting block is mixed within itself; the pair block is mixed
    within itself and gets random commuting rows added.
    """
    assert 0 <= c and 0 <= k and c + k <= n
    z = [1 << (r // 2) if r % 2 == 0 else 0 for r in range(2 * c)]
    x = [1 << (r // 2) if r % 2 else 0 for r in range(2 * c)]
    z += [1 << (c + j) for j in range(k)]
    x += [0] * k
    for _ in range(layers if n > 1 else 0):
        # CNOTs from the qubits in `controls` to those s places above them
        s = rng.randrange(1, n)
        controls = rng.getrandbits(n - s)
        controls &= ~(controls << s)
        targets = controls << s
        hadamard, phase = rng.getrandbits(n), rng.getrandbits(n)
        for r in range(len(z)):
            x[r] ^= (x[r] & controls) << s
            z[r] ^= (z[r] & targets) >> s
            swapped = (z[r] ^ x[r]) & hadamard
            z[r] ^= swapped
            x[r] ^= swapped
            z[r] ^= x[r] & phase

    def mix(block):
        for _ in range(layers * len(block)):
            p, q = rng.randrange(len(block)), rng.randrange(len(block))
            if p != q:
                z[block[p]] ^= z[block[q]]
                x[block[p]] ^= x[block[q]]

    pair_rows, commuting_rows = list(range(2 * c)), list(range(2 * c, 2 * c + k))
    mix(commuting_rows)
    mix(pair_rows)
    for p in pair_rows:
        for q in commuting_rows:
            if rng.getrandbits(1):
                z[p] ^= z[q]
                x[p] ^= x[q]
    order = commuting_rows + pair_rows
    return QuantumCheckMatrix(
        BinMatrix(len(order), n, (z[r] for r in order)),
        BinMatrix(len(order), n, (x[r] for r in order)),
    )


@st.composite
def _random_sets(draw):
    """Up to 2n random (Z | X) rows on up to 10 qubits, dependent ones included."""
    n = draw(st.integers(1, 10))
    words = draw(st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=2 * n))
    return QuantumCheckMatrix.from_stacked(BinMatrix(len(words), 2 * n, words))


@st.composite
def _commuting_first_sets(draw):
    n = draw(st.integers(1, 10))
    c = draw(st.integers(0, n))
    k = draw(st.integers(0, n - c))
    return _commuting_first_set(random.Random(draw(st.integers(0, 2**32))), n, c, k)


@settings(derandomize=True, max_examples=300)
@given(st.one_of(_random_sets(), _commuting_first_sets()))
@example(QuantumCheckMatrix(BinMatrix.zeros(0, 3), BinMatrix.zeros(0, 3)))
@example(QuantumCheckMatrix.from_pauli_strings(["XZY"]))
@example(_commuting_first_set(random.Random(7), 24, 6, 10))
def test_sgsop_matches_rescanning_reference_property(h):
    assert _outcome(symplectic_gram_schmidt(h)) == _reference_sgsop(h)


def _symplectic_complement(h):
    """The generators of V^perp, the null space of [HX | HZ] read off its reduced form.

    A row (z | x) has symplectic product 0 with every generator exactly
    when HX z + HZ x = 0, so bit j of a null vector is bit j of (z | x).
    """
    reduction = row_reduce(h.hx.hstack(h.hz))
    basis = []
    for free in sorted(set(range(2 * h.n)) - set(reduction.pivots)):
        word = 1 << free
        for i, pivot in enumerate(reduction.pivots):
            word |= reduction.reduced.entry(i, free) << pivot
        basis.append(word)
    return QuantumCheckMatrix.from_stacked(BinMatrix(len(basis), 2 * h.n, basis))


@settings(derandomize=True, max_examples=300)
@given(_random_sets())
@example(QuantumCheckMatrix(BinMatrix.zeros(0, 3), BinMatrix.zeros(0, 3)))
@example(QuantumCheckMatrix.from_pauli_strings(["XZY"]))
def test_complement_needs_n_minus_m_more_ebits_property(h):
    # V and V^perp share the radical V & V^perp, so their counts differ
    # by half the difference of their dimensions, 2n - 2m, where m = dim V.
    h = independent_rows(h)
    perp = _symplectic_complement(h)
    assert perp.generators == 2 * h.n - h.generators
    assert ebit_count(perp) == ebit_count(h) + h.n - h.generators


def test_commuting_first_set_has_the_requested_count():
    h = _commuting_first_set(random.Random(3), 40, 8, 20)
    omega = product_matrix_by_popcount(h)
    assert all(not omega.row_bits(i) for i in range(20))
    assert ebit_count(h) == 8


def test_sgsop_time_bound_with_commuting_rows_first():
    # 384 generators on 512 qubits, the 192 commuting ones first: a pair
    # search that rescans them for every pair takes over a second here.
    h = _commuting_first_set(random.Random(384), 512, 96, 192)
    start = time.perf_counter()
    result = symplectic_gram_schmidt(h)
    elapsed = time.perf_counter() - start
    assert result.ebits == 96
    assert elapsed < 0.5, f"sgsop took {elapsed:.2f} s"


def test_product_table_time_bound_at_2048():
    # On this input a loop over each row's set bits took 0.8-1.3 s and
    # four-Russians tables take 0.3 s.  Best of three, so that one stall
    # on a shared machine does not decide, and a bound well above the
    # table runs that the set-bit loop still exceeds.
    rng = random.Random(2048)
    hz = random_bin_matrix(rng, 2048, 2048)
    hx = random_bin_matrix(rng, 2048, 2048)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        table = symplectic_product_table(hz, hx)
        elapsed.append(time.perf_counter() - start)
    for _ in range(200):
        i, j = rng.randrange(2048), rng.randrange(2048)
        z_i, x_i, z_j, x_j = hz.row_bits(i), hx.row_bits(i), hz.row_bits(j), hx.row_bits(j)
        assert table.entry(i, j) == ((z_i & x_j).bit_count() + (x_i & z_j).bit_count()) & 1
    assert min(elapsed) < 0.6, f"product table took {min(elapsed):.2f} s"


def test_ebits_pipeline_time_bound_at_2048():
    # What `ebits` does in process: parse, the constructor and the count.
    # Best of three: 0.33 s on a 2-core x86-64 machine (single runs
    # 0.33-0.50 s), when the constructor still checked the rows for
    # independence, against 0.53 s with a transpose through per-row
    # strings and a dict-keyed XOR basis; the bound is about twice the best.
    h = random_check_matrix(random.Random(2048), 2048, 2048)
    text = format_qcheck(h.hz, h.hx)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        c = ebit_count(parse_qcheck(text))
        elapsed.append(time.perf_counter() - start)
    assert c == 1023
    assert min(elapsed) < 0.7, f"ebits pipeline took {min(elapsed):.2f} s"


def test_procedure_builds_its_own_products(monkeypatch):
    h = random_check_matrix(random.Random(21), 12, 20)
    before = _outcome(symplectic_gram_schmidt(h))
    assert before[0]
    # A wrong but symmetric product: every generator commutes.
    monkeypatch.setattr(
        symplectic, "symplectic_product_table", lambda hz, hx: BinMatrix.zeros(hz.rows, hz.rows)
    )
    assert ebit_count(h) == 0  # the formula reads the patched product
    assert _outcome(symplectic_gram_schmidt(h)) == before
