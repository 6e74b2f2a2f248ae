"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from pathlib import Path

import numpy as np

from ebitcalc.classical import (
    css_construct,
    css_ebits,
    css_parameters,
    gf4_ebits,
    gf4_symplectic_rows,
)
from ebitcalc.cv import cv_ebit_count
from ebitcalc.formats import parse_conv_pair
from ebitcalc.gf2 import BinMatrix, rank
from ebitcalc.gf4 import gf4_rank
from ebitcalc.laurent import (
    LaurentMatrix,
    LaurentPoly,
    conv_ebits,
    laurent_rank,
    shifted_symplectic_matrix,
)
from ebitcalc.qudit import ModMatrix, mod_rank, qudit_ebits
from ebitcalc.symplectic import (
    QuantumCheckMatrix,
    ebit_count,
    symplectic_gram_schmidt,
    symplectic_product_table,
)
from ebitcalc.verify import (
    gf4_rank_by_span_enumeration,
    laurent_rank_by_evaluation,
    random_check_matrix,
    random_full_rank_matrix,
    rank_by_span_enumeration,
    rational_rank,
)
from helpers import constant_laurent, random_bin_matrix, random_gf4_matrix

DATA = Path(__file__).parent / "data"


def _pass(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_golden_convolutional_example():
    start = time.perf_counter()
    hz, hx = parse_conv_pair((DATA / "conv5x5.conv").read_text())
    omega = shifted_symplectic_matrix(hz, hx)
    expected = constant_laurent(BinMatrix.from_strings(["01000", "10000", "00000", "00001", "00010"]))
    assert omega == expected
    assert laurent_rank(omega) == 4
    assert conv_ebits(hz, hx) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _pass(1, f"5x5 golden example: exact product matrix, rank 4, 2 ebits ({elapsed:.3f} s)")


def test_criterion_2_formula_equals_procedure():
    rng = random.Random(20101)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 12)
        h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
        result = symplectic_gram_schmidt(h)
        c = ebit_count(h)
        assert result.ebits == c
        m = h.generators
        assert symplectic_product_table(*result.transformed) == BinMatrix(
            m, m, [1 << (i ^ 1) if i < 2 * c else 0 for i in range(m)]
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _pass(2, f"1000 random sets: procedure == formula, exact standard form ({elapsed:.1f} s)")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(30303)
    for _ in range(200):
        m = random_bin_matrix(rng, rng.randint(0, 12), rng.randint(1, 12))
        assert rank(m) == rank_by_span_enumeration(m)
    for _ in range(100):
        g = random_gf4_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert gf4_rank(g) == gf4_rank_by_span_enumeration(g)
    _pass(3, "200 binary + 100 quaternary ranks match span enumeration exactly")


def test_criterion_4_css_consistency():
    rng = random.Random(40404)
    for _ in range(200):
        n = rng.randint(1, 12)
        h1 = random_full_rank_matrix(rng, rng.randint(1, n), n)
        h2 = random_full_rank_matrix(rng, rng.randint(1, n), n)
        assert css_ebits(h1, h2) == ebit_count(css_construct(h1, h2))
    hamming = BinMatrix.from_strings(["0001111", "0110011", "1010101"])
    assert css_ebits(hamming, hamming) == 0
    assert css_parameters(hamming, hamming, 3, 3).bracket() == "[[7, 1, 3; 0]]"
    _pass(4, "200 random imports match the block construction; Steane gives [[7, 1, 3; 0]]")


def test_criterion_5_gf4_consistency():
    rng = random.Random(50505)
    for _ in range(200):
        cols = rng.randint(1, 10)
        rows = rng.randint(1, min(6, cols))
        h = random_gf4_matrix(rng, rows, cols, full_row_rank=True)
        q = QuantumCheckMatrix(*gf4_symplectic_rows(h))
        assert rank(symplectic_product_table(*q)) == 2 * gf4_rank(h @ h.conj().transpose())
        assert gf4_ebits(h) == ebit_count(q)
    _pass(5, "200 quaternary imports: expanded product rank is twice rank(H H†)")


def test_criterion_6_qudit_reduction():
    rng = random.Random(60606)
    for _ in range(500):
        n = rng.randint(1, 8)
        h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
        hz = ModMatrix(h.hz.to_rows(), 2)
        hx = ModMatrix(h.hx.to_rows(), 2)
        assert qudit_ebits(hz, hx) == ebit_count(h)
    for d in (3, 5, 7):
        for _ in range(100):
            n = rng.randint(1, 6)
            generators = rng.randint(1, 2 * n)
            hz = ModMatrix(
                [[rng.randrange(d) for _ in range(n)] for _ in range(generators)], d
            )
            hx = ModMatrix(
                [[rng.randrange(d) for _ in range(n)] for _ in range(generators)], d
            )
            z, x = np.array(hz.to_rows()), np.array(hx.to_rows())
            omega = (x @ z.T - z @ x.T) % d
            assert not ((omega + omega.T) % d).any()
            r = mod_rank(ModMatrix(omega, d))
            assert r % 2 == 0
            assert qudit_ebits(hz, hx) == r // 2
    _pass(6, "500 mod-2 cases equal the binary count; d in {3,5,7} antisymmetric, even rank")


def test_criterion_7_cv_agreement():
    rng = random.Random(70707)
    for _ in range(200):
        n = rng.randint(1, 10)
        generators = rng.randint(1, 2 * n)
        hz = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(generators)]
        hx = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(generators)]
        omega_exact = [
            [
                sum(hx[i][k] * hz[j][k] - hz[i][k] * hx[j][k] for k in range(n))
                for j in range(generators)
            ]
            for i in range(generators)
        ]
        exact = rational_rank(omega_exact)
        assert exact % 2 == 0
        assert cv_ebit_count(hz, hx) == exact // 2
    _pass(7, "200 integer-entry real sets match exact rational elimination at default tolerance")


def _random_laurent_set(rng):
    n = rng.randint(1, 6)
    generators = rng.randint(1, min(2 * n, 6))

    def poly():
        if rng.random() < 0.45:
            return LaurentPoly.zero()
        return LaurentPoly((rng.randint(-3, 3), 1) for _ in range(rng.randint(1, 3)))

    hz = LaurentMatrix([[poly() for _ in range(n)] for _ in range(generators)])
    hx = LaurentMatrix([[poly() for _ in range(n)] for _ in range(generators)])
    return hz, hx


def test_criterion_8_evaluation_bound():
    rng = random.Random(80808)
    equal = 0
    total = 200
    for _ in range(total):
        omega = shifted_symplectic_matrix(*_random_laurent_set(rng))
        symbolic = laurent_rank(omega)
        evaluated = laurent_rank_by_evaluation(omega, trials=5, rng=rng)
        assert evaluated <= symbolic, "evaluation exceeded the symbolic rank"
        if evaluated == symbolic:
            equal += 1
    assert equal >= int(0.99 * total), f"only {equal}/{total} evaluations reached the rank"
    _pass(8, f"evaluation rank never exceeds and matches in {equal}/{total} cases")


def test_criterion_9_constant_entry_degeneration():
    rng = random.Random(90909)
    for _ in range(200):
        n = rng.randint(1, 8)
        h = random_check_matrix(rng, n, rng.randint(1, 2 * n))
        assert conv_ebits(constant_laurent(h.hz), constant_laurent(h.hx)) == ebit_count(h)
    _pass(9, "200 constant-entry convolutional counts equal the binary block counts")
