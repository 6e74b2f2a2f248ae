"""Checks of the known-answer generators against brute force.

The brute force here is the benchmark's own code (span enumeration,
exhaustive evaluation over GF(2^8)), sympy or numpy -- never ebitcalc.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(12)
# GF(4) conjugation x -> x^2 on the 0, 1, w, v encoding of gen.py.
GF4_CONJ = np.array([0, 1, 3, 2], dtype=np.uint8)


def span_rank_gf2(rows: np.ndarray) -> int:
    """Rank over GF(2) from the size 2^r of the row span."""
    words = [int("".join(map(str, row)) or "0", 2) for row in rows.tolist()]
    span = {0}
    for w in words:
        span |= {v ^ w for v in span}
    return len(span).bit_length() - 1


def span_rank_gf4(rows: np.ndarray) -> int:
    """Rank over GF(4) from the size 4^r of the row span."""
    vectors = set()
    for coeffs in product(range(4), repeat=rows.shape[0]):
        acc = np.zeros(rows.shape[1], dtype=np.uint8)
        for lam, row in zip(coeffs, rows):
            acc ^= gen.GF4_MUL[lam, row]
        vectors.add(acc.tobytes())
    return (len(vectors).bit_length() - 1) // 2


def gf2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.T.astype(np.int64)) % 2


def gf4_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.uint8)
    for i, j in product(range(a.shape[0]), range(b.shape[0])):
        acc = 0
        for u, v in zip(a[i], b[j]):
            acc ^= int(gen.GF4_MUL[u, v])
        out[i, j] = acc
    return out


def sizes(rng, max_n: int = 6):
    n = int(rng.integers(2, max_n + 1))
    c = int(rng.integers(0, n + 1))
    k = int(rng.integers(0 if c else 1, n - c + 1))
    return n, c, k


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_set_needs_c_ebits(seed):
    rng = np.random.default_rng(seed)
    n, c, k = sizes(rng)
    z, x = gen.binary_set(rng, n, c, k)
    omega = (gf2_product(x, z) + gf2_product(z, x)) % 2
    assert span_rank_gf2(omega) == 2 * c
    assert span_rank_gf2(np.hstack([z, x])) == 2 * c + k


@pytest.mark.parametrize("seed", SEEDS)
def test_commuting_rows_come_first(seed):
    rng = np.random.default_rng(seed)
    n, c, k = sizes(rng)
    z, x = gen.binary_set_commuting_first(rng, n, c, k)
    omega = (gf2_product(x, z) + gf2_product(z, x)) % 2
    assert span_rank_gf2(omega) == 2 * c
    assert span_rank_gf2(np.hstack([z, x])) == 2 * c + k
    assert not omega[:k].any()


@pytest.mark.parametrize("seed", SEEDS)
def test_css_pair_has_rank_c(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    r1 = int(rng.integers(1, n + 1))
    r2 = int(rng.integers(1, n + 1))
    c = int(rng.integers(max(0, r1 + r2 - n), min(r1, r2) + 1))
    h1, h2 = gen.css_pair(rng, n, r1, r2, c)
    assert span_rank_gf2(gf2_product(h1, h2)) == c
    assert span_rank_gf2(h1) == r1 and span_rank_gf2(h2) == r2


@pytest.mark.parametrize("seed", SEEDS)
def test_gf4_matrix_has_hermitian_rank_c(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 5))
    c = int(rng.integers(0, rows + 1))
    n = c + 2 * (rows - c) + int(rng.integers(0, 3))
    h = gen.gf4_matrix(rng, rows, n, c)
    assert span_rank_gf4(gf4_product(h, GF4_CONJ[h])) == c
    assert span_rank_gf4(h) == rows


@pytest.mark.parametrize("seed", SEEDS)
def test_qudit_set_needs_c_edits(seed):
    rng = np.random.default_rng(seed)
    d = (2, 3, 5, 7)[seed % 4]
    n, c, k = sizes(rng)
    z, x = gen.qudit_set(rng, d, n, c, k)
    omega = (x @ z.T - z @ x.T) % d
    field = GF(d)

    def rank(a):
        return DomainMatrix([[field(int(v)) for v in row] for row in a], a.shape, field).rank()

    assert rank(omega) == 2 * c
    assert rank(np.hstack([z, x])) == 2 * c + k


@pytest.mark.parametrize("seed", SEEDS)
def test_real_set_needs_c_modes(seed):
    rng = np.random.default_rng(seed)
    n, c, k = sizes(rng, max_n=12)
    z, x = gen.real_set(rng, n, c, k)
    omega = x @ z.T - z @ x.T
    assert np.linalg.matrix_rank(omega, tol=1e-9) == 2 * c
    assert np.linalg.matrix_rank(np.hstack([z, x]), tol=1e-9) == 2 * c + k


# GF(2^8) modulo x^8 + x^4 + x^3 + x^2 + 1, for exhaustive evaluation.
def gf256_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return acc


def gf256_rank(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(b for b in range(1, 256) if gf256_mul(rows[rank][col], b) == 1)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = gf256_mul(rows[r][col], inv)
                rows[r] = [u ^ gf256_mul(f, v) for u, v in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def laurent_rank_exhaustive(omega: list[list[dict]]) -> int:
    """Rank over GF(2)(D) as the largest rank of M(a) over all a in GF(2^8)*.

    Exact while every minor, after clearing negative powers, has degree
    below 255: a nonzero minor then cannot vanish at every point.
    """
    best = 0
    for a in range(1, 256):
        powers = {0: 1}
        inv = next(b for b in range(1, 256) if gf256_mul(a, b) == 1)
        for e in range(1, 64):
            powers[e] = gf256_mul(powers[e - 1], a)
            powers[-e] = gf256_mul(powers[-(e - 1)], inv)
        values = [[0] * len(row) for row in omega]
        for i, row in enumerate(omega):
            for j, poly in enumerate(row):
                for e in poly:
                    values[i][j] ^= powers[e]
        best = max(best, gf256_rank(values))
    return best


def shifted_products(z, x) -> list[list[dict]]:
    """sum_j z_i,j(D) x_l,j(1/D) + x_i,j(D) z_l,j(1/D), as exponent sets."""
    m, n = len(z), len(z[0])
    out = []
    for i in range(m):
        row = []
        for l in range(m):
            terms: dict[int, int] = {}
            for j in range(n):
                for a, b in ((z[i][j], x[l][j]), (x[i][j], z[l][j])):
                    for e1 in gen.poly_terms(a):
                        for e2 in gen.poly_terms(b):
                            terms[e1 - e2] = terms.get(e1 - e2, 0) ^ 1
            row.append({e for e, bit in terms.items() if bit})
        out.append(row)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_conv_set_needs_c_ebits_per_frame(seed):
    rng = np.random.default_rng(seed)
    n, c, k = sizes(rng, max_n=3)
    z, x = gen.conv_set(rng, n, c, k, max_exp=3, ops=60)
    assert all(-3 <= e <= 3 for row in z + x for p in row for e in gen.poly_terms(p))
    assert laurent_rank_exhaustive(shifted_products(z, x)) == 2 * c


def test_conv_text_round_trips_exponents():
    p = (1 << (gen._OFFSET - 2)) | (1 << gen._OFFSET) | (1 << (gen._OFFSET + 1))
    assert gen.poly_text(p) == "D^-2+1+D"
    assert gen.poly_text(0) == "0"


def test_qcheck_text_layout():
    z = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    x = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    assert gen.qcheck_text(z, x) == "qcheck 2 2\n10|00\n00|11\n"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_calls(workload):
    first = workloads.build(workload, 3)
    assert len(first) >= 40
    assert first == workloads.build(workload, 3)
    assert first != workloads.build(workload, 4)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(40)]) == 29.0  # p75
    assert run.tail_percentile([float(i) for i in range(100)]) == 89.0  # p90
