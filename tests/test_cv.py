"""Tests for the real-valued (continuous-variable) mode count."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc import (
    NonFiniteEntryError,
    RealCheckMatrix,
    ShapeError,
    cv_ebit_count,
    numerical_rank,
    rational_rank,
)


def test_single_row_needs_nothing():
    h = RealCheckMatrix(np.array([[1.0]]), np.array([[0.0]]))
    assert cv_ebit_count(h) == 0


def test_conjugate_pair():
    h = RealCheckMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert cv_ebit_count(h) == 1


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (-0.125, 7.5), (1e3, -1e-3)])
def test_scaling_preserves_count(a, b):
    h = RealCheckMatrix(np.array([[a], [0.0]]), np.array([[0.0], [b]]))
    assert cv_ebit_count(h) == 1


def test_non_finite_entries_rejected():
    with pytest.raises(NonFiniteEntryError):
        RealCheckMatrix(np.array([[np.nan]]), np.array([[0.0]]))
    with pytest.raises(NonFiniteEntryError):
        RealCheckMatrix(np.array([[1.0]]), np.array([[np.inf]]))


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        RealCheckMatrix(np.zeros((2, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("tolerance", [-1e-3, 1.0, 5.0, np.inf, np.nan])
def test_tolerance_outside_unit_interval_rejected(tolerance):
    # at 1 or more no pivot clears the threshold, so every rank would be 0
    with pytest.raises(ValueError, match="nonnegative number below 1"):
        RealCheckMatrix([[1.0]], [[0.0]], tolerance)


def test_tolerance_just_below_one_still_counts():
    h = RealCheckMatrix([[1.0], [0.0]], [[0.0], [1.0]], tolerance=0.999)
    assert cv_ebit_count(h) == 1


def test_tolerance_is_relative_to_largest_entry():
    # second pair's product entries are eps^2 = 1e-14: invisible at the
    # default relative tolerance, visible at a much tighter one
    eps = 1e-7
    hz = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, eps], [0.0, 0.0]])
    hx = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, eps]])
    assert cv_ebit_count(RealCheckMatrix(hz, hx)) == 1
    assert cv_ebit_count(RealCheckMatrix(hz, hx, tolerance=1e-16)) == 2


def test_numerical_rank_plain_cases():
    assert numerical_rank(np.zeros((3, 3)), 1e-10) == 0
    assert numerical_rank(np.eye(4), 1e-10) == 4
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-10) == 1


def test_rational_rank_examples():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rational_rank([[0]]) == 0


@pytest.mark.parametrize("seed", range(30))
def test_integer_inputs_match_exact_elimination(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    generators = rng.randint(1, 2 * n)
    hz_int = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(generators)]
    hx_int = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(generators)]
    h = RealCheckMatrix(np.array(hz_int, dtype=float), np.array(hx_int, dtype=float))
    omega_exact = [
        [
            sum(hx_int[i][k] * hz_int[j][k] - hz_int[i][k] * hx_int[j][k] for k in range(n))
            for j in range(generators)
        ]
        for i in range(generators)
    ]
    exact = rational_rank(omega_exact)
    assert exact % 2 == 0
    assert cv_ebit_count(h) == exact // 2


def test_empty_generator_set():
    h = RealCheckMatrix(np.zeros((0, 3)), np.zeros((0, 3)))
    assert cv_ebit_count(h) == 0


@st.composite
def _integer_products(draw):
    """A @ B for integer A (m x r) and B (r x n): rank at most r, any of m, r, n 0."""
    m, r, n = (draw(st.integers(0, k)) for k in (6, 3, 6))
    entries = st.integers(-3, 3)
    a = draw(st.lists(entries, min_size=m * r, max_size=m * r))
    b = draw(st.lists(entries, min_size=r * n, max_size=r * n))
    return np.array(a, dtype=np.int64).reshape(m, r) @ np.array(b, dtype=np.int64).reshape(r, n)


@settings(derandomize=True, max_examples=200)
@given(_integer_products())
@example(np.zeros((0, 4), dtype=np.int64))
@example(np.zeros((4, 0), dtype=np.int64))
@example(np.ones((3, 5), dtype=np.int64))
def test_numerical_rank_equals_rational_rank_property(product):
    exact = rational_rank(product.tolist())
    assert numerical_rank(product.astype(np.float64), 1e-10) == exact
