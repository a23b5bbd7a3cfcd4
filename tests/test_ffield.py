"""Finite-field linear algebra: exhaustive small cases plus random properties."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrellis import ffield

from conftest import in_row_span, solve


def all_matrices(rows: int, cols: int, p: int):
    for flat in itertools.product(range(p), repeat=rows * cols):
        yield np.array(flat, dtype=np.int64).reshape(rows, cols)


def test_is_prime():
    assert [q for q in range(20) if ffield.is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_check_prime_rejects_composites():
    for q in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            ffield.check_prime(q)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inv_mod(p):
    for a in range(1, p):
        assert (a * ffield.inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        ffield.inv_mod(0, p)


@pytest.mark.parametrize("p,rows,cols", [(2, 3, 3), (2, 2, 4), (3, 2, 3)])
def test_rref_exhaustive(p, rows, cols):
    for m in all_matrices(rows, cols, p):
        red, pivots, rk = ffield.rref(m, p)
        assert rk == len(pivots) == ffield.rank(m, p)
        # reduced rows have unit pivots and cleared pivot columns
        for r, c in enumerate(pivots):
            assert red[r, c] == 1
            col = red[:, c].copy()
            col[r] = 0
            assert not col.any()
        # row space is preserved in both directions
        for row in red[:rk]:
            assert in_row_span(m, row, p)
        for row in m:
            assert in_row_span(red[:rk], row, p) if rk else not row.any()
        # idempotence
        red2, piv2, rk2 = ffield.rref(red, p)
        assert np.array_equal(red2, red) and piv2 == pivots and rk2 == rk


@pytest.mark.parametrize("p,rows,cols", [(2, 3, 4), (3, 2, 3), (5, 2, 2)])
def test_kernel_exhaustive(p, rows, cols):
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
        ker = ffield.kernel(m, p)
        assert ker.shape[0] == cols - ffield.rank(m, p)
        if ker.size:
            assert not ((m @ ker.T) % p).any()
            assert ffield.rank(ker, p) == ker.shape[0]


@pytest.mark.parametrize("p", [2, 3])
def test_solve_matches_enumeration(p):
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.integers(0, p, size=(3, 3)).astype(np.int64)
        b = rng.integers(0, p, size=3).astype(np.int64)
        x = solve(m, b, p)
        solutions = [
            v
            for v in itertools.product(range(p), repeat=3)
            if not ((m @ np.array(v, dtype=np.int64) - b) % p).any()
        ]
        if x is None:
            assert not solutions
        else:
            assert not ((m @ x - b) % p).any()
            assert solutions


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_rref_properties_random(p, rows, cols, seed):
    m = np.random.default_rng(seed).integers(0, p, size=(rows, cols)).astype(np.int64)
    red, pivots, rk = ffield.rref(m, p)
    assert rk <= min(rows, cols)
    assert sorted(pivots) == list(pivots)
    ker = ffield.kernel(m, p)
    assert rk + ker.shape[0] == cols


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_span_lists_every_combination_column_major_in_lexicographic_order(p):
    rows = np.random.default_rng(p).integers(0, p, size=(3, 4))
    out = ffield.span(rows, p)
    assert out.shape == (4, p**3) and out.dtype == np.min_scalar_type(2 * p - 2)
    expect = [np.dot(coeffs, rows) % p for coeffs in itertools.product(range(p), repeat=3)]
    assert np.array_equal(out.T, expect)
    empty = ffield.span(np.zeros((0, 4), dtype=np.int64), p)
    assert empty.shape == (4, 1) and not empty.any()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mixed_radix_inverts_the_digit_order(p):
    """Column j of the digits of every index, first digit most significant, collapses to j."""
    digits = np.array(list(itertools.product(range(p), repeat=3))).T.astype(np.uint8)
    idx = ffield.mixed_radix(digits, p)
    assert idx.dtype == np.int64 and np.array_equal(idx, np.arange(p**3))
    assert np.array_equal(ffield.mixed_radix(ffield.span(np.eye(3, dtype=np.int64), p), p), np.arange(p**3))
    assert np.array_equal(ffield.mixed_radix(digits[:0], p), np.zeros(p**3))

