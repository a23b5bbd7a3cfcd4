"""Exact linear algebra over the prime field F_p.

Matrices are numpy integer arrays with entries reduced mod ``p``; the modulus
is passed explicitly to every operation.  All functions are pure and never
mutate their arguments.
"""
from __future__ import annotations

import numpy as np


def is_prime(p: int) -> bool:
    """Return True iff ``p`` is a prime number."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Abort with ValueError unless ``p`` is prime."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def inv_mod(a: int, p: int) -> int:
    """Return the multiplicative inverse of ``a`` mod prime ``p``."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduce ``m`` to reduced row-echelon form over F_p.

    Returns ``(reduced, pivot_columns, rank)``.  The row space is preserved.
    """
    mat = np.asarray(m, dtype=np.int64) % p
    if mat.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows, cols = mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if mat[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            mat[[r, pivot]] = mat[[pivot, r]]
        mat[r] = (mat[r] * inv_mod(int(mat[r, c]), p)) % p
        for i in range(rows):
            if i != r and mat[i, c]:
                mat[i] = (mat[i] - mat[i, c] * mat[r]) % p
        pivots.append(c)
        r += 1
    return mat, pivots, r


def rank(m: np.ndarray, p: int) -> int:
    """Return the rank of ``m`` over F_p."""
    return rref(m, p)[2]


def kernel(m: np.ndarray, p: int) -> np.ndarray:
    """Return a basis for the right nullspace of ``m`` over F_p.

    The basis vectors are the rows of the returned array; there are
    ``cols - rank`` of them.
    """
    mat = np.asarray(m, dtype=np.int64) % p
    rows, cols = mat.shape
    red, pivots, rk = rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for r, c in enumerate(pivots):
            basis[idx, c] = (-red[r, f]) % p
    return basis


def span(rows: np.ndarray, p: int) -> np.ndarray:
    """Every combination of ``rows`` mod p, column-major: shape ``(k, p**len(rows))``.

    Column j has coefficients spelling j in base p, first row most significant,
    so echelon rows give their span in lexicographic order.  The unsigned
    digits fill one array by block doubling: block a is block a - 1 plus the
    row, reduced by ``min(x, x - p)`` since a digit below p wraps past it.
    """
    digits = (rows % p).astype(np.min_scalar_type(2 * p - 2))
    out = np.zeros((digits.shape[1], p ** len(digits)), dtype=digits.dtype)
    for j, row in enumerate(digits[::-1]):
        for a in range(1, p):
            blk = out[:, a * p**j : (a + 1) * p**j]
            np.add(out[:, (a - 1) * p**j : a * p**j], row[:, None], out=blk)
            np.minimum(blk, blk - p, out=blk)
    return out


def mixed_radix(digits: np.ndarray, p: int) -> np.ndarray:
    """Collapse base-p digit rows (most significant first) to int64 indices, one per column."""
    idx = np.zeros(digits.shape[1], dtype=np.int64)
    for d in digits:
        idx *= p
        idx += d
    return idx
