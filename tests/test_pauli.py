"""Phaseless Pauli arithmetic: group laws, symplectic form, text grammar."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrellis.pauli import (
    PauliString,
    format_pauli,
    from_symplectic,
    identity,
    mul,
    parse_pauli,
    partial_syndrome,
    prefix,
    sym_inner,
    syndrome,
)


def random_pauli(p: int, n: int, seed: int) -> PauliString:
    rng = np.random.default_rng(seed)
    return PauliString(p, rng.integers(0, p, n).astype(np.int64), rng.integers(0, p, n).astype(np.int64))


pauli_args = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 8), st.integers(0, 2**31))


@settings(max_examples=200, deadline=None)
@given(args=pauli_args, seed2=st.integers(0, 2**31), seed3=st.integers(0, 2**31))
def test_group_laws(args, seed2, seed3):
    p, n, seed = args
    P = random_pauli(p, n, seed)
    Q = random_pauli(p, n, seed2)
    R = random_pauli(p, n, seed3)
    e = identity(n, p)
    assert mul(P, e) == P
    assert mul(mul(P, Q), R) == mul(P, mul(Q, R))
    assert mul(P, Q) == mul(Q, P)


@settings(max_examples=200, deadline=None)
@given(args=pauli_args, seed2=st.integers(0, 2**31), seed3=st.integers(0, 2**31))
def test_sym_inner_bilinear_antisymmetric(args, seed2, seed3):
    p, n, seed = args
    P = random_pauli(p, n, seed)
    Q = random_pauli(p, n, seed2)
    R = random_pauli(p, n, seed3)
    assert sym_inner(P, Q) == (-sym_inner(Q, P)) % p
    assert sym_inner(mul(P, R), Q) == (sym_inner(P, Q) + sym_inner(R, Q)) % p
    assert sym_inner(P, P) == 0


@settings(max_examples=150, deadline=None)
@given(args=pauli_args)
def test_symplectic_round_trip(args):
    p, n, seed = args
    P = random_pauli(p, n, seed)
    assert from_symplectic(P.symplectic(), p) == P
    assert P.weight() == int(np.count_nonzero(P.x | P.z))


def test_parse_format_qubit():
    for text in ("IXYZ", "IIII", "XZZX", "YYYY"):
        P = parse_pauli(text)
        assert format_pauli(P) == text
    P = parse_pauli("XIZ")
    assert tuple(P.x) == (1, 0, 0) and tuple(P.z) == (0, 0, 1)
    assert parse_pauli("Y", 2).x[0] == 1 and parse_pauli("Y", 2).z[0] == 1


def test_parse_format_qudit():
    P = parse_pauli("X2.Z0 X0.Z0 X0.Z1 X1.Z2", 3)
    assert P.n == 4
    assert tuple(P.x) == (2, 0, 0, 1)
    assert tuple(P.z) == (0, 0, 1, 2)
    assert parse_pauli(format_pauli(P), 3) == P


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pauli("ABC")
    with pytest.raises(ValueError):
        parse_pauli("X3.Z1", 3)
    with pytest.raises(ValueError):
        parse_pauli("XX", 2, n=3)


def test_prefix_and_partial_syndrome():
    gens = [parse_pauli(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    P = parse_pauli("YIZXI")
    full = syndrome(gens, P)
    assert np.array_equal(partial_syndrome(gens, P, P.n), full)
    assert np.array_equal(partial_syndrome(gens, P, 0), np.zeros(4, dtype=full.dtype))
    for i in range(P.n + 1):
        assert np.array_equal(partial_syndrome(gens, P, i), syndrome(gens, prefix(P, i)))


@pytest.mark.parametrize("p", [3, 5])
def test_partial_syndrome_matches_sym_inner_loop(p):
    """The one-product partial syndrome against the per-generator reference, at every depth."""
    n = 6
    for trial in range(30):
        gens = [random_pauli(p, n, 100 * trial + j) for j in range(trial % 5)]
        P = random_pauli(p, n, 100 * trial + 99)
        for i in range(n + 1):
            want = np.array([sym_inner(g, prefix(P, i)) for g in gens], dtype=np.int64)
            got = partial_syndrome(gens, P, i)
            assert got.shape == (len(gens),)
            assert np.array_equal(got, want)
    assert partial_syndrome([], P, n).shape == (0,)
    other = 3 if p == 5 else 5
    with pytest.raises(ValueError):
        partial_syndrome([random_pauli(other, n, 1)], P, n)
    with pytest.raises(ValueError):
        partial_syndrome([random_pauli(p, n + 1, 1)], P, n)


def test_weight_and_site():
    P = parse_pauli("IXYZ")
    assert P.weight() == 3
    assert P.site(1) == (0, 0)
    assert P.site(2) == (1, 0)
    assert P.site(3) == (1, 1)
    assert P.site(4) == (0, 1)
