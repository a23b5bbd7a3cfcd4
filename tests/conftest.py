"""Shared helpers for the test suite: group enumeration and brute-force oracles."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from qtrellis import ffield
from qtrellis.pauli import PauliString, from_symplectic, mul


def group_elements(gens: list[PauliString]) -> set[PauliString]:
    """All elements of the (phaseless) group generated by ``gens``."""
    p = gens[0].p
    n = gens[0].n
    rows = np.array([np.concatenate([g.x, g.z]) for g in gens], dtype=np.int64)
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        vec = (np.array(coeffs, dtype=np.int64) @ rows) % p
        out.add(from_symplectic(vec, p))
    return out


def in_row_span(m: np.ndarray, v: np.ndarray, p: int) -> bool:
    """True iff ``v`` lies in the row span of ``m`` over F_p."""
    stacked = np.vstack([np.asarray(m, dtype=np.int64), np.asarray(v, dtype=np.int64)])
    return ffield.rank(stacked, p) == ffield.rank(m, p)


def coset_min_weight(
    elements: set[PauliString], T: PauliString, table: np.ndarray
) -> float:
    """Brute-force minimum weight over the coset ``T * <elements>``.

    ``table`` has shape (n, p, p) indexed by (site, x_exp, z_exp).
    """
    best = np.inf
    for g in elements:
        e = mul(T, g)
        w = float(table[np.arange(e.n), e.x, e.z].sum())
        best = min(best, w)
    return best


def random_commuting_gens(
    rng: np.random.Generator, n: int, m: int, p: int = 2, max_tries: int = 500
) -> list[PauliString]:
    """A random set of m independent, pairwise-commuting Pauli strings."""
    rows: list[np.ndarray] = []
    gens: list[PauliString] = []
    tries = 0
    while len(gens) < m:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not build a random stabilizer group")
        vec = rng.integers(0, p, size=2 * n).astype(np.int64)
        cand = from_symplectic(vec, p)
        if cand.is_identity():
            continue
        from qtrellis.pauli import sym_inner

        if any(sym_inner(cand, g) % p for g in gens):
            continue
        stacked = np.array(rows + [vec], dtype=np.int64)
        if ffield.rank(stacked, p) < len(rows) + 1:
            continue
        rows.append(vec)
        gens.append(cand)
    return gens


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260824)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call":
                continue
            if "test_acceptance" not in rep.nodeid:
                continue
            name = rep.nodeid.split("::")[-1]
            lines[name] = "PASS" if status == "passed" else "FAIL"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{lines[name]} {name}")
