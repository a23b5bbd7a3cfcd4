"""Phaseless generalized Pauli strings over F_p and their partial syndromes.

An n-qudit Pauli string is stored as the pair of exponent vectors ``(x, z)``
with the operator reading ``prod_i X_i^{x_i} Z_i^{z_i}``; global phases are
dropped throughout.  Qudit positions are 1-based in all public interfaces.

The symplectic form has one home here: a set of strings is the matrix of
its ``[x | z]`` rows, and its ``[-z | x]`` rows turn every commutation,
syndrome and logical-class test into one matrix product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_QUBIT_CHARS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_QUBIT_NAMES = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliString:
    """A phaseless Pauli string: exponent vectors modulo the prime ``p``."""

    p: int
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.int64) % self.p)
        object.__setattr__(self, "z", np.asarray(self.z, dtype=np.int64) % self.p)
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("exponent vectors must be 1-d and of equal length")

    @property
    def n(self) -> int:
        return self.x.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        return f"PauliString({format_pauli(self)!r}, p={self.p})"

    def is_identity(self) -> bool:
        return not self.x.any() and not self.z.any()

    def weight(self) -> int:
        """Number of non-identity sites."""
        return int(np.count_nonzero((self.x != 0) | (self.z != 0)))

    def site(self, i: int) -> tuple[int, int]:
        """Exponent pair ``(a, b)`` at 1-based position ``i``."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return int(self.x[i - 1]), int(self.z[i - 1])

    def symplectic(self) -> np.ndarray:
        """Length-2n vector ``[x | z]`` over F_p."""
        return np.concatenate([self.x, self.z])


def identity(n: int, p: int = 2) -> PauliString:
    return PauliString(p, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


def from_symplectic(vec: np.ndarray, p: int) -> PauliString:
    """Build a string from a length-2n ``[x | z]`` vector."""
    vec = np.asarray(vec, dtype=np.int64)
    if vec.size % 2:
        raise ValueError("symplectic vector length must be even")
    n = vec.size // 2
    return PauliString(p, vec[:n], vec[n:])


def _check_compatible(P: PauliString, Q: PauliString) -> None:
    if P.p != Q.p or P.n != Q.n:
        raise ValueError("operands act on different systems")


def mul(P: PauliString, Q: PauliString) -> PauliString:
    """Phaseless product: exponentwise sum mod p."""
    _check_compatible(P, Q)
    return PauliString(P.p, P.x + Q.x, P.z + Q.z)


def sym_inner(P: PauliString, Q: PauliString) -> int:
    """Symplectic inner product ``sum_i (a_i b'_i - b_i a'_i) mod p``.

    Zero iff the two strings commute up to phase; antisymmetric.
    """
    _check_compatible(P, Q)
    return int((P.x @ Q.z - P.z @ Q.x) % P.p)


def prefix(P: PauliString, i: int) -> PauliString:
    """Projection onto the first ``i`` positions (the depth-i prefix)."""
    if not 0 <= i <= P.n:
        raise IndexError(f"depth {i} out of range 0..{P.n}")
    x = P.x.copy()
    z = P.z.copy()
    x[i:] = 0
    z[i:] = 0
    return PauliString(P.p, x, z)


def symplectic_matrix(gens: list[PauliString]) -> np.ndarray:
    """Rows are the ``[x | z]`` vectors of ``gens``."""
    return np.array([g.symplectic() for g in gens], dtype=np.int64)


def commutation_rows(sym: np.ndarray, p: int) -> np.ndarray:
    """The ``[-z | x]`` rows of ``[x | z]`` rows ``sym``, mod p.

    Row j of the result dotted with ``[x_E | z_E]`` is the symplectic inner
    product of row j with E, so ``commutation_rows(A, p) @ B.T % p`` holds
    every commutation value between the rows of A and of B.
    """
    n = sym.shape[-1] // 2
    return np.concatenate([-sym[..., n:], sym[..., :n]], axis=-1) % p


def commutation_matrix(gens: list[PauliString]) -> np.ndarray:
    """Rows c_j with ``c_j . [x_E | z_E] = sym_inner(gens[j], E)``."""
    return commutation_rows(symplectic_matrix(gens), gens[0].p)


def _partial_syndromes(sym: np.ndarray, L: np.ndarray, p: int) -> np.ndarray:
    """Labels of symplectic rows ``(..., 2n)`` at every depth, shape ``(..., n + 1, m)``.

    Entry ``[..., i, :]`` is the row with the sites past ``i`` zeroed, times
    ``L``: one cumulative sum of the per-site contributions.
    """
    n = L.shape[0] // 2
    site = sym[..., :n, None] * L[:n] + sym[..., n:, None] * L[n:]
    out = np.zeros(sym.shape[:-1] + (n + 1, L.shape[1]), dtype=np.int64)
    np.cumsum(site, axis=-2, out=out[..., 1:, :])
    return out % p


def partial_syndrome(gens: list[PauliString], P: PauliString, i: int) -> np.ndarray:
    """Syndrome of the depth-``i`` prefix of ``P`` against ``gens``.

    Component j is ``sym_inner(gens[j], prefix(P, i))``: row ``i`` of
    :func:`_partial_syndromes` of ``P`` against the ``[-z | x]`` rows of ``gens``.
    """
    if not 0 <= i <= P.n:
        raise IndexError(f"depth {i} out of range 0..{P.n}")
    if any(g.p != P.p or g.n != P.n for g in gens):
        raise ValueError("operands act on different systems")
    rows = symplectic_matrix(gens).reshape(len(gens), 2 * P.n)
    return _partial_syndromes(P.symplectic(), commutation_rows(rows, P.p).T, P.p)[i]


def syndrome(gens: list[PauliString], P: PauliString) -> np.ndarray:
    """Full syndrome of ``P`` against ``gens``."""
    return partial_syndrome(gens, P, P.n)


def parse_pauli(text: str, p: int = 2, n: int | None = None) -> PauliString:
    """Parse the text form of a Pauli string.

    For p = 2 the grammar is the usual character string over ``I X Y Z``.
    For general p each site is a token ``Xa.Zb`` and tokens are separated by
    spaces.  An empty string parses to the identity on ``n = 0`` qudits.
    """
    text = text.strip()
    if p == 2:
        xs, zs = [], []
        for ch in text:
            if ch not in _QUBIT_CHARS:
                raise ValueError(f"illegal Pauli character {ch!r}")
            a, b = _QUBIT_CHARS[ch]
            xs.append(a)
            zs.append(b)
    else:
        xs, zs = [], []
        for tok in text.split():
            if not (tok.startswith("X") and ".Z" in tok):
                raise ValueError(f"illegal Pauli token {tok!r}")
            a_str, b_str = tok[1:].split(".Z", 1)
            a, b = int(a_str), int(b_str)
            if not (0 <= a < p and 0 <= b < p):
                raise ValueError(f"exponent out of range in token {tok!r}")
            xs.append(a)
            zs.append(b)
    if n is not None and len(xs) != n:
        raise ValueError(f"expected {n} sites, got {len(xs)}")
    return PauliString(p, np.array(xs, dtype=np.int64), np.array(zs, dtype=np.int64))


def format_pauli(P: PauliString) -> str:
    """Inverse of :func:`parse_pauli`."""
    if P.p == 2:
        return "".join(_QUBIT_NAMES[(int(a), int(b))] for a, b in zip(P.x, P.z))
    return " ".join(f"X{int(a)}.Z{int(b)}" for a, b in zip(P.x, P.z))
