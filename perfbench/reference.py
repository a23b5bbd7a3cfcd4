"""Independent references the benchmark checks qtrellis outputs against.

Everything here is computed from a code's stabilizer generators with the
benchmark's own GF(2) arithmetic in numpy.  Nothing calls the program's
decoders, field routines, trellis builder or logical-operator extraction,
so a fault in any of them cannot hide in its own reference.  All codes the
benchmark runs are qubit codes.
"""
from __future__ import annotations

import math

import numpy as np

# Published (vertices, edges) totals of minimal trellises, in the qubit
# numbering of the built-in codes: the full normalizer trellis ("full") and
# the X- and Z-check parts of a CSS split ("x", "z").
PUBLISHED_TOTALS = {
    ("rotated_surface", 3, "full"): (74, 152),
    ("rotated_surface", 3, "x"): (22, 30),
    ("rotated_surface", 3, "z"): (30, 44),
    ("rotated_surface", 5, "full"): (1098, 2152),
    ("rotated_surface", 5, "x"): (118, 172),
    ("rotated_surface", 5, "z"): (198, 284),
    ("rotated_surface", 7, "full"): (10058, 19688),
    ("rotated_surface", 7, "x"): (470, 700),
    ("rotated_surface", 7, "z"): (854, 1228),
    ("steane_level2", None, "x"): (626, 844),
}

# Largest error-pattern space the band enumeration takes on.
MAX_BAND_BITS = 21


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def gf2_kernel(A: np.ndarray) -> np.ndarray:
    """Rows spanning {v : A v = 0 (mod 2)}, by reduced row echelon form."""
    A = (np.asarray(A) % 2).astype(np.uint8)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.flatnonzero(A[r:, c])
        if hit.size == 0:
            continue
        A[[r, r + hit[0]]] = A[[r + hit[0], r]]
        others = np.flatnonzero(A[:, c])
        A[others[others != r]] ^= A[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = A[row, f]
    return basis


class CheckMatrices:
    """A code's stabilizer checks and normalizer as GF(2) matrices.

    ``syndrome_of`` applies the stabilizer commutation matrix; ``is_stabilizer``
    tests a zero-syndrome residual for membership in the stabilizer group by
    its commutation with a normalizer basis (S is exactly the set of strings
    commuting with all of N(S)).
    """

    def __init__(self, code):
        if code.p != 2:
            raise ValueError("the benchmark references are for qubit codes")
        self.n = code.n
        sx = np.array([g.x for g in code.stabilizers], dtype=np.uint8) % 2
        sz = np.array([g.z for g in code.stabilizers], dtype=np.uint8) % 2
        self.stab = np.hstack([sx, sz])  # rows [x | z]
        # row j of comm_s dotted with [x | z] is the commutation with check j
        self.comm_s = np.hstack([sz, sx])
        self.normalizer = gf2_kernel(self.comm_s)
        n = self.n
        self.comm_n = np.hstack([self.normalizer[:, n:], self.normalizer[:, :n]])

    @property
    def m(self) -> int:
        return self.stab.shape[0]

    def syndrome_of(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        v = np.concatenate([np.asarray(x) % 2, np.asarray(z) % 2]).astype(np.int64)
        return self.comm_s.astype(np.int64) @ v % 2

    def is_stabilizer(self, x: np.ndarray, z: np.ndarray) -> bool:
        v = np.concatenate([np.asarray(x) % 2, np.asarray(z) % 2]).astype(np.int64)
        return not (self.comm_n.astype(np.int64) @ v % 2).any()

    def random_stabilizer(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """A uniformly random non-identity element of the stabilizer group."""
        while True:
            coeff = rng.integers(0, 2, size=self.m)
            if coeff.any():
                break
        v = coeff @ self.stab.astype(np.int64) % 2
        return v[: self.n], v[self.n :]


# ---------------------------------------------------------------------------
# trellis structure


def count_paths(trellis) -> int:
    """Root-to-sink path count by a forward dynamic program over the edges."""
    count = np.ones(1, dtype=np.int64)
    for i, sec in enumerate(trellis.sections):
        nxt = np.zeros(trellis.layers[i + 1].size, dtype=np.int64)
        np.add.at(nxt, sec.target, count[sec.source])
        count = nxt
    if count.size != 1:
        raise ValueError("trellis does not end in a single vertex")
    return int(count[0])


def totals(trellis) -> tuple[int, int]:
    """(vertices, edges) summed over layers and sections."""
    return (
        sum(int(layer.size) for layer in trellis.layers),
        sum(int(sec.source.size) for sec in trellis.sections),
    )


def group_size(code, part: str) -> int:
    """Order of the group a trellis must enumerate.

    ``full`` is the normalizer, 2^(n+k); a CSS part holds the strings of
    the dual axis that commute with its checks, 2^(n - #checks).
    """
    if part == "full":
        return 2 ** (code.n + code.k)
    axis = 0 if part == "x" else 1  # x part: checks with an X component
    checks = sum(
        1 for g in code.stabilizers if (g.x.any() if axis == 0 else g.z.any())
    )
    return 2 ** (code.n - checks)


def same_trellis(a, b) -> bool:
    """Field-by-field equality of two trellises, arrays included."""
    if (a.p, a.n) != (b.p, b.n) or len(a.sections) != len(b.sections):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.size != lb.size or tuple(la.pivots) != tuple(lb.pivots):
            return False
        for fa, fb in ((la.basis, lb.basis), (la.offset, lb.offset)):
            if (fa is None) != (fb is None) or (fa is not None and not np.array_equal(fa, fb)):
                return False
    for sa, sb in zip(a.sections, b.sections):
        for fa, fb in ((sa.source, sb.source), (sa.target, sb.target), (sa.label, sb.label)):
            if not np.array_equal(fa, fb):
                return False
    if (a.label_maps is None) != (b.label_maps is None):
        return False
    if a.label_maps is not None:
        if not all(np.array_equal(x, y) for x, y in zip(a.label_maps, b.label_maps)):
            return False
    return a.profile == b.profile


# ---------------------------------------------------------------------------
# channels


def site_probs(kind: str, p_phys: float) -> dict[tuple[int, int], float]:
    """Single-qubit label probabilities {(x, z): prob} of a named channel."""
    if kind == "depolarizing":
        rest = p_phys / 3
        return {(0, 0): 1 - p_phys, (1, 0): rest, (0, 1): rest, (1, 1): rest}
    if kind == "dephasing_z":
        return {(0, 0): 1 - p_phys, (0, 1): p_phys}
    raise ValueError(f"unsupported channel {kind!r}")


def neglog_weight(kind: str, p_phys: float, x: np.ndarray, z: np.ndarray) -> float:
    """The -log probability of an error string under the channel."""
    probs = site_probs(kind, p_phys)
    total = 0.0
    for a, b in zip((np.asarray(x) % 2).tolist(), (np.asarray(z) % 2).tolist()):
        prob = probs.get((a, b), 0.0)
        if prob == 0.0:
            return math.inf
        total -= math.log(prob)
    return total


def sample_errors(
    kind: str, p_phys: float, n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` i.i.d. errors as (x, z) arrays of shape (count, n)."""
    hit = rng.random((count, n)) < p_phys
    if kind == "dephasing_z":
        return np.zeros((count, n), dtype=np.int64), hit.astype(np.int64)
    if kind != "depolarizing":
        raise ValueError(f"unsupported channel {kind!r}")
    which = rng.integers(0, 3, size=(count, n))  # 0: X, 1: Y, 2: Z
    x = (hit & (which <= 1)).astype(np.int64)
    z = (hit & (which >= 1)).astype(np.int64)
    return x, z


def nontrivial_prob(n: int, p_phys: float) -> float:
    """Probability that an i.i.d. error acts on at least one qubit."""
    return 1.0 - (1.0 - p_phys) ** n


def radius_bound(n: int, p_phys: float, t: int) -> float:
    """P(weight > t | weight >= 1) for i.i.d. errors of site rate p_phys.

    A decoder that corrects every error of weight at most t cannot fail
    more often than this among non-identity errors.
    """
    below = sum(math.comb(n, w) * p_phys**w * (1 - p_phys) ** (n - w) for w in range(t + 1))
    return (1.0 - below) / nontrivial_prob(n, p_phys)


# ---------------------------------------------------------------------------
# exact failure-rate band of minimum-weight decoding


def _xor_span(contrib: np.ndarray) -> np.ndarray:
    """XOR of ``contrib[b]`` over the set bits b of every index 0..2^B-1."""
    out = np.zeros(1, dtype=np.int64)
    for c in contrib.tolist():
        out = np.concatenate([out, out ^ c])
    return out


def _pack_columns(M: np.ndarray) -> np.ndarray:
    """Each column of a 0/1 matrix as one integer (row r is bit r)."""
    if M.shape[0] > 62:
        raise ValueError("too many rows to pack into int64")
    bits = np.left_shift(np.int64(1), np.arange(M.shape[0], dtype=np.int64))
    return (M.astype(np.int64) * bits[:, None]).sum(axis=0)


class Band:
    """Failure-rate band [R_lo, R_hi] of minimum-weight decoding.

    Enumerates every error pattern of the channel: Z strings for
    ``dephasing_z`` (2^n), all Paulis for ``depolarizing`` (4^n).  Errors are
    grouped into cosets of the stabilizer group by their commutation with a
    normalizer basis.  For each syndrome, the cosets holding an error of the
    least Hamming weight are the ones a minimum-weight decoder may return
    (for p below 1/2, resp. 3/4, weight order is likelihood order).  R_lo
    takes the most probable such coset for every syndrome, R_hi the least.
    """

    def __init__(self, code, kind: str):
        checks = CheckMatrices(code)
        n = code.n
        self.n, self.kind = n, kind
        if kind == "dephasing_z":
            cols = slice(n, 2 * n)  # pattern bits are the z exponents
            bits = n
        elif kind == "depolarizing":
            cols = slice(0, 2 * n)
            bits = 2 * n
        else:
            raise ValueError(f"unsupported channel {kind!r}")
        if bits > MAX_BAND_BITS:
            raise ValueError(f"{2 ** bits} patterns are too many to enumerate")
        coset = _xor_span(_pack_columns(checks.comm_n[:, cols]))
        syn = _xor_span(_pack_columns(checks.comm_s[:, cols]))
        idx = np.arange(2**bits, dtype=np.int64)
        if kind == "dephasing_z":
            weight = np.bitwise_count(idx)
        else:
            weight = np.bitwise_count((idx & ((1 << n) - 1)) | (idx >> n))
        weight = weight.astype(np.int64)
        keys, first, inv = np.unique(coset, return_index=True, return_inverse=True)
        self.counts = np.bincount(
            inv * (n + 1) + weight, minlength=keys.size * (n + 1)
        ).reshape(keys.size, n + 1)
        min_weight = np.argmax(self.counts > 0, axis=1)
        _, self.syndrome = np.unique(syn[first], return_inverse=True)
        least = np.full(self.syndrome.max() + 1, n + 1)
        np.minimum.at(least, self.syndrome, min_weight)
        self.candidate = min_weight == least[self.syndrome]

    def coset_probs(self, p_phys: float) -> np.ndarray:
        w = np.arange(self.n + 1)
        q = 1 if self.kind == "dephasing_z" else 3
        return self.counts @ ((1 - p_phys) ** (self.n - w) * (p_phys / q) ** w)

    def rates(self, p_phys: float) -> tuple[float, float]:
        """(R_lo, R_hi) at physical rate ``p_phys``."""
        probs = self.coset_probs(p_phys)
        groups = self.syndrome.max() + 1
        best = np.zeros(groups)
        worst = np.full(groups, np.inf)
        np.maximum.at(best, self.syndrome[self.candidate], probs[self.candidate])
        np.minimum.at(worst, self.syndrome[self.candidate], probs[self.candidate])
        total = probs.sum()
        return float(total - best.sum()), float(total - worst.sum())


def band_feasible(code, kind: str) -> bool:
    bits = code.n if kind == "dephasing_z" else 2 * code.n
    return code.p == 2 and bits <= MAX_BAND_BITS
