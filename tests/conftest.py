"""Shared helpers for the test suite: group enumeration and brute-force oracles."""
from __future__ import annotations

import itertools
import struct
import zlib

import numpy as np
import pytest

from qtrellis import code as code_mod
from qtrellis import ffield
from qtrellis.code import TrellisProfile
from qtrellis.pauli import PauliString, from_symplectic, mul, symplectic_matrix
from qtrellis.trellis import Trellis, TrellisError, TrellisLayer, TrellisSection, label_sums, serialize


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


def solve(m: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution ``x`` of ``m x = b`` over F_p, or None if inconsistent.

    A test oracle only: the pivot entries of the RREF of ``[m | b]``, free
    columns zero.  ``StabilizerCode.pure_error_map`` must reproduce it.
    """
    mat = np.asarray(m, dtype=np.int64) % p
    vec = np.asarray(b, dtype=np.int64) % p
    rows, cols = mat.shape
    if vec.shape != (rows,):
        raise ValueError("right-hand side length must equal the row count")
    red, pivots, _ = ffield.rref(np.hstack([mat, vec.reshape(-1, 1)]), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, cols]
    return x


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


def random_css_code(rng, p: int, n: int, rx: int, rz: int):
    """A random qudit CSS code: X checks from random rows, Z checks from their kernel."""
    while True:
        hx = rng.integers(0, p, size=(rx, n))
        ker = ffield.kernel(hx, p)
        hz = rng.integers(0, p, size=(rz, ker.shape[0])) @ ker % p
        weights = np.count_nonzero(np.vstack([hx, hz]), axis=1)
        if ffield.rank(hx, p) == rx and ffield.rank(hz, p) == rz and weights.min() >= 2:
            break
    zero = np.zeros(n, dtype=np.int64)
    checks = [PauliString(p, row, zero) for row in hx] + [PauliString(p, zero, row) for row in hz]
    return code_mod.new_code(p, checks)


def reference_viterbi(t, wtab, shift_x, shift_z):
    """The argmin Viterbi kernel that the label-sum kernel replaced.

    A test oracle only: decoding must stay bit-identical to it, ties
    included, in corrections and in weights.
    """
    p, n = t.p, t.n
    count = shift_x.shape[0]
    dist = np.zeros((count, 1))
    back: list[np.ndarray] = []
    for i, sec in enumerate(t.sections):
        v_next = t.layers[i + 1].size
        deg = sec.size // v_next
        a = (sec.label[:, 0][None, :] + shift_x[:, i : i + 1]) % p
        b = (sec.label[:, 1][None, :] + shift_z[:, i : i + 1]) % p
        cost = dist[:, sec.source] + wtab[i, a, b]
        cost = cost.reshape(count, v_next, deg)
        arg = np.argmin(cost, axis=2)
        dist = np.take_along_axis(cost, arg[:, :, None], axis=2)[:, :, 0]
        back.append(arg.astype(np.int32))
    total = dist[:, 0].copy()
    xs = np.zeros((count, n), dtype=np.int64)
    zs = np.zeros((count, n), dtype=np.int64)
    cur = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    for i in range(n - 1, -1, -1):
        sec = t.sections[i]
        deg = sec.size // t.layers[i + 1].size
        eidx = cur * deg + back[i][rows, cur]
        xs[:, i] = (sec.label[eidx, 0] + shift_x[:, i]) % p
        zs[:, i] = (sec.label[eidx, 1] + shift_z[:, i]) % p
        cur = sec.source[eidx]
    return xs, zs, total


def reference_build(source):
    """Layers and sections by the sorting build that one echelon per section replaced.

    A test oracle only.  Layer i is the RREF of the partial syndromes of
    the TOF generators alive across cut i.  Section i enumerates the span of
    its active generators in columns ``[source label | exponents | target
    label]``, reads both vertex indices off the layer pivots, and sorts the
    edges by (target, source, label).  Returns ``[(basis, pivots)]`` per
    layer and ``[(source, target, label)]`` per section.
    """
    from qtrellis.pauli import _partial_syndromes
    from qtrellis.trellis import _resolve

    tof, L, _ = _resolve(source)
    p, n, m = tof.p, tof.n, L.shape[1]
    G = symplectic_matrix(list(tof.gens))
    syn = _partial_syndromes(G, L, p)
    left, right = np.array(tof.left), np.array(tof.right)
    layers = []
    for i in range(n + 1):
        red, pivots, rk = ffield.rref(syn[(left <= i) & (i < right), i], p)
        layers.append((red[:rk], tuple(pivots)))

    def index(labels, pivots):
        idx = np.zeros(labels.shape[0], dtype=np.int64)
        for c in pivots:
            idx = idx * p + labels[:, c]
        return idx

    sections = []
    for i in range(1, n + 1):
        act = (left <= i) & (i <= right)
        red, _, rk = ffield.rref(np.hstack([syn[act, i - 1], G[act][:, [i - 1, n + i - 1]], syn[act, i]]), p)
        span = np.array(list(itertools.product(range(p), repeat=rk)), dtype=np.int64) @ red[:rk] % p
        src, tgt = index(span[:, :m], layers[i - 1][1]), index(span[:, m + 2 :], layers[i][1])
        lab = span[:, m : m + 2]
        order = np.lexsort((lab[:, 0] * p + lab[:, 1], src, tgt))
        sections.append((src[order], tgt[order], lab[order]))
    return layers, sections


def reference_greedy_numbering(code) -> list[int]:
    """The set-based greedy qudit numbering that the count-matrix search replaced.

    A test oracle only.  From every seed it rebuilds the placed set with
    each candidate and recounts the active generators (some but not all of
    the support placed) over every support; the key is (activated minus
    deactivated, active count, index).  Orders are scored, identity first,
    through ``qtrellis.code.permute`` and ``profile``.
    """
    n = code.n
    gens = list(code.stabilizers) + list(code.logical_gens)
    supports = [set(np.nonzero((g.x != 0) | (g.z != 0))[0] + 1) for g in gens]

    def build_order(seed: int) -> list[int]:
        placed: set[int] = set()
        order: list[int] = []
        current = seed
        while True:
            placed.add(current)
            order.append(current)
            if len(order) == n:
                return order
            best = None
            for q in range(1, n + 1):
                if q in placed:
                    continue
                trial = placed | {q}
                activated = deactivated = active = 0
                for s in supports:
                    was_active = bool(s & placed) and not s <= placed
                    now_active = bool(s & trial) and not s <= trial
                    active += now_active
                    activated += now_active and not was_active
                    deactivated += was_active and not now_active
                key = (activated - deactivated, active, q)
                if best is None or key < best[0]:
                    best = (key, q)
            current = best[1]

    def total_edges(order: list[int]) -> int:
        permuted = code_mod.permute(code, order)
        return code_mod.profile(permuted.normalizer_tof()).total_edges

    best_order = list(range(1, n + 1))
    best_e = total_edges(best_order)
    for seed in range(1, n + 1):
        order = build_order(seed)
        e = total_edges(order)
        if e < best_e:
            best_e, best_order = e, order
    return best_order


# ---------------------------------------------------------------------------
# trellis oracles: a second construction of the trellis, the product of
# single-generator trellises (Ollivier & Tillich, PRA 74, 032304, 2006), and
# a recursive walk over its paths; then an in-place edit of a stored trellis


def _product_profile(p1: TrellisProfile, p2: TrellisProfile) -> TrellisProfile:
    past = tuple(a + b for a, b in zip(p1.dim_past, p2.dim_past))
    future = tuple(a + b for a, b in zip(p1.dim_future, p2.dim_future))
    return TrellisProfile.from_dims(p1.p, p1.n, p1.dim + p2.dim, past, future)


def product(t1: Trellis, t2: Trellis) -> Trellis:
    """Trellis product: layerwise vertex pairs, label-multiplied edges.

    Refuses when the result would be improper (two edge pairs collapsing
    to the same (source, label, target) triple).
    """
    if t1.p != t2.p or t1.n != t2.n:
        raise TrellisError("trellis product requires equal p and n")
    p, n = t1.p, t1.n
    layers = []
    for l1, l2 in zip(t1.layers, t2.layers):
        m1 = l1.basis.shape[1]
        m2 = l2.basis.shape[1]
        basis = np.zeros((l1.basis.shape[0] + l2.basis.shape[0], m1 + m2), dtype=np.int64)
        basis[: l1.basis.shape[0], :m1] = l1.basis
        basis[l1.basis.shape[0] :, m1:] = l2.basis
        pivots = tuple(l1.pivots) + tuple(m1 + c for c in l2.pivots)
        layers.append(TrellisLayer(p, basis, pivots, np.concatenate([l1.offset, l2.offset])))
    sections = []
    for i, (s1, s2) in enumerate(zip(t1.sections, t2.sections), start=1):
        v1, v2, d1, d2 = t1.layers[i].size, t2.layers[i].size, s1.deg_in, s2.deg_in
        # key source * p*p + label of edge pair (e1, e2), whose target is
        # (e1 // d1) * v2 + e2 // d2: one row per target, sorted within it
        labels = label_sums(p)[s1.flat_label[:, None], s2.flat_label]
        key = (s1.source[:, None] * t2.layers[i - 1].size + s2.source) * (p * p) + labels
        key = np.sort(key.reshape(v1, d1, v2, d2).transpose(0, 2, 1, 3).reshape(v1 * v2, d1 * d2), axis=1)
        if (np.diff(key, axis=1) == 0).any():
            raise TrellisError(f"product is improper at section {i}")
        key = key.ravel()
        flat = (key % (p * p)).astype(labels.dtype)
        sections.append(TrellisSection(p, key // (p * p), flat, d1 * d2))
    return Trellis(
        p,
        n,
        tuple(layers),
        tuple(sections),
        _product_profile(t1.profile, t2.profile),
        np.hstack([t1.label_matrix, t2.label_matrix]),
    )


def enumerate_paths(t: Trellis):
    """Yield every root-to-sink path as a PauliString (small trellises)."""
    p, n = t.p, t.n
    adj: list[dict[int, list[tuple[int, int, int]]]] = []
    for sec in t.sections:
        table: dict[int, list[tuple[int, int, int]]] = {}
        for s, tgt, (a, b) in zip(
            sec.source.tolist(), sec.target.tolist(), sec.label.tolist()
        ):
            table.setdefault(s, []).append((int(a), int(b), tgt))
        adj.append(table)

    def walk(depth: int, vertex: int, xs: list[int], zs: list[int]):
        if depth == n:
            yield PauliString(p, np.array(xs), np.array(zs))
            return
        for a, b, tgt in adj[depth].get(vertex, []):
            yield from walk(depth + 1, tgt, xs + [a], zs + [b])

    yield from walk(0, 0, [], [])


def rechecksummed(blob) -> bytes:
    """A serialized trellis with its trailing CRC-32 recomputed over the bytes before it."""
    return bytes(blob[:-4]) + struct.pack("<I", zlib.crc32(blob[:-4]))


def with_edge_entry(t: Trellis, i: int, field: str, j: int, value: int) -> bytes:
    """The serialized trellis with one of section i's int64 sources or flat labels replaced, re-checksummed."""
    m = t.label_matrix.shape[1]
    pos = 5 + struct.calcsize("<HHIIH") + 8 * (t.n + 1)
    pos += sum(4 * r + 2 * r * m + 2 * m for r in (len(layer.pivots) for layer in t.layers))
    # a section is its int64 sources, then its flat labels
    pos += sum((8 + sec.flat_label.itemsize) * sec.size for sec in t.sections[:i])
    sec = t.sections[i]
    if field == "source":
        fmt, arr = "<q", sec.source
    else:
        fmt, arr, pos = "<" + sec.flat_label.dtype.char, sec.flat_label, pos + 8 * sec.size
    k = j % arr.size
    pos += struct.calcsize(fmt) * k
    blob = bytearray(serialize(t))
    assert struct.unpack_from(fmt, blob, pos) == (arr[k],)
    struct.pack_into(fmt, blob, pos, value)
    return rechecksummed(blob)


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
