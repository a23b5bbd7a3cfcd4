"""Minimal syndrome trellises: construction, shifting, products, census.

The trellis of a generator set is a layered directed multigraph whose
root-to-sink paths are in bijection with the generated group.  Vertices at
depth ``i`` carry partial syndromes against one check matrix; edges of
section ``i`` carry the single-site exponent pair acting at position ``i``.
Construction works for the full normalizer of a stabilizer code, for one
axis of a CSS split, or for any explicit generator set.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import ffield
from .pauli import PauliString, commutation_matrix, commutation_rows, symplectic_matrix
from .code import (
    CssPart,
    StabilizerCode,
    TofGenerators,
    TrellisProfile,
    to_tof,
    profile as tof_profile,
    permute,
)

_MAGIC = b"QTRLS"
_VERSION = 1


class TrellisError(RuntimeError):
    """Structural or format failure in trellis handling."""


class CapacityError(TrellisError):
    """A build was refused because it would exceed the resource cap."""


@dataclass(frozen=True)
class TrellisLayer:
    """One vertex layer: ``p**rank(basis)`` partial-syndrome labels.

    Vertex ``v`` has label ``digits(v) @ basis + offset`` where ``digits``
    are the base-p digits of the index read off at the pivot columns; the
    basis is in reduced row-echelon form so the two views are consistent.
    """

    p: int
    size: int
    basis: np.ndarray | None = None
    pivots: tuple[int, ...] = ()
    offset: np.ndarray | None = None

    def labels(self) -> np.ndarray:
        """All vertex labels in index order, shape (size, label_width)."""
        if self.basis is None:
            raise TrellisError("vertex labels were dropped")
        out = _span(self.basis, self.p)
        if self.offset is not None:
            out = (out + self.offset) % self.p
        return out


@dataclass(frozen=True)
class TrellisSection:
    """Edges of one section, sorted by (target, source, label)."""

    p: int
    source: np.ndarray
    target: np.ndarray
    label: np.ndarray  # shape (size, 2): exponent pairs (a, b)

    @property
    def size(self) -> int:
        return self.source.size

    @cached_property
    def shifted_labels(self) -> np.ndarray:
        """Flat edge labels ``a*p + b`` under every shift symbol, shape (p*p, size).

        Row ``sx*p + sz`` holds the labels after adding (sx, sz) to each
        edge.  The table depends on the structure only, so the decoder
        builds it once per section; it is never serialized.
        """
        p = self.p
        sym = np.arange(p * p)[:, None]
        a = (self.label[:, 0] + sym // p) % p
        b = (self.label[:, 1] + sym % p) % p
        return (a * p + b).astype(np.min_scalar_type(p * p - 1))


@dataclass(frozen=True)
class Trellis:
    """An immutable built trellis plus the profile it was predicted from.

    A path's label at depth i is its ``[x | z]`` vector with the sites past
    i zeroed, times ``label_matrix`` (None when the labels were dropped).
    """

    p: int
    n: int
    layers: tuple[TrellisLayer, ...]
    sections: tuple[TrellisSection, ...]
    profile: TrellisProfile
    label_matrix: np.ndarray | None = None

    @property
    def total_vertices(self) -> int:
        return sum(layer.size for layer in self.layers)

    @property
    def total_edges(self) -> int:
        return sum(sec.size for sec in self.sections)

    @property
    def label_maps(self) -> tuple[np.ndarray, ...] | None:
        """The n + 1 depth maps: ``label_matrix`` with the rows of sites past i zeroed."""
        if self.label_matrix is None:
            return None
        site = np.tile(np.arange(self.n), 2)[:, None]
        return tuple(self.label_matrix * (site < i) for i in range(self.n + 1))


@dataclass(frozen=True)
class SectionCensus:
    """Edge-configuration classification of every section.

    A configuration ``(s, e, o)`` records the number of generators starting
    at the section, ending at it, and doing both (single-site generators,
    which show up as parallel edges).  ``mergers`` counts incoming-degree
    surplus and ``expansions`` outgoing surplus; both equal Σe − Σv + 1.
    """

    sections: tuple[tuple[int, int, int], ...]
    counts: dict[tuple[int, int, int], int]
    mergers: int
    expansions: int


def _span(rows: np.ndarray, p: int) -> np.ndarray:
    """Every combination of ``rows`` mod p in their dtype, first row most significant.

    Rows in reduced row-echelon form give their span in lexicographic order.
    """
    out = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows:
        out = (out[:, None, :] + np.arange(p, dtype=rows.dtype)[:, None] * row).reshape(-1, rows.shape[1]) % p
    return out


def _mixed_radix(digits: np.ndarray, p: int) -> np.ndarray:
    """Collapse base-p digit rows (most significant first) to indices."""
    idx = np.zeros(digits.shape[0], dtype=np.int64)
    for j in range(digits.shape[1]):
        idx = idx * p + digits[:, j]
    return idx


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


def _resolve(source, order):
    """Normalize a build source to (tof, label matrix, profile).

    Vertices are labelled by partial syndromes against one set of checks: a
    code's stabilizers, a CSS part's checks, or for a bare generator set a
    basis of its symplectic complement (any basis gives the minimal, BCJR,
    trellis).  The ``(2n, m)`` label matrix is the transposed ``[-z | x]``
    rows of the checks; ``m`` may be 0.
    """
    if isinstance(source, StabilizerCode):
        if order is not None:
            source = permute(source, order)
        tof, checks = source.normalizer_tof(), source.stabilizers
    elif isinstance(source, CssPart):
        if order is not None:
            raise TrellisError("permute the code before splitting")
        tof, checks = source.tof(), source.checks
    elif isinstance(source, TofGenerators):
        if order is not None:
            raise TrellisError("permute the generators before reducing them")
        tof, checks = source, None
    else:
        gens = list(source)
        if order is not None:
            if gens and sorted(order) != list(range(1, gens[0].n + 1)):
                raise TrellisError("order must be a permutation of 1..n")
            idx = np.array(order, dtype=np.int64) - 1
            gens = [PauliString(g.p, g.x[idx], g.z[idx]) for g in gens]
        tof, checks = to_tof(gens), None
    p, n = tof.p, tof.n
    if checks is None:
        sym = ffield.kernel(commutation_matrix(list(tof.gens)), p)
    else:
        sym = symplectic_matrix(list(checks)).reshape(len(checks), 2 * n)
    return tof, commutation_rows(sym, p).T, tof_profile(tof)


def build(source, order=None, *, max_edges: int = 10**8) -> Trellis:
    """Build the minimal zero-syndrome trellis.

    ``source`` may be a StabilizerCode (trellis of its normalizer), a
    CssPart, a TofGenerators, or a list of Pauli strings.  Refuses with
    CapacityError when the profile predicts more than ``max_edges`` edges.

    Section i spans the TOF generators active at site i in columns
    ``[target label | source label | site-i exponents]``.  One echelon form
    of it gives layer i: its rows with a pivot in the target block, since a
    generator ending at site i has a zero label at depth i.  Listed in
    echelon order, its span is the edge list sorted by (target, source,
    label), since a vertex's index is the rank of its label.
    """
    tof, L, prof = _resolve(source, order)
    p, n = tof.p, tof.n
    if prof.total_edges > max_edges:
        raise CapacityError(
            f"predicted {prof.total_edges} edges exceeds cap {max_edges}"
        )
    G = symplectic_matrix(list(tof.gens))
    syn = _partial_syndromes(G, L, p)
    left, right = np.array(tof.left), np.array(tof.right)
    m = L.shape[1]

    layers = [TrellisLayer(p, 1, np.zeros((0, m), dtype=np.int64), (), np.zeros(m, dtype=np.int64))]
    sections = []
    for i in range(1, n + 1):
        act = (left <= i) & (i <= right)
        A = np.hstack([syn[act, i], syn[act, i - 1], G[act][:, [i - 1, n + i - 1]]])
        red, pivots, rk = ffield.rref(A, p)
        if p**rk != prof.e_count[i - 1]:
            raise TrellisError(f"section {i} edge count {p**rk} != profile")
        r = int(np.searchsorted(pivots, m))
        if p**r != prof.v_count[i]:
            raise TrellisError(f"layer {i} label count {p**r} != profile")
        # only the source pivots and the exponents are enumerated: each
        # target holds a run of p**(rk - r) consecutive edges
        cols = [m + c for c in layers[-1].pivots] + [2 * m, 2 * m + 1]
        arr = _span(red[:rk, cols].astype(np.int16), p)
        tgt = np.arange(p**rk) // p ** (rk - r)
        sections.append(TrellisSection(p, _mixed_radix(arr[:, :-2], p), tgt, arr[:, -2:].astype(np.int64)))
        basis = red[:r, :m].copy()
        layers.append(TrellisLayer(p, p**r, basis, tuple(pivots[:r]), np.zeros(m, dtype=np.int64)))
    return Trellis(p, n, tuple(layers), tuple(sections), prof, L)


def shift(t: Trellis, pure_error: PauliString) -> Trellis:
    """Overlay a syndrome shift: vertex offsets change, structure is shared.

    Vertex labels pick up the pure error's partial syndrome and the edge
    label of section i is multiplied by the error's site-i component.  The
    base trellis is untouched; index arrays are shared, not copied.
    """
    if pure_error.n != t.n or pure_error.p != t.p:
        raise TrellisError("shift string acts on a different system")
    p = t.p
    layers = list(t.layers)
    if t.label_matrix is not None:
        off = _partial_syndromes(pure_error.symplectic(), t.label_matrix, p)
        for i, layer in enumerate(layers):
            if layer.basis is not None:
                base = layer.offset if layer.offset is not None else 0
                layers[i] = replace(layer, offset=(base + off[i]) % p)
    sections = []
    for i, sec in enumerate(t.sections, start=1):
        a, b = int(pure_error.x[i - 1]), int(pure_error.z[i - 1])
        if a == 0 and b == 0:
            sections.append(sec)
        else:
            sections.append(
                replace(sec, label=(sec.label + np.array([a, b])) % p)
            )
    return replace(t, layers=tuple(layers), sections=tuple(sections))


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
        if l1.basis is not None and l2.basis is not None:
            m1 = l1.basis.shape[1]
            m2 = l2.basis.shape[1]
            basis = np.zeros((l1.basis.shape[0] + l2.basis.shape[0], m1 + m2), dtype=np.int64)
            basis[: l1.basis.shape[0], :m1] = l1.basis
            basis[l1.basis.shape[0] :, m1:] = l2.basis
            pivots = tuple(l1.pivots) + tuple(m1 + c for c in l2.pivots)
            off1 = l1.offset if l1.offset is not None else np.zeros(m1, dtype=np.int64)
            off2 = l2.offset if l2.offset is not None else np.zeros(m2, dtype=np.int64)
            layers.append(
                TrellisLayer(p, l1.size * l2.size, basis, pivots, np.concatenate([off1, off2]))
            )
        else:
            layers.append(TrellisLayer(p, l1.size * l2.size))
    sections = []
    for i, (s1, s2) in enumerate(zip(t1.sections, t2.sections), start=1):
        v2_prev = t2.layers[i - 1].size
        v2_next = t2.layers[i].size
        src = (s1.source[:, None] * v2_prev + s2.source[None, :]).ravel()
        tgt = (s1.target[:, None] * v2_next + s2.target[None, :]).ravel()
        lab = (s1.label[:, None, :] + s2.label[None, :, :]).reshape(-1, 2) % p
        order_idx = np.lexsort((lab[:, 0] * p + lab[:, 1], src, tgt))
        src, tgt, lab = src[order_idx], tgt[order_idx], lab[order_idx]
        enc = lab[:, 0] * p + lab[:, 1]
        dup = (
            (np.diff(src) == 0) & (np.diff(tgt) == 0) & (np.diff(enc) == 0)
        )
        if dup.any():
            raise TrellisError(f"product is improper at section {i}")
        sections.append(TrellisSection(p, src, tgt, lab))
    L = None
    if t1.label_matrix is not None and t2.label_matrix is not None:
        L = np.hstack([t1.label_matrix, t2.label_matrix])
    return Trellis(
        p,
        n,
        tuple(layers),
        tuple(sections),
        _product_profile(t1.profile, t2.profile),
        L,
    )


def census(t: Trellis) -> SectionCensus:
    """Classify every section's edge configuration and count mergers.

    Verifies that the configuration arithmetic reproduces the section and
    layer cardinalities and that mergers = expansions = Σe − Σv + 1.
    """
    p = t.p
    prof = t.profile
    configs = []
    mergers = 0
    expansions = 0
    for i, sec in enumerate(t.sections, start=1):
        starts = prof.dim_future[i - 1] - prof.dim_future[i]
        ends = prof.dim_past[i] - prof.dim_past[i - 1]
        pairs = len(set(zip(sec.source.tolist(), sec.target.tolist())))
        if pairs == 0 or sec.size % pairs:
            raise TrellisError(f"section {i}: non-uniform parallel edges")
        q = sec.size // pairs
        o = round(np.log(q) / np.log(p))
        if p**o != q or o > min(starts, ends):
            raise TrellisError(f"section {i}: invalid configuration")
        if sec.size != t.layers[i - 1].size * p**starts:
            raise TrellisError(f"section {i}: size mismatch with starts")
        if sec.size != t.layers[i].size * p**ends:
            raise TrellisError(f"section {i}: size mismatch with ends")
        configs.append((starts, ends, o))
        din = np.bincount(sec.target, minlength=t.layers[i].size)
        dout = np.bincount(sec.source, minlength=t.layers[i - 1].size)
        mergers += int((din - 1).sum())
        expansions += int((dout - 1).sum())
    identity = t.total_edges - t.total_vertices + 1
    if mergers != identity or expansions != identity:
        raise TrellisError("merger/expansion identity violated")
    counts: dict[tuple[int, int, int], int] = {}
    for cfg in configs:
        counts[cfg] = counts.get(cfg, 0) + 1
    return SectionCensus(tuple(configs), counts, mergers, expansions)


def validate(t: Trellis, prof: TrellisProfile | None = None) -> list[str]:
    """Structural checks; returns a list of violations (empty = valid)."""
    prof = prof if prof is not None else t.profile
    errors: list[str] = []
    if t.layers[0].size != 1 or t.layers[-1].size != 1:
        errors.append("terminal layers must hold exactly one vertex")
    for i, layer in enumerate(t.layers):
        if layer.size != prof.v_count[i]:
            errors.append(f"layer {i}: {layer.size} vertices, profile says {prof.v_count[i]}")
    for i, sec in enumerate(t.sections, start=1):
        if sec.size != prof.e_count[i - 1]:
            errors.append(f"section {i}: {sec.size} edges, profile says {prof.e_count[i - 1]}")
        enc = (sec.target * (t.layers[i - 1].size + 1) + sec.source) * (t.p**2) + (
            sec.label[:, 0] * t.p + sec.label[:, 1]
        )
        if np.unique(enc).size != sec.size:
            errors.append(f"section {i}: duplicate (source, label, target) triple")
        din = np.bincount(sec.target, minlength=t.layers[i].size)
        dout = np.bincount(sec.source, minlength=t.layers[i - 1].size)
        if din.size == 0 or din.min() < 1:
            errors.append(f"section {i}: uncovered target vertex")
        if dout.size == 0 or dout.min() < 1:
            errors.append(f"section {i}: uncovered source vertex")
        if np.unique(din).size > 1:
            errors.append(f"section {i}: non-uniform in-degree")
        if np.unique(dout).size > 1:
            errors.append(f"section {i}: non-uniform out-degree")
        pair = sec.target * (t.layers[i - 1].size + 1) + sec.source
        _, pair_counts = np.unique(pair, return_counts=True)
        if np.unique(pair_counts).size > 1:
            errors.append(f"section {i}: non-uniform parallel-edge multiplicity")
        if sec.size <= 20000:
            errors.extend(_check_bipartite(sec, i))
    return errors


def _check_bipartite(sec: TrellisSection, i: int) -> list[str]:
    """Exhaustively verify the complete-bipartite block structure."""
    by_target: dict[int, set[int]] = {}
    by_source: dict[int, set[int]] = {}
    for s, tgt in zip(sec.source.tolist(), sec.target.tolist()):
        by_target.setdefault(tgt, set()).add(s)
        by_source.setdefault(s, set()).add(tgt)
    for tgt, sources in by_target.items():
        expect = by_source[next(iter(sources))]
        for s in sources:
            if by_source[s] != expect:
                return [f"section {i}: bipartite block not completely connected"]
        for tgt2 in expect:
            if by_target[tgt2] != sources:
                return [f"section {i}: bipartite block not completely connected"]
    return []


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


# ---------------------------------------------------------------------------
# serialization


def serialize(t: Trellis, *, include_labels: bool = True) -> bytes:
    """Versioned binary encoding; lossless with or without vertex labels.

    Version 1 stores the label matrix as the n + 1 ``Trellis.label_maps``.
    """
    out = bytearray()
    out += _MAGIC
    m = t.label_matrix.shape[1] if t.label_matrix is not None else 0
    has_labels = include_labels and t.label_matrix is not None
    out += struct.pack("<HBHIIH", _VERSION, 1 if has_labels else 0, t.p, t.n, m, t.profile.dim)
    out += struct.pack(f"<{t.n + 1}I", *t.profile.dim_past)
    out += struct.pack(f"<{t.n + 1}I", *t.profile.dim_future)
    for layer in t.layers:
        if has_labels and layer.basis is not None:
            r = layer.basis.shape[0]
            out += struct.pack("<QI", layer.size, r)
            out += struct.pack(f"<{r}I", *layer.pivots)
            out += layer.basis.astype(np.int16).tobytes()
            off = layer.offset if layer.offset is not None else np.zeros(m, dtype=np.int64)
            out += off.astype(np.int16).tobytes()
        else:
            out += struct.pack("<QI", layer.size, 0xFFFFFFFF)
    for sec in t.sections:
        out += struct.pack("<Q", sec.size)
        out += sec.source.astype(np.int64).tobytes()
        out += sec.target.astype(np.int64).tobytes()
        out += sec.label.astype(np.int16).tobytes()
    if has_labels:
        for M in t.label_maps:
            out += M.astype(np.int16).tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise TrellisError("truncated trellis stream")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def deserialize(data: bytes) -> Trellis:
    """Inverse of :func:`serialize`; keeps the last depth map as the label matrix."""
    r = _Reader(data)
    if r.take(len(_MAGIC)) != _MAGIC:
        raise TrellisError("bad magic: not a trellis stream")
    version, has_labels, p, n, m, dim = r.unpack("<HBHIIH")
    if version != _VERSION:
        raise TrellisError(f"unsupported trellis format version {version}")
    past = r.unpack(f"<{n + 1}I")
    future = r.unpack(f"<{n + 1}I")
    if past[0] != 0 or past[-1] != dim or any(a > b for a, b in zip(past, past[1:])):
        raise TrellisError("dim_past must run nondecreasing from 0 to dim")
    if future[0] != dim or future[-1] != 0 or any(a < b for a, b in zip(future, future[1:])):
        raise TrellisError("dim_future must run nonincreasing from dim to 0")

    def check_size(what: str, size: int, e: int) -> None:
        # compare exponents first, so an absurd e never forms p**e
        if e < 0 or e > size.bit_length() or p**e != size:
            raise TrellisError(f"{what}: {size} does not match the profile's {p}**{e}")

    layers = []
    for i in range(n + 1):
        size, rk = r.unpack("<QI")
        check_size(f"layer {i}", size, dim - past[i] - future[i])
        if rk == 0xFFFFFFFF:
            layers.append(TrellisLayer(p, size))
        else:
            pivots = r.unpack(f"<{rk}I")
            basis = np.frombuffer(r.take(2 * rk * m), dtype=np.int16).reshape(rk, m).astype(np.int64)
            offset = np.frombuffer(r.take(2 * m), dtype=np.int16).astype(np.int64)
            layers.append(TrellisLayer(p, size, basis, pivots, offset))
    sections = []
    for i in range(n):
        (count,) = r.unpack("<Q")
        check_size(f"section {i + 1}", count, dim - past[i] - future[i + 1])
        src = np.frombuffer(r.take(8 * count), dtype=np.int64).copy()
        tgt = np.frombuffer(r.take(8 * count), dtype=np.int64).copy()
        lab = np.frombuffer(r.take(4 * count), dtype=np.int16).reshape(count, 2).astype(np.int64)
        # the decoder indexes vertices by source and reshapes each section
        # to (target, in-degree), so both must be exact; the profile makes
        # the in-degree p**(past[i + 1] - past[i]), a whole number
        v_prev, v_next = layers[i].size, layers[i + 1].size
        deg = count // v_next
        if not np.array_equal(tgt, np.arange(count) // deg):
            raise TrellisError(f"section {i + 1}: targets not sorted with a uniform in-degree")
        if src.min() < 0 or src.max() >= v_prev:
            raise TrellisError(f"section {i + 1}: source index outside its layer")
        if lab.min() < 0 or lab.max() >= p:
            raise TrellisError(f"section {i + 1}: label outside [0, p)")
        sections.append(TrellisSection(p, src, tgt, lab))
    maps = [
        np.frombuffer(r.take(2 * 2 * n * m), dtype=np.int16).reshape(2 * n, m).astype(np.int64)
        for _ in range(n + 1 if has_labels else 0)
    ]
    # every size matched its exponent above, so the profile is exact
    prof = TrellisProfile.from_dims(p, n, dim, past, future)
    t = Trellis(p, n, tuple(layers), tuple(sections), prof, maps[-1] if maps else None)
    for i, (M, want) in enumerate(zip(maps, t.label_maps or ())):
        if not np.array_equal(M, want):
            raise TrellisError(f"label map {i} is not the depth-{i} prefix of map {n}")
    return t


def to_json(t: Trellis) -> str:
    """Human-inspectable JSON export of the structure (labels optional)."""
    doc = {
        "p": t.p,
        "n": t.n,
        "layers": [
            {
                "size": layer.size,
                "labels": layer.labels().tolist() if layer.basis is not None else None,
            }
            for layer in t.layers
        ],
        "sections": [
            {
                "edges": [
                    [int(s), [int(a), int(b)], int(tg)]
                    for s, tg, (a, b) in zip(
                        sec.source.tolist(), sec.target.tolist(), sec.label.tolist()
                    )
                ]
            }
            for sec in t.sections
        ],
    }
    return json.dumps(doc)
