"""Minimal syndrome trellises: construction, shifting, validation, census.

The trellis of a generator set is a layered directed multigraph whose
root-to-sink paths are in bijection with the generated group.  Vertices at
depth ``i`` carry partial syndromes against one check matrix; edges of
section ``i`` carry the single-site exponent pair acting at position ``i``.
Construction works for the full normalizer of a stabilizer code, for one
axis of a CSS split, or for any explicit generator set.  Every section of
a minimal trellis is a union of complete bipartite blocks; ``validate``
checks that structure against the profile, and ``census`` classifies only
what it accepts.  A trellis serializes to a versioned, checksummed binary stream.
"""
from __future__ import annotations

import struct
import zlib
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import ffield
from .pauli import PauliString, _partial_syndromes, commutation_matrix, commutation_rows, symplectic_matrix
from .code import (
    CssPart,
    StabilizerCode,
    TrellisProfile,
    to_tof,
    profile as tof_profile,
)

_MAGIC = b"QTRLS"
_VERSION = 3
# the default cap on a build's predicted edge count
MAX_EDGES = 10**8


class TrellisError(RuntimeError):
    """Structural or format failure in trellis handling."""


class CapacityError(TrellisError):
    """A build was refused because it would exceed the resource cap."""


@dataclass(frozen=True)
class TrellisLayer:
    """One vertex layer: ``size = p**len(pivots)`` partial-syndrome labels.

    Vertex ``v`` has label ``digits(v) @ basis + offset`` where ``digits``
    are the base-p digits of the index read off at the pivot columns; the
    basis is in reduced row-echelon form so the two views are consistent.
    """

    p: int
    basis: np.ndarray
    pivots: tuple[int, ...]
    offset: np.ndarray

    @property
    def size(self) -> int:
        return self.p ** len(self.pivots)

    def labels(self) -> np.ndarray:
        """All vertex labels in index order, shape (size, label_width)."""
        return (ffield.span(self.basis, self.p).T + self.offset) % self.p


def label_sums(p: int) -> np.ndarray:
    """Flat labels under every shift symbol, shape (p*p, p*p), in the flat-label dtype.

    Entry ``[s, l]`` is flat label ``l`` shifted by symbol ``s``: the
    exponent pairs ``divmod(l, p)`` and ``divmod(s, p)`` added mod p.
    """
    a, b = np.divmod(np.arange(p * p), p)
    return ((a[:, None] + a) % p * p + (b[:, None] + b) % p).astype(np.min_scalar_type(p * p - 1))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TrellisSection:
    """Edges of one section, sorted by (target, source, label).

    Each edge stores its source and its flat label ``a*p + b`` alone.
    Every target has ``deg_in`` consecutive in-edges, so ``target`` is the
    read-only view ``arange(size) // deg_in``, and ``label`` the read-only
    int64 pairs ``divmod(flat_label, p)``.
    """

    p: int
    source: np.ndarray
    flat_label: np.ndarray  # dtype np.min_scalar_type(p*p - 1)
    deg_in: int

    @property
    def size(self) -> int:
        return self.source.size

    @property
    def target(self) -> np.ndarray:
        return _read_only(np.arange(self.size) // self.deg_in)

    @property
    def label(self) -> np.ndarray:
        """Exponent pairs (a, b), shape (size, 2)."""
        return _read_only(np.stack(np.divmod(self.flat_label.astype(np.int64), self.p), axis=1))

@dataclass(frozen=True)
class Trellis:
    """An immutable built trellis plus the profile it was predicted from.

    Every trellis carries its vertex labels.  A path's label at depth i is
    its ``[x | z]`` vector with the sites past i zeroed, times
    ``label_matrix``: the ``(2n, m)`` transposed ``[-z | x]`` rows of the
    checks (see :func:`build`), with ``m`` possibly 0.
    """

    p: int
    n: int
    layers: tuple[TrellisLayer, ...]
    sections: tuple[TrellisSection, ...]
    profile: TrellisProfile
    label_matrix: np.ndarray

    @property
    def total_vertices(self) -> int:
        return sum(layer.size for layer in self.layers)

    @property
    def total_edges(self) -> int:
        return sum(sec.size for sec in self.sections)

    @property
    def label_maps(self) -> tuple[np.ndarray, ...]:
        """The n + 1 depth maps: ``label_matrix`` with the rows of sites past i zeroed."""
        site = np.tile(np.arange(self.n), 2)[:, None]
        return tuple(self.label_matrix * (site < i) for i in range(self.n + 1))


@dataclass(frozen=True)
class SectionCensus:
    """Edge-configuration classification of every section.

    A configuration ``(s, e, o)`` records the number of generators starting
    at the section, ending at it, and doing both (single-site generators,
    which show up as parallel edges).  ``mergers`` counts the in-degree
    surplus Σ(e_i − v_i) and ``expansions`` the out-degree surplus
    Σ(e_i − v_{i−1}); with one vertex at each end both equal Σe − Σv + 1.
    """

    sections: tuple[tuple[int, int, int], ...]
    counts: dict[tuple[int, int, int], int]
    mergers: int
    expansions: int


def _resolve(source):
    """Normalize a build source to (tof, label matrix, profile).

    Vertices are labelled by partial syndromes against one set of checks: a
    code's stabilizers, a CSS part's checks, or for a bare generator set a
    basis of its symplectic complement (any basis gives the minimal, BCJR,
    trellis).  The ``(2n, m)`` label matrix is the transposed ``[-z | x]``
    rows of the checks; ``m`` may be 0.
    """
    if isinstance(source, StabilizerCode):
        tof, checks = source.normalizer_tof(), source.stabilizers
    elif isinstance(source, CssPart):
        tof, checks = source.tof(), source.checks
    else:
        tof, checks = to_tof(list(source)), None
    p, n = tof.p, tof.n
    if checks is None:
        sym = ffield.kernel(commutation_matrix(list(tof.gens)), p)
    else:
        sym = symplectic_matrix(list(checks)).reshape(len(checks), 2 * n)
    return tof, commutation_rows(sym, p).T, tof_profile(tof)


def build(source, *, max_edges: int = MAX_EDGES) -> Trellis:
    """Build the minimal zero-syndrome trellis.

    ``source`` may be a StabilizerCode (trellis of its normalizer), a
    CssPart, or a list of Pauli strings.  Refuses with
    CapacityError when the profile predicts more than ``max_edges`` edges.

    Section i spans the TOF generators active at site i in columns
    ``[target label | source label | site-i exponents]``.  One echelon form
    of it gives layer i: its rows with a pivot in the target block, since a
    generator ending at site i has a zero label at depth i.  Listed in
    echelon order, its span is the edge list sorted by (target, source,
    label), since a vertex's index is the rank of its label.
    """
    tof, L, prof = _resolve(source)
    p, n = tof.p, tof.n
    if prof.total_edges > max_edges:
        raise CapacityError(
            f"predicted {prof.total_edges} edges exceeds cap {max_edges}"
        )
    G = symplectic_matrix(list(tof.gens))
    syn = _partial_syndromes(G, L, p)
    left, right = np.array(tof.left), np.array(tof.right)
    m = L.shape[1]

    layers = [TrellisLayer(p, np.zeros((0, m), dtype=np.int64), (), np.zeros(m, dtype=np.int64))]
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
        arr = ffield.span(red[:rk, cols], p)
        flat = ffield.mixed_radix(arr[-2:], p).astype(np.min_scalar_type(p * p - 1))
        sections.append(TrellisSection(p, ffield.mixed_radix(arr[:-2], p), flat, p ** (rk - r)))
        basis = red[:r, :m].copy()
        layers.append(TrellisLayer(p, basis, tuple(pivots[:r]), np.zeros(m, dtype=np.int64)))
    return Trellis(p, n, tuple(layers), tuple(sections), prof, L)


def shift(t: Trellis, pure_error: PauliString) -> Trellis:
    """Overlay a syndrome shift: vertex offsets change, structure is shared.

    Vertex labels pick up the pure error's partial syndrome and the flat
    labels of section i are read through row ``k`` of :func:`label_sums`,
    ``k`` the error's site-i symbol, so they keep the flat-label dtype.  The
    base trellis is untouched; index arrays are shared, not copied.
    """
    if pure_error.n != t.n or pure_error.p != t.p:
        raise TrellisError("shift string acts on a different system")
    p, sums = t.p, label_sums(t.p)
    off = _partial_syndromes(pure_error.symplectic(), t.label_matrix, p)
    layers = [replace(layer, offset=(layer.offset + off[i]) % p) for i, layer in enumerate(t.layers)]
    sections = tuple(
        replace(sec, flat_label=sums[k][sec.flat_label]) if k else sec
        for sec, k in zip(t.sections, (pure_error.x * p + pure_error.z).tolist())
    )
    return replace(t, layers=tuple(layers), sections=sections)


def census(t: Trellis) -> SectionCensus:
    """Classify every section's edge configuration and count mergers.

    Raises TrellisError with the first violation :func:`validate` reports.
    On a valid trellis each section's starts and ends are read off the
    profile and its overlap ``o`` off its parallel-edge multiplicity p**o.
    """
    errors = validate(t)
    if errors:
        raise TrellisError(errors[0])
    prof = t.profile
    configs = []
    for i, sec in enumerate(t.sections, start=1):
        starts = prof.dim_future[i - 1] - prof.dim_future[i]
        ends = prof.dim_past[i] - prof.dim_past[i - 1]
        # a valid section repeats each source of a target's in-edges q times
        q = np.count_nonzero(sec.source[: sec.deg_in] == sec.source[0])
        configs.append((starts, ends, round(np.log(q) / np.log(t.p))))
    mergers = t.total_edges - t.total_vertices + t.layers[0].size
    expansions = t.total_edges - t.total_vertices + t.layers[-1].size
    return SectionCensus(tuple(configs), dict(Counter(configs)), mergers, expansions)


def validate(t: Trellis) -> list[str]:
    """Structural checks against ``t.profile``; returns a list of violations (empty = valid).

    Each section is checked in one vectorized pass, at every size: it has
    the profile's edge count and in-degree, its sources and labels are in
    range, no (source, label, target) triple repeats, each source of a
    target's in-edges repeats the same number of times, and the edges form
    complete bipartite blocks that cover the source layer with a uniform
    out-degree.
    The first violation of a section ends its checks.
    """
    prof = t.profile
    pp = t.p * t.p
    errors: list[str] = []
    if t.layers[0].size != 1 or t.layers[-1].size != 1:
        errors.append("terminal layers must hold exactly one vertex")
    for i, layer in enumerate(t.layers):
        if layer.size != prof.v_count[i]:
            errors.append(f"layer {i}: {layer.size} vertices, profile says {prof.v_count[i]}")
    for i, sec in enumerate(t.sections, start=1):
        n_src = t.layers[i - 1].size
        # targets are arange(size) // deg_in, so these fix every in-degree
        if (sec.size, sec.deg_in) != (prof.e_count[i - 1], prof.deg_in[i - 1]):
            expect = f"{prof.e_count[i - 1]} of {prof.deg_in[i - 1]}"
            errors.append(f"section {i}: {sec.size} edges of in-degree {sec.deg_in}, profile says {expect}")
            continue
        if sec.source.min() < 0 or sec.source.max() >= n_src or sec.flat_label.max() >= pp:
            errors.append(f"section {i}: source outside layer {i - 1} or label outside [0, p*p)")
            continue
        # one row per target: its in-edges as source * p*p + label, sorted
        key = np.sort((sec.source * pp + sec.flat_label).reshape(-1, sec.deg_in), axis=1)
        if (np.diff(key, axis=1) == 0).any():
            errors.append(f"section {i}: duplicate (source, label, target) triple")
            continue
        src = key // pp
        q = np.count_nonzero(src[0] == src[0, 0])
        heads = src[:, ::q]
        if (
            sec.deg_in % q
            or (src.reshape(len(src), -1, q) != heads[:, :, None]).any()
            or (np.diff(heads, axis=1) <= 0).any()
        ):
            errors.append(f"section {i}: non-uniform parallel-edge multiplicity")
            continue
        # complete bipartite blocks: targets with equal source sets, the sets
        # partitioning the source layer, each set shared by as many targets.
        # Rows that start alike are equal and every source is counted alike:
        # then the layer's smallest source lies in one set only, whose members
        # reach their count in its copies alone; induct on the other sources.
        rep = np.empty(n_src, dtype=np.intp)
        rep[heads[:, 0]] = np.arange(len(heads))
        uses = np.bincount(heads.ravel(), minlength=n_src)
        if (heads != heads[rep[heads[:, 0]]]).any() or (uses != uses[0]).any():
            errors.append(f"section {i}: not complete bipartite blocks covering layer {i - 1} evenly")
    return errors


# ---------------------------------------------------------------------------
# serialization


def serialize(t: Trellis) -> bytes:
    """Versioned binary encoding of a trellis, its vertex labels included.

    Version 3 writes the in-memory arrays, little-endian: the magic;
    ``(version, p, n, m, dim)``; the profile's ``dim_past`` and ``dim_future``;
    per layer its pivots, int16 basis and int16 offset; per section its int64
    sources and its flat labels in their own dtype; the int16 ``(2n, m)``
    label matrix; and last the CRC-32 of every byte before it.  Layer sizes
    and ranks, edge counts and targets are the profile's, on disk as in memory.
    Each array is copied once, as one join of the parts the CRC-32 folds over.
    """
    prof = t.profile
    head = (_VERSION, t.p, t.n, t.label_matrix.shape[1], prof.dim, *prof.dim_past, *prof.dim_future)
    parts = [_MAGIC, struct.pack(f"<HHIIH{2 * t.n + 2}I", *head)]
    for layer in t.layers:
        parts.append(struct.pack(f"<{len(layer.pivots)}I", *layer.pivots))
        parts += [np.ascontiguousarray(a, dtype="<i2") for a in (layer.basis, layer.offset)]
    for sec in t.sections:
        parts += [np.ascontiguousarray(sec.source, dtype="<i8"), np.ascontiguousarray(sec.flat_label)]
    parts.append(np.ascontiguousarray(t.label_matrix, dtype="<i2"))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack("<I", crc)])


def deserialize(data: bytes) -> Trellis:
    """Inverse of :func:`serialize`; every size and in-degree comes from the profile.

    Only version 3 is read, its CRC-32 first: a stream of another version,
    such as a version-1 or version-2 file, raises TrellisError naming it,
    and is rebuilt with ``qtrellis build``.
    """
    body = memoryview(data)[:-4]
    pos = 0

    def take(count: int, dtype=np.uint8) -> np.ndarray:
        nonlocal pos
        size = count * np.dtype(dtype).itemsize
        if pos + size > len(body):
            raise TrellisError("truncated trellis stream")
        pos += size
        return np.frombuffer(body[pos - size : pos], dtype=dtype)

    if take(len(_MAGIC)).tobytes() != _MAGIC:
        raise TrellisError("bad magic: not a trellis stream")
    version = int(take(1, "<u2")[0])
    if version != _VERSION:
        raise TrellisError(
            f"trellis format version {version} is not read (only version {_VERSION}); "
            "rebuild the file with `qtrellis build`"
        )
    if zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
        raise TrellisError("trellis stream fails its CRC-32 check: corrupted or truncated")
    p, n, m, dim = struct.unpack("<HIIH", take(12))
    past = tuple(take(n + 1, "<u4").tolist())
    future = tuple(take(n + 1, "<u4").tolist())
    if p < 2:
        raise TrellisError(f"p = {p} is not a field size")
    if past[0] != 0 or past[-1] != dim or any(a > b for a, b in zip(past, past[1:])):
        raise TrellisError("dim_past must run nondecreasing from 0 to dim")
    if future[0] != dim or future[-1] != 0 or any(a < b for a, b in zip(future, future[1:])):
        raise TrellisError("dim_future must run nonincreasing from dim to 0")
    if any(a + b > dim for a, b in zip(past, future)):
        raise TrellisError("dim_past + dim_future exceeds dim at a layer")
    layers = []
    for i in range(n + 1):
        rk = dim - past[i] - future[i]
        pivots = tuple(take(rk, "<u4").tolist())
        basis = take(rk * m, np.int16).reshape(rk, m).astype(np.int64)
        layers.append(TrellisLayer(p, basis, pivots, take(m, np.int16).astype(np.int64)))
    dtype = np.min_scalar_type(p * p - 1)
    sections = []
    for i in range(n):
        e = dim - past[i] - future[i + 1]
        # p**e edges take over 2**e bytes, and e bounds the source layer's
        # rank: compare the exponent first, so an absurd e never forms p**e
        if e >= len(body).bit_length():
            raise TrellisError(f"section {i + 1}: the profile's {p}**{e} edges do not fit the stream")
        src, flat = take(p**e, np.int64).copy(), take(p**e, dtype).copy()
        if src.min() < 0 or src.max() >= layers[i].size:
            raise TrellisError(f"section {i + 1}: source index outside its layer")
        if flat.max() >= p * p:
            raise TrellisError(f"section {i + 1}: label outside [0, p*p)")
        sections.append(TrellisSection(p, src, flat, p ** (past[i + 1] - past[i])))
    L = take(2 * n * m, np.int16).reshape(2 * n, m).astype(np.int64)
    if pos != len(body):
        raise TrellisError(f"{len(body) - pos} bytes past the end of the trellis the profile describes")
    prof = TrellisProfile.from_dims(p, n, dim, past, future)
    return Trellis(p, n, tuple(layers), tuple(sections), prof, L)
