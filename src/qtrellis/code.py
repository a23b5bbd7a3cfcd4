"""Stabilizer-code model.

Covers validation, normalizer and logical-generator computation, the
trellis-oriented form (TOF) of a generator set, structural profiles predicted
from spans, CSS splitting, qudit-order heuristics, built-in codes, and the
text code-file format.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import ffield
from .pauli import (
    PauliString,
    commutation_matrix,
    commutation_rows,
    format_pauli,
    from_symplectic,
    parse_pauli,
    symplectic_matrix,
)


class CodeError(ValueError):
    """Raised when a stabilizer code fails validation."""


# ---------------------------------------------------------------------------
# trellis-oriented form


@dataclass(frozen=True)
class TofGenerators:
    """A generator set in trellis-oriented form with cached span data."""

    p: int
    n: int
    gens: tuple[PauliString, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.gens)

    def span_length(self) -> int:
        return sum(r - l + 1 for l, r in zip(self.left, self.right))


def to_tof(gens: list[PauliString]) -> TofGenerators:
    """Reduce a generator set to trellis-oriented form.

    The returned set generates the same group, satisfies the left-right
    property (members sharing a left or a right index have linearly
    independent end sites), and so has minimal total span length.  Each
    leading site's first nonzero exponent is 1; rows are sorted by span.

    Columns are interleaved as x_1, z_1, ..., x_n, z_n, so column c lies on
    site c // 2 + 1.  One RREF gives every row a distinct leading column;
    one right-to-left sweep then gives every row a distinct trailing column.
    End sites on distinct columns of one site are independent.
    """
    if not gens:
        raise ValueError("empty generator set")
    p, n, m = gens[0].p, gens[0].n, len(gens)
    interleaved = symplectic_matrix(gens).reshape(m, 2, n).transpose(0, 2, 1)
    rows, _, rk = ffield.rref(interleaved.reshape(m, 2 * n), p)
    if rk < m:
        raise CodeError(f"dependent generators: rank {rk} < {m}")
    # rows come in increasing pivot order; a row swept earlier starts later,
    # so clearing a trailing column with it never moves a left end
    owner: dict[int, int] = {}
    for r in range(m - 1, -1, -1):
        while (t := int(np.flatnonzero(rows[r])[-1])) in owner:
            v = owner[t]
            c = rows[r, t] * ffield.inv_mod(int(rows[v, t]), p)
            rows[r] = (rows[r] - c * rows[v]) % p
        owner[t] = r
    rows = rows.reshape(m, n, 2).transpose(0, 2, 1).reshape(m, 2 * n)
    occupied = (rows[:, :n] != 0) | (rows[:, n:] != 0)
    left = occupied.argmax(axis=1) + 1
    right = n - occupied[:, ::-1].argmax(axis=1)
    order = sorted(range(m), key=lambda i: (left[i], right[i], rows[i].tolist()))
    return TofGenerators(
        p,
        n,
        tuple(from_symplectic(rows[i], p) for i in order),
        tuple(left[order].tolist()),
        tuple(right[order].tolist()),
    )


# ---------------------------------------------------------------------------
# structural profile


@dataclass(frozen=True)
class TrellisProfile:
    """Per-depth structure of the minimal trellis of a generator set.

    ``v_count[i]`` and degree entries are exact Python integers since the
    counts grow as ``p**dim``.  Section ``i`` (1-based) lives at list
    offset ``i - 1`` in ``e_count``, ``deg_in`` and ``deg_out``.
    """

    p: int
    n: int
    dim: int
    dim_past: tuple[int, ...]
    dim_future: tuple[int, ...]
    v_count: tuple[int, ...]
    e_count: tuple[int, ...]
    deg_in: tuple[int, ...]
    deg_out: tuple[int, ...]

    @property
    def total_vertices(self) -> int:
        return sum(self.v_count)

    @property
    def total_edges(self) -> int:
        return sum(self.e_count)

    @classmethod
    def from_dims(
        cls, p: int, n: int, dim: int, past: tuple[int, ...], future: tuple[int, ...]
    ) -> TrellisProfile:
        """Every count from the past/future dimensions at each depth."""
        v_count = tuple(p ** (dim - past[i] - future[i]) for i in range(n + 1))
        e_count = tuple(p ** (dim - past[i - 1] - future[i]) for i in range(1, n + 1))
        deg_in = tuple(e_count[i - 1] // v_count[i] for i in range(1, n + 1))
        deg_out = tuple(e_count[i - 1] // v_count[i - 1] for i in range(1, n + 1))
        return cls(p, n, dim, past, future, v_count, e_count, deg_in, deg_out)


def profile(tof: TofGenerators) -> TrellisProfile:
    """Predict all trellis layer/section sizes from TOF spans."""
    n = tof.n
    past = tuple(sum(1 for r in tof.right if r <= i) for i in range(n + 1))
    future = tuple(sum(1 for l in tof.left if l >= i + 1) for i in range(n + 1))
    return TrellisProfile.from_dims(tof.p, n, tof.dim, past, future)


# ---------------------------------------------------------------------------
# the code object


@dataclass(frozen=True)
class StabilizerCode:
    """A validated [[n, k]]_p stabilizer code."""

    p: int
    n: int
    k: int
    stabilizers: tuple[PauliString, ...]
    logical_gens: tuple[PauliString, ...]
    name: str | None = None
    distance: int | None = None

    def stabilizer_tof(self) -> TofGenerators:
        return to_tof(list(self.stabilizers))

    def normalizer_tof(self) -> TofGenerators:
        return to_tof(list(self.stabilizers) + list(self.logical_gens))

    def is_css(self) -> bool:
        return all(
            not (g.x.any() and g.z.any()) for g in self.stabilizers
        )

    @cached_property
    def check_matrix(self) -> np.ndarray:
        """Rows ``[-z | x]`` of the stabilizers: ``C @ [x | z]`` is the syndrome."""
        return _frozen(commutation_matrix(list(self.stabilizers)))

    @cached_property
    def logical_matrix(self) -> np.ndarray:
        """Rows ``[-z | x]`` of the logical generators, in the same form."""
        return _frozen(commutation_matrix(list(self.logical_gens)))

    @cached_property
    def pure_error_map(self) -> np.ndarray:
        """``T`` with ``s @ T`` a pure error of syndrome ``s``, shape (m, 2n).

        From one RREF of ``[C | I_m]``; ``C`` has full row rank (``new_code``
        checks it), so each row holds a pivot of ``C`` and its ``I_m`` part
        gives that pivot's entry; free columns stay zero.  Row ``s @ T`` is
        thus the solution of ``C x = s`` read off the RREF of ``[C | s]``.
        For a CSS code ``T`` is block-diagonal: X-check rows reach only the
        z half, Z-check rows only the x half.
        """
        C = self.check_matrix
        m, width = C.shape
        red, pivots, _ = ffield.rref(np.hstack([C, np.eye(m, dtype=np.int64)]), self.p)
        T = np.zeros((m, width), dtype=np.int64)
        T[:, pivots] = red[:, width:].T
        return _frozen(T)

    @cached_property
    def css_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the X-check and the Z-check stabilizers, in stabilizer order."""
        C, n = self.check_matrix, self.n
        has_x, has_z = C[:, n:].any(axis=1), C[:, :n].any(axis=1)
        if (has_x & has_z).any():
            raise CodeError("not CSS")
        return _frozen(np.flatnonzero(has_x)), _frozen(np.flatnonzero(~has_x))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _first_clash(gram: np.ndarray) -> tuple[int, int, int] | None:
    """First nonzero ``(i, j, gram[i, j])`` with ``i < j`` in row-major order, or None.

    ``gram`` holds commutation values, ``commutation_rows(A, p) @ A.T % p``.
    """
    clash = np.argwhere(np.triu(gram, 1))
    if not clash.size:
        return None
    i, j = clash[0].tolist()
    return i, j, int(gram[i, j])


def _extract_logicals(norm_rows: np.ndarray, p: int, k: int) -> list[PauliString]:
    """Pair 2k logical generators out of the normalizer basis.

    Symplectic Gram-Schmidt: repeatedly find a non-commuting pair, scale it
    to inner product 1, then strip its components from everything else.
    """
    pool = norm_rows
    logicals: list[np.ndarray] = []
    while len(logicals) < 2 * k:
        pair = _first_clash(commutation_rows(pool, p) @ pool.T % p)
        if pair is None:
            raise CodeError("failed to pair logical generators")
        i, j, c = pair
        u = pool[i]
        v = (pool[j] * ffield.inv_mod(c, p)) % p
        rest = np.delete(pool, [i, j], axis=0)
        comm = commutation_rows(rest, p)
        pool = (rest - np.outer(comm @ v, u) + np.outer(comm @ u, v)) % p
        logicals.extend([u, v])
    return [from_symplectic(v, p) for v in logicals]


def new_code(
    p: int,
    stabilizers: list[PauliString],
    logicals: list[PauliString] | None = None,
    *,
    name: str | None = None,
    distance: int | None = None,
) -> StabilizerCode:
    """Validate generators and assemble a :class:`StabilizerCode`.

    Computes the normalizer basis as the symplectic kernel of the stabilizer
    matrix and extracts 2k paired logical generators unless provided.  Each
    commutation test is one product of the stabilizers' ``[-z | x]`` rows
    with ``[x | z]`` rows; a failure names the first non-commuting pair.
    """
    ffield.check_prime(p)
    if not stabilizers:
        raise CodeError("empty stabilizer set")
    n = stabilizers[0].n
    for g in stabilizers:
        if g.p != p or g.n != n:
            raise CodeError("stabilizers disagree on p or n")
        if g.weight() < 2:
            raise CodeError(f"stabilizer {format_pauli(g)} has weight < 2")
    stab_rows = symplectic_matrix(stabilizers)
    comm = commutation_rows(stab_rows, p)
    clash = _first_clash(comm @ stab_rows.T % p)
    if clash is not None:
        g, h = stabilizers[clash[0]], stabilizers[clash[1]]
        raise CodeError(f"stabilizers do not commute: {format_pauli(g)}, {format_pauli(h)}")
    m = len(stabilizers)
    rk = ffield.rank(stab_rows, p)
    if rk != m:
        raise CodeError(f"dependent stabilizers: rank {rk} < {m}")
    k = n - m
    if k <= 0:
        raise CodeError("k = 0 unsupported")

    norm_rows = ffield.kernel(comm, p)
    if norm_rows.shape[0] != n + k:
        raise CodeError("normalizer dimension mismatch")

    if logicals is None:
        logical_gens = _extract_logicals(norm_rows, p, k)
    else:
        if len(logicals) != 2 * k:
            raise CodeError(f"expected {2 * k} logical generators")
        if any(l.p != p or l.n != n for l in logicals):
            raise CodeError("logicals disagree on p or n")
        if (comm @ symplectic_matrix(logicals).T % p).any():
            raise CodeError("logical anticommutes with a stabilizer")
        logical_gens = list(logicals)
    full = np.vstack([stab_rows, symplectic_matrix(logical_gens)])
    if ffield.rank(full, p) != n + k:
        raise CodeError("stabilizers and logicals do not span the normalizer")

    return StabilizerCode(
        p=p,
        n=n,
        k=k,
        stabilizers=tuple(stabilizers),
        logical_gens=tuple(logical_gens),
        name=name,
        distance=distance,
    )


def permute(code: StabilizerCode, order: list[int]) -> StabilizerCode:
    """Reorder qudits: new position i holds old qudit ``order[i - 1]``."""
    if sorted(order) != list(range(1, code.n + 1)):
        raise CodeError("order must be a permutation of 1..n")
    idx = np.array(order, dtype=np.int64) - 1

    def perm(P: PauliString) -> PauliString:
        return PauliString(P.p, P.x[idx], P.z[idx])

    return replace(
        code,
        stabilizers=tuple(perm(g) for g in code.stabilizers),
        logical_gens=tuple(perm(g) for g in code.logical_gens),
    )


# ---------------------------------------------------------------------------
# CSS splitting


@dataclass(frozen=True)
class CssPart:
    """One axis of a CSS split, ready for building its own trellis.

    ``checks`` are the pure-axis stabilizers; ``gens`` generate the dual-axis
    strings with zero syndrome against the checks (the trellis path set).
    """

    axis: str
    checks: tuple[PauliString, ...]
    gens: tuple[PauliString, ...]
    n: int
    p: int

    @property
    def k_classical(self) -> int:
        return self.n - len(self.checks)

    def tof(self) -> TofGenerators:
        return to_tof(list(self.gens))


def css_split(code: StabilizerCode) -> tuple[CssPart, CssPart]:
    """Split a CSS code into its X-check and Z-check parts.

    Raises CodeError("not CSS") when some stabilizer mixes X and Z exponents.
    """
    x_rows, z_rows = code.css_rows
    x_checks = [code.stabilizers[j] for j in x_rows]
    z_checks = [code.stabilizers[j] for j in z_rows]
    p, n = code.p, code.n

    def part(checks: list[PauliString], axis: str) -> CssPart:
        h = np.array(
            [(g.x if axis == "X" else g.z) for g in checks], dtype=np.int64
        ).reshape(-1, n)
        ker = ffield.kernel(h, p)
        gens = []
        for v in ker:
            if axis == "X":
                gens.append(PauliString(p, np.zeros(n, dtype=np.int64), v))
            else:
                gens.append(PauliString(p, v, np.zeros(n, dtype=np.int64)))
        return CssPart(axis, tuple(checks), tuple(gens), n, p)

    return part(x_checks, "X"), part(z_checks, "Z")


# ---------------------------------------------------------------------------
# qudit numbering heuristic


def greedy_numbering(code: StabilizerCode) -> list[int]:
    """Search for a qudit order that shrinks the trellis.

    From every seed qudit, repeatedly append the qudit minimizing the change
    in the number of active generators (some but not all of the support
    placed), breaking ties by index.  All seeds grow at once: ``cnt[s, g]``
    counts the placed qudits of generator g in seed s's order, and placing
    q changes the active count by ``gain[s] @ inc[:, q]``.  The seed whose
    final order yields the smallest total edge count wins; the identity
    order is kept if nothing beats it.
    """
    n = code.n
    gens = list(code.stabilizers) + list(code.logical_gens)
    inc = np.array([(g.x != 0) | (g.z != 0) for g in gens], dtype=np.int64)
    size = inc.sum(axis=1)
    seeds = np.arange(n)
    orders = [seeds]
    placed = np.eye(n, dtype=bool)
    cnt = inc.T.copy()
    for _ in range(1, n):
        gain = ((cnt == 0) & (size > 1)).astype(np.int64) - ((cnt == size - 1) & (cnt > 0))
        delta = gain @ inc
        delta[placed] = np.iinfo(np.int64).max
        q = delta.argmin(axis=1)
        orders.append(q)
        placed[seeds, q] = True
        cnt += inc[:, q].T

    def total_edges(order: list[int]) -> int:
        permuted = permute(code, order)
        return profile(permuted.normalizer_tof()).total_edges

    best_order = list(range(1, n + 1))
    best_e = total_edges(best_order)
    for order in (np.stack(orders, axis=1) + 1).tolist():
        e = total_edges(order)
        if e < best_e:
            best_e, best_order = e, order
    return best_order


# ---------------------------------------------------------------------------
# code file format


def parse_code_file(text: str) -> StabilizerCode:
    """Parse the text code format.

    Line 1 is ``p n k``.  Then either ``n - k`` Pauli strings, optionally
    followed by a ``LOGICALS`` line and 2k more strings, or a ``SYMPLECTIC``
    line followed by rows of 2n comma-separated integers (x block then z
    block).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise CodeError("empty code file")
    header = lines[0].split()
    if len(header) != 3:
        raise CodeError(f"malformed header {lines[0]!r}: expected 'p n k'")
    try:
        p, n, k = (int(t) for t in header)
    except ValueError as exc:
        raise CodeError(f"malformed header {lines[0]!r}") from exc
    body = lines[1:]
    m = n - k
    symplectic_mode = bool(body) and body[0].upper() == "SYMPLECTIC"
    if symplectic_mode:
        body = body[1:]

    def read_strings(rows: list[str]) -> list[PauliString]:
        out = []
        for ln in rows:
            if symplectic_mode:
                vals = [int(t) for t in ln.split(",")]
                if len(vals) != 2 * n:
                    raise CodeError(f"expected {2 * n} symplectic entries, got {len(vals)}")
                if any(not 0 <= v < p for v in vals):
                    raise CodeError("symplectic entry out of range")
                out.append(from_symplectic(np.array(vals, dtype=np.int64), p))
            else:
                out.append(parse_pauli(ln, p, n))
        return out

    logicals = None
    upper = [ln.upper() for ln in body]
    if "LOGICALS" in upper:
        at = upper.index("LOGICALS")
        stab_rows, log_rows = body[:at], body[at + 1 :]
        if len(log_rows) != 2 * k:
            raise CodeError(f"expected {2 * k} logical lines, got {len(log_rows)}")
        logicals = read_strings(log_rows)
    else:
        stab_rows = body
    if len(stab_rows) != m:
        raise CodeError(f"expected {m} stabilizer lines, got {len(stab_rows)}")
    return new_code(p, read_strings(stab_rows), logicals)


def write_code_file(code: StabilizerCode) -> str:
    """Serialize a code in the text format accepted by :func:`parse_code_file`."""
    lines = [f"{code.p} {code.n} {code.k}"]
    lines += [format_pauli(g) for g in code.stabilizers]
    lines.append("LOGICALS")
    lines += [format_pauli(g) for g in code.logical_gens]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in codes

STEANE_H = np.array(
    [
        [1, 1, 0, 1, 1, 0, 0],
        [0, 1, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.int64,
)


def _checks(n: int, supports: list[list[int]], axis: str) -> list[PauliString]:
    """One qubit check of Pauli ``axis`` ("X" or "Z") on each 1-based support."""
    rows = np.zeros((len(supports), 2 * n), dtype=np.int64)
    for row, support in zip(rows, supports):
        row[np.array(support) - 1 + (0 if axis == "X" else n)] = 1
    return [from_symplectic(row, 2) for row in rows]


def _css_checks(n: int, supports: list[list[int]]) -> list[PauliString]:
    """The X checks, then the Z checks, on the same supports."""
    return _checks(n, supports, "X") + _checks(n, supports, "Z")


def _rotated_surface(d: int) -> StabilizerCode:
    """Rotated surface code on a d x d grid, row-major numbering from the top.

    The qubit at grid column i, row j (row d-1 on top) carries the label
    ``d*(d - 1 - j) + i + 1``.  Interior faces checker between Z (even
    corner parity) and X; boundary half-faces sit on the left/right edges
    (Z) and the top/bottom edges (X).
    """
    n = d * d

    def label(i: int, j: int) -> int:
        return d * (d - 1 - j) + i + 1

    x_faces: list[list[int]] = []
    z_faces: list[list[int]] = []
    for a in range(d - 1):
        for b in range(d - 1):
            face = [label(a, b), label(a + 1, b), label(a, b + 1), label(a + 1, b + 1)]
            (z_faces if (a + b) % 2 == 0 else x_faces).append(face)
    for b in range(d - 1):
        if b % 2 == 1:
            z_faces.append([label(0, b), label(0, b + 1)])
        else:
            z_faces.append([label(d - 1, b), label(d - 1, b + 1)])
    for a in range(d - 1):
        if a % 2 == 1:
            x_faces.append([label(a, d - 1), label(a + 1, d - 1)])
        else:
            x_faces.append([label(a, 0), label(a + 1, 0)])

    stabs = _checks(n, sorted(x_faces), "X") + _checks(n, sorted(z_faces), "Z")
    return new_code(2, stabs, name=f"rotated_surface({d})", distance=d)


def _color_666(d: int) -> StabilizerCode:
    """Triangular 6.6.6 color code of odd distance d, greedy qudit numbering."""
    rmax = 3 * (d - 1) // 2
    sites = [(r, c) for r in range(rmax + 1) for c in range(r + 1)]
    plaq = [(r, c) for (r, c) in sites if (r + c) % 3 == 1]
    qubits = [(r, c) for (r, c) in sites if (r + c) % 3 != 1]
    index = {s: i + 1 for i, s in enumerate(qubits)}
    nbrs = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    n = len(qubits)
    faces = []
    for (r, c) in plaq:
        face = [index[(r + dr, c + dc)] for dr, dc in nbrs if (r + dr, c + dc) in index]
        faces.append(sorted(face))
    code = new_code(2, _css_checks(n, faces), name=f"color_666({d})", distance=d)
    return permute(code, greedy_numbering(code))


def _color_488(d: int) -> StabilizerCode:
    """Triangular 4.8.8 color code of odd distance d, greedy qudit numbering."""
    faces = _color_488_faces(d)
    n = max(max(f) for f in faces)
    code = new_code(2, _css_checks(n, faces), name=f"color_488({d})", distance=d)
    return permute(code, greedy_numbering(code))


def _color_488_faces(d: int) -> list[list[int]]:
    """Face supports of the triangular 4.8.8 lattice with d^2 - d + 1 qubits.

    A triangular patch is cut out of the square-octagon tiling.  Faces are
    3-colored (squares one color, octagons checkerboarded in the other two)
    and each side of the triangle is assigned one color: faces truncated by a
    side of their own color are dropped, every other face restricted to the
    patch survives as a stabilizer.  Qubits are numbered along diagonals,
    which keeps the identity ordering close to trellis-minimal.
    """
    y0, b = 1, 2
    a = -2 - 4 * (d - 1)
    side_color = {0: 0, 1: 2, 2: 1}

    def inside(q: tuple[int, int]) -> bool:
        return q[1] >= y0 and q[0] - q[1] >= a and q[0] + q[1] <= b

    supports: set[frozenset[tuple[int, int]]] = set()
    qubits: set[tuple[int, int]] = set()
    rng = 2 * d + 4
    for i in range(-rng, rng):
        for j in range(-rng, rng):
            square = frozenset(
                {(4 * i + 1, 4 * j), (4 * i - 1, 4 * j), (4 * i, 4 * j + 1), (4 * i, 4 * j - 1)}
            )
            octagon = frozenset(
                {
                    (4 * i + 1, 4 * j),
                    (4 * i, 4 * j + 1),
                    (4 * i + 3, 4 * j),
                    (4 * i + 4, 4 * j + 1),
                    (4 * i + 4, 4 * j + 3),
                    (4 * i + 3, 4 * j + 4),
                    (4 * i, 4 * j + 3),
                    (4 * i + 1, 4 * j + 4),
                }
            )
            for color, face in ((0, square), (1 + (i + j) % 2, octagon)):
                kept = frozenset(q for q in face if inside(q))
                if not kept:
                    continue
                qubits |= kept
                if kept != face:
                    cut_sides = set()
                    for q in face - kept:
                        if q[1] < y0:
                            cut_sides.add(0)
                        if q[0] - q[1] < a:
                            cut_sides.add(1)
                        if q[0] + q[1] > b:
                            cut_sides.add(2)
                    if any(side_color[s] == color for s in cut_sides):
                        continue
                if len(kept) >= 2:
                    supports.add(kept)
    order = sorted(qubits, key=lambda q: (q[0] + q[1], q[0] - q[1]))
    index = {q: i + 1 for i, q in enumerate(order)}
    return [sorted(index[q] for q in face) for face in sorted(supports, key=sorted)]


def _five_one_one() -> StabilizerCode:
    stabs = [parse_pauli(s) for s in ("ZXIII", "XZXII", "IXZXI", "IIXZX")]
    return new_code(2, stabs, name="five_one_one", distance=1)


def _five_one_three() -> StabilizerCode:
    stabs = [parse_pauli(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    return new_code(2, stabs, name="five_one_three", distance=3)


def _steane() -> StabilizerCode:
    supports = [np.flatnonzero(row) + 1 for row in STEANE_H]
    return new_code(2, _css_checks(7, supports), name="steane", distance=3)


def _steane_level2() -> StabilizerCode:
    """[[49,1,9]] level-2 Steane: checks are I (x) H and H (x) all-ones."""
    inner = [7 * block + np.flatnonzero(row) + 1 for block in range(7) for row in STEANE_H]
    outer = [[7 * c + q + 1 for c in np.flatnonzero(row) for q in range(7)] for row in STEANE_H]
    return new_code(2, _css_checks(49, inner + outer), name="steane_level2", distance=9)


def _codetable(name: str) -> StabilizerCode:
    """A bundled code from ``data/<name>.qcode``; names read ``codetable_<n>_<k>_<d>``."""
    data = importlib.resources.files("qtrellis").joinpath("data", f"{name}.qcode").read_text()
    return replace(parse_code_file(data), name=name, distance=int(name.rsplit("_", 1)[1]))


# the built-in codes: fixed codes by name, and families whose constructor
# takes an odd distance >= 3, each with its qubit count at that distance
_FIXED = {
    "five_one_one": _five_one_one,
    "five_one_three": _five_one_three,
    "steane": _steane,
    "steane_level2": _steane_level2,
    **{
        name: partial(_codetable, name)
        for name in ("codetable_20_3_6", "codetable_20_4_6", "codetable_20_10_4", "codetable_20_13_3")
    },
}
_FAMILIES = {
    "rotated_surface": (_rotated_surface, lambda d: d * d),
    "color_666": (_color_666, lambda d: (3 * d * d + 1) // 4),
    "color_488": (_color_488, lambda d: d * d - d + 1),
}
# the most qubits of a family member: construction memory grows as n**2, and
# rotated_surface d = 31 (961 qubits) peaks at 149 MB RSS in 4.3 s
MAX_BUILTIN_QUBITS = 1024
BUILTIN_NAMES = frozenset(_FIXED) | frozenset(_FAMILIES)


def builtin(name: str, parameter: int | None = None) -> StabilizerCode:
    """Construct a built-in code by name.

    Parameterized families (``rotated_surface``, ``color_666``,
    ``color_488``) require an odd distance >= 3 whose code has at most
    ``MAX_BUILTIN_QUBITS`` qubits; the fixed codes take none.
    """
    if name in _FIXED:
        if parameter is not None:
            raise CodeError(f"{name} takes no distance")
        return _FIXED[name]()
    if name not in _FAMILIES:
        raise CodeError(f"unknown built-in code {name!r}")
    if parameter is None:
        raise CodeError(f"{name} requires a distance")
    if parameter < 3 or parameter % 2 == 0:
        raise CodeError("distance must be odd and >= 3")
    make, qubits = _FAMILIES[name]
    if qubits(parameter) > MAX_BUILTIN_QUBITS:
        raise CodeError(f"{name} at distance {parameter} has {qubits(parameter)} qubits, over {MAX_BUILTIN_QUBITS}")
    return make(parameter)
