"""Weight assignment, pure errors, Viterbi decoding, and decode pipelines.

Edge weights are negative log-likelihoods, so the minimum-weight path is
the most likely error consistent with the measured syndrome.  Weights are
nonnegative with ``+inf`` reserved for zero-probability labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import _QUBIT_CHARS, PauliString, from_symplectic, mul
from .code import StabilizerCode, builtin, css_split
from .trellis import MAX_EDGES, Trellis, TrellisError, build, label_sums

SUCCESS = "success"
LOGICAL_FAILURE = "logical_failure"
INCONSISTENT = "internal_inconsistency"


class DecodeError(RuntimeError):
    """Raised when a decode query cannot be completed."""


@dataclass(frozen=True)
class WeightTable:
    """Per-position weights for every single-site label (a, b)."""

    p: int
    n: int
    table: np.ndarray  # shape (n, p, p), float64

    def __post_init__(self):
        if self.table.shape != (self.n, self.p, self.p):
            raise ValueError("weight table has the wrong shape")
        if not np.isfinite(self.table).any(axis=(1, 2)).all():
            raise ValueError("every position needs at least one finite weight")
        if (self.table < 0).any():
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True)
class DecodeOutcome:
    correction: PauliString
    path_weight: float
    classification: str
    logical_flags: tuple[int, ...]


def weights_from_channel(channel, n: int, *, p: int = 2, css_axis: str | None = None) -> WeightTable:
    """Turn a channel description into a weight table.

    ``channel`` is either a :class:`qtrellis.sim.ChannelSpec`, whose
    ``site_probs(p)`` gives the label probabilities, or a direct mapping
    from qubit labels to weights (taken verbatim).  ``css_axis="X"``
    produces the table for the X-stabilizer trellis whose labels are powers
    of Z, combining the probabilities of all labels with the same Z-part;
    symmetrically for ``"Z"``.  A combined probability is clamped at 1: the
    unexcited axis sums ``1 - r`` and p - 1 copies of ``r / (p - 1)``, which
    can round to ``1 + 2**-52``.
    """
    if isinstance(channel, dict):
        table = np.full((n, p, p), np.inf)
        for name, w in channel.items():
            a, b = _QUBIT_CHARS[name] if isinstance(name, str) else name
            table[:, a, b] = float(w)
        return WeightTable(p, n, table)
    probs = channel.site_probs(p)
    full = np.zeros((p, p))
    if css_axis is None:
        full = probs
    elif css_axis == "X":
        # labels {I, Z, ...}: only zero X-exponent entries are reachable
        full[0, :] = probs.sum(axis=0)
    elif css_axis == "Z":
        full[:, 0] = probs.sum(axis=1)
    else:
        raise DecodeError(f"unknown css axis {css_axis!r}")
    with np.errstate(divide="ignore"):
        w = -np.log(np.minimum(full, 1.0))
    return WeightTable(p, n, np.broadcast_to(w, (n, p, p)).copy())


# every decoder mode: its trellises by key, each with the css axis that picks
# its weight table and the check rows it reads (None: all).  ``block`` slices
# one table over all n sites per inner block of its 7-site trellis.
MODES = {"full": {"full": None}, "css": {"x": "X", "z": "Z"}, "block": {"inner": "X"}}


def _mode_axes(mode: str) -> dict[str, str | None]:
    if mode not in MODES:
        raise DecodeError(f"unknown decoder mode {mode!r}")
    return MODES[mode]


def _axis_rows(code: StabilizerCode, axis: str | None):
    """The check rows that a trellis of css axis ``axis`` reads."""
    return slice(None) if axis is None else code.css_rows["XZ".index(axis)]


def mode_sources(code: StabilizerCode, mode: str) -> dict:
    """What each trellis of a decoder mode is built from: the code or a CSS part (Steane's for ``block``)."""
    axes = _mode_axes(mode)
    if None in axes.values():
        return {key: code for key in axes}
    parts = dict(zip("XZ", css_split(builtin("steane") if mode == "block" else code)))
    return {key: parts[axis] for key, axis in axes.items()}


def build_trellises(code: StabilizerCode, mode: str, *, max_edges: int = MAX_EDGES) -> dict[str, Trellis]:
    """The trellises of a decoder mode for a given code, each built from its source once."""
    return {key: build(src, max_edges=max_edges) for key, src in mode_sources(code, mode).items()}


def mode_weights(code: StabilizerCode, mode: str, channel) -> dict[str, WeightTable]:
    """Weight tables of a channel for the trellises of a decoder mode, keyed like them."""
    axes = _mode_axes(mode)
    return {key: weights_from_channel(channel, code.n, p=code.p, css_axis=axes[key]) for key in axes}


def _syndrome_rows(code: StabilizerCode, S) -> np.ndarray:
    """Syndromes as a (count, m) array mod p."""
    S = np.asarray(S, dtype=np.int64) % code.p
    if S.ndim != 2 or S.shape[1] != len(code.stabilizers):
        raise DecodeError("syndrome length must match the stabilizer count")
    return S


def pure_error(code: StabilizerCode, s: np.ndarray) -> PauliString:
    """A Pauli string whose syndrome equals ``s``, linear in ``s``."""
    S = _syndrome_rows(code, np.asarray(s)[None])
    return from_symplectic(S[0] @ code.pure_error_map % code.p, code.p)


def _viterbi_arrays(
    t: Trellis, wtab: np.ndarray, shift_x: np.ndarray, shift_z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Viterbi over one trellis.

    ``shift_x``/``shift_z`` hold per-sample pure-error exponents, shape
    (samples, n); the trellis itself stays at the zero syndrome and the
    shift is applied on the fly to each edge label.  Returns the x and z
    exponent arrays of the minimum-weight corrections and their weights.
    The weights of every site's labels under every shift symbol are formed
    once, ``wtab`` read through :func:`label_sums` (n * p**4 entries), and
    an edge's weight is the entry of its row's symbol and its flat label.
    The traceback keeps the chosen edges' flat labels and shifts them all
    at once.  Each target keeps the first of its in-edges that reaches the
    minimum, so ties resolve to the smallest (source, label) pair by
    construction of the edge ordering.  That holds only for
    float64-equal path sums: corrections of equal Hamming weight usually
    sum their -log weights in different orders, so rounding picks the
    winner (on surface d = 5 ``full`` at depolarizing p = 0.1, exact
    Hamming-unit weights moved failures from 4,876 to 5,088 of 65,536
    errors).
    """
    p, n = t.p, t.n
    count = shift_x.shape[0]
    sym = shift_x * p + shift_z
    sums = label_sums(p)
    shifted = wtab.reshape(n, p * p)[:, sums]
    dist = np.zeros((count, 1))
    back: list[np.ndarray] = []
    for i, sec in enumerate(t.sections):
        deg = sec.deg_in
        cost = np.take(shifted[i][sym[:, i]], sec.flat_label, axis=1)
        cost += dist[:, sec.source]
        cost = cost.reshape(count, t.layers[i + 1].size, deg)
        dist = cost[:, :, 0].copy()
        arg = np.zeros(dist.shape, dtype=np.min_scalar_type(deg - 1))
        for j in range(1, deg):
            better = cost[:, :, j] < dist
            np.copyto(dist, cost[:, :, j], where=better)
            np.copyto(arg, j, where=better)
        back.append(arg)
    total = dist[:, 0].copy()
    labels = np.empty((count, n), dtype=sums.dtype)
    cur = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    for i in range(n - 1, -1, -1):
        sec = t.sections[i]
        eidx = cur * sec.deg_in + back[i][rows, cur]
        labels[:, i] = sec.flat_label[eidx]
        cur = sec.source[eidx]
    xs, zs = np.divmod(sums[sym, labels].astype(np.int64), p)
    return xs, zs, total


def viterbi(t: Trellis, weights: WeightTable) -> tuple[PauliString, float]:
    """Minimum-weight path of an (already shifted) weighted trellis."""
    if weights.n != t.n or weights.p != t.p:
        raise DecodeError("weight table does not match the trellis")
    zero = np.zeros((1, t.n), dtype=np.int64)
    xs, zs, total = _viterbi_arrays(t, weights.table, zero, zero)
    if not np.isfinite(total[0]):
        raise DecodeError("no finite-weight path through the trellis")
    return PauliString(t.p, xs[0], zs[0]), float(total[0])


def _decode_part(
    code: StabilizerCode, t: Trellis, weights: WeightTable, S: np.ndarray, T: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Viterbi over ``t`` shifted by the pure errors ``S @ T``.

    Only the columns where ``T`` is nonzero are multiplied out (a CSS
    part's rows reach one half); the others stay zero.  A batch whose
    syndromes are all zero decodes the zero syndrome once and broadcasts it.
    """
    n, count = code.n, S.shape[0]
    if not S.any():
        S = S[:1]
    cols = T.any(axis=0)
    shift = np.zeros((S.shape[0], 2 * n), dtype=np.int64)
    shift[:, cols] = S @ T[:, cols] % code.p
    xs, zs, total = _viterbi_arrays(t, weights.table, shift[:, :n], shift[:, n:])
    if S.shape[0] != count:
        xs, zs, total = (np.repeat(a, count, axis=0) for a in (xs, zs, total))
    return xs, zs, total


# outer stage of the block decoder: unit cost per flipped inner block
_BLOCK_FLIP_WEIGHTS = np.broadcast_to(np.array([[0.0, 1.0], [np.inf, np.inf]]), (7, 2, 2))


def _block_decode(
    code: StabilizerCode, inner: Trellis, weights: WeightTable, S: np.ndarray, T: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-stage decoder of the level-2 Steane X-checks for Z corrections.

    Stage 1 decodes each of the seven inner blocks on the 7-qubit X-check
    trellis, shifted by that block of the pure error.  Pure error plus
    correction then has zero inner syndrome in every block, so the parity
    of each block is its logical class, and the class vector is a pure
    error of the outer (block-level) syndrome.  Stage 2 decodes it on the
    same trellis and flips whole blocks.  Only the X-check rows are read.
    """
    n, count = code.n, S.shape[0]
    if n != 49 or code.p != 2:
        raise DecodeError("block decoding expects the level-2 Steane code")
    x_rows = code.css_rows[0]
    shift = (S[:, x_rows] @ T[x_rows, n:] % 2).reshape(count, 7, 7)
    zero = np.zeros((count, 7), dtype=np.int64)
    corr = np.empty_like(shift)
    for b in range(7):
        _, corr[:, b], _ = _viterbi_arrays(inner, weights.table[7 * b : 7 * b + 7], zero, shift[:, b])
    parity = (shift + corr).sum(axis=2) % 2
    _, outer, _ = _viterbi_arrays(inner, _BLOCK_FLIP_WEIGHTS, zero, parity)
    corr_z = ((corr + outer[:, :, None]) % 2).reshape(count, n)
    corr_x = np.zeros_like(corr_z)
    return corr_x, corr_z, weights.table[np.arange(n), corr_x, corr_z].sum(axis=1)


def measure_syndromes(code: StabilizerCode, mode: str, err_x: np.ndarray, err_z: np.ndarray) -> np.ndarray:
    """Syndromes of a batch of errors as ``mode`` reads them, shape (count, m).

    Each trellis of the mode fills the check rows it reads from the exponent
    halves they see, skipping a half that is all zero: an X check sees no x
    exponent, a Z check no z exponent.  ``block`` handles Z noise only.
    """
    C, n, p = code.check_matrix, code.n, code.p
    if mode == "block" and err_x.any():
        raise DecodeError("block decoding handles single-axis Z noise only")
    S = np.zeros((err_x.shape[0], C.shape[0]), dtype=np.int64)
    for axis in _mode_axes(mode).values():
        rows = _axis_rows(code, axis)
        for half, cols, blind in ((err_x, slice(None, n), "X"), (err_z, slice(n, None), "Z")):
            if axis != blind and half.any():
                S[:, rows] += half @ C[rows, cols].T
    return S % p


def logical_flags(code: StabilizerCode, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``[x | z] @ logical_matrix.T mod p``: entry j is ``sym_inner(logical_gens[j], E)``.

    ``x`` and ``z`` are the exponents of one error or of a batch, shape
    ``(n,)`` or ``(count, n)``.  A zero-syndrome error acts trivially on the
    code space exactly when all its flags are zero.
    """
    L, n = code.logical_matrix, code.n
    return (x @ L[:, :n].T + z @ L[:, n:].T) % code.p


def _check_trellises(
    code: StabilizerCode, trellises: dict[str, Trellis], mode: str, weights: dict[str, WeightTable]
) -> None:
    """Refuse the trellises or weight tables of another mode, system or group.

    Both are keyed as the mode's trellises in ``MODES``.  Every trellis must
    act on the code's p and n sites (7 for ``block``).  A ``full`` trellis
    must span the normalizer, of dimension 2n - m, and a CSS part the
    strings with zero syndrome against its checks, of dimension n minus
    their count.  Its vertex labels must be the partial syndromes against
    exactly those checks.  ``block`` gets neither check.
    """
    axes = _mode_axes(mode)
    keys, given = sorted(axes), (sorted(trellises), sorted(weights))
    if given != (keys, keys):
        raise TrellisError(f"mode {mode!r} reads the trellises {keys}, given {given[0]} and weights {given[1]}")
    n, p, C = code.n, code.p, code.check_matrix
    for key, axis in axes.items():
        t, w = trellises[key], weights[key]
        if t.n != (7 if mode == "block" else n) or t.p != p:
            raise TrellisError("trellis acts on a different system")
        if w.n != n or w.p != p:
            raise DecodeError("weight table does not match the code")
        if mode == "block":
            continue
        checks = C[_axis_rows(code, axis)]
        dim = (2 * n if axis is None else n) - checks.shape[0]
        if t.profile.dim != dim:
            raise TrellisError(f"trellis {key!r} spans dimension {t.profile.dim}, the code's group {dim}")
        if not np.array_equal(t.label_matrix, checks.T):
            raise TrellisError(f"trellis {key!r} is labelled by checks other than the code's")


# entries in one (rows, section edges) temporary of the kernel: 512 KB at
# 8 B, so a section's few live temporaries stay inside a 2 MB L2 cache
_EDGE_BUDGET = 2**16


def _chunk_rows(widest: int) -> int:
    """Rows per kernel call over trellises whose widest section has ``widest`` edges."""
    return max(1, _EDGE_BUDGET // widest)


def decode_syndromes(
    code: StabilizerCode, trellises: dict[str, Trellis], mode: str, weights: dict[str, WeightTable], S: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-weight corrections for a batch of syndromes, shape (count, m).

    Each syndrome is mapped to a pure error by ``code.pure_error_map`` and
    the zero-syndrome trellises are shifted by it on the fly, so the result
    depends on the syndrome alone.  ``trellises`` and ``weights`` are keyed
    as the trellises of ``mode`` in ``MODES`` (see :func:`mode_sources` and
    :func:`mode_weights`), and each trellis reads the rows of its css axis.
    Returns the x and z exponents of the corrections, each (count, n), and
    their weights.  A correction ``c`` carries its syndrome, the syndrome of
    the error ``E``, so the residual to judge is ``E - c``, not ``E + c``
    (the two differ for p > 2).  Trellises of another mode, system or group
    raise TrellisError (see :func:`_check_trellises`), but their sections
    are trusted: run :func:`qtrellis.trellis.validate` on a loaded trellis
    first, as ``qtrellis decode`` does.  Rows are decoded in
    chunks sized so that no kernel temporary exceeds ``_EDGE_BUDGET``
    entries, unless one row alone does; each row's result does not depend
    on the chunk it falls in.
    """
    S = _syndrome_rows(code, S)
    _check_trellises(code, trellises, mode, weights)
    widest = max(sec.size for t in trellises.values() for sec in t.sections)
    step = _chunk_rows(widest)
    if S.shape[0] <= step:
        return _decode_chunk(code, trellises, mode, weights, S)
    chunks = [
        _decode_chunk(code, trellises, mode, weights, S[lo : lo + step])
        for lo in range(0, S.shape[0], step)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _decode_chunk(
    code: StabilizerCode, trellises: dict[str, Trellis], mode: str, weights: dict[str, WeightTable], S: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of :func:`decode_syndromes`, with ``S`` already reduced mod p.

    The parts add: a CSS code's pure-error map is block-diagonal, so each
    part's correction is zero in the half that the other part fills.
    """
    T = code.pure_error_map
    if mode == "block":
        return _block_decode(code, trellises["inner"], weights["inner"], S, T)
    rows = {key: _axis_rows(code, axis) for key, axis in MODES[mode].items()}
    parts = [_decode_part(code, trellises[key], weights[key], S[:, r], T[r]) for key, r in rows.items()]
    return tuple(sum(arrays[1:], arrays[0]) for arrays in zip(*parts))


def classify_residual(
    code: StabilizerCode, true_error: PauliString, correction: PauliString
) -> tuple[str, tuple[int, ...]]:
    """Judge a correction against the actual error.

    A correction carries the error's syndrome, so the residual is
    ``true_error - correction``, the error times the correction's inverse.
    It acts trivially exactly when it commutes with all 2k logical
    generators and has zero syndrome; its syndrome is read off
    ``code.check_matrix``.  The returned flags are the residual's
    commutation values ``sym_inner(residual, g)`` against each logical
    generator g: the negated :func:`logical_flags`, which differs for p > 2.
    """
    residual = mul(true_error, PauliString(code.p, -correction.x, -correction.z))
    if np.any(code.check_matrix @ residual.symplectic() % code.p):
        return INCONSISTENT, ()
    flags = tuple((-logical_flags(code, residual.x, residual.z) % code.p).tolist())
    return (SUCCESS if not any(flags) else LOGICAL_FAILURE), flags


def _decode_one(
    code: StabilizerCode,
    trellises: dict[str, Trellis],
    mode: str,
    weights: dict[str, WeightTable],
    s: np.ndarray,
    true_error: PauliString | None,
) -> DecodeOutcome:
    """Decode one syndrome, verify it against the rows the mode reads, classify."""
    s = np.asarray(s, dtype=np.int64) % code.p
    corr_x, corr_z, total = decode_syndromes(code, trellises, mode, weights, s[None])
    if not np.isfinite(total[0]):
        raise DecodeError("no finite-weight path through the trellis")
    correction = PauliString(code.p, corr_x[0], corr_z[0])
    residue = (code.check_matrix @ correction.symplectic() - s) % code.p
    if any(residue[_axis_rows(code, axis)].any() for axis in MODES[mode].values()):
        cls, flags = INCONSISTENT, ()
    elif true_error is None:
        cls, flags = SUCCESS, ()
    else:
        cls, flags = classify_residual(code, true_error, correction)
    return DecodeOutcome(correction, float(total[0]), cls, flags)


def decode(
    code: StabilizerCode,
    base: Trellis,
    s: np.ndarray,
    weights: WeightTable,
    true_error: PauliString | None = None,
) -> DecodeOutcome:
    """Decode one syndrome on the normalizer trellis ``base``; verify and classify.

    ``base`` is trusted as :func:`decode_syndromes` trusts it: a loaded
    trellis is checked with :func:`qtrellis.trellis.validate` first.
    """
    return _decode_one(code, {"full": base}, "full", {"full": weights}, s, true_error)


def css_decode(
    code: StabilizerCode,
    x_trellis: Trellis,
    z_trellis: Trellis,
    s: np.ndarray,
    channel,
    true_error: PauliString | None = None,
) -> DecodeOutcome:
    """Independent X/Z decoding of a CSS code; corrections multiplied.

    ``channel`` is anything :func:`weights_from_channel` accepts.  The
    trellises are trusted as :func:`decode_syndromes` trusts them: a loaded
    trellis is checked with :func:`qtrellis.trellis.validate` first.
    """
    weights = mode_weights(code, "css", channel)
    return _decode_one(code, {"x": x_trellis, "z": z_trellis}, "css", weights, s, true_error)


def block_decode(
    code: StabilizerCode,
    inner_trellis: Trellis,
    s: np.ndarray,
    weights: WeightTable,
    true_error: PauliString | None = None,
) -> DecodeOutcome:
    """Two-stage decoder for the level-2 concatenated Steane X-stabilizers.

    Stage 1 decodes the seven inner blocks independently on the 7-qubit
    X-part trellis; stage 2 decodes the induced block-level syndrome on
    the same trellis and lifts the result to full-block Z strings.  The
    sequential edge cost is twice one part trellis (36 + 36 = 72 edges)
    against 844 for the flat [[49,1,9]] X-part trellis.  Only the X-check
    components of ``s`` are read and verified (Z noise assumed).  The inner
    trellis is trusted: a loaded one is checked with
    :func:`qtrellis.trellis.validate` first.
    """
    return _decode_one(code, {"inner": inner_trellis}, "block", {"inner": weights}, s, true_error)
