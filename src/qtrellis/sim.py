"""Noise channels, exact rates from coset weight enumerators, Monte Carlo, threshold fits.

Sampling is vectorized and fully deterministic: every grid point derives
its generator from (seed, point index), so results do not depend on how
the work is distributed.  ``exact_rate`` caps its work, not its patterns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ffield
from .pauli import PauliString, from_symplectic, symplectic_matrix
from .code import StabilizerCode
from .trellis import MAX_EDGES, Trellis, CapacityError, build, label_sums
from .decode import _chunk_rows, build_trellises, decode_syndromes, logical_flags, measure_syndromes, mode_weights

_WILSON_Z = 1.959963984540054  # 95%
# exact_rate's cap on syndromes x (S_ch edges x (n + 1) + decoder edges); 6.6.6 d = 7 takes 1.2e10
_EXACT_WORK = 2**35
# rows of one run_montecarlo draw: the nontrivial ones are decoded at once
_DRAW_ROWS = 4096
# the kinds ChannelSpec accepts; the CLI offers them with hyphens
CHANNEL_KINDS = ("depolarizing", "dephasing_z", "dephasing_x")


class SimError(RuntimeError):
    """Invalid simulation request."""


@dataclass(frozen=True)
class ChannelSpec:
    """A single-site i.i.d. noise model."""

    kind: str
    p_phys: float

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise SimError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p_phys <= 1.0:
            raise SimError(f"physical rate {self.p_phys} outside [0, 1]")

    def site_probs(self, p: int = 2) -> np.ndarray:
        """Single-site label probabilities, shape (p, p); entry (a, b) is that of X^a Z^b."""
        probs = np.zeros((p, p))
        if self.kind == "depolarizing":
            probs[:] = self.p_phys / (p * p - 1)
        elif self.kind == "dephasing_z":
            probs[0, 1:] = self.p_phys / (p - 1)
        else:
            probs[1:, 0] = self.p_phys / (p - 1)
        probs[0, 0] = 1.0 - self.p_phys
        return probs


@dataclass(frozen=True)
class DataPoint:
    """One Monte Carlo grid point; rates reported both ways.

    ``rate_cond`` is the failure fraction among non-identity errors and
    ``rate_uncond`` scales it by the probability that any error occurred.
    The Wilson interval covers the conditional rate.
    """

    p_phys: float
    samples: int
    failures: int
    rate_cond: float
    rate_uncond: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class ThresholdFit:
    """A fit of ``rate_uncond = A + B x + C x^2``, ``x = (p - p_th) d^(1/nu)``.

    ``residual`` is the sum of squared residuals over every point of
    ``distances``; ``p_th`` and ``nu`` lie strictly inside the search box.
    """

    p_th: float
    nu: float
    A: float
    B: float
    C: float
    residual: float
    distances: tuple[int, ...]


def _wilson(failures: int, samples: int) -> tuple[float, float]:
    """95% Wilson interval of ``failures / samples``, samples > 0: exactly 0 or 1 at the edges."""
    z = _WILSON_Z
    phat = failures / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples**2)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    return lo, 1.0 if failures == samples else min(1.0, center + half)


def _sample_batch(
    channel: ChannelSpec, n: int, rng: np.random.Generator, count: int, p: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` i.i.d. errors; returns (x, z) exponent arrays."""
    probs = channel.site_probs(p).ravel()
    flat = rng.choice(p * p, size=(count, n), p=probs)
    return flat // p, flat % p


def sample_error(
    channel: ChannelSpec,
    n: int,
    rng: np.random.Generator,
    condition_nontrivial: bool = False,
    p: int = 2,
) -> PauliString:
    """One draw from the channel, optionally rejected until non-identity."""
    if condition_nontrivial and channel.p_phys == 0.0:
        raise SimError("cannot condition on errors from a noiseless channel")
    while True:
        xs, zs = _sample_batch(channel, n, rng, 1, p)
        err = PauliString(p, xs[0], zs[0])
        if not condition_nontrivial or not err.is_identity():
            return err


def _coset_weights(t: Trellis, cx: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """Weight enumerators of the cosets ``c + G``, G the group of ``t``, shape (count, n + 1).

    A forward pass over integer polynomials: lane w counts prefixes of weight w,
    and an edge whose label shifted by ``c`` is not the identity moves them up one.
    """
    count, n = cx.shape
    sym = cx * t.p + cz
    moves = label_sums(t.p) != 0
    lanes = np.broadcast_to(np.eye(1, n + 1, dtype=np.int64), (count, 1, n + 1))  # the root holds 1
    for i, sec in enumerate(t.sections):
        edge = lanes[:, sec.source]
        up = np.take(moves[sym[:, i]], sec.flat_label, axis=1)
        edge[up] = np.roll(edge[up], 1, axis=1)
        lanes = edge.reshape(count, t.layers[i + 1].size, sec.deg_in, n + 1).sum(axis=2)
    return lanes[:, 0]


def exact_rate(
    code: StabilizerCode,
    channel: ChannelSpec,
    decoder: str = "full",
    *,
    trellises: dict[str, Trellis] | None = None,
) -> float:
    """Exact logical failure probability from coset weight enumerators.

    Each syndrome s the channel can produce is decoded once, to ``c(s)``, and
    an error E of syndrome s is corrected exactly when ``E - c(s)`` lies in
    ``S_ch``, the stabilizers on the excited axes alone.  So the successes of
    weight w are the weight-w members of the cosets ``c(s) + S_ch``, counted
    by :func:`_coset_weights`, and the rest of the ``C(n, w) * labels**w``
    errors of weight w fail.  Work, syndromes x (``S_ch`` edges x (n + 1) +
    decoder edges), beyond ``_EXACT_WORK``, or counts beyond int64, raise one
    CapacityError; ``"block"`` always does, with 2^24 Z-noise syndromes on
    level-2 Steane.  The decoder's trellises are ``trellises``, or else built
    once, each with the cap over the syndrome count as its edge limit, and
    ``S_ch``'s with what the decodes leave: a build over its limit is refused
    from its profile, before any edge is enumerated.
    """
    n, p, G = code.n, code.p, symplectic_matrix(list(code.stabilizers))
    # X is excited if a label with a nonzero X-exponent is possible, Z likewise
    probs = channel.site_probs(p)
    excited = np.repeat([probs[1:, :].any(), probs[:, 1:].any()], n)
    unit = np.eye(2 * n, dtype=np.int64)[excited]
    red, _, rk = ffield.rref(measure_syndromes(code, decoder, unit[:, :n], unit[:, n:]), p)
    stab = ffield.kernel(G[:, ~excited].T, p) @ G % p
    gens = [from_symplectic(row, p) for row in stab]
    cap = _EXACT_WORK // p**rk
    refusal = CapacityError(f"exact_rate exceeds its work cap of {_EXACT_WORK} at n={n}, or int64 counts")
    if p ** (rk + len(stab)) >= 2**63:  # the corrected errors, counted in int64
        raise refusal
    try:
        trellises = trellises or build_trellises(code, decoder, max_edges=min(MAX_EDGES, cap))
        budget = (cap - sum(t.total_edges for t in trellises.values())) // (n + 1)
        if budget < n:  # a trellis on n sites has n edges or more
            raise refusal
        t = build(gens, max_edges=budget) if gens else None
    except CapacityError:
        raise refusal from None
    weights = mode_weights(code, decoder, channel)
    step = _chunk_rows((max(sec.size for sec in t.sections) if t else 1) * (n + 1))
    powers = p ** np.arange(rk - 1, -1, -1, dtype=np.int64)
    successes = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, p**rk, step):
        S = (np.arange(lo, min(lo + step, p**rk))[:, None] // powers % p) @ red[:rk] % p
        cx, cz, _ = decode_syndromes(code, trellises, decoder, weights, S)
        if t is None:  # each coset is its correction alone
            successes += np.bincount(((cx != 0) | (cz != 0)).sum(axis=1), minlength=n + 1)
        else:
            successes += _coset_weights(t, cx, cz).sum(axis=0)
    labels = int(np.count_nonzero(probs.ravel()[1:]))  # nontrivial ones, equally likely
    keep, site = float(probs[0, 0]), float(probs.ravel()[1:].max())
    fails = (math.comb(n, w) * labels**w - int(s) for w, s in enumerate(successes))
    return sum(c * keep ** (n - w) * site**w for w, c in enumerate(fails))


def run_montecarlo(
    code: StabilizerCode,
    trellises: dict[str, Trellis],
    channel_kind: str,
    grid,
    samples: int,
    seed: int,
    decoder: str = "full",
) -> list[DataPoint]:
    """Estimate conditional and unconditional logical failure rates.

    For each grid point, ``samples`` errors are drawn conditioned on being
    non-identity; a draw E fails when ``E - c`` acts logically, ``c`` being
    the correction decoded from E's syndrome.
    The generator stream depends only on (seed, point index).  Each draw of
    ``_DRAW_ROWS`` errors keeps its nontrivial ones, up to the count still
    needed, and decodes them from their syndromes alone before the next
    draw, so memory is bounded by one draw.  Draws of any size read the
    same rows from the stream, so the output does not depend on it.
    """
    if samples <= 0:
        raise SimError("sample count must be positive")
    n, p = code.n, code.p
    points = []
    for pt_index, p_phys in enumerate(grid):
        channel = ChannelSpec(channel_kind, float(p_phys))
        if channel.p_phys == 0.0:
            raise SimError("cannot condition on errors at zero noise")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(pt_index,)))
        weights = mode_weights(code, decoder, channel)
        failures = collected = 0
        while collected < samples:
            err_x, err_z = _sample_batch(channel, n, rng, _DRAW_ROWS, p)
            keep = np.flatnonzero(((err_x != 0) | (err_z != 0)).any(axis=1))[: samples - collected]
            err_x, err_z = err_x[keep], err_z[keep]
            S = measure_syndromes(code, decoder, err_x, err_z)
            corr_x, corr_z, _ = decode_syndromes(code, trellises, decoder, weights, S)
            # the correction carries the error's syndrome, so the decode
            # fails when the residual E - c acts logically
            flags = logical_flags(code, err_x - corr_x, err_z - corr_z)
            failures += int(flags.any(axis=1).sum())
            collected += err_x.shape[0]
        rate_cond = failures / samples
        p_nt = 1.0 - float(channel.site_probs(p)[0, 0]) ** n
        lo, hi = _wilson(failures, samples)
        points.append(DataPoint(float(p_phys), samples, failures, rate_cond, rate_cond * p_nt, lo, hi))
    return points


def fit_threshold(datasets: dict[int, list[DataPoint]]) -> ThresholdFit:
    """Finite-size scaling fit of the quadratic ansatz to ``rate_uncond``.

    ``datasets`` maps distance to data points; every distance given is
    fitted, and at least three are needed, each with four points or more.
    The fitted rate is the code-capacity failure rate ``rate_uncond``:
    ``rate_cond`` divides it by the probability of a nontrivial error, which
    lifts the small-distance curves away from a common crossing.  Least squares over (A, B, C) sits
    inside a grid search over the threshold and the scaling exponent on the
    box [min p, max p] x [0.6, 3.0], and a Nelder-Mead refinement bounded
    to the same box.  A refined threshold or exponent on an edge of the box
    is no threshold, and SimError names the parameter and the edge.
    """
    if len(datasets) < 3:
        raise SimError("threshold fit needs at least three distances")
    ds, ps, ys = [], [], []
    for d, pts in datasets.items():
        if len(pts) < 4:
            raise SimError(f"threshold fit needs at least four points per distance; d = {d} has {len(pts)}")
        for pt in pts:
            ds.append(d)
            ps.append(pt.p_phys)
            ys.append(pt.rate_uncond)
    ds = np.array(ds, dtype=float)
    ps = np.array(ps)
    ys = np.array(ys)

    def solve(p_th: float, nu: float):
        x = (ps - p_th) * ds ** (1.0 / nu)
        design = np.stack([np.ones_like(x), x, x * x], axis=1)
        # lstsq's rank counts singular values over matrix_rank's tolerance, s_max * max(M, N) * eps
        coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
        if rank < 3:
            return None, np.inf
        resid = float(((design @ coef - ys) ** 2).sum())
        return coef, resid

    box = ((float(ps.min()), float(ps.max())), (0.6, 3.0))
    best = (np.inf, None, None, None)
    for p_th in np.linspace(*box[0], 81):
        for nu in np.linspace(*box[1], 49):
            coef, resid = solve(p_th, nu)
            if resid < best[0]:
                best = (resid, p_th, nu, coef)
    if best[3] is None:
        raise SimError("degenerate threshold fit")
    # local refinement around the best grid cell, inside the same box
    from scipy.optimize import minimize

    res = minimize(
        lambda v: solve(*v)[1], [best[1], best[2]], method="Nelder-Mead", bounds=box
    )
    p_th, nu = (float(v) for v in res.x)
    coef, resid = solve(p_th, nu)
    if coef is None or not np.isfinite(resid):
        raise SimError("degenerate threshold fit")
    scale = max(abs(ys).max(), 1e-12)
    if abs(coef[1]) < 1e-9 * scale and abs(coef[2]) < 1e-9 * scale:
        raise SimError("degenerate threshold fit: no distance dependence")
    for name, value, (lo, hi) in (("p_th", p_th, box[0]), ("nu", nu, box[1])):
        if not lo < value < hi:
            edge = "lower" if value <= lo else "upper"
            raise SimError(
                f"threshold fit refused: {name} = {value:.6g} sits on the {edge} edge "
                f"of its search range [{lo:.6g}, {hi:.6g}]"
            )
    return ThresholdFit(
        p_th, nu, float(coef[0]), float(coef[1]), float(coef[2]), resid, tuple(sorted(datasets))
    )
