"""Noise channels, exact enumeration, Monte Carlo harness, threshold fits.

Sampling is vectorized and fully deterministic: every grid point derives
its generator from (seed, point index), so results do not depend on how
the work is distributed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ffield
from .pauli import PauliString
from .code import StabilizerCode, css_split
from .trellis import Trellis, CapacityError, build
from .decode import decode_syndromes, logical_flags, measure_syndromes, mode_weights

_WILSON_Z = 1.959963984540054  # 95%
# error patterns enumerated at once by exact_rate: a (chunk, 2n) int64
# digit temporary is 21 MB at n = 20
_PATTERN_CHUNK = 1 << 16
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
    z = _WILSON_Z
    if samples == 0:
        return 0.0, 1.0
    phat = failures / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * np.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


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


def _split_axes(pat: np.ndarray, excited: tuple[bool, bool], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) exponents of enumerated patterns: n digits per excited axis, X first."""
    zero = np.zeros((pat.shape[0], n), dtype=pat.dtype)
    return (pat[:, :n] if excited[0] else zero), (pat[:, pat.shape[1] - n :] if excited[1] else zero)


def exact_rate(
    code: StabilizerCode,
    channel: ChannelSpec,
    decoder: str = "full",
    *,
    trellises: dict[str, Trellis] | None = None,
) -> float:
    """Exact logical failure probability by error-pattern enumeration.

    A pattern has n digits per axis the channel excites: p^n patterns for
    one axis (cap 2^26), p^(2n) for both (cap 2^20).
    A syndrome is linear in the pattern, so the channel's syndromes are the
    span of its unit patterns' syndromes.  One RREF of those lists that
    span in echelon order, and each syndrome in it is decoded once.  One
    pass over the patterns then finds each pattern's row from its
    syndrome's pivot digits, the rank of a vector in an echelon span.  A
    pattern E fails when ``E - c`` acts logically, ``c`` being the decoded
    correction, which carries E's syndrome.  The failing patterns are
    counted exactly per Hamming weight w, and the rate is
    ``sum_w count[w] * (1 - r)**(n - w) * site**w``, so it does not depend
    on how the patterns are chunked.  ``"block"`` always exceeds the
    cap, since it decodes level-2 Steane (2^49 single-axis patterns), and
    raises CapacityError; the exhaustive check of its radius is
    ``test_block_decode_low_weight_z_errors``.  To cap the trellis size,
    pass ``trellises`` from ``build_trellises(..., max_edges=...)``.
    """
    n, p = code.n, code.p
    # the channel excites X if a label with a nonzero X-exponent is
    # possible, and Z likewise; p_phys = 0 excites neither
    probs = channel.site_probs(p)
    excited = (bool(probs[1:, :].any()), bool(probs[:, 1:].any()))
    bits = n * sum(excited)
    cap = 2**20 if all(excited) else 2**26
    if p**bits > cap:
        raise CapacityError(f"enumeration cap of {cap} patterns exceeded at n={n}")
    if trellises is None:
        trellises = build_trellises(code, decoder)
    digit = np.min_scalar_type(p - 1)
    unit = _split_axes(np.eye(bits, dtype=digit), excited, n)
    red, pivots, rk = ffield.rref(measure_syndromes(code, decoder, *unit), p)
    weights = mode_weights(code, decoder, channel)
    corr_x, corr_z, _ = decode_syndromes(code, trellises, decoder, weights, ffield.span(red[:rk], p))
    corr_flags = logical_flags(code, corr_x, corr_z)
    # count the failing patterns of each Hamming weight exactly
    total = p**bits
    powers = p ** np.arange(bits, dtype=np.int64)
    fails = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, total, _PATTERN_CHUNK):
        idx = np.arange(lo, min(lo + _PATTERN_CHUNK, total), dtype=np.int64)
        err_x, err_z = _split_axes(((idx[:, None] // powers) % p).astype(digit), excited, n)
        rows = ffield.mixed_radix(measure_syndromes(code, decoder, err_x, err_z)[:, pivots], p)
        # each correction carries the pattern's syndrome: E - c is the residual
        fail = ((logical_flags(code, err_x, err_z) - corr_flags[rows]) % p).any(axis=1)
        weight = ((err_x != 0) | (err_z != 0)).sum(axis=1)
        fails += np.bincount(weight[fail], minlength=n + 1)
    # every nontrivial label an enumerated site takes is equally likely
    keep, site = float(probs[0, 0]), float(probs.ravel()[1:].max())
    return sum(int(c) * keep ** (n - w) * site**w for w, c in enumerate(fails))


def build_trellises(
    code: StabilizerCode, decoder: str, *, max_edges: int = 10**8
) -> dict[str, Trellis]:
    """The trellis set a decoder mode needs for a given code."""
    if decoder == "full":
        return {"full": build(code, max_edges=max_edges)}
    if decoder == "css":
        x_part, z_part = css_split(code)
        return {
            "x": build(x_part, max_edges=max_edges),
            "z": build(z_part, max_edges=max_edges),
        }
    if decoder == "block":
        from .code import builtin

        x_part, _ = css_split(builtin("steane"))
        return {"inner": build(x_part, max_edges=max_edges)}
    raise SimError(f"unknown decoder mode {decoder!r}")


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
    same rows from the stream, so the output does not depend on it;
    ``exact_rate`` instead decodes the whole syndrome span once.
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
        points.append(
            DataPoint(
                float(p_phys), samples, failures, rate_cond, rate_cond * p_nt, lo, hi
            )
        )
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
        if np.linalg.matrix_rank(design) < 3:
            return None, np.inf
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
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
