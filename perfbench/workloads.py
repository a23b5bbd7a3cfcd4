"""The three benchmark workloads and the round that each run repeats.

A round is one library session: build the trellises of every code (the
set-up), simulate each code's grid with ``run_montecarlo``, cross-check the
small codes with ``exact_rate`` and answer single-syndrome queries on one
code.  Every build, grid point, ``exact_rate`` call and query is one
operation, checked against the references in ``reference.py``.  A run makes
the same whole rounds whatever the seed, so the share of failed operations
depends only on the workload.
"""
from __future__ import annotations

import math
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from qtrellis import (
    ChannelSpec,
    PauliString,
    builtin,
    css_decode,
    decode,
    deserialize,
    exact_rate,
    pure_error,
    run_montecarlo,
    serialize,
    viterbi,
    weights_from_channel,
)
from qtrellis.code import css_split
from qtrellis.pauli import mul, syndrome
from qtrellis.sim import build_trellises
from qtrellis.trellis import shift

import reference as ref
from spans import Tracer

SIGMAS = 5.0  # tolerance of every statistical check
REPEAT_EVERY = 5  # every fifth query repeats an earlier syndrome


@dataclass(frozen=True)
class Code:
    """One code of a workload, with the decoder it is built for."""

    label: str
    name: str
    param: int | None
    decoder: str  # "full", "css" or "block"
    distance: int
    mc: tuple[str, tuple[float, ...], int] | None = None  # channel, grid, samples
    exact: tuple[str, tuple[float, ...]] | None = None  # channel, physical rates

    @property
    def radius(self) -> int:
        """Weight up to which every error is corrected."""
        return 3 if self.decoder == "block" else (self.distance - 1) // 2


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple[Code, ...]
    query_channel: tuple[str, float]
    queries_per_round: int
    # batches the queries are split into, one after each equal share of the
    # codes: many for compute-bound queries, so they sample the host's
    # speed regimes over the whole round; one for memory-bound queries,
    # which run steadier back to back with their trellis cache-resident
    query_batches: int
    round_seconds: float  # nominal round length: a run makes seconds // round_seconds rounds
    store: bool = False  # serialize and deserialize the trellises in set-up
    # labels whose Monte Carlo points fail because sim._decode_batch shifts
    # by the sampled error instead of a pure error of its syndrome
    known_fault: frozenset[str] = frozenset()


_ZGRID = ("dephasing_z", (0.03, 0.06), 16384)
_ZEXACT = ("dephasing_z", (0.03, 0.045, 0.06, 0.075))
_DGRID = ("depolarizing", (0.05, 0.1), 32768)
_DEXACT = ("depolarizing", (0.03, 0.05, 0.075, 0.1))

# The first code of each workload is the one its queries go to.
WORKLOADS = {
    "zonly-css": Workload(
        "zonly-css",
        (
            Code("surface9", "rotated_surface", 9, "css", 9, _ZGRID),
            Code("color666_5", "color_666", 5, "css", 5, _ZGRID, _ZEXACT),
            Code("surface3", "rotated_surface", 3, "css", 3, _ZGRID, _ZEXACT),
            Code("steane", "steane", None, "css", 3, None, _ZEXACT),
            Code("surface5", "rotated_surface", 5, "css", 5, _ZGRID),
            Code("surface7", "rotated_surface", 7, "css", 7, _ZGRID),
            Code("color666_3", "color_666", 3, "css", 3, _ZGRID),
            Code("color666_7", "color_666", 7, "css", 7, _ZGRID),
            Code("color488_3", "color_488", 3, "css", 3, _ZGRID),
            Code("color488_5", "color_488", 5, "css", 5, _ZGRID),
            Code("steane2_css", "steane_level2", None, "css", 9, _ZGRID),
            Code("steane2_block", "steane_level2", None, "block", 9, _ZGRID),
        ),
        query_channel=("dephasing_z", 0.05),
        queries_per_round=300,
        query_batches=12,
        round_seconds=35.0,
    ),
    "depol-full": Workload(
        "depol-full",
        (
            Code("t20_10_4", "codetable_20_10_4", None, "full", 4, ("depolarizing", (0.05,), 4096)),
            Code("five13", "five_one_three", None, "full", 3, _DGRID, _DEXACT),
            Code("steane", "steane", None, "full", 3, _DGRID, _DEXACT),
            Code("surface3", "rotated_surface", 3, "full", 3, _DGRID, _DEXACT),
            Code("surface5", "rotated_surface", 5, "full", 5, ("depolarizing", (0.05, 0.1), 8192)),
            Code("t20_13_3", "codetable_20_13_3", None, "full", 3, ("depolarizing", (0.05,), 4096)),
        ),
        query_channel=("depolarizing", 0.05),
        queries_per_round=250,
        query_batches=6,
        round_seconds=19.0,
        known_fault=frozenset({"steane", "surface3"}),
    ),
    "stored-query": Workload(
        "stored-query",
        (
            Code("t20_3_6", "codetable_20_3_6", None, "full", 6),
            Code("t20_4_6", "codetable_20_4_6", None, "full", 6),
            Code(
                "t20_13_3",
                "codetable_20_13_3",
                None,
                "full",
                3,
                ("depolarizing", (0.05,), 4096),
                ("dephasing_z", (0.05,)),
            ),
        ),
        query_channel=("depolarizing", 0.05),
        queries_per_round=100,
        query_batches=1,
        round_seconds=19.0,
        store=True,
    ),
}


@dataclass
class Operation:
    kind: str  # build, mc, exact, query
    label: str
    detail: str = ""
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.reasons.append(reason)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


@dataclass
class RoundRecord:
    setup_s: float = 0.0
    mc: list[tuple[str, int, float]] = field(default_factory=list)  # label, samples, s
    exact: list[tuple[str, int, float]] = field(default_factory=list)  # label, patterns, s
    latencies: list[float] = field(default_factory=list)
    stored_bytes: int = 0
    rss_growth_mb: dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def edges_per_sample(code: Code, trellises: dict, channel: str) -> int:
    """Edges the Viterbi kernel relaxes to decode one Monte Carlo sample."""
    edges = {part: t.total_edges for part, t in trellises.items()}
    if code.decoder == "full":
        return edges["full"]
    if code.decoder == "block":
        return 8 * edges["inner"]  # seven inner blocks, then the outer pass
    # under Z-only noise only the X-check trellis (Z corrections) runs
    return edges["x"] if channel == "dephasing_z" else edges["x"] + edges["z"]


class Run:
    """One benchmark run of a workload: rounds, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tracer: Tracer):
        self.wl = workload
        self.seed = seed
        self.rounds = max(1, int(seconds // workload.round_seconds))
        self.tracer = tracer
        self.ops: list[Operation] = []
        self.records: list[RoundRecord] = []
        self.deferred: list = []  # (op, code, channel, p, samples, value, round)
        self.codes: dict[str, object] = {}
        self.trellises: dict[str, dict] = {}
        self.edge_stats: dict[str, tuple[int, int, int]] = {}  # total, max section, per sample
        self.queries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.query_spec = workload.codes[0]
        self.start_rss_mb = peak_rss_mb()

    # -- seeds ------------------------------------------------------------

    def mc_seed(self, rnd: int, index: int) -> int:
        return self.seed * 10_000 + rnd * 100 + index

    def query_rng(self, rnd: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(rnd, 1)))

    # -- phases -----------------------------------------------------------

    def setup(self, rnd: int, rec: RoundRecord, c: Code) -> None:
        """The offline phase for one code: builtin, build and, if stored, the round trip."""
        span = self.tracer.span
        with span("setup", round=rnd, code=c.label):
            t0 = time.perf_counter()
            with span("code.builtin", round=rnd, code=c.label):
                code = builtin(c.name, c.param)
            with span("trellis.build", round=rnd, code=c.label):
                trellises = build_trellises(code, c.decoder)
            restored = {}
            for part, t in trellises.items() if self.wl.store else ():
                with span("trellis.serialize", round=rnd, code=c.label):
                    blob = serialize(t)
                with span("trellis.deserialize", round=rnd, code=c.label):
                    restored[part] = deserialize(blob)
                rec.stored_bytes += len(blob)
            rec.setup_s += time.perf_counter() - t0
        op = Operation("build", c.label, f"round={rnd}")
        for part, t in trellises.items():
            # the block decoder's inner trellis is the Steane X-check part
            group = ref.group_size(builtin("steane"), "x") if part == "inner" else ref.group_size(code, part)
            op.check(ref.count_paths(t) == group, f"{part}: path count is not the group size {group}")
            published = ref.PUBLISHED_TOTALS.get((c.name, c.param, part))
            if published is not None:
                op.check(ref.totals(t) == published, f"{part}: totals {ref.totals(t)} != published {published}")
            if self.wl.store:
                op.check(ref.same_trellis(t, restored[part]), f"{part}: deserialized trellis differs")
        self.ops.append(op)
        self.codes[c.label] = code
        self.trellises[c.label] = restored if self.wl.store else trellises
        use = self.trellises[c.label]
        channel = c.mc[0] if c.mc else self.wl.query_channel[0]
        self.edge_stats[c.label] = (
            sum(t.total_edges for t in use.values()),
            max(int(s.source.size) for t in use.values() for s in t.sections),
            edges_per_sample(c, use, channel),
        )

    def montecarlo(self, rnd: int, rec: RoundRecord, index: int, c: Code) -> None:
        kind, grid, samples = c.mc
        code, trellises = self.codes[c.label], self.trellises[c.label]
        with self.tracer.span("sim.run_montecarlo", round=rnd, code=c.label):
            t0 = time.perf_counter()
            points = run_montecarlo(
                code, trellises, kind, list(grid), samples, self.mc_seed(rnd, index), decoder=c.decoder
            )
            rec.mc.append((c.label, samples * len(grid), time.perf_counter() - t0))
        for p_phys, pt in zip(grid, points):
            op = Operation("mc", c.label, f"{kind} p={p_phys} round={rnd}")
            op.check(pt.samples == samples, "sample count differs from the request")
            op.check(pt.rate_cond == pt.failures / samples, "rate_cond is not failures / samples")
            self.ops.append(op)
            self.deferred.append((op, c, kind, p_phys, samples, pt, rnd))

    def exact(self, rnd: int, rec: RoundRecord, c: Code, p_phys: float) -> None:
        kind = c.exact[0]
        code, trellises = self.codes[c.label], self.trellises[c.label]
        with self.tracer.span("sim.exact_rate", round=rnd, code=c.label):
            t0 = time.perf_counter()
            value = exact_rate(code, ChannelSpec(kind, p_phys), c.decoder, trellises=trellises)
            patterns = 2**code.n if kind == "dephasing_z" else 4**code.n
            rec.exact.append((c.label, patterns, time.perf_counter() - t0))
        op = Operation("exact", c.label, f"{kind} p={p_phys} round={rnd}")
        self.ops.append(op)
        self.deferred.append((op, c, kind, p_phys, None, value, rnd))

    def make_queries(self, rnd: int, checks: ref.CheckMatrices):
        """Errors, syndromes and, for repeats, the index of the earlier query."""
        kind, p_phys = self.wl.query_channel
        rng = self.query_rng(rnd)
        count = self.wl.queries_per_round
        xs, zs = ref.sample_errors(kind, p_phys, checks.n, count, rng)
        repeat_of = [-1] * count
        for i in range(REPEAT_EVERY - 1, count, REPEAT_EVERY):
            j = int(rng.integers(0, i))
            while repeat_of[j] >= 0:
                j -= 1
            sx, sz = checks.random_stabilizer(rng)
            xs[i], zs[i] = (xs[j] + sx) % 2, (zs[j] + sz) % 2
            repeat_of[i] = j
        syndromes = [checks.syndrome_of(x, z) for x, z in zip(xs, zs)]
        return xs, zs, syndromes, repeat_of

    def query_answerer(self):
        """The public decode call a user makes with only the syndrome."""
        c = self.query_spec
        code, trellises = self.codes[c.label], self.trellises[c.label]
        channel = ChannelSpec(*self.wl.query_channel)
        if c.decoder == "css":
            x_t, z_t = trellises["x"], trellises["z"]
            return lambda s: css_decode(code, x_t, z_t, s, channel)
        weights = weights_from_channel(channel, code.n, p=code.p)
        full = trellises["full"]
        return lambda s: decode(code, full, s, weights)

    def answer(self, rnd: int, rec: RoundRecord, answer, syndromes, batch, corrections) -> None:
        """Closed loop, one caller: each query is sent when the last returns."""
        for i in batch:
            with self.tracer.span("decode.query", round=rnd, code=self.query_spec.label):
                t0 = time.perf_counter()
                out = answer(syndromes[i])
                rec.latencies.append(time.perf_counter() - t0)
            corrections[i] = out.correction

    def check_queries(self, rnd: int, checks, xs, zs, syndromes, repeat_of, corrections) -> None:
        c = self.query_spec
        kind, p_phys = self.wl.query_channel
        for i, corr in enumerate(corrections):
            op = Operation("query", c.label, f"round={rnd} index={i}")
            self.ops.append(op)
            if corr is None:
                op.check(False, "no correction returned")
                continue
            op.check(
                np.array_equal(checks.syndrome_of(corr.x, corr.z), syndromes[i]),
                "correction does not reproduce the syndrome",
            )
            w_corr = ref.neglog_weight(kind, p_phys, corr.x, corr.z)
            w_err = ref.neglog_weight(kind, p_phys, xs[i], zs[i])
            op.check(w_corr <= w_err + 1e-9, f"correction weight {w_corr:.6f} exceeds the error's {w_err:.6f}")
            if int(((xs[i] != 0) | (zs[i] != 0)).sum()) <= c.radius:
                op.check(
                    checks.is_stabilizer(xs[i] + corr.x, zs[i] + corr.z),
                    "an error within the correction radius was not corrected",
                )
            if repeat_of[i] >= 0:
                op.check(corr == corrections[repeat_of[i]], "equal syndromes gave different corrections")

    def run(self) -> None:
        """Whole rounds, each one pass over the codes in workload order.

        Each code is built and simulated; the exact_rate calls are spread
        evenly over the pass, and the queries to the first code follow in
        ``query_batches`` batches.  The host's speed switches between
        regimes that last seconds, and spreading a phase over the whole run
        averages them out.
        """
        codes = self.wl.codes
        jobs = sorted((p, i) for i, c in enumerate(codes) if c.exact for p in c.exact[1])
        exact_slot = {job: max(job[1], (j + 1) * len(codes) // (len(jobs) + 1)) for j, job in enumerate(jobs)}
        count = self.wl.queries_per_round
        groups = np.array_split(np.arange(len(codes)), self.wl.query_batches)
        for rnd in range(self.rounds):
            rec = RoundRecord()
            batches = iter(np.array_split(np.arange(count), len(groups)))
            corrections = [None] * count
            for group in groups:
                for k in group:
                    c = codes[k]
                    self.timed(rec, "setup", c.label, lambda: self.setup(rnd, rec, c))
                    if k == 0:
                        checks = ref.CheckMatrices(self.codes[c.label])
                        xs, zs, syndromes, repeat_of = self.make_queries(rnd, checks)
                        answer = self.query_answerer()
                    if c.mc is not None:
                        self.timed(rec, "mc", c.label, lambda: self.montecarlo(rnd, rec, k, c))
                    for (p_phys, i), slot in exact_slot.items():
                        if slot == k:
                            self.timed(rec, "exact", codes[i].label, lambda: self.exact(rnd, rec, codes[i], p_phys))
                batch = next(batches)
                self.timed(rec, "query", self.query_spec.label, lambda: self.answer(rnd, rec, answer, syndromes, batch, corrections))
            self.check_queries(rnd, checks, xs, zs, syndromes, repeat_of, corrections)
            self.queries = list(zip(xs, zs, syndromes))
            self.records.append(rec)
        self.peak_mb = peak_rss_mb()

    def timed(self, rec: RoundRecord, phase: str, label: str, job) -> None:
        """Run a job and add the growth of ru_maxrss during it to its phase.

        A library call that raises is one failed operation, not a crashed run.
        """
        before = peak_rss_mb()
        try:
            job()
        except Exception as exc:
            reason = traceback.format_exception_only(exc)[-1].strip()
            self.ops.append(Operation(phase, label, "raised", [reason]))
        rec.rss_growth_mb[phase] = rec.rss_growth_mb.get(phase, 0.0) + peak_rss_mb() - before

    # -- checks against the brute-force references -------------------------

    def check_deferred(self) -> None:
        """Band, radius and ordering checks of the Monte Carlo and exact values.

        Run after the last round, so the references' enumeration memory does
        not count toward the program's peak RSS.
        """
        bands: dict[tuple[str, str], ref.Band | None] = {}

        def band(c: Code, kind: str):
            key = (c.label, kind)
            if key not in bands:
                code = self.codes[c.label]
                minimum_weight = c.decoder in ("full", "css")
                bands[key] = ref.Band(code, kind) if minimum_weight and ref.band_feasible(code, kind) else None
            return bands[key]

        lowest: dict[tuple, list] = {}
        for op, c, kind, p_phys, samples, value, rnd in self.deferred:
            n = self.codes[c.label].n
            b = band(c, kind)
            if samples is None:  # exact_rate
                if b is None:
                    op.check(False, "no reference band for this exact_rate call")
                    continue
                lo, hi = b.rates(p_phys)
                tol = 1e-9 * max(hi, 1e-300) + 1e-15
                op.check(lo - tol <= value <= hi + tol, f"exact {value:.6g} outside band [{lo:.6g}, {hi:.6g}]")
                continue
            pt = value
            p_nt = ref.nontrivial_prob(n, p_phys)
            if b is not None:
                lo, hi = b.rates(p_phys)
                r_ref = min(max(pt.rate_uncond, lo), hi) / p_nt
                sigma = p_nt * math.sqrt(r_ref * (1 - r_ref) / samples)
                op.check(
                    lo - SIGMAS * sigma <= pt.rate_uncond <= hi + SIGMAS * sigma,
                    f"rate {pt.rate_uncond:.5f} outside band [{lo:.5f}, {hi:.5f}] +- {SIGMAS}sigma ({sigma:.5f})",
                )
            else:
                bound = ref.radius_bound(n, p_phys, c.radius)
                slack = SIGMAS * math.sqrt(bound * (1 - bound) / samples)
                op.check(
                    pt.rate_cond <= bound + slack,
                    f"rate_cond {pt.rate_cond:.5f} above P(weight > {c.radius} | nontrivial) {bound:.5f} + {SIGMAS}sigma",
                )
            if c.decoder != "block" and c.name in ("rotated_surface", "color_666", "color_488"):
                if p_phys == min(c.mc[1]):
                    lowest.setdefault((c.name, c.decoder, kind, rnd), []).append((c.distance, op, pt, p_nt))
        def sigma(pt, p_nt: float) -> float:
            r = max(pt.rate_cond, 1.0 / pt.samples)
            return p_nt * math.sqrt(r * (1 - r) / pt.samples)

        # well below threshold, failure rates fall with distance
        for family in lowest.values():
            family.sort(key=lambda entry: entry[0])
            for (_, _, small, pn_s), (d_big, op_big, big, pn_b) in zip(family, family[1:]):
                gap = big.rate_uncond - small.rate_uncond
                op_big.check(
                    gap <= SIGMAS * math.hypot(sigma(small, pn_s), sigma(big, pn_b)),
                    f"distance {d_big} fails more often than the next smaller distance",
                )

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        recs = self.records
        mc_samples = sum(s for r in recs for _, s, _ in r.mc)
        mc_time = sum(t for r in recs for _, _, t in r.mc)
        ex_patterns = sum(p for r in recs for _, p, _ in r.exact)
        ex_time = sum(t for r in recs for _, _, t in r.exact)
        lat = np.array([x for r in recs for x in r.latencies]) * 1e3
        return {
            "setup_s": float(np.median([r.setup_s for r in recs])),
            "mc_samples_per_s": mc_samples / mc_time,
            "exact_patterns_per_s": ex_patterns / ex_time,
            "query_ms_mean": float(lat.mean()),
            "query_ms_p90": float(np.percentile(lat, 90)),
            "peak_rss_mb": self.peak_mb,
        }

    def probe(self) -> dict[str, float]:
        """Traced-only timings of the layers below the public calls.

        Runs after the rounds, outside every end-to-end measurement.
        """
        span = self.tracer.span
        tr = self.tracer
        for c in self.wl.codes:
            code = self.codes[c.label]
            if c.decoder == "full":
                with span("code.tof", code=c.label):
                    code.normalizer_tof()
            else:
                parts = css_split(builtin("steane") if c.decoder == "block" else code)
                for part in parts[:1] if c.decoder == "block" else parts:
                    with span("code.tof", code=c.label):
                        part.tof()
        surface9 = self.codes.get("surface9") or builtin("rotated_surface", 9)
        for _ in range(5):
            with span("code.css_split"):
                css_split(surface9)
        stored_bytes = self.records[0].stored_bytes
        if not self.wl.store:
            for label, trellises in self.trellises.items():
                for t in trellises.values():
                    with span("trellis.serialize", code=label):
                        blob = serialize(t)
                    with span("trellis.deserialize", code=label):
                        deserialize(blob)
                    stored_bytes += len(blob)
        self.decomposed_queries()
        rounds = range(self.rounds)

        def per_round(name: str) -> float:
            return float(np.median([tr.total(name, round=r) for r in rounds]))

        edges = sum(e for e, _, _ in self.edge_stats.values())
        build_s = per_round("trellis.build")
        if self.wl.store:  # part of every round's set-up
            ser, deser = per_round("trellis.serialize"), per_round("trellis.deserialize")
        else:  # only the probe's round trip
            ser, deser = tr.total("trellis.serialize"), tr.total("trellis.deserialize")
        mc_time = sum(t for r in self.records for _, _, t in r.mc)
        edge_samples = sum(s * self.edge_stats[label][2] for r in self.records for label, s, _ in r.mc)
        q_edges = sum(t.total_edges for t in self.trellises[self.query_spec.label].values())
        viterbi_ms = float(np.median(tr.durations("decode.viterbi"))) * 1e3
        # ru_maxrss as if the first round's phases had run one after another:
        # each adds the growth of ru_maxrss during its own calls
        phases = ("setup", "mc", "exact", "query")
        growth = [self.records[0].rss_growth_mb.get(phase, 0.0) for phase in phases]
        after = dict(zip(phases, (self.start_rss_mb + np.cumsum(growth)).tolist()))
        return {
            "code.builtin_s": per_round("code.builtin"),
            "code.tof_s": tr.total("code.tof"),
            "code.css_split_ms": float(np.median(tr.durations("code.css_split"))) * 1e3,
            "trellis.build_s": build_s,
            "trellis.build_edges_per_s": edges / build_s,
            "trellis.edges": edges,
            "trellis.max_section_edges": max(m for _, m, _ in self.edge_stats.values()),
            "trellis.serialize_s": ser,
            "trellis.deserialize_s": deser,
            "trellis.stored_mb": stored_bytes / 1e6,
            "sim.mc_s": per_round("sim.run_montecarlo"),
            "sim.mc_edge_samples_per_s": edge_samples / mc_time,
            "sim.exact_s": per_round("sim.exact_rate"),
            "decode.pure_error_ms": float(np.median(tr.durations("decode.pure_error"))) * 1e3,
            "decode.shift_ms": float(np.median(tr.durations("decode.shift"))) * 1e3,
            "decode.viterbi_ms": viterbi_ms,
            "decode.viterbi_ns_per_edge": viterbi_ms * 1e6 / q_edges,
            "decode.verify_ms": float(np.median(tr.durations("decode.verify"))) * 1e3,
            "rss.after_setup_mb": after["setup"],
            "rss.after_mc_mb": after["mc"],
            "rss.after_exact_mb": after["exact"],
            "rss.after_query_mb": after["query"],
        }

    def decomposed_queries(self, count: int = 20) -> None:
        """Time queries as the public sequence pure_error, shift, viterbi, syndrome.

        For a CSS code the pure error's Z part shifts the X-check trellis and
        its X part the Z-check trellis, and the two corrections multiply.
        """
        span = self.tracer.span
        c = self.query_spec
        code, trellises = self.codes[c.label], self.trellises[c.label]
        channel = ChannelSpec(*self.wl.query_channel)
        zero = np.zeros(code.n, dtype=np.int64)
        if c.decoder == "css":
            parts = [
                (trellises["x"], weights_from_channel(channel, code.n, css_axis="X"), lambda T: PauliString(2, zero, T.z)),
                (trellises["z"], weights_from_channel(channel, code.n, css_axis="Z"), lambda T: PauliString(2, T.x, zero)),
            ]
        else:
            parts = [(trellises["full"], weights_from_channel(channel, code.n), lambda T: T)]
        stabs = list(code.stabilizers)
        for _, _, s in self.queries[:count]:
            with span("decode.pure_error"):
                T = pure_error(code, s)
            shifted = []
            with span("decode.shift"):
                for t, _, piece in parts:
                    shifted.append(shift(t, piece(T)))
            correction = None
            with span("decode.viterbi"):
                for sh, (_, weights, _) in zip(shifted, parts):
                    corr, _ = viterbi(sh, weights)
                    correction = corr if correction is None else mul(correction, corr)
            with span("decode.verify"):
                ok = not np.any((syndrome(stabs, correction) - s) % code.p)
            if not ok:
                raise RuntimeError("decomposed query did not reproduce its syndrome")

    def per_code(self) -> dict[str, dict]:
        """Per-code breakdown of the traced timings, for the trace file."""
        tr = self.tracer
        out = {}
        for c in self.wl.codes:
            total, max_sec, per_sample = self.edge_stats[c.label]
            mc = [(s, t) for r in self.records for label, s, t in r.mc if label == c.label]
            row = {
                "code.builtin_s": float(np.median(tr.durations("code.builtin", code=c.label))),
                "code.tof_s": tr.total("code.tof", code=c.label),
                "trellis.build_s": float(np.median(tr.durations("trellis.build", code=c.label))),
                "trellis.edges": total,
                "trellis.max_section_edges": max_sec,
            }
            if mc:
                samples, secs = sum(s for s, _ in mc), sum(t for _, t in mc)
                row["sim.mc_s"] = secs / len(mc)
                row["sim.mc_samples_per_s"] = samples / secs
                row["sim.mc_edge_samples_per_s"] = samples * per_sample / secs
            ex = tr.durations("sim.exact_rate", code=c.label)
            if ex:
                row["sim.exact_s"] = float(np.median(ex))
            out[c.label] = row
        return out
