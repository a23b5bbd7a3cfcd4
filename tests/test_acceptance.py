"""End-to-end acceptance checks, one test per criterion.

Each test exercises a complete behavior at its stated tolerance; the
terminal summary (see conftest) prints one pass/fail line per criterion.
The Monte Carlo criteria (6 and 7) run for a few minutes.
"""
from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from qtrellis import code as code_mod
from qtrellis.code import css_split, profile
from qtrellis.decode import (
    WeightTable,
    decode,
    pure_error,
    viterbi,
    weights_from_channel,
)
from qtrellis.pauli import PauliString, format_pauli, syndrome
from qtrellis.sim import (
    ChannelSpec,
    DataPoint,
    build_trellises,
    exact_rate,
    fit_threshold,
    run_montecarlo,
)
from qtrellis.trellis import build, census, shift, validate


def _crossing(grid: np.ndarray, ya: np.ndarray, yb: np.ndarray) -> float | None:
    """Linear-interpolation crossing point of two sampled curves."""
    diff = ya - yb
    for i in range(len(grid) - 1):
        if diff[i] == 0:
            return float(grid[i])
        if diff[i] * diff[i + 1] < 0:
            frac = diff[i] / (diff[i] - diff[i + 1])
            return float(grid[i] + frac * (grid[i + 1] - grid[i]))
    return None


def _coset_minima(code, table: np.ndarray, syndromes: np.ndarray) -> np.ndarray:
    """Vectorized brute-force minimum coset weight for each syndrome row."""
    gens = list(code.stabilizers) + list(code.logical_gens)
    rows = np.array([np.concatenate([g.x, g.z]) for g in gens], dtype=np.int64)
    m, n = len(gens), code.n
    coeffs = np.array(list(itertools.product(range(2), repeat=m)), dtype=np.int64)
    elements = coeffs @ rows % 2
    out = np.empty(len(syndromes))
    cols = np.arange(n)
    for j, s in enumerate(syndromes):
        T = pure_error(code, s).symplectic()
        coset = (elements + T) % 2
        w = table[cols, coset[:, :n], coset[:, n:]].sum(axis=1)
        out[j] = w.min()
    return out


def test_criterion_1_profile_table():
    """[[5,1,3]] trellis dimensions match at every depth, in under 1 s."""
    start = time.perf_counter()
    code = code_mod.builtin("five_one_three")
    sp = profile(code.stabilizer_tof())
    np_ = profile(code.normalizer_tof())
    assert sp.dim_past == (0, 0, 0, 0, 2, 4)
    assert sp.dim_future == (4, 2, 0, 0, 0, 0)
    assert np_.dim_past == (0, 0, 0, 2, 4, 6)
    assert np_.dim_future == (6, 4, 2, 0, 0, 0)
    assert np_.v_count == (1, 4, 16, 16, 4, 1)
    assert np_.e_count == (4, 16, 64, 16, 4)
    assert np_.deg_in == (1, 1, 4, 4, 4)
    assert np_.deg_out == (4, 4, 4, 1, 1)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_surface_counts():
    """Rotated surface totals for d = 3, 5, 7 under row-major numbering."""
    expect = {
        3: ((74, 152), (22, 30), (30, 44)),
        5: ((1098, 2152), (118, 172), (198, 284)),
        7: ((10058, 19688), (470, 700), (854, 1228)),
    }
    for d, (full, x_counts, z_counts) in expect.items():
        code = code_mod.builtin("rotated_surface", d)
        prof = profile(code.normalizer_tof())
        assert (prof.total_vertices, prof.total_edges) == full
        x_part, z_part = css_split(code)
        px, pz = profile(x_part.tof()), profile(z_part.tof())
        assert (px.total_vertices, px.total_edges) == x_counts
        assert (pz.total_vertices, pz.total_edges) == z_counts


def test_criterion_3_color_code_consistency():
    """d = 3 6.6.6 code meets the published totals and all structure checks."""
    code = code_mod.builtin("color_666", 3)
    prof = profile(code.normalizer_tof())
    assert prof.total_vertices <= 122 and prof.total_edges <= 232
    x_part, z_part = css_split(code)
    ex = ez = 0
    for part in (x_part, z_part):
        pp = profile(part.tof())
        assert pp.total_vertices <= 26 and pp.total_edges <= 36
    t = build(code)
    assert validate(t) == []
    census(t)  # raises on any classification failure
    ex = profile(x_part.tof()).total_edges
    ez = profile(z_part.tof()).total_edges
    n = code.n
    assert ex + ez <= prof.total_edges <= ex * ez - 4 * n * (n - 1)


def test_criterion_4_fig1_end_to_end():
    """[[5,1,1]]: parallel edges, syndrome shift, unit-weight Viterbi."""
    code = code_mod.builtin("five_one_one")
    t = build(code)
    last = t.sections[-1]
    pairs: dict[tuple[int, int], int] = {}
    for u, v in zip(last.source.tolist(), last.target.tolist()):
        pairs[(u, v)] = pairs.get((u, v), 0) + 1
    assert set(pairs.values()) == {2}
    T = pure_error(code, np.array([0, 0, 1, 1]))
    shifted = shift(t, T)
    assert shifted.total_vertices == t.total_vertices
    assert shifted.total_edges == t.total_edges
    weights = weights_from_channel({"I": 0.0, "X": 1.0, "Z": 1.0, "Y": 2.0}, 5)
    corr, w = viterbi(t, weights)
    assert format_pauli(corr) == "IIIII" and w == 0.0


def test_criterion_5_oracle_equivalence():
    """Viterbi equals brute-force coset minima on [[5,1,3]] and Steane."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for name in ("five_one_three", "steane"):
        code = code_mod.builtin(name)
        t = build(code)
        m, n = len(code.stabilizers), code.n
        syndromes = np.array(
            list(itertools.product(range(2), repeat=m)), dtype=np.int64
        )
        tables = [weights_from_channel(ChannelSpec("depolarizing", 0.1), n).table]
        tables += [rng.uniform(0.0, 4.0, size=(n, 2, 2)) for _ in range(20)]
        for table in tables:
            wt = WeightTable(2, n, table)
            expected = _coset_minima(code, table, syndromes)
            for j, s in enumerate(syndromes):
                _, w = viterbi(shift(t, pure_error(code, s)), wt)
                assert np.isclose(w, expected[j])
    assert time.perf_counter() - start < 10.0


def test_criterion_6_concatenated_steane():
    """Level-2 Steane structure and dephasing pseudothreshold crossings."""
    level2 = code_mod.builtin("steane_level2")
    x_part, _ = css_split(level2)
    tx = build(x_part)
    assert (tx.total_vertices, tx.total_edges) == (626, 844)
    inner = build_trellises(level2, "block")["inner"]
    assert 2 * inner.total_edges == 72  # sequential block-decoder edge cost

    steane = code_mod.builtin("steane")
    steane_tr = build_trellises(steane, "css")
    level2_tr = build_trellises(level2, "css")
    block_tr = build_trellises(level2, "block")
    samples = 300000

    grid_full = np.array([0.0955, 0.1005, 0.1055, 0.1105, 0.1155])
    ref_full = run_montecarlo(steane, steane_tr, "dephasing_z", grid_full, samples, 61, decoder="css")
    l2_full = run_montecarlo(level2, level2_tr, "dephasing_z", grid_full, samples, 62, decoder="css")
    cross_full = _crossing(
        grid_full,
        np.array([pt.rate_uncond for pt in l2_full]),
        np.array([pt.rate_uncond for pt in ref_full]),
    )
    assert cross_full is not None and abs(cross_full - 0.1055) <= 0.004

    grid_block = np.array([0.0544, 0.0594, 0.0644, 0.0694, 0.0744])
    ref_block = run_montecarlo(steane, steane_tr, "dephasing_z", grid_block, samples, 63, decoder="css")
    l2_block = run_montecarlo(level2, block_tr, "dephasing_z", grid_block, samples, 64, decoder="block")
    cross_block = _crossing(
        grid_block,
        np.array([pt.rate_uncond for pt in l2_block]),
        np.array([pt.rate_uncond for pt in ref_block]),
    )
    assert cross_block is not None and abs(cross_block - 0.0644) <= 0.004


def test_criterion_7_surface_threshold():
    """Z-only surface curves cross near 10% and fit the scaling ansatz."""
    grid = np.arange(0.085, 0.1175, 0.005)
    samples = 200000
    curves: dict[int, list[DataPoint]] = {}
    trellis_sets = {}
    for d in (3, 5, 7, 9):
        code = code_mod.builtin("rotated_surface", d)
        trellises = build_trellises(code, "css")
        trellis_sets[d] = (code, trellises)
        curves[d] = run_montecarlo(
            code, trellises, "dephasing_z", grid, samples, 70 + d, decoder="css"
        )
    # pairwise crossings of the unconditional curves all fall in [0.09, 0.11]
    for d1, d2 in itertools.combinations((3, 5, 7, 9), 2):
        cross = _crossing(
            grid,
            np.array([pt.rate_uncond for pt in curves[d1]]),
            np.array([pt.rate_uncond for pt in curves[d2]]),
        )
        assert cross is not None, f"no crossing for d={d1} vs d={d2}"
        assert 0.09 <= cross <= 0.11, f"d={d1}/{d2} crossing at {cross:.4f}"
    # the ansatz fit lands at the known threshold with a plausible exponent
    fit = fit_threshold(curves)
    assert abs(fit.p_th - 0.10) <= 0.01, f"p_th = {fit.p_th:.4f}"
    assert 1.0 <= fit.nu <= 2.2, f"nu = {fit.nu:.3f}"
    # d = 3 and 5 exact rates agree with Monte Carlo within 3 sigma everywhere
    for d in (3, 5):
        code, trellises = trellis_sets[d]
        for pt in curves[d]:
            exact = exact_rate(
                code, ChannelSpec("dephasing_z", pt.p_phys), "css", trellises=trellises
            )
            p_nt = 1.0 - (1.0 - pt.p_phys) ** code.n
            sigma = p_nt * np.sqrt(
                max(pt.rate_cond * (1.0 - pt.rate_cond), 1e-12) / pt.samples
            )
            assert abs(pt.rate_uncond - exact) < 3 * sigma, (
                f"d={d} p={pt.p_phys}: mc={pt.rate_uncond:.5f} exact={exact:.5f}"
            )


def test_criterion_8_property_suites():
    """Structural invariants across the built-in codes."""
    builtins = [
        code_mod.builtin("five_one_one"),
        code_mod.builtin("five_one_three"),
        code_mod.builtin("steane"),
        code_mod.builtin("steane_level2"),
        code_mod.builtin("rotated_surface", 3),
        code_mod.builtin("rotated_surface", 5),
        code_mod.builtin("color_666", 3),
        code_mod.builtin("color_488", 3),
        code_mod.builtin("codetable_20_13_3"),
        code_mod.builtin("codetable_20_10_4"),
    ]
    rng = np.random.default_rng(8)
    for code in builtins:
        prof = profile(code.normalizer_tof())
        n, k, p = code.n, code.k, code.p
        t = build(code)
        # census identity and configuration arithmetic
        cen = census(t)
        assert cen.mergers == cen.expansions == t.total_edges - t.total_vertices + 1
        # per-step dimension bounds and the past/future lower bound
        for i in range(1, n + 1):
            dp = prof.dim_past[i] - prof.dim_past[i - 1]
            df = prof.dim_future[i - 1] - prof.dim_future[i]
            assert dp in (0, 1, 2) and df in (0, 1, 2)
            assert prof.dim_past[i] + prof.dim_future[i] >= 2 * k
        # shift invariance of all counts
        T = PauliString(p, rng.integers(0, p, n), rng.integers(0, p, n))
        s = shift(t, T)
        assert s.total_vertices == t.total_vertices
        assert s.total_edges == t.total_edges
        if code.is_css():
            x_part, z_part = css_split(code)
            px, pz = profile(x_part.tof()), profile(z_part.tof())
            # CSS product identities, layer by layer
            for i in range(n + 1):
                assert prof.v_count[i] == px.v_count[i] * pz.v_count[i]
            for i in range(n):
                assert prof.e_count[i] == px.e_count[i] * pz.e_count[i]
                assert prof.deg_in[i] == px.deg_in[i] * pz.deg_in[i]
                assert prof.deg_out[i] == px.deg_out[i] * pz.deg_out[i]
            # Wolf-style bound on the part trellis vertex counts
            for part, pp in ((x_part, px), (z_part, pz)):
                bound = p ** min(part.k_classical, n - part.k_classical)
                assert all(v <= bound for v in pp.v_count)

    # per-generator trellis product equals the direct build
    from conftest import enumerate_paths, product

    for name in ("five_one_three", "steane"):
        code = code_mod.builtin(name)
        gens = list(code.normalizer_tof().gens)
        acc = build([gens[0]])
        for g in gens[1:]:
            acc = product(acc, build([g]))
        direct = build(code)
        assert tuple(l.size for l in acc.layers) == tuple(l.size for l in direct.layers)
        assert set(enumerate_paths(acc)) == set(enumerate_paths(direct))

    # the bundled length-20 codes parse and decode with matching syndromes;
    # the two largest syndrome spaces are spot-checked on a fixed sample
    weights = weights_from_channel(ChannelSpec("depolarizing", 0.05), 20)
    for name, exhaustive in (
        ("codetable_20_13_3", True),
        ("codetable_20_10_4", True),
        ("codetable_20_3_6", False),
        ("codetable_20_4_6", False),
    ):
        code = code_mod.builtin(name)
        t = build(code)
        gens = list(code.stabilizers)
        m = len(gens)
        if exhaustive:
            syndromes = [
                np.array(b, dtype=np.int64)
                for b in itertools.product(range(2), repeat=m)
            ]
        else:
            sample_rng = np.random.default_rng(99)
            syndromes = [sample_rng.integers(0, 2, m).astype(np.int64) for _ in range(64)]
        for s in syndromes:
            out = decode(code, t, s, weights)
            assert out.classification == "success"
            assert np.array_equal(syndrome(gens, out.correction) % 2, s)

    # [[20,13,3]] corrects every single-qubit error
    code = code_mod.builtin("codetable_20_13_3")
    t = build(code)
    gens = list(code.stabilizers)
    checked = 0
    for q in range(20):
        for a, b in ((1, 0), (1, 1), (0, 1)):
            x = np.zeros(20, dtype=np.int64)
            z = np.zeros(20, dtype=np.int64)
            x[q], z[q] = a, b
            err = PauliString(2, x, z)
            s = syndrome(gens, err) % 2
            out = decode(code, t, s, weights, true_error=err)
            assert out.classification == "success"
            checked += 1
    assert checked == 60
