"""Simulation harness: sampling, exact enumeration, Monte Carlo, threshold fits."""
from __future__ import annotations

import importlib
import itertools
import math
import time

import numpy as np
import pytest

from qtrellis import code as code_mod
from qtrellis import sim as sim_mod
from qtrellis import trellis as trellis_mod
from qtrellis.code import profile
from qtrellis.decode import DecodeError, decode_syndromes, logical_flags, measure_syndromes, mode_weights
from qtrellis.pauli import PauliString
from qtrellis.trellis import CapacityError, TrellisError
from qtrellis.sim import (
    ChannelSpec,
    DataPoint,
    SimError,
    _sample_batch,
    _wilson,
    build_trellises,
    exact_rate,
    fit_threshold,
    run_montecarlo,
    sample_error,
)

from conftest import random_commuting_gens, random_css_code

# the package exports the function ``decode``, which shadows the module
decode_mod = importlib.import_module("qtrellis.decode")


def test_channel_spec_validation():
    assert np.isclose(ChannelSpec("depolarizing", 0.3).site_probs().sum(), 1.0)
    probs = ChannelSpec("depolarizing", 0.3).site_probs()
    assert np.isclose(probs[0, 0], 0.7)
    assert np.isclose(probs[1, 1], 0.1)
    z_probs = ChannelSpec("dephasing_z", 0.2).site_probs()
    assert np.isclose(z_probs[0, 1], 0.2) and z_probs[1, 0] == 0.0
    # the excited axes are the support of site_probs: (any X-exponent, any Z-exponent)
    supports = {"depolarizing": (True, True), "dephasing_z": (False, True), "dephasing_x": (True, False)}
    for kind, excited in supports.items():
        probs = ChannelSpec(kind, 0.2).site_probs(3)
        assert (probs[1:, :].any(), probs[:, 1:].any()) == excited
        assert not ChannelSpec(kind, 0.0).site_probs(3).ravel()[1:].any()
    with pytest.raises(SimError):
        ChannelSpec("depolarizing", 1.5)
    with pytest.raises(SimError):
        ChannelSpec("unknown_kind", 0.1)


def test_sample_error_statistics():
    rng = np.random.default_rng(17)
    channel = ChannelSpec("depolarizing", 0.3)
    counts = np.zeros((2, 2))
    draws = 30000
    for _ in range(draws):
        e = sample_error(channel, 1, rng)
        counts[e.x[0], e.z[0]] += 1
    freq = counts / draws
    assert abs(freq[0, 0] - 0.7) < 0.01
    for cell in (freq[1, 0], freq[1, 1], freq[0, 1]):
        assert abs(cell - 0.1) < 0.01
    # conditioning removes the identity outcome
    for _ in range(100):
        assert not sample_error(channel, 3, rng, condition_nontrivial=True).is_identity()
    with pytest.raises(SimError):
        sample_error(ChannelSpec("depolarizing", 0.0), 1, rng, condition_nontrivial=True)


def test_exact_rate_five_one_three_quadratic():
    """The distance-3 code has no O(p) failure term; the leading term is p^2."""
    code = code_mod.builtin("five_one_three")
    trellises = build_trellises(code, "full")
    rates = {}
    for p_phys in (1e-3, 2e-3):
        rates[p_phys] = exact_rate(
            code, ChannelSpec("depolarizing", p_phys), "full", trellises=trellises
        )
    # quadratic scaling: doubling p multiplies the rate by ~4
    assert 3.7 < rates[2e-3] / rates[1e-3] < 4.3
    assert rates[1e-3] < 1e-4  # far below any linear term


def test_exact_rate_matches_montecarlo_d3():
    code = code_mod.builtin("rotated_surface", 3)
    trellises = build_trellises(code, "css")
    channel = ChannelSpec("dephasing_z", 0.1)
    exact = exact_rate(code, channel, "css", trellises=trellises)
    pts = run_montecarlo(
        code, trellises, "dephasing_z", np.array([0.1]), 200000, 23, decoder="css"
    )
    pt = pts[0]
    sigma = np.sqrt(exact * (1 - exact) / pt.samples)
    assert abs(pt.rate_uncond - exact) < 3 * sigma


def test_exact_rate_does_not_depend_on_chunking(monkeypatch):
    """Successes are counted per weight in integers, so the syndrome chunk size drops out."""
    code = code_mod.builtin("rotated_surface", 3)
    trellises = build_trellises(code, "css")
    calls = []

    def counted(t, cx, cz, coset_weights=sim_mod._coset_weights):
        calls.append(len(cx))
        return coset_weights(t, cx, cz)

    # a chunk holds budget // (widest stabilizer-trellis section x 10 lanes)
    # syndromes: 2 of the 256 depolarizing ones (widest 16), 5 of the 16
    # dephasing ones (widest 8)
    for kind, chunks in (("depolarizing", 128), ("dephasing_z", 4)):
        channel = ChannelSpec(kind, 0.1)
        default = exact_rate(code, channel, "css", trellises=trellises)
        calls.clear()
        monkeypatch.setattr(decode_mod, "_EDGE_BUDGET", 400)
        monkeypatch.setattr(sim_mod, "_coset_weights", counted)
        assert exact_rate(code, channel, "css", trellises=trellises) == default
        assert len(calls) == chunks
        monkeypatch.undo()


@pytest.mark.parametrize("kind", sim_mod.CHANNEL_KINDS)
def test_exact_rate_is_zero_without_noise(kind):
    """At p_phys = 0 no axis is excited: the one pattern, the identity, never fails."""
    assert exact_rate(code_mod.builtin("steane"), ChannelSpec(kind, 0.0)) == 0.0


# float.hex of exact_rate, pinned so that a change in tie order shows
_GOLDEN_RATES = {
    ("five_one_three", None, "full", "depolarizing", 0.03): "0x1.13b823048269ep-7",
    ("five_one_three", None, "full", "depolarizing", 0.1): "0x1.45aa5600fd364p-4",
    ("steane", None, "full", "depolarizing", 0.03): "0x1.b26c9ea8443e6p-7",
    ("steane", None, "full", "depolarizing", 0.1): "0x1.d8c4c1794d1ddp-4",
    ("rotated_surface", 3, "full", "depolarizing", 0.03): "0x1.85edd195c89d0p-7",
    ("rotated_surface", 3, "full", "depolarizing", 0.1): "0x1.bf425c28a78e6p-4",
    ("steane", None, "css", "dephasing_z", 0.03): "0x1.0cfe7e4d61119p-6",
    ("steane", None, "css", "dephasing_z", 0.075): "0x1.5361e576e7bdfp-4",
    ("rotated_surface", 3, "css", "dephasing_z", 0.03): "0x1.d78774ad5366bp-7",
    ("rotated_surface", 3, "css", "dephasing_z", 0.075): "0x1.326c11fadab86p-4",
    ("color_666", 5, "css", "dephasing_z", 0.045): "0x1.327eaa9661b7ep-6",
    # computed by enumerating all 2^25 patterns; the coset count does far less work
    ("rotated_surface", 5, "css", "dephasing_z", 0.1): "0x1.fd9bd235e01dep-4",
}


@pytest.mark.parametrize("name,d,decoder,kind,p_phys", sorted(_GOLDEN_RATES, key=str))
def test_exact_rate_matches_golden_values(name, d, decoder, kind, p_phys):
    code = code_mod.builtin(name, d)
    rate = exact_rate(code, ChannelSpec(kind, p_phys), decoder)
    assert rate.hex() == _GOLDEN_RATES[name, d, decoder, kind, p_phys]


@pytest.mark.parametrize("name,d", [("steane", None), ("rotated_surface", 3)])
@pytest.mark.parametrize("p_phys", [0.03, 0.1])
def test_exact_rate_of_self_dual_codes_is_axis_symmetric(name, d, p_phys):
    """X and Z checks of a self-dual CSS code are alike, so both dephasing axes fail alike."""
    code = code_mod.builtin(name, d)
    trellises = build_trellises(code, "css")
    z_rate = exact_rate(code, ChannelSpec("dephasing_z", p_phys), "css", trellises=trellises)
    assert exact_rate(code, ChannelSpec("dephasing_x", p_phys), "css", trellises=trellises) == z_rate


def test_exact_rate_of_a_length_20_code_under_depolarizing_noise():
    """[[20,13,3]] has 4^20 depolarizing patterns but 2^7 syndromes; Monte Carlo agrees."""
    code = code_mod.builtin("codetable_20_13_3")
    trellises = build_trellises(code, "full")
    exact = exact_rate(code, ChannelSpec("depolarizing", 0.1), "full", trellises=trellises)
    (pt,) = run_montecarlo(code, trellises, "depolarizing", np.array([0.1]), 20000, 43, decoder="full")
    p_nt = 1.0 - 0.9**code.n
    sigma = p_nt * np.sqrt(pt.rate_cond * (1.0 - pt.rate_cond) / pt.samples)
    assert abs(pt.rate_uncond - exact) < 3 * sigma


def test_exact_rate_refuses_the_block_decoder():
    """Level-2 Steane has 2^24 Z-noise syndromes: over the work cap whatever its stabilizer trellis."""
    code = code_mod.builtin("steane_level2")
    with pytest.raises(CapacityError, match="work cap"):
        exact_rate(code, ChannelSpec("dephasing_z", 0.05), "block")


def test_exact_rate_charges_each_decode_to_its_work_cap(monkeypatch):
    """[[20,4,6]] under Z noise has a trivial ``S_ch`` but 2^16 decodes over 1,223,336 edges.

    The decodes alone exceed the cap, and the refusal comes from the profile,
    before any section is enumerated.
    """
    code = code_mod.builtin("codetable_20_4_6")

    def no_span(*args):
        raise AssertionError("a trellis section was enumerated")

    monkeypatch.setattr(trellis_mod.ffield, "span", no_span)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="work cap"):
        exact_rate(code, ChannelSpec("dephasing_z", 0.05), "full")
    assert time.perf_counter() - start < 1.0


def test_exact_rate_refuses_an_s_ch_trellis_over_its_budget_as_a_work_cap():
    """Surface d = 5 ``css`` under depolarizing noise: 2^24 syndromes leave ``S_ch`` 61 of its 2,024 edges."""
    with pytest.raises(CapacityError, match="work cap"):
        exact_rate(code_mod.builtin("rotated_surface", 5), ChannelSpec("depolarizing", 0.1), "css")


@pytest.mark.parametrize("name,decoder,kind,calls", [
    ("codetable_20_13_3", "full", "depolarizing", 2),
    ("rotated_surface", "css", "dephasing_z", 3),
])
def test_exact_rate_resolves_each_source_once(monkeypatch, name, decoder, kind, calls):
    """One ``to_tof`` per decoder source and one for ``S_ch``, which dephasing on surface d = 3 also has."""
    code = code_mod.builtin(name, 3 if name == "rotated_surface" else None)
    count = []

    def counted(gens, to_tof=code_mod.to_tof):
        count.append(len(gens))
        return to_tof(gens)

    monkeypatch.setattr(code_mod, "to_tof", counted)
    monkeypatch.setattr(trellis_mod, "to_tof", counted)
    exact_rate(code, ChannelSpec(kind, 0.1), decoder)
    assert len(count) == calls


def test_exact_rate_refuses_counts_beyond_int64():
    """A length-70 repetition code under Z noise has one syndrome but 2^69 corrected errors.

    Its weight-34 count, C(70, 34), would wrap in int64 and skew the rate, so
    the case is refused for its counts, not for its work.
    """
    from qtrellis.pauli import parse_pauli

    n = 70
    code = code_mod.new_code(2, [parse_pauli("I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)])
    with pytest.raises(CapacityError, match="int64"):
        exact_rate(code, ChannelSpec("dephasing_z", 0.1), "css")


def _brute_force_rate(code, decoder, channel) -> float:
    """Sum of the probabilities of the failing patterns, each syndrome decoded.

    A correction c carries the pattern's syndrome, so the pattern E fails
    when the residual E - c, which must have zero syndrome, acts logically.
    """
    n, p = code.n, code.p
    flat = np.array(list(itertools.product(range(p * p), repeat=n)), dtype=np.int64)
    prob = channel.site_probs(p).ravel()[flat].prod(axis=1)
    keep = prob > 0
    flat, prob = flat[keep], prob[keep]
    err_x, err_z = flat // p, flat % p
    trellises = build_trellises(code, decoder)
    S = measure_syndromes(code, decoder, err_x, err_z)
    corr_x, corr_z, _ = decode_syndromes(code, trellises, decoder, mode_weights(code, decoder, channel), S)
    res_x, res_z = err_x - corr_x, err_z - corr_z
    assert not measure_syndromes(code, decoder, res_x, res_z).any()
    fail = logical_flags(code, res_x, res_z).any(axis=1)
    return math.fsum(prob[fail])


def _random_code(rng, n, m, p):
    while True:
        gens = random_commuting_gens(rng, n, m, p)
        # a code needs stabilizers of weight >= 2
        if min(np.count_nonzero(g.x | g.z) for g in gens) >= 2:
            return code_mod.new_code(p, gens)


def _seed41_qudit_codes():
    """Random codes of seed 41: two at p = 3 and two at p = 5, then a p = 3 CSS code."""
    rng = np.random.default_rng(41)
    codes = [_random_code(rng, n, m, p) for p, n, m in ((3, 4, 2), (3, 4, 1), (5, 3, 1), (5, 3, 2))]
    return codes, random_css_code(rng, 3, 5, 1, 2)


def test_exact_rate_of_qudit_codes_matches_brute_force():
    """Random p = 3 and p = 5 codes: the weight counts equal a per-pattern sum."""
    codes, css = _seed41_qudit_codes()
    cases = [(code, "full", kind) for code in codes for kind in ("depolarizing", "dephasing_z")]
    cases += [(css, "css", kind) for kind in ("dephasing_z", "dephasing_x", "depolarizing")]
    for code, decoder, kind in cases:
        channel = ChannelSpec(kind, 0.1)
        exact = exact_rate(code, channel, decoder)
        assert exact > 0
        assert math.isclose(exact, _brute_force_rate(code, decoder, channel), rel_tol=1e-12)


def test_decoded_qudit_residuals_are_stabilizers_up_to_logicals():
    """Every single-site error of the seed-41 codes decodes to a residual E - c of zero syndrome."""
    codes, _ = _seed41_qudit_codes()
    for code in codes:
        p, n = code.p, code.n
        t = build_trellises(code, "full")["full"]
        weights = mode_weights(code, "full", ChannelSpec("depolarizing", 0.1))["full"]
        for site, a, b in itertools.product(range(n), range(p), range(p)):
            if a == b == 0:
                continue
            x, z = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
            x[site], z[site] = a, b
            err = PauliString(p, x, z)
            s = code.check_matrix @ err.symplectic() % p
            outcome = decode_mod.decode(code, t, s, weights, true_error=err)
            assert outcome.classification in ("success", "logical_failure")


def test_qudit_montecarlo_matches_exact_rate():
    """A p = 3 ``full`` depolarizing Monte Carlo point agrees with exact_rate and the per-pattern sum."""
    code = _seed41_qudit_codes()[0][0]
    channel = ChannelSpec("depolarizing", 0.1)
    trellises = build_trellises(code, "full")
    exact = exact_rate(code, channel, "full", trellises=trellises)
    (pt,) = run_montecarlo(code, trellises, "depolarizing", np.array([0.1]), 20000, 5, decoder="full")
    sigma = np.sqrt(exact * (1 - exact) / pt.samples)
    for want in (exact, _brute_force_rate(code, "full", channel)):
        assert abs(pt.rate_uncond - want) < 3 * sigma


def test_css_decoder_with_one_kind_of_check():
    """The Z-check part of a code with X checks only has no checks and admits every X string."""
    from qtrellis.pauli import parse_pauli

    code = code_mod.new_code(2, [parse_pauli("XXI"), parse_pauli("IXX")])
    trellises = build_trellises(code, "css")
    assert trellises["z"].label_matrix.shape == (6, 0)
    assert trellises["z"].total_edges == 2 * 3
    channel = ChannelSpec("dephasing_z", 0.1)
    exact = exact_rate(code, channel, "css", trellises=trellises)
    assert exact == pytest.approx(3 * 0.1**2 * 0.9 + 0.1**3)  # two or three flips fail
    (pt,) = run_montecarlo(
        code, trellises, "dephasing_z", np.array([0.1]), 50000, 37, decoder="css"
    )
    sigma = np.sqrt(exact * (1 - exact) / pt.samples)
    assert abs(pt.rate_uncond - exact) < 3 * sigma


@pytest.mark.parametrize("name,param", [("steane", None), ("rotated_surface", 3)])
def test_full_decoder_montecarlo_matches_exact_depolarizing(name, param):
    """Monte Carlo decodes from syndromes only, so ties cannot favour the true error."""
    code = code_mod.builtin(name, param)
    trellises = build_trellises(code, "full")
    channel = ChannelSpec("depolarizing", 0.1)
    exact = exact_rate(code, channel, "full", trellises=trellises)
    (pt,) = run_montecarlo(
        code, trellises, "depolarizing", np.array([0.1]), 100000, 29, decoder="full"
    )
    sigma = np.sqrt(exact * (1 - exact) / pt.samples)
    assert abs(pt.rate_uncond - exact) < 3 * sigma


def test_decoding_sees_the_syndrome_only():
    """An error and the same error times a random stabilizer get identical corrections."""
    rng = np.random.default_rng(31)
    cases = [
        ("steane", None, "full", "depolarizing"),
        ("rotated_surface", 3, "css", "depolarizing"),
        ("steane_level2", None, "block", "dephasing_z"),
    ]
    for name, param, mode, kind in cases:
        code = code_mod.builtin(name, param)
        n = code.n
        trellises = build_trellises(code, mode)
        channel = ChannelSpec(kind, 0.1)
        weights = mode_weights(code, mode, channel)
        err_x, err_z = _sample_batch(channel, n, rng, 2000)
        # Z noise only for the block decoder, so multiply by Z-type stabilizers
        gens = [g for g in code.stabilizers if kind != "dephasing_z" or not g.x.any()]
        stab = rng.integers(0, 2, (2000, len(gens))) @ np.array([g.symplectic() for g in gens]) % 2
        assert stab.any(axis=1).sum() > 1900
        moved_x, moved_z = (err_x + stab[:, :n]) % 2, (err_z + stab[:, n:]) % 2
        S = measure_syndromes(code, mode, err_x, err_z)
        a = decode_syndromes(code, trellises, mode, weights, S)
        b = decode_syndromes(code, trellises, mode, weights, measure_syndromes(code, mode, moved_x, moved_z))
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
        assert np.array_equal(measure_syndromes(code, mode, a[0], a[1]), S)


def test_decode_chunks_are_bit_identical(monkeypatch):
    """Decoding in many small chunks gives the corrections and weights of one call."""
    rng = np.random.default_rng(37)
    cases = [
        ("steane", None, "full", "depolarizing"),
        ("rotated_surface", 3, "css", "depolarizing"),
        ("rotated_surface", 3, "css", "dephasing_z"),
    ]
    for name, param, mode, kind in cases:
        code = code_mod.builtin(name, param)
        trellises = build_trellises(code, mode)
        channel = ChannelSpec(kind, 0.1)
        weights = mode_weights(code, mode, channel)
        S = measure_syndromes(code, mode, *_sample_batch(channel, code.n, rng, 500))
        whole = decode_syndromes(code, trellises, mode, weights, S)
        widest = max(sec.size for t in trellises.values() for sec in t.sections)
        with monkeypatch.context() as patch:
            patch.setattr(decode_mod, "_EDGE_BUDGET", 7 * widest)
            chunked = decode_syndromes(code, trellises, mode, weights, S)
        for u, v in zip(whole, chunked):
            assert np.array_equal(u, v)


def test_decode_chunk_fits_the_budget():
    """Chunks stay within the budget where a row fits; the profile alone tells."""
    # [[20,3,6]]'s 524,288-edge section exceeds the budget, so one row a call
    for name, rows in (("codetable_20_3_6", 1), ("codetable_20_10_4", 16)):
        widest = max(profile(code_mod.builtin(name).normalizer_tof()).e_count)
        assert decode_mod._chunk_rows(widest) == rows
        if widest <= decode_mod._EDGE_BUDGET:
            assert rows * widest <= decode_mod._EDGE_BUDGET


def test_montecarlo_reproducible_and_batch_invariant(monkeypatch):
    code = code_mod.builtin("rotated_surface", 3)
    trellises = build_trellises(code, "css")
    grid = np.array([0.08, 0.10])
    a = run_montecarlo(code, trellises, "dephasing_z", grid, 40000, 11, decoder="css")
    b = run_montecarlo(code, trellises, "dephasing_z", grid, 40000, 11, decoder="css")
    widest = max(sec.size for t in trellises.values() for sec in t.sections)
    with monkeypatch.context() as patch:
        # other draw and kernel chunk sizes
        patch.setattr(sim_mod, "_DRAW_ROWS", 977)
        patch.setattr(decode_mod, "_EDGE_BUDGET", 301 * widest)
        c = run_montecarlo(code, trellises, "dephasing_z", grid, 40000, 11, decoder="css")
    assert a == b == c
    d = run_montecarlo(code, trellises, "dephasing_z", grid, 40000, 12, decoder="css")
    assert a != d


# failure counts and rate_uncond.hex() of run_montecarlo at seed 7, pinned so
# that a change to the sampling stream or the decode order shows
_GOLDEN_FAILURES = {
    ("rotated_surface", 3, "css", "dephasing_z", (0.03, 0.06), 16384): [
        (979, "0x1.d577b3cab0034p-7"), (2011, "0x1.ad5a8dcf882e2p-5"),
    ],
    ("steane", None, "full", "depolarizing", (0.05, 0.1), 32768): [
        (3707, "0x1.1790df887c3b3p-5"), (7263, "0x1.d9a425cefc51dp-4"),
    ],
    ("steane_level2", None, "block", "dephasing_z", (0.03, 0.06), 16384): [
        (116, "0x1.67b0356e6d1bdp-8"), (928, "0x1.b99fbd4526610p-5"),
    ],
    # both CSS parts decode nontrivial syndromes, and their corrections add
    ("rotated_surface", 3, "css", "depolarizing", (0.05, 0.1), 16384): [
        (1551, "0x1.1ebdd85e1f512p-5"), (3057, "0x1.d429f4c76f372p-4"),
    ],
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_FAILURES, key=str))
def test_montecarlo_matches_golden_failures(case):
    name, d, decoder, kind, grid, samples = case
    code = code_mod.builtin(name, d)
    pts = run_montecarlo(code, build_trellises(code, decoder), kind, np.array(grid), samples, 7, decoder=decoder)
    assert [(pt.failures, pt.rate_uncond.hex()) for pt in pts] == _GOLDEN_FAILURES[case]


def test_montecarlo_datapoint_fields():
    code = code_mod.builtin("steane")
    trellises = build_trellises(code, "css")
    (pt,) = run_montecarlo(
        code, trellises, "dephasing_z", np.array([0.1]), 20000, 3, decoder="css"
    )
    assert pt.samples == 20000
    assert 0 <= pt.failures <= pt.samples
    assert 0.0 <= pt.ci_lo <= pt.rate_cond <= pt.ci_hi <= 1.0
    assert pt.rate_uncond <= pt.rate_cond


def test_wilson_bounds_are_exact_at_the_edges():
    """No failures bound the rate below by exactly 0, all failures above by exactly 1."""
    for failures, samples in ((0, 3), (0, 1000), (3, 3), (1000, 1000), (7, 1000)):
        lo, hi = _wilson(failures, samples)
        assert type(lo) is float and type(hi) is float
        assert (lo == 0.0) == (failures == 0) and (hi == 1.0) == (failures == samples)
    code = code_mod.builtin("steane")
    (pt,) = run_montecarlo(code, build_trellises(code, "css"), "depolarizing", [1e-4], 20, 1, decoder="css")
    assert pt.failures == 0 and pt.ci_lo == 0.0 and type(pt.ci_lo) is float


def _ansatz_points(distances, p_th=0.10, nu=1.5, noise=None):
    """Data on ``y = 0.30 + 1.8 x + 4 x^2``, ``x = (p - p_th) d^(1/nu)``, p in [0.085, 0.115]."""
    rng = np.random.default_rng(2)
    datasets = {}
    for d in distances:
        pts = []
        for i in range(9):
            p = 0.085 + 0.00375 * i
            x = (p - p_th) * d ** (1 / nu)
            y = 0.30 + 1.8 * x + 4.0 * x * x + (rng.normal(0, noise) if noise else 0.0)
            pts.append(DataPoint(p, 100000, int(y * 100000), y, y, y - 0.003, y + 0.003))
        datasets[d] = pts
    return datasets


def test_fit_threshold_roundtrip():
    fit = fit_threshold(_ansatz_points((9, 11, 13)))
    assert abs(fit.p_th - 0.10) < 1e-3
    assert abs(fit.nu - 1.5) < 1e-2


def test_fit_threshold_small_distances():
    fit = fit_threshold(_ansatz_points((3, 5, 7), noise=1e-4))
    assert abs(fit.p_th - 0.10) < 1e-3
    assert fit.distances == (3, 5, 7)


@pytest.mark.parametrize("p_th, edge", [(0.13, "upper"), (0.07, "lower")])
def test_fit_threshold_refuses_a_threshold_outside_the_sampled_range(p_th, edge):
    with pytest.raises(SimError, match=f"p_th = .* {edge} edge"):
        fit_threshold(_ansatz_points((3, 5, 7), p_th=p_th))


def test_fit_threshold_needs_four_points_at_every_distance():
    datasets = _ansatz_points((3, 5, 7))
    datasets[7] = datasets[7][:1]
    with pytest.raises(SimError, match="d = 7 has 1"):
        fit_threshold(datasets)


def test_fit_threshold_degenerate_raises():
    flat = {
        d: [DataPoint(0.08 + 0.01 * i, 1000, 100, 0.1, 0.1, 0.09, 0.11) for i in range(5)]
        for d in (9, 11, 13)
    }
    with pytest.raises(SimError):
        fit_threshold(flat)


def test_build_trellises_modes():
    code = code_mod.builtin("steane")
    assert set(build_trellises(code, "full")) == {"full"}
    assert set(build_trellises(code, "css")) == {"x", "z"}
    level2 = code_mod.builtin("steane_level2")
    assert set(build_trellises(level2, "block")) == {"inner"}
    with pytest.raises(DecodeError):
        build_trellises(code, "nonsense")


def test_an_unknown_mode_raises_decode_error_at_every_entry_point():
    code = code_mod.builtin("steane")
    trellises = build_trellises(code, "full")
    channel = ChannelSpec("depolarizing", 0.1)
    weights = mode_weights(code, "full", channel)
    calls = (
        lambda: build_trellises(code, "nonsense"),
        lambda: exact_rate(code, channel, "nonsense"),
        lambda: exact_rate(code, channel, "nonsense", trellises=trellises),
        lambda: run_montecarlo(code, trellises, "depolarizing", [0.1], 10, 1, decoder="nonsense"),
        lambda: mode_weights(code, "nonsense", channel),
        lambda: decode_syndromes(code, trellises, "nonsense", weights, np.zeros((1, 6), dtype=np.int64)),
    )
    for call in calls:
        with pytest.raises(DecodeError, match="unknown decoder mode 'nonsense'"):
            call()


def test_a_trellis_set_of_another_mode_is_refused_by_name():
    code = code_mod.builtin("steane")
    css = build_trellises(code, "css")
    channel = ChannelSpec("depolarizing", 0.1)
    with pytest.raises(TrellisError, match=r"'full'.*\['full'\].*\['x', 'z'\]"):
        run_montecarlo(code, css, "depolarizing", [0.1], 10, 1, decoder="full")
    with pytest.raises(TrellisError, match=r"\['full'\].*\['x', 'z'\]"):
        exact_rate(code, channel, "full", trellises=css)
    with pytest.raises(TrellisError, match=r"\['x', 'z'\].*\['full'\]"):
        decode_syndromes(code, css, "css", mode_weights(code, "full", channel), np.zeros((1, 6), dtype=np.int64))
