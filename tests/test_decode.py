"""Viterbi decoding against brute-force coset oracles and worked examples."""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from qtrellis import code as code_mod
from qtrellis.code import css_split
from qtrellis.decode import (
    DecodeError,
    WeightTable,
    block_decode,
    classify_residual,
    css_decode,
    decode,
    decode_syndromes,
    logical_flags,
    measure_syndromes,
    mode_weights,
    pure_error,
    viterbi,
    weights_from_channel,
    _viterbi_arrays,
)
from qtrellis.pauli import (
    PauliString,
    format_pauli,
    from_symplectic,
    identity,
    mul,
    parse_pauli,
    sym_inner,
    syndrome,
)
from qtrellis.sim import ChannelSpec, build_trellises
from qtrellis.trellis import TrellisError, build, shift

from conftest import (
    coset_min_weight,
    group_elements,
    random_commuting_gens,
    random_css_code,
    reference_viterbi,
    solve,
)


@pytest.fixture(scope="module")
def five_one_three():
    return code_mod.builtin("five_one_three")


@pytest.fixture(scope="module")
def steane():
    return code_mod.builtin("steane")


# ---------------------------------------------------------------------------
# weight tables


def test_weights_from_channel_forms_agree():
    """A ChannelSpec's table equals the label mapping of its -log probabilities."""
    spec = ChannelSpec("depolarizing", 0.1)
    w1 = weights_from_channel(spec, 5)
    labels = {"I": -np.log(0.9), "X": -np.log(0.1 / 3), "Y": -np.log(0.1 / 3), "Z": -np.log(0.1 / 3)}
    w2 = weights_from_channel(labels, 5)
    assert np.allclose(w1.table, w2.table)
    assert np.isclose(w1.table[0, 0, 0], -np.log(0.9))
    assert np.isclose(w1.table[0, 1, 1], -np.log(0.1 / 3))


def test_weights_from_dict_verbatim():
    w = weights_from_channel({"I": 0.0, "X": 1.0, "Z": 1.0, "Y": 2.0}, 3)
    assert w.table[1, 0, 0] == 0.0
    assert w.table[1, 1, 0] == 1.0
    assert w.table[1, 0, 1] == 1.0
    assert w.table[1, 1, 1] == 2.0


def test_weights_css_axis_marginalizes():
    w = weights_from_channel(ChannelSpec("depolarizing", 0.3), 4, css_axis="X")
    # the X-stabilizer trellis sees {I, Z}; I collects Pr(I) + Pr(X)
    assert np.isclose(np.exp(-w.table[0, 0, 0]), 0.7 + 0.1)
    assert np.isclose(np.exp(-w.table[0, 0, 1]), 0.1 + 0.1)


# the rates 0.001, 0.002, ..., 0.499 of a dephasing scan
_DEPHASING_RATES = [r / 1000 for r in range(1, 500)]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_css_axis_weights_accept_every_dephasing_rate(p):
    """The unexcited axis sums ``1 - r`` and p - 1 copies of ``r / (p - 1)``, which can round past 1.

    Unclamped, 82, 138 and 32 + 181 rates of this scan were refused at p = 5, 7 and 11.
    """
    for kind, axis, r in itertools.product(("dephasing_z", "dephasing_x"), "XZ", _DEPHASING_RATES):
        table = weights_from_channel(ChannelSpec(kind, r), 3, p=p, css_axis=axis).table
        assert (table >= 0).all() and np.isfinite(table).any()


@pytest.mark.parametrize("p", [2, 3])
def test_weights_below_p5_are_the_unclamped_log_marginals(p):
    """At p = 2 and 3 no marginal exceeds 1, so every table is ``-log`` of the plain marginal, bit for bit."""
    kinds = ("depolarizing", "dephasing_z", "dephasing_x")
    for kind, axis, r in itertools.product(kinds, (None, "X", "Z"), _DEPHASING_RATES):
        probs = ChannelSpec(kind, r).site_probs(p)
        marginal = np.zeros((p, p))
        if axis is None:
            marginal = probs
        elif axis == "X":
            marginal[0, :] = probs.sum(axis=0)
        else:
            marginal[:, 0] = probs.sum(axis=1)
        with np.errstate(divide="ignore"):
            expect = -np.log(marginal)
        table = weights_from_channel(ChannelSpec(kind, r), 2, p=p, css_axis=axis).table
        assert table[1].tobytes() == expect.tobytes()


def test_weight_table_validation():
    with pytest.raises((DecodeError, ValueError)):
        WeightTable(2, 3, np.zeros((2, 2, 2)))  # wrong first dimension
    with pytest.raises((DecodeError, ValueError)):
        WeightTable(2, 2, np.full((2, 2, 2), np.inf))  # nothing finite
    with pytest.raises((DecodeError, ValueError)):
        WeightTable(2, 2, -np.ones((2, 2, 2)))  # negative weights


# ---------------------------------------------------------------------------
# pure errors and trellis/code agreement


def test_pure_error_reproduces_syndrome(five_one_three, rng):
    gens = list(five_one_three.stabilizers)
    for _ in range(10):
        s = rng.integers(0, 2, 4).astype(np.int64)
        T = pure_error(five_one_three, s)
        assert np.array_equal(syndrome(gens, T) % 2, s)
        # the cached linear map gives the particular solution of the RREF oracle
        assert np.array_equal(T.symplectic(), solve(five_one_three.check_matrix, s, 2))
    with pytest.raises(DecodeError):
        pure_error(five_one_three, np.array([1, 0, 0]))


def test_trellis_of_another_system_rejected(five_one_three, steane):
    """A trellis of another system or group is a TrellisError, in every mode.

    Besides n and p, a ``full`` or ``css`` trellis must span the code's
    group (its dimension) and carry the code's checks as its labels.
    """
    s = np.zeros(6, dtype=np.int64)
    weights = weights_from_channel(ChannelSpec("depolarizing", 0.1), 7)
    with pytest.raises(TrellisError):
        decode(steane, build(five_one_three), s, weights)
    qutrit = code_mod.new_code(3, [PauliString(3, [1, 1, 1, 1, 1, 1, 0], [0] * 7)])
    with pytest.raises(TrellisError):
        decode(steane, build(qutrit), s, weights)
    surface = build_trellises(code_mod.builtin("rotated_surface", 3), "css")
    with pytest.raises(TrellisError):
        css_decode(steane, surface["x"], surface["z"], s, ChannelSpec("depolarizing", 0.1))
    level2 = code_mod.builtin("steane_level2")
    z_weights = weights_from_channel(ChannelSpec("dephasing_z", 0.1), 49, css_axis="X")
    with pytest.raises(TrellisError):
        block_decode(level2, surface["x"], np.zeros(48, dtype=np.int64), z_weights)
    x_part, z_part = css_split(steane)
    other_groups = (
        build(x_part),  # the X-check part: dimension n - 3, not 2n - m
        build(code_mod.permute(steane, list(range(7, 0, -1)))),  # same dimension, other checks
    )
    for t in other_groups:
        with pytest.raises(TrellisError):
            decode(steane, t, s, weights)
    # the stabilizer group alone decodes to heavier-than-minimum corrections
    bare = build(list(five_one_three.stabilizers))
    weights5 = weights_from_channel(ChannelSpec("depolarizing", 0.1), 5)
    with pytest.raises(TrellisError):
        decode(five_one_three, bare, np.zeros(4, dtype=np.int64), weights5)
    # both parts have dimension 4; only their labels tell them apart
    with pytest.raises(TrellisError):
        css_decode(steane, build(z_part), build(x_part), s, ChannelSpec("depolarizing", 0.1))
    assert css_decode(steane, build(x_part), build(z_part), s, ChannelSpec("depolarizing", 0.1))


# ---------------------------------------------------------------------------
# the worked example: zero syndrome, unit-step weights


def test_viterbi_zero_syndrome_identity():
    """[[5,1,1]] with weights I:0, X:1, Z:1, Y:2 returns IIIII at weight 0."""
    code = code_mod.builtin("five_one_one")
    t = build(code)
    weights = weights_from_channel({"I": 0.0, "X": 1.0, "Z": 1.0, "Y": 2.0}, 5)
    corr, w = viterbi(t, weights)
    assert format_pauli(corr) == "IIIII"
    assert w == 0.0
    # shifting by the (0,0,1,1) pure error changes the optimum
    T = pure_error(code, np.array([0, 0, 1, 1]))
    corr2, w2 = viterbi(shift(t, T), weights)
    assert np.array_equal(
        syndrome(list(code.stabilizers), corr2) % 2, np.array([0, 0, 1, 1])
    )
    assert w2 > 0.0


# ---------------------------------------------------------------------------
# coset-minimum oracle


def _oracle_check(code, table, elements):
    t = build(code)
    wt = WeightTable(code.p, code.n, table)
    m = len(code.stabilizers)
    for bits in itertools.product(range(2), repeat=m):
        s = np.array(bits, dtype=np.int64)
        T = pure_error(code, s)
        corr, w = viterbi(shift(t, T), wt)
        assert np.array_equal(syndrome(list(code.stabilizers), corr) % 2, s)
        best = coset_min_weight(elements, T, table)
        assert np.isclose(w, best), f"syndrome {bits}: {w} != {best}"


def test_oracle_five_one_three_depolarizing(five_one_three):
    elements = group_elements(
        list(five_one_three.stabilizers) + list(five_one_three.logical_gens)
    )
    table = weights_from_channel(ChannelSpec("depolarizing", 0.1), 5).table
    _oracle_check(five_one_three, table, elements)


def test_oracle_steane_depolarizing(steane):
    elements = group_elements(list(steane.stabilizers) + list(steane.logical_gens))
    table = weights_from_channel(ChannelSpec("depolarizing", 0.1), 7).table
    _oracle_check(steane, table, elements)


def test_oracle_random_weight_tables(five_one_three, steane, rng):
    for code in (five_one_three, steane):
        elements = group_elements(
            list(code.stabilizers) + list(code.logical_gens)
        )
        for _ in range(20):
            table = rng.uniform(0.0, 4.0, size=(code.n, 2, 2))
            _oracle_check(code, table, elements)


def _kernel_cases(rng):
    """Trellises of every shape the kernel meets, by name."""
    steane = code_mod.builtin("steane")
    cases = {
        "steane": build(steane),
        "five_one_three": build(code_mod.builtin("five_one_three")),
        "steane_inner": build(css_split(steane)[0]),
        "codetable_20_10_4": build(code_mod.builtin("codetable_20_10_4")),
    }
    for d in (3, 5):
        surface = code_mod.builtin("rotated_surface", d)
        x_part, z_part = css_split(surface)
        cases[f"surface{d}"] = build(surface)
        cases[f"surface{d}_x"] = build(x_part)
        cases[f"surface{d}_z"] = build(z_part)
    for p in (3, 5):
        for k in range(3):
            cases[f"random_p{p}_{k}"] = build(random_commuting_gens(rng, 4, 2 + k % 2, p))
    # the full two-qudit group {X1, X2, Z1, Z2} at p = 17: in-degree 17**2 = 289
    cases["two_qudits_p17"] = build([from_symplectic(row, 17) for row in np.eye(4, dtype=np.int64)])
    return cases


def test_kernel_bit_identical_to_argmin_reference():
    """Corrections and weights equal the argmin kernel's, ties and +inf included."""
    rng = np.random.default_rng(2026)
    cases = _kernel_cases(rng)
    assert max(cases["two_qudits_p17"].profile.deg_in) == 289
    rows = 40
    for name, t in cases.items():
        p, n = t.p, t.n
        for _ in range(3):
            # half-integer weights make exact ties common
            wtab = np.round(rng.uniform(0.0, 3.0, size=(n, p, p)) * 2) / 2
            wtab[rng.random((n, p, p)) < 0.1] = np.inf
            shift_x = rng.integers(0, p, size=(rows, n))
            shift_z = rng.integers(0, p, size=(rows, n))
            got = _viterbi_arrays(t, wtab, shift_x, shift_z)
            want = reference_viterbi(t, wtab, shift_x, shift_z)
            for u, v in zip(got, want):
                assert u.dtype == v.dtype and np.array_equal(u, v), name


# ---------------------------------------------------------------------------
# classification


def test_classify_residual(five_one_three):
    err = parse_pauli("IXIII")
    assert classify_residual(five_one_three, err, err)[0] == "success"
    stab_corr = mul(err, five_one_three.stabilizers[0])
    assert classify_residual(five_one_three, err, stab_corr)[0] == "success"
    logical_corr = mul(err, five_one_three.logical_gens[0])
    cls, flags = classify_residual(five_one_three, err, logical_corr)
    assert cls == "logical_failure" and any(flags)
    bad = parse_pauli("IZIII")
    assert classify_residual(five_one_three, err, mul(err, bad))[0] in (
        "internal_inconsistency",
        "logical_failure",
    )


def test_classify_residual_flags_at_p3():
    """Flags are sym_inner(E - c, g): the negated logical_flags, which differ at p = 3."""
    code = code_mod.new_code(3, [parse_pauli(s, 3) for s in ("X0.Z1 X0.Z2 X0.Z0", "X0.Z0 X0.Z1 X0.Z2")])
    zero = np.zeros(3, dtype=np.int64)
    ones = np.ones(3, dtype=np.int64)
    for err in (PauliString(3, ones, zero), PauliString(3, 2 * ones, zero), PauliString(3, ones, ones)):
        for corr in (identity(3, 3), PauliString(3, zero, ones)):
            cls, flags = classify_residual(code, err, corr)
            residual = mul(err, PauliString(3, -corr.x, -corr.z))
            want = tuple(sym_inner(residual, g) for g in code.logical_gens)
            assert any(want) and cls == "logical_failure"
            assert flags == want
            assert np.array_equal(logical_flags(code, residual.x, residual.z), (-np.array(want)) % 3)
    assert classify_residual(code, PauliString(3, [1, 0, 0], zero), identity(3, 3)) == ("internal_inconsistency", ())
    assert classify_residual(code, PauliString(3, zero, ones), identity(3, 3)) == ("success", (0, 0))


def test_decode_pipeline_classifies(five_one_three):
    t = build(five_one_three)
    weights = weights_from_channel(ChannelSpec("depolarizing", 0.1), 5)
    err = parse_pauli("XIIII")
    s = syndrome(list(five_one_three.stabilizers), err) % 2
    out = decode(five_one_three, t, s, weights, true_error=err)
    assert out.classification == "success"
    assert format_pauli(out.correction) == "XIIII"


# ---------------------------------------------------------------------------
# CSS split decoding and the correlated-error example


def test_css_decode_correlated_error_example():
    """Y errors on the d=5 surface: full decoding succeeds, split fails."""
    code = code_mod.builtin("rotated_surface", 5)
    x_part, z_part = css_split(code)
    tx, tz = build(x_part), build(z_part)
    channel = ChannelSpec("depolarizing", 0.1)
    # a weight-3 Y string along the diagonal, the paper's correlated case
    err = identity(25, 2)
    for q in (8, 13, 18):
        err = mul(err, PauliString(2, *(np.eye(25, dtype=np.int64)[q - 1],) * 2))
    s = syndrome(list(code.stabilizers), err) % 2
    split_out = css_decode(code, tx, tz, s, channel, true_error=err)
    assert split_out.classification == "logical_failure"
    full_out = decode(
        code, build(code), s, weights_from_channel(channel, 25), true_error=err
    )
    assert full_out.classification == "success"
    assert full_out.correction == err


def test_css_decode_matches_split_oracle():
    """Split decoding equals per-axis coset minimization on the d=3 surface."""
    code = code_mod.builtin("rotated_surface", 3)
    x_part, z_part = css_split(code)
    tx, tz = build(x_part), build(z_part)
    channel = ChannelSpec("depolarizing", 0.15)
    gens = list(code.stabilizers)
    rng = np.random.default_rng(5)
    for _ in range(25):
        err = PauliString(2, rng.integers(0, 2, 9), rng.integers(0, 2, 9))
        s = syndrome(gens, err) % 2
        out = css_decode(code, tx, tz, s, channel, true_error=err)
        assert out.classification in ("success", "logical_failure")
        assert np.array_equal(syndrome(gens, out.correction) % 2, s)


# ---------------------------------------------------------------------------
# block decoding for the concatenated Steane code


@pytest.fixture(scope="module")
def level2():
    return code_mod.builtin("steane_level2")


@pytest.fixture(scope="module")
def inner_trellis():
    steane = code_mod.builtin("steane")
    x_part, _ = css_split(steane)
    return build(x_part)


def test_block_decode_single_z_errors(level2, inner_trellis):
    weights = weights_from_channel(ChannelSpec("dephasing_z", 0.05), 49, css_axis="X")
    gens = list(level2.stabilizers)
    for q in range(49):
        z = np.zeros(49, dtype=np.int64)
        z[q] = 1
        err = PauliString(2, np.zeros(49, dtype=np.int64), z)
        s = syndrome(gens, err) % 2
        out = block_decode(level2, inner_trellis, s, weights, true_error=err)
        assert out.classification == "success"


def test_block_decode_low_weight_z_errors(level2, inner_trellis):
    """The two-stage decoder corrects every Z error of weight at most 3.

    All 19,650 such errors are decoded in one batch.  The radius is exactly
    3: two inner blocks with two errors each are both miscorrected to block
    logicals, and two block flips defeat the distance-3 outer stage.
    """
    n = level2.n
    weights = {"inner": weights_from_channel(ChannelSpec("dephasing_z", 0.05), n, css_axis="X")}
    trellises = {"inner": inner_trellis}
    supports = [s for w in range(4) for s in itertools.combinations(range(n), w)]
    supports.append((0, 1, 7, 8))
    err_z = np.zeros((len(supports), n), dtype=np.int64)
    for row, support in enumerate(supports):
        err_z[row, list(support)] = 1
    err_x = np.zeros_like(err_z)
    S = measure_syndromes(level2, "block", err_x, err_z)
    corr_x, corr_z, _ = decode_syndromes(level2, trellises, "block", weights, S)
    res = np.hstack([err_x + corr_x, err_z + corr_z]) % 2
    x_rows = level2.css_rows[0]
    assert not (res @ level2.check_matrix[x_rows].T % 2).any()
    failed = (res @ level2.logical_matrix.T % 2).any(axis=1)
    assert len(supports) == 19_650 + 1
    assert not failed[:-1].any()
    assert failed[-1]


def test_block_decode_sequential_cost(inner_trellis):
    # two sequential stages, each one pass over the 7-qubit part trellis
    assert 2 * inner_trellis.total_edges == 72


# ---------------------------------------------------------------------------
# bundled length-20 codes


def test_codetable_20_13_3_corrects_single_errors():
    code = code_mod.builtin("codetable_20_13_3")
    t = build(code)
    weights = weights_from_channel(ChannelSpec("depolarizing", 0.05), 20)
    gens = list(code.stabilizers)
    count = 0
    for q in range(20):
        for a, b in ((1, 0), (1, 1), (0, 1)):
            x = np.zeros(20, dtype=np.int64)
            z = np.zeros(20, dtype=np.int64)
            x[q], z[q] = a, b
            err = PauliString(2, x, z)
            s = syndrome(gens, err) % 2
            out = decode(code, t, s, weights, true_error=err)
            assert out.classification == "success", f"failed on {format_pauli(err)}"
            count += 1
    assert count == 60


@pytest.mark.parametrize(
    "name,exhaustive",
    [
        ("codetable_20_13_3", True),
        ("codetable_20_10_4", True),
        ("codetable_20_3_6", False),
        ("codetable_20_4_6", False),
    ],
)
def test_codetable_syndromes_decode(name, exhaustive):
    """Every decoded correction must reproduce the requested syndrome.

    The two codes with syndrome spaces of at most 2**10 are checked
    exhaustively; the larger two on a fixed random sample.
    """
    code = code_mod.builtin(name)
    t = build(code)
    weights = weights_from_channel(ChannelSpec("depolarizing", 0.05), 20)
    gens = list(code.stabilizers)
    m = len(gens)
    if exhaustive:
        syndromes = [np.array(bits, dtype=np.int64) for bits in itertools.product(range(2), repeat=m)]
    else:
        rng = np.random.default_rng(99)
        syndromes = [rng.integers(0, 2, m).astype(np.int64) for _ in range(128)]
    for s in syndromes:
        out = decode(code, t, s, weights)
        assert out.classification == "success"
        assert np.array_equal(syndrome(gens, out.correction) % 2, s % 2)


def test_decode_syndromes_matches_golden_digest_on_a_random_qutrit_css_code():
    """Every syndrome of a seeded p = 3 CSS code, decoded ``full`` and ``css``, pinned bit for bit.

    The digest covers both modes' correction exponents and weights; under
    depolarizing noise both CSS parts decode nontrivially and their results add.
    """
    code = random_css_code(np.random.default_rng(2025), 3, 8, 2, 3)
    m = len(code.stabilizers)
    S = np.array(np.unravel_index(np.arange(3**m), (3,) * m)).T
    digest = hashlib.sha256()
    for mode in ("full", "css"):
        weights = mode_weights(code, mode, ChannelSpec("depolarizing", 0.2))
        for a in decode_syndromes(code, build_trellises(code, mode), mode, weights, S):
            digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == "5804d6d4e24ededdab87ef0e5dc2f8c378c9b3228cbaf2b0aa06b24f874e4abc"
