"""Code objects: TOF reduction, structural profiles, built-in families."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from qtrellis import code as code_mod
from qtrellis import ffield
from qtrellis.code import (
    CodeError,
    css_split,
    greedy_numbering,
    new_code,
    parse_code_file,
    permute,
    profile,
    to_tof,
    write_code_file,
)
from qtrellis.pauli import PauliString, commutation_matrix, from_symplectic, parse_pauli, sym_inner

from conftest import group_elements, random_commuting_gens, reference_greedy_numbering

FIVE_ONE_THREE = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def span_length(P: PauliString) -> int:
    nz = np.nonzero((P.x != 0) | (P.z != 0))[0]
    return int(nz[-1] - nz[0]) + 1 if nz.size else 0


# ---------------------------------------------------------------------------
# trellis-oriented form


def test_tof_left_right_property(rng):
    for p in [2] * 30 + [3] * 30:
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, min(n, 4) + 1))
        gens = random_commuting_gens(rng, n, m, p)
        tof = to_tof(gens)
        assert group_elements(list(tof.gens)) == group_elements(gens)
        # left-right property: the end sites of the members sharing a left
        # (or a right) index are linearly independent over F_p
        for ends in (tof.left, tof.right):
            for j in set(ends):
                sites = [g.site(j) for g, e in zip(tof.gens, ends) if e == j]
                assert ffield.rank(np.array(sites, dtype=np.int64), p) == len(sites)
        for g, l in zip(tof.gens, tof.left):
            assert next(e for e in g.site(l) if e) == 1


def test_tof_minimality_exhaustive_oracle(rng):
    """Total span of the TOF equals the brute-force minimum over all bases."""
    # n * m <= 12 at p = 3 keeps the enumeration to seconds
    cases = [(2, int(rng.integers(3, 6)), int(rng.integers(2, 4))) for _ in range(12)]
    cases += [(3, int(rng.integers(3, 5)), int(rng.integers(2, 4))) for _ in range(6)]
    for p, n, m in cases:
        gens = random_commuting_gens(rng, n, m, p)
        elements = [g for g in group_elements(gens) if not g.is_identity()]
        best = None
        for combo in itertools.combinations(elements, m):
            rows = np.array([np.concatenate([g.x, g.z]) for g in combo], dtype=np.int64)
            if ffield.rank(rows, p) < m:
                continue
            total = sum(span_length(g) for g in combo)
            best = total if best is None else min(best, total)
        assert to_tof(gens).span_length() == best


def test_tof_profile_invariance(rng):
    """Any generating set of the same group yields the identical profile."""
    code = code_mod.builtin("five_one_three")
    base = profile(code.normalizer_tof())
    gens = list(code.stabilizers) + list(code.logical_gens)
    rows = np.array([np.concatenate([g.x, g.z]) for g in gens], dtype=np.int64)
    m = len(gens)
    for _ in range(10):
        while True:
            A = rng.integers(0, 2, size=(m, m)).astype(np.int64)
            if ffield.rank(A, 2) == m:
                break
        resampled = [from_symplectic(v, 2) for v in (A @ rows) % 2]
        assert profile(to_tof(resampled)) == base


def test_tof_rejects_dependent_and_empty():
    with pytest.raises(ValueError):
        to_tof([])
    with pytest.raises(CodeError):
        to_tof([parse_pauli("XX"), parse_pauli("XX")])


# ---------------------------------------------------------------------------
# profiles


def test_five_one_three_profile_table():
    """The [[5,1,3]] minimal trellis dimensions, all columns."""
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


def test_profile_invariants_all_builtins():
    codes = [
        code_mod.builtin("five_one_one"),
        code_mod.builtin("five_one_three"),
        code_mod.builtin("steane"),
        code_mod.builtin("steane_level2"),
        code_mod.builtin("rotated_surface", 3),
        code_mod.builtin("rotated_surface", 5),
        code_mod.builtin("color_666", 3),
        code_mod.builtin("color_666", 5),
        code_mod.builtin("color_488", 3),
        code_mod.builtin("color_488", 5),
        code_mod.builtin("codetable_20_13_3"),
        code_mod.builtin("codetable_20_10_4"),
    ]
    for code in codes:
        prof = profile(code.normalizer_tof())
        n, k, p = code.n, code.k, code.p
        assert prof.v_count[0] == prof.v_count[n] == 1
        for i in range(1, n + 1):
            assert prof.e_count[i - 1] == prof.v_count[i - 1] * prof.deg_out[i - 1]
            assert prof.e_count[i - 1] == prof.v_count[i] * prof.deg_in[i - 1]
            # per-step dimension changes are bounded by 2
            dp = prof.dim_past[i] - prof.dim_past[i - 1]
            df = prof.dim_future[i - 1] - prof.dim_future[i]
            assert dp in (0, 1, 2) and df in (0, 1, 2)
            # the past/future sum never drops below 2k for the normalizer
            assert prof.dim_past[i] + prof.dim_future[i] >= 2 * k
        if code.is_css():
            for part in css_split(code):
                part_prof = profile(part.tof())
                kc = part.k_classical
                bound = p ** min(kc, n - kc)
                assert all(v <= bound for v in part_prof.v_count)
                for i in range(1, n + 1):
                    dp = part_prof.dim_past[i] - part_prof.dim_past[i - 1]
                    df = part_prof.dim_future[i - 1] - part_prof.dim_future[i]
                    assert dp in (0, 1) and df in (0, 1)


def test_rotated_surface_counts():
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
        px = profile(x_part.tof())
        pz = profile(z_part.tof())
        assert (px.total_vertices, px.total_edges) == x_counts
        assert (pz.total_vertices, pz.total_edges) == z_counts


def test_color_code_counts_within_targets():
    code = code_mod.builtin("color_666", 3)
    prof = profile(code.normalizer_tof())
    assert prof.total_vertices <= 122 and prof.total_edges <= 232
    for part in css_split(code):
        pp = profile(part.tof())
        assert pp.total_vertices <= 26 and pp.total_edges <= 36
    # the 4.8.8 triangular family has n = d^2 - d + 1
    for d, n in ((3, 7), (5, 21), (7, 43)):
        assert code_mod.builtin("color_488", d).n == n


# ---------------------------------------------------------------------------
# construction and validation


def test_new_code_validation():
    with pytest.raises(CodeError):
        new_code(2, [])
    with pytest.raises(CodeError):
        new_code(2, [parse_pauli("XX"), parse_pauli("ZI")])  # anticommuting
    with pytest.raises(CodeError):
        new_code(2, [parse_pauli("XX"), parse_pauli("XX")])  # dependent
    with pytest.raises(CodeError):  # k = 0
        new_code(2, [parse_pauli("XX"), parse_pauli("ZZ")])
    with pytest.raises(ValueError):
        new_code(4, [parse_pauli("XX")])


@pytest.mark.parametrize(
    "stabs, pair",
    [
        # IZZ anticommutes with XXI and with XIX: clashes (0, 2) and (1, 2)
        (("XXI", "XIX", "IZZ"), "XXI, IZZ"),
        # clashes (0, 3) and (1, 2): the first in row-major order is (0, 3)
        (("XXII", "IIXX", "ZZIZ", "ZIZZ"), "XXII, ZIZZ"),
    ],
)
def test_new_code_names_the_first_noncommuting_pair(stabs, pair):
    with pytest.raises(CodeError, match=rf"^stabilizers do not commute: {pair}$"):
        new_code(2, [parse_pauli(s) for s in stabs])


def test_new_code_rejects_logicals():
    stabs = [parse_pauli(s) for s in ("ZZI", "IZZ")]
    with pytest.raises(CodeError, match="^logical anticommutes with a stabilizer$"):
        new_code(2, stabs, [parse_pauli("XXX"), parse_pauli("XII")])
    with pytest.raises(CodeError, match="^logicals disagree on p or n$"):
        new_code(2, stabs, [parse_pauli("XXX"), parse_pauli("ZIII")])
    code = new_code(2, stabs, [parse_pauli("XXX"), parse_pauli("ZII")])
    assert list(code.logical_gens) == [parse_pauli("XXX"), parse_pauli("ZII")]


def test_builtin_family_checks():
    for name in ("rotated_surface", "color_666", "color_488"):
        assert name in code_mod.BUILTIN_NAMES
        with pytest.raises(CodeError, match=f"^{name} requires a distance$"):
            code_mod.builtin(name)
        for d in (1, 2, 4):
            with pytest.raises(CodeError, match="^distance must be odd and >= 3$"):
                code_mod.builtin(name, d)
    with pytest.raises(CodeError, match="unknown built-in code 'nope'"):
        code_mod.builtin("nope")


def test_builtin_family_qubit_cap():
    """Each family's qubit formula matches its codes, and a distance over the cap builds nothing."""
    for name, (_, qubits) in code_mod._FAMILIES.items():
        for d in (3, 5, 7):
            assert code_mod.builtin(name, d).n == qubits(d)
    # the first distance of each family over 1024 qubits
    for name, d, n in (("rotated_surface", 33, 1089), ("color_666", 37, 1027), ("color_488", 33, 1057)):
        assert n > code_mod.MAX_BUILTIN_QUBITS >= code_mod._FAMILIES[name][1](d - 2)
        with pytest.raises(CodeError, match=f"^{name} at distance {d} has {n} qubits, over 1024$"):
            code_mod.builtin(name, d)


def test_builtin_fixed_code_rejects_a_distance():
    with pytest.raises(CodeError, match="^steane takes no distance$"):
        code_mod.builtin("steane", 5)
    assert code_mod.builtin("steane", None).n == 7


def test_normalizer_and_logicals():
    for name in ("five_one_three", "steane"):
        code = code_mod.builtin(name)
        assert len(code.logical_gens) == 2 * code.k
        for g in code.logical_gens:
            for s in code.stabilizers:
                assert sym_inner(s, g) == 0
        # logicals pair into (X, Z) partners with unit symplectic product
        for j in range(code.k):
            a, b = code.logical_gens[2 * j], code.logical_gens[2 * j + 1]
            assert sym_inner(a, b) % code.p == 1


def _reference_logicals(norm_rows: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """The pairwise symplectic Gram-Schmidt that the matrix form replaced; a test oracle."""
    n = norm_rows.shape[1] // 2

    def inner(u, v):
        return int((u[:n] @ v[n:] - u[n:] @ v[:n]) % p)

    pool = list(norm_rows)
    out: list[np.ndarray] = []
    while len(out) < 2 * k:
        i, j, c = next(
            (i, j, inner(pool[i], pool[j]))
            for i in range(len(pool))
            for j in range(i + 1, len(pool))
            if inner(pool[i], pool[j])
        )
        u, v = pool[i], pool[j] * ffield.inv_mod(c, p) % p
        pool = [(w - inner(w, v) * u + inner(w, u) * v) % p for t, w in enumerate(pool) if t not in (i, j)]
        out += [u, v]
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_logical_extraction_matches_pairwise_reference(p):
    rng = np.random.default_rng(p)
    for n, m in ((5, 2), (6, 3), (7, 3)):
        code = new_code(p, random_commuting_gens(rng, n, m, p))
        norm_rows = ffield.kernel(commutation_matrix(list(code.stabilizers)), p)
        want = _reference_logicals(norm_rows, p, code.k)
        assert [g.symplectic().tolist() for g in code.logical_gens] == [w.tolist() for w in want]


def test_css_split():
    code = code_mod.builtin("steane")
    x_part, z_part = css_split(code)
    assert x_part.axis == "X" and z_part.axis == "Z"
    for g in x_part.checks:
        assert not g.z.any()
    for g in z_part.checks:
        assert not g.x.any()
    with pytest.raises(CodeError):
        css_split(code_mod.builtin("five_one_three"))


def test_permute_round_trip():
    code = code_mod.builtin("steane")
    order = [3, 1, 2, 7, 6, 5, 4]
    moved = permute(code, order)
    inverse = [0] * 7
    for i, q in enumerate(order):
        inverse[q - 1] = i + 1
    back = permute(moved, inverse)
    from qtrellis.pauli import format_pauli

    assert [format_pauli(g) for g in back.stabilizers] == [
        format_pauli(g) for g in code.stabilizers
    ]
    with pytest.raises(CodeError):
        permute(code, [1, 1, 2, 3, 4, 5, 6])


def test_greedy_numbering_never_worse():
    for code in (
        code_mod.builtin("rotated_surface", 3),
        code_mod.builtin("color_666", 3),
    ):
        scrambled = permute(code, list(np.random.default_rng(3).permutation(code.n) + 1))
        base = profile(scrambled.normalizer_tof()).total_edges
        order = greedy_numbering(scrambled)
        improved = profile(permute(scrambled, order).normalizer_tof()).total_edges
        assert improved <= base


def test_greedy_numbering_matches_set_reference(monkeypatch):
    """Every seed's order, and the winner, equal the set-based search's."""
    with monkeypatch.context() as m:
        # the color families built in their construction order
        m.setattr(code_mod, "greedy_numbering", lambda c: list(range(1, c.n + 1)))
        codes = [code_mod.builtin(f, d) for f in ("color_666", "color_488") for d in (3, 5)]
    for name in ("five_one_one", "five_one_three", "steane", "codetable_20_10_4"):
        codes.append(code_mod.builtin(name))
    codes += [code_mod.builtin("rotated_surface", d) for d in (3, 5)]
    rng = np.random.default_rng(6)
    for n, m_gens in ((4, 2), (5, 3), (5, 4), (6, 3)):
        codes.append(new_code(3, random_commuting_gens(rng, n, m_gens, 3)))
    scored: list[list[int]] = []
    real_permute = code_mod.permute

    def recording_permute(code, order):
        scored.append(list(order))
        return real_permute(code, order)

    monkeypatch.setattr(code_mod, "permute", recording_permute)
    for code in codes:
        scored.clear()
        got = greedy_numbering(code)
        got_scored = list(scored)
        scored.clear()
        assert got == reference_greedy_numbering(code)
        assert got_scored == scored
        assert len(scored) == code.n + 1


# ---------------------------------------------------------------------------
# file format and bundled codes


def test_code_file_round_trip():
    code = code_mod.builtin("five_one_three")
    text = write_code_file(code)
    again = parse_code_file(text)
    assert again.p == code.p and again.n == code.n and again.k == code.k
    assert [str(g) for g in again.stabilizers] == [str(g) for g in code.stabilizers]


def test_code_file_symplectic_format():
    text = "2 5 1\nSYMPLECTIC\n" + "\n".join(
        ",".join(str(v) for v in np.concatenate([g.x, g.z]))
        for g in (parse_pauli(s) for s in FIVE_ONE_THREE)
    )
    code = parse_code_file(text)
    assert (code.n, code.k) == (5, 1)


def test_codetable_codes_parse():
    expect = {
        "codetable_20_3_6": (20, 3, 6),
        "codetable_20_4_6": (20, 4, 6),
        "codetable_20_10_4": (20, 10, 4),
        "codetable_20_13_3": (20, 13, 3),
    }
    for name, (n, k, d) in expect.items():
        code = code_mod.builtin(name)
        assert (code.p, code.n, code.k) == (2, n, k)
        assert (code.name, code.distance) == (name, d)
        assert len(code.stabilizers) == n - k
