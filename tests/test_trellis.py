"""Trellis construction, shifting, products, census, validation, serialization."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrellis import code as code_mod
from qtrellis import ffield
from qtrellis.code import TrellisProfile, css_split, profile
from qtrellis.decode import DecodeError, decode, pure_error, weights_from_channel
from qtrellis.pauli import PauliString, from_symplectic, identity, mul, parse_pauli, syndrome
from qtrellis.trellis import (
    CapacityError,
    Trellis,
    TrellisError,
    TrellisLayer,
    TrellisSection,
    build,
    census,
    deserialize,
    enumerate_paths,
    product,
    serialize,
    shift,
    to_json,
    validate,
)

from conftest import group_elements, random_commuting_gens, reference_build


def trivial_trellis(p: int, n: int) -> Trellis:
    """The single-path identity trellis (the product unit)."""
    prof = TrellisProfile(
        p, n, 0,
        (0,) * (n + 1), (0,) * (n + 1), (1,) * (n + 1),
        (1,) * n, (1,) * n, (1,) * n, ((0, 0),) * n,
    )
    layers = tuple(
        TrellisLayer(p, 1, np.zeros((0, 0), dtype=np.int64), (), None)
        for _ in range(n + 1)
    )
    zero = np.zeros(1, dtype=np.int64)
    sections = tuple(
        TrellisSection(p, zero, zero, np.zeros((1, 2), dtype=np.int64))
        for _ in range(n)
    )
    return Trellis(p, n, layers, sections, prof, np.zeros((2 * n, 0), dtype=np.int64))


@pytest.fixture(scope="module")
def five_one_three():
    return code_mod.builtin("five_one_three")


@pytest.fixture(scope="module")
def t513(five_one_three):
    return build(five_one_three)


# ---------------------------------------------------------------------------
# construction


def test_build_five_one_three_counts(t513):
    assert tuple(layer.size for layer in t513.layers) == (1, 4, 16, 16, 4, 1)
    assert tuple(sec.size for sec in t513.sections) == (4, 16, 64, 16, 4)
    assert validate(t513) == []


def test_build_matches_profile_for_builtins():
    for code in (
        code_mod.builtin("five_one_one"),
        code_mod.builtin("steane"),
        code_mod.builtin("rotated_surface", 3),
        code_mod.builtin("color_666", 3),
        code_mod.builtin("color_488", 3),
    ):
        t = build(code)
        prof = profile(code.normalizer_tof())
        assert tuple(layer.size for layer in t.layers) == prof.v_count
        assert tuple(sec.size for sec in t.sections) == prof.e_count
        assert validate(t) == []


def test_build_depends_only_on_the_group(rng):
    """Any generating set of one group builds the same trellis, byte for byte."""

    def resample(gens, p):
        m = len(gens)
        while True:
            A = rng.integers(0, p, size=(m, m))
            if ffield.rank(A, p) == m:
                break
        rows = np.array([g.symplectic() for g in gens])
        return [from_symplectic(v, p) for v in A @ rows % p]

    for p, n, m in [(2, 6, 4), (2, 7, 5), (3, 5, 3), (3, 6, 4)]:
        gens = random_commuting_gens(rng, n, m, p)
        base = serialize(build(gens))
        for _ in range(3):
            assert serialize(build(resample(gens, p))) == base
    for part in css_split(code_mod.builtin("rotated_surface", 3)):
        base = serialize(build(part))
        for _ in range(3):
            assert serialize(build(replace(part, gens=tuple(resample(part.gens, 2))))) == base


def _random_css_code(rng, p: int, n: int, rx: int, rz: int):
    """A random qudit CSS code: X checks from random rows, Z checks from their kernel."""
    while True:
        hx = rng.integers(0, p, size=(rx, n))
        ker = ffield.kernel(hx, p)
        hz = rng.integers(0, p, size=(rz, ker.shape[0])) @ ker % p
        weights = np.count_nonzero(np.vstack([hx, hz]), axis=1)
        if ffield.rank(hx, p) == rx and ffield.rank(hz, p) == rz and weights.min() >= 2:
            break
    zero = np.zeros(n, dtype=np.int64)
    checks = [PauliString(p, row, zero) for row in hx] + [PauliString(p, zero, row) for row in hz]
    return code_mod.new_code(p, checks)


def test_build_matches_the_sorting_reference():
    """Layers and sorted edges equal those of per-layer RREFs plus a lexsort, for p = 3, 5, 7.

    The golden digests cover qubit built-ins only.
    """
    local = np.random.default_rng(31)
    sources = []
    for p, n in ((3, 6), (5, 5), (7, 4)):
        for m in range(1, n):
            gens = random_commuting_gens(local, n, m, p)
            sources.append(gens)
            # a code needs stabilizers of weight >= 2
            if min(np.count_nonzero(g.x | g.z) for g in gens) >= 2:
                sources.append(code_mod.new_code(p, gens))
        sources += css_split(_random_css_code(local, p, n, 1, 2))
    assert len(sources) >= 24
    for source in sources:
        t = build(source)
        layers, sections = reference_build(source)
        assert len(t.layers) == len(layers) and len(t.sections) == len(sections)
        for layer, (basis, pivots) in zip(t.layers, layers):
            assert np.array_equal(layer.basis, basis) and layer.pivots == pivots
        for sec, (src, tgt, lab) in zip(t.sections, sections):
            assert np.array_equal(sec.source, src)
            assert np.array_equal(sec.target, tgt)
            assert np.array_equal(sec.label, lab)


def test_path_bijection(t513, five_one_three):
    elements = group_elements(
        list(five_one_three.stabilizers) + list(five_one_three.logical_gens)
    )
    paths = list(enumerate_paths(t513))
    assert len(paths) == len(elements) == 64
    assert set(paths) == elements


def test_path_count_single_generator():
    code = code_mod.new_code(2, [parse_pauli("XX")])
    t = build(code)
    paths = list(enumerate_paths(t))
    # the normalizer trellis carries all p**(n+k) strings commuting with XX
    assert len(paths) == 2 ** (code.n + code.k) == 8
    assert len(set(paths)) == 8


def _visited_vertices(t: Trellis, P: PauliString) -> list[int]:
    """The vertex a path visits at every depth; each step must follow exactly one edge."""
    path = [0]
    for i, sec in enumerate(t.sections):
        hit = (sec.source == path[-1]) & (sec.label[:, 0] == P.x[i]) & (sec.label[:, 1] == P.z[i])
        assert hit.sum() == 1
        path.append(int(sec.target[hit][0]))
    return path


def test_vertex_labels_are_partial_syndromes(t513, five_one_three, rng):
    """Every visited vertex carries the path's partial syndrome against the label checks."""
    from qtrellis.pauli import commutation_matrix, partial_syndrome, sym_inner

    gens = random_commuting_gens(rng, 5, 3, 3)
    complement = [from_symplectic(v, 3) for v in ffield.kernel(commutation_matrix(gens), 3)]
    assert len(complement) == 2 * 5 - 3
    assert all(sym_inner(c, g) == 0 for c in complement for g in gens)
    cases = [(t513, list(five_one_three.stabilizers)), (build(gens), complement)]
    for t, checks in cases:
        labels = [layer.labels() for layer in t.layers]
        for P in enumerate_paths(t):
            for i, v in enumerate(_visited_vertices(t, P)):
                sigma = partial_syndrome(checks, P, i) % t.p
                assert np.array_equal(labels[i][v], sigma)


def test_capacity_refusal():
    with pytest.raises(CapacityError):
        build(code_mod.builtin("rotated_surface", 3), max_edges=10)


def test_build_order_argument(five_one_three):
    t = build(five_one_three, order=[5, 4, 3, 2, 1])
    assert validate(t) == []
    assert t.total_edges == build(five_one_three).total_edges  # cyclic symmetry
    gens = [parse_pauli("XXI"), parse_pauli("IZZ")]
    swapped = build(gens, order=[3, 2, 1])
    assert set(enumerate_paths(swapped)) == group_elements([parse_pauli("IXX"), parse_pauli("ZZI")])
    for bad in ([1, 1, 3], [0, 1, 2], [1, 2]):
        with pytest.raises(TrellisError, match="permutation"):
            build(gens, order=bad)
    with pytest.raises(TrellisError, match="permute the generators"):
        build(code_mod.to_tof(gens), order=[3, 2, 1])


# SHA-256 of serialize(build(...)) for the normalizer and both CSS parts of
# the built-ins; the [[20,3,6]] and [[20,4,6]] normalizers and the d = 9
# surface code (about 3.5 s together) are left out for time
_GOLDEN = {
    ("codetable_20_10_4", None, "full"): "168a8bb2cf0c3983655a40ace121e40f32cb72090396d82cb1befa0ef284bb3f",
    ("codetable_20_13_3", None, "full"): "c39ebfb1b0a97de2a8e2992d96c66a6e18a4c0eaa6b9f6b6105f7f516120119b",
    ("color_488", 3, "full"): "acaea50c408f2476a5ce54c61b8c2fdb44aa9079fc2448c0444d11de2e969064",
    ("color_488", 3, "x"): "aec458f0f11f8cd90fe16a8f42d5ec1c93e97e1bf5f5510d3b04a9059d173320",
    ("color_488", 3, "z"): "5b16a763486e311ed84dd52d86d28f744c6af645faa65e80afdc8697320ba2fb",
    ("color_488", 5, "full"): "1f9bfcbf11ec4b51982ffd55b7d1bff96eab301df14571acb6101054c473074f",
    ("color_488", 5, "x"): "0fb9443da44722237f9b28eae611ad666e7c4096c3afadcc56c32fa8e76e29f6",
    ("color_488", 5, "z"): "b00bcbe98d8872ace0e2606d1e23f0d89bd342372f146013880d2cbdb0922725",
    ("color_488", 7, "x"): "c1f6f152250f8b060311e00463a00395c0526ce3e1cc61180918e59856e0fbee",
    ("color_488", 7, "z"): "619f392f63bfa460c72551c478d78162ff67da87df35d6826de75dc523bfe0b4",
    ("color_666", 3, "full"): "9698290ebfe8da5b5ae82d27052afa4d83ab2ba8b97d19df88780fc4eb979ce4",
    ("color_666", 3, "x"): "2b51a27869333cf20e6a937be0c1011b45c169c6431bf2e707d9b598494a6762",
    ("color_666", 3, "z"): "dfc0944f6675be883aea56eed85d30fe016a126620535371e5b178fa5e477bc0",
    ("color_666", 5, "full"): "8ddce6698afa720911fc3138cf82ac7cceeaf1bb6b14d49e573078ef0d2525c9",
    ("color_666", 5, "x"): "1d26aef2c856bcad2f498f76546fd76c72e098707f9500c9ec9469db7f7a8c84",
    ("color_666", 5, "z"): "a3bdbb176b8c73fc38aead792a02693a4fad5d4168eee430ea00760ee16ea00f",
    ("color_666", 7, "x"): "bd60921d5d9d500f77b362c0b4511f48c9f9a9daea542c7da2883f4ca562b35b",
    ("color_666", 7, "z"): "c5b793364d7fe5370b0c179a9b73fc28011c4cd07e4249c59a2ed446270c2915",
    ("five_one_one", None, "full"): "a26875b19d06bd1644c837a59e8d8412eac17ff160c375e46ee8d96b36eb4e84",
    ("five_one_three", None, "full"): "a64ced9efc448a2494491f86e2810b3488cba4b5a2c532d4d7d6629b034b0fc9",
    ("rotated_surface", 3, "full"): "bb9a3be62b2708b6032b91633256138371357313f92cd3d2f40bf2ef5a7c8480",
    ("rotated_surface", 3, "x"): "920934813755c0dbb0087644f554c11d45a450d5bfd83fd548e4ece564942e08",
    ("rotated_surface", 3, "z"): "3e39ad5df8d0e9423a6f6fa2ea481df90f8b572754dd687bca2e67cebc2cf370",
    ("rotated_surface", 5, "full"): "da36c0337dbac7d868a0645b70160b6178088d056ccc64440fb20417b77b4bc6",
    ("rotated_surface", 5, "x"): "bd513e49a987f4de5aec07c15a0bd1b9a91287c2b0ff4d6ea2991552372c220d",
    ("rotated_surface", 5, "z"): "181f558c05bbed9b867f7b65f1d6414a590db92d62939c35e2f0d3b4fd682edf",
    ("rotated_surface", 7, "x"): "6cc1b4f882042579b2cd0d3d7aa82aab30af5f94cd10228e8c576a3ee4bb819e",
    ("rotated_surface", 7, "z"): "a17bd29cc620202b932c71ee36e641c1f90481417c4293b44bf5f6731701fa67",
    ("steane", None, "full"): "d6dce471882c133ae41985e7bcad6eaad6699ea2150b1844c8c906479673e102",
    ("steane", None, "x"): "c1b43af7822d2af3d794d7a22d805d0da04f53ef0a00d0c752748d7b26487827",
    ("steane", None, "z"): "2b7c0e3f92600c07bdeb6beb0a7fa754a9805afc43c94cb5a08666cf46b1ddf7",
}


@pytest.mark.parametrize("name,d,part", sorted(_GOLDEN, key=str))
def test_build_bytes_match_golden_digests(name, d, part):
    code = code_mod.builtin(name, d)
    source = code if part == "full" else css_split(code)["xz".index(part)]
    assert hashlib.sha256(serialize(build(source))).hexdigest() == _GOLDEN[name, d, part]


# ---------------------------------------------------------------------------
# shifting


def test_shift_identity_is_noop(t513):
    s = shift(t513, identity(5, 2))
    assert all(
        np.array_equal(a.label, b.label)
        for a, b in zip(s.sections, t513.sections)
    )
    assert all(
        np.array_equal(a.labels(), b.labels())
        for a, b in zip(s.layers, t513.layers)
    )


def test_shift_counts_invariant(t513, five_one_three, rng):
    for _ in range(5):
        T = PauliString(
            2, rng.integers(0, 2, 5).astype(np.int64), rng.integers(0, 2, 5).astype(np.int64)
        )
        s = shift(t513, T)
        assert s.total_vertices == t513.total_vertices
        assert s.total_edges == t513.total_edges
        assert all(
            np.array_equal(a.source, b.source) and np.array_equal(a.target, b.target)
            for a, b in zip(s.sections, t513.sections)
        )


def test_shift_offsets_are_depth_map_products(t513, rng):
    """One cumulative sum gives the offsets ``sym @ label_maps[i]`` of every depth."""
    gens = random_commuting_gens(rng, 6, 4, 3)
    for t in (t513, build(gens), build(css_split(code_mod.builtin("steane"))[0])):
        maps = t.label_maps
        assert len(maps) == t.n + 1
        for _ in range(4):
            T = PauliString(t.p, rng.integers(0, t.p, t.n), rng.integers(0, t.p, t.n))
            for i, layer in enumerate(shift(t, T).layers):
                assert np.array_equal(layer.offset, T.symplectic() @ maps[i] % t.p)


def test_shift_paths_are_coset(t513, five_one_three):
    s = np.array([1, 0, 1, 0])
    T = pure_error(five_one_three, s)
    shifted = shift(t513, T)
    gens = list(five_one_three.stabilizers)
    for P in enumerate_paths(shifted):
        assert np.array_equal(syndrome(gens, P) % 2, s)


def test_fig1_parallel_edges_and_shift():
    code = code_mod.builtin("five_one_one")
    t = build(code)
    last = t.sections[-1]
    pairs: dict[tuple[int, int], int] = {}
    for u, v in zip(last.source.tolist(), last.target.tolist()):
        pairs[(u, v)] = pairs.get((u, v), 0) + 1
    assert set(pairs.values()) == {2}
    # shifting by IIIZZ only touches the labels of sections 4 and 5
    T = parse_pauli("IIIZZ")
    shifted = shift(t, T)
    for i in range(3):
        assert np.array_equal(shifted.sections[i].label, t.sections[i].label)
    for i in (3, 4):
        assert not np.array_equal(shifted.sections[i].label, t.sections[i].label)


# ---------------------------------------------------------------------------
# products


def test_product_with_trivial_is_identity(t513):
    unit = trivial_trellis(2, 5)
    prod = product(t513, unit)
    assert tuple(layer.size for layer in prod.layers) == tuple(
        layer.size for layer in t513.layers
    )
    for a, b in zip(prod.sections, t513.sections):
        assert np.array_equal(a.source, b.source)
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.label, b.label)


def test_css_product_equals_full_build():
    for name, d in (("rotated_surface", 3), ("color_666", 3)):
        code = code_mod.builtin(name, d)
        x_part, z_part = css_split(code)
        tx = build(x_part)
        tz = build(z_part)
        full = build(code)
        prod = product(tx, tz)
        assert tuple(l.size for l in prod.layers) == tuple(l.size for l in full.layers)
        assert tuple(s.size for s in prod.sections) == tuple(s.size for s in full.sections)
        # identical edge sets, not just equal counts
        for sp, sf in zip(prod.sections, full.sections):
            ep = set(zip(sp.source.tolist(), sp.target.tolist(), map(tuple, sp.label.tolist())))
            ef = set(zip(sf.source.tolist(), sf.target.tolist(), map(tuple, sf.label.tolist())))
            assert ep == ef
        # degree product law, layer by layer
        px, pz, pf = tx.profile, tz.profile, full.profile
        for i in range(code.n):
            assert pf.deg_in[i] == px.deg_in[i] * pz.deg_in[i]
            assert pf.deg_out[i] == px.deg_out[i] * pz.deg_out[i]


def test_per_generator_product_equals_direct_build():
    for name in ("five_one_three", "steane"):
        code = code_mod.builtin(name)
        gens = list(code.normalizer_tof().gens)
        acc = build([gens[0]])
        for g in gens[1:]:
            acc = product(acc, build([g]))
        direct = build(code)
        # same minimal sizes and the same path set imply isomorphism
        assert tuple(l.size for l in acc.layers) == tuple(l.size for l in direct.layers)
        assert tuple(s.size for s in acc.sections) == tuple(s.size for s in direct.sections)
        assert set(enumerate_paths(acc)) == set(enumerate_paths(direct))


def test_improper_product_refused():
    # a trellis with parallel edges times itself collapses edge pairs
    t = build(code_mod.builtin("five_one_one"))
    with pytest.raises(TrellisError, match="improper at section"):
        product(t, t)


def test_product_sandwich_bound():
    """Edge totals of CSS builds sit between the part sum and part product."""
    for name, d in (("rotated_surface", 3), ("rotated_surface", 5), ("color_666", 3), ("steane", None)):
        code = code_mod.builtin(name, d) if d else code_mod.builtin(name)
        x_part, z_part = css_split(code)
        ex = profile(x_part.tof()).total_edges
        ez = profile(z_part.tof()).total_edges
        ef = profile(code.normalizer_tof()).total_edges
        n, p = code.n, code.p
        assert ex + ez <= ef <= ex * ez - p * p * n * (n - 1)


# ---------------------------------------------------------------------------
# census


def test_census_five_one_three(t513):
    cen = census(t513)
    assert cen.mergers == cen.expansions == t513.total_edges - t513.total_vertices + 1
    assert cen.mergers == 104 - 42 + 1 == 63


def test_census_surface_d3():
    t = build(code_mod.builtin("rotated_surface", 3))
    cen = census(t)
    assert cen.mergers == cen.expansions == 152 - 74 + 1 == 79


def test_census_single_path():
    cen = census(trivial_trellis(2, 4))
    assert set(cen.sections) == {(0, 0, 0)}
    assert cen.mergers == cen.expansions == 0


def test_census_all_builtins():
    for code in (
        code_mod.builtin("five_one_one"),
        code_mod.builtin("steane"),
        code_mod.builtin("steane_level2"),
        code_mod.builtin("rotated_surface", 5),
        code_mod.builtin("color_488", 3),
        code_mod.builtin("codetable_20_13_3"),
    ):
        t = build(code)
        cen = census(t)
        assert cen.mergers == cen.expansions == t.total_edges - t.total_vertices + 1
        assert sum(cen.counts.values()) == code.n


# ---------------------------------------------------------------------------
# validation


def test_validate_detects_missing_edge(t513):
    sec = t513.sections[2]
    broken_sec = TrellisSection(2, sec.source[:-1], sec.target[:-1], sec.label[:-1])
    broken = replace(
        t513, sections=t513.sections[:2] + (broken_sec,) + t513.sections[3:]
    )
    assert validate(broken) != []


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip(t513):
    again = deserialize(serialize(t513))
    assert again.p == t513.p and again.n == t513.n
    for a, b in zip(again.layers, t513.layers):
        assert a.size == b.size
        assert np.array_equal(a.labels(), b.labels())
    for a, b in zip(again.sections, t513.sections):
        assert np.array_equal(a.source, b.source)
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.label, b.label)
    assert again.profile == t513.profile


def test_serialize_drop_labels(t513):
    again = deserialize(serialize(t513, include_labels=False))
    with pytest.raises(TrellisError):
        again.layers[1].labels()
    for a, b in zip(again.sections, t513.sections):
        assert np.array_equal(a.source, b.source)
        assert np.array_equal(a.label, b.label)


def test_serialize_truncated_stream(t513):
    blob = serialize(t513)
    with pytest.raises(TrellisError):
        deserialize(blob[: len(blob) // 2])
    with pytest.raises(TrellisError):
        deserialize(b"NOTATRELLIS")


def _with_label_map(t: Trellis, i: int, M: np.ndarray) -> bytes:
    """The v1 bytes of ``t`` with its stored depth map ``i`` replaced by ``M``."""
    blob = serialize(t)
    size = 2 * t.label_matrix.size  # int16 entries
    start = len(blob) - (t.n + 1 - i) * size
    return blob[:start] + M.astype(np.int16).tobytes() + blob[start + size :]


def test_v1_label_maps_are_prefix_masks_of_one_matrix(t513):
    """Format v1 stores n + 1 depth maps; the reader keeps the last after checking the rest."""
    maps = t513.label_maps
    n, L = t513.n, t513.label_matrix
    assert L.shape == (2 * n, 4) and len(maps) == n + 1
    for i in range(n + 1):
        assert not maps[i][i:n].any() and not maps[i][n + i :].any()
        assert np.array_equal(maps[i][:i], L[:i]) and np.array_equal(maps[i][n : n + i], L[n : n + i])
    assert np.array_equal(deserialize(serialize(t513)).label_matrix, L)
    for i in range(n):  # map i holds a site past depth i
        with pytest.raises(TrellisError, match=f"label map {i} is not"):
            deserialize(_with_label_map(t513, i, L))
    flipped = L.copy()
    flipped[0, 0] ^= 1  # a different last map no longer extends map 1
    with pytest.raises(TrellisError, match="label map 1 is not"):
        deserialize(_with_label_map(t513, n, flipped))


_STEANE = code_mod.builtin("steane")
_STEANE_TRELLIS = build(_STEANE)
_STEANE_BLOB = serialize(_STEANE_TRELLIS)


def _with_edge_entry(t: Trellis, i: int, field: str, j: int, value: int) -> bytes:
    """The serialized trellis with one entry of section i's edge array replaced."""
    sec = t.sections[i]
    arr = getattr(sec, field).copy()
    arr.reshape(-1)[j % arr.size] = value
    sections = list(t.sections)
    sections[i] = replace(sec, **{field: arr})
    return serialize(replace(t, sections=tuple(sections)))


@settings(max_examples=150, deadline=None)
@given(length=st.integers(0, len(_STEANE_BLOB) - 1))
def test_deserialize_rejects_truncation(length):
    with pytest.raises(TrellisError):
        deserialize(_STEANE_BLOB[:length])


@settings(max_examples=150, deadline=None)
@given(
    i=st.integers(0, 6),
    field=st.sampled_from(["source", "target", "label"]),
    j=st.integers(0, 10**6),
    delta=st.integers(1, 30000),  # labels are stored as int16
    negative=st.booleans(),
)
def test_deserialize_rejects_out_of_range_edges(i, field, j, delta, negative):
    """Sources outside their layer, unsorted or unbalanced targets, labels outside [0, p)."""
    t = _STEANE_TRELLIS
    sec = t.sections[i]
    if field == "target":  # any change breaks the sorted, uniform in-degree layout
        value = sec.target[j % sec.size] + (-delta if negative else delta)
    else:
        bound = t.layers[i].size if field == "source" else t.p
        value = -delta if negative else bound - 1 + delta
    with pytest.raises(TrellisError):
        deserialize(_with_edge_entry(t, i, field, j, value))


def test_deserialize_checks_the_stored_profile():
    """Layer and section sizes must be p**e for the exponents the profile implies."""
    t = _STEANE_TRELLIS
    past = list(t.profile.dim_past)
    for i in range(1, t.n):
        if past[i] < past[i + 1]:
            # still nondecreasing from 0 to dim, but layer i no longer fits
            bad = past[:i] + [past[i + 1]] + past[i + 1 :]
            blob = serialize(replace(t, profile=replace(t.profile, dim_past=tuple(bad))))
            with pytest.raises(TrellisError, match="does not match the profile"):
                deserialize(blob)
    future = (0,) + t.profile.dim_future[1:]  # does not start at dim
    with pytest.raises(TrellisError, match="dim_future"):
        deserialize(serialize(replace(t, profile=replace(t.profile, dim_future=future))))


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(len(b"QTRLS"), len(_STEANE_BLOB) - 1), xor=st.integers(1, 255))
def test_corrupted_trellis_fails_cleanly(pos, xor):
    """A corrupted byte ends in TrellisError on load, or in a decode that raises nothing else."""
    blob = bytearray(_STEANE_BLOB)
    blob[pos] ^= xor
    try:
        t = deserialize(bytes(blob))
    except TrellisError:
        return
    weights = weights_from_channel(("depolarizing", 0.1), 7)
    try:
        decode(_STEANE, t, np.array([0, 0, 1, 0, 1, 0]), weights)
    except (TrellisError, DecodeError):
        pass


def test_to_json(t513):
    import json

    doc = json.loads(to_json(t513))
    assert doc["p"] == 2 and doc["n"] == 5
    assert len(doc["sections"]) == 5
