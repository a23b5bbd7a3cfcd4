"""Self-test of the benchmark's reference code; runs in a few seconds.

    python3 -m pytest perfbench/test_reference.py -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
from qtrellis import builtin, build  # noqa: E402
from qtrellis.code import css_split  # noqa: E402


@pytest.mark.parametrize(
    "name, kind", [("five_one_three", "depolarizing"), ("steane", "dephasing_z")]
)
def test_perfect_codes_have_a_single_point_band(name, kind):
    band = ref.Band(builtin(name), kind)
    for p_phys in (0.01, 0.05, 0.1):
        lo, hi = band.rates(p_phys)
        assert 0 < lo == pytest.approx(hi, rel=1e-12, abs=0)


def test_surface3_depolarizing_band_has_ties():
    lo, hi = ref.Band(builtin("rotated_surface", 3), "depolarizing").rates(0.1)
    assert 0 < lo < hi < 0.2


def test_coset_probabilities_sum_to_one():
    band = ref.Band(builtin("rotated_surface", 3), "depolarizing")
    assert band.coset_probs(0.07).sum() == pytest.approx(1.0, abs=1e-12)


def test_steane_normalizer_trellis_has_2_to_the_8_paths():
    code = builtin("steane")
    assert ref.count_paths(build(code)) == 2**8 == ref.group_size(code, "full")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_published_surface_counts(d):
    code = builtin("rotated_surface", d)
    assert ref.totals(build(code)) == ref.PUBLISHED_TOTALS[("rotated_surface", d, "full")]
    x_part, z_part = css_split(code)
    for part, label in ((x_part, "x"), (z_part, "z")):
        t = build(part)
        assert ref.totals(t) == ref.PUBLISHED_TOTALS[("rotated_surface", d, label)]
        assert ref.count_paths(t) == ref.group_size(code, label)


def test_stabilizer_membership_and_syndromes():
    code = builtin("five_one_three")
    checks = ref.CheckMatrices(code)
    assert checks.normalizer.shape == (code.n + code.k, 2 * code.n)
    rng = np.random.default_rng(0)
    x, z = checks.random_stabilizer(rng)
    assert checks.is_stabilizer(x, z)
    assert not checks.syndrome_of(x, z).any()
    # a logical operator has zero syndrome but is not a stabilizer
    logical = next(v for v in checks.normalizer if not checks.is_stabilizer(v[: code.n], v[code.n :]))
    assert not checks.syndrome_of(logical[: code.n], logical[code.n :]).any()
    single = np.zeros(code.n, dtype=np.int64)
    single[2] = 1
    assert checks.syndrome_of(single, 0 * single).any()


def test_radius_bound_limits():
    assert ref.radius_bound(9, 0.05, 9) == pytest.approx(0.0, abs=1e-12)
    assert ref.radius_bound(9, 0.05, 0) == pytest.approx(1.0)
