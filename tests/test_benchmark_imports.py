"""The benchmark's modules import everything they use from the library and read live trellis fields."""
from __future__ import annotations

import importlib
import json
from pathlib import Path

from qtrellis import code as code_mod
from qtrellis.trellis import build, deserialize, serialize

from conftest import with_edge_entry

ROOT = Path(__file__).resolve().parent.parent


def test_workloads_import_and_match_the_declared_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_reference_trellis_readers_see_a_stored_trellis(monkeypatch):
    """``same_trellis`` and ``count_paths`` read layer, section and trellis fields at run time."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    reference = importlib.import_module("reference")
    code = code_mod.builtin("rotated_surface", 3)
    for part, source in zip(("full", "x", "z"), (code, *code_mod.css_split(code))):
        t = build(source)
        assert reference.same_trellis(t, deserialize(serialize(t)))
        label = int(t.sections[2].flat_label[0])
        assert not reference.same_trellis(t, deserialize(with_edge_entry(t, 2, "label", 0, label ^ 1)))
        assert reference.count_paths(t) == reference.group_size(code, part)
