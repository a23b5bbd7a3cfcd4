"""The benchmark's modules import everything they use from the library and read live trellis fields."""
from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("decoder", ["css", "full"])
def test_one_round_of_a_workload_calls_the_library_without_a_failed_operation(monkeypatch, decoder):
    """A one-code round, its decomposed queries, the traced probe and the reference checks all pass.

    Every library name and signature the benchmark calls is exercised:
    build, serialization, Monte Carlo, ``exact_rate`` and both query paths.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    code = workloads.Code("steane", "steane", None, decoder, 3, ("depolarizing", (0.05,), 256), ("depolarizing", (0.05,)))
    workload = workloads.Workload(
        "steane", (code,), ("depolarizing", 0.05), queries_per_round=20, query_batches=1, round_seconds=1.0, store=True
    )
    run = workloads.Run(workload, seed=1, seconds=1.0, tracer=spans.Tracer(True))
    run.run()
    run.decomposed_queries(5)
    run.probe()
    run.check_deferred()
    assert len(run.ops) == 23
    assert [(op.kind, op.reasons) for op in run.ops if op.failed] == []
