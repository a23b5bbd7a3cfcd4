"""Run one qtrellis benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload zonly-css --seed 1 --seconds 40 --trace 0

Run from the root of a qtrellis checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1``.  A full record (machine stamp, seeds, failed
operations, per-code figures and, when traced, every span) goes to
``perfbench/out/``.  ``--workload all`` runs the three workloads one after
another, each in a fresh process.
"""
from __future__ import annotations

import os

# one thread per process, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("zonly-css", "depol-full", "stored-query")
UNITS = {
    "setup_s": "s",
    "mc_samples_per_s": "samples/s",
    "exact_patterns_per_s": "patterns/s",
    "query_ms_mean": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


LAYER_UNITS = {
    "code.builtin_s": "s",
    "code.tof_s": "s",
    "code.css_split_ms": "ms",
    "trellis.build_s": "s",
    "trellis.build_edges_per_s": "edges/s",
    "trellis.edges": "count",
    "trellis.max_section_edges": "count",
    "trellis.serialize_s": "s",
    "trellis.deserialize_s": "s",
    "trellis.stored_mb": "MB",
    "sim.mc_s": "s",
    "sim.mc_edge_samples_per_s": "edge-samples/s",
    "sim.exact_s": "s",
    "decode.pure_error_ms": "ms",
    "decode.shift_ms": "ms",
    "decode.viterbi_ms": "ms",
    "decode.viterbi_ns_per_edge": "ns",
    "decode.verify_ms": "ms",
    "rss.after_setup_mb": "MB",
    "rss.after_mc_mb": "MB",
    "rss.after_exact_mb": "MB",
    "rss.after_query_mb": "MB",
}


def run_all(args) -> int:
    """Each workload in a fresh process; merged result keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtrellis" / "__init__.py").is_file():
        print(f"error: no qtrellis sources under {SRC}; run from a qtrellis checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    from spans import Tracer
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, Tracer(bool(args.trace)))
    run.run()
    e2e = run.end_to_end()
    layers = run.probe() if args.trace else None
    run.check_deferred()
    latencies = [x * 1e3 for r in run.records for x in r.latencies]
    failed = [op for op in run.ops if op.failed]
    unexpected = [op for op in failed if not (op.kind == "mc" and op.label in workload.known_fault)]
    for op in failed:
        tag = "known fault" if op not in unexpected else "FAILED"
        print(f"{tag}: {op.kind} {op.label} {op.detail}: {'; '.join(op.reasons)}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run.rounds,
        "stamp": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "seeds": {
            "workload": args.seed,
            "run_montecarlo": sorted({run.mc_seed(r, i) for r in range(run.rounds) for i in range(len(workload.codes))}),
            "queries": f"SeedSequence({args.seed}, spawn_key=(round, 1))",
        },
        "attempted": len(run.ops),
        "failed_operations": [
            {"kind": op.kind, "code": op.label, "detail": op.detail, "reasons": op.reasons} for op in failed
        ],
        "end_to_end": e2e,
        # the median is recorded but not a metric: on a host whose speed
        # switches between regimes it jumps between their latencies
        "query_latency_ms": {
            f"p{q}": float(np.percentile(latencies, q)) for q in (10, 50, 90)
        } | {"count": len(latencies)},
    }
    if args.trace:
        record["per_layer"] = layers
        record["per_code"] = run.per_code()
        record["trace"] = run.tracer.export()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    metrics = layers if args.trace else e2e
    units = LAYER_UNITS if args.trace else UNITS
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": len(run.ops),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
