#!/usr/bin/env python
"""Checkpoint-overhead benchmark: what does crash tolerance cost?

Runs PageRank on a seeded power-law graph with no checkpointing (the
baseline), then with ``checkpoint_every`` ∈ {1, 5}, timing best-of-N
real wall-clock end-to-end and measuring the snapshot footprint on
disk.  It also times a resume from the mid-run snapshot, and verifies
(not just times) that the resumed run is bit-identical to the baseline
before reporting anything — a benchmark of a wrong resume would be
meaningless.  Results land in ``BENCH_checkpoint.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py            # full
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --check-overhead 0.5

``--check-overhead X`` exits nonzero if checkpointing every 5th
superstep costs more than fraction ``X`` of the baseline wall (e.g.
``0.5`` = +50%); the every-superstep cadence is reported but not gated
— it is the pathological worst case, not the recommended setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.apps import make_program  # noqa: E402
from repro.bsp import BSPEngine, build_distributed_graph  # noqa: E402
from repro.checkpoint import list_snapshots  # noqa: E402
from repro.graph import generate_graph  # noqa: E402
from repro.partition import DBHPartitioner  # noqa: E402

FULL_CONFIG = dict(vertices=100_000, parts=4, pagerank_iters=30, repeats=3)
QUICK_CONFIG = dict(vertices=8_000, parts=2, pagerank_iters=12, repeats=2)


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _identical(a, b) -> bool:
    return (
        a.num_supersteps == b.num_supersteps
        and np.array_equal(a.values, b.values, equal_nan=True)
        and a.total_messages == b.total_messages
        and a.comp == b.comp
        and a.comm == b.comm
    )


def run_benchmark(config, workdir: str) -> dict:
    graph = generate_graph(
        "powerlaw", vertices=config["vertices"], seed=7, name="bench-ckpt"
    )
    dgraph = build_distributed_graph(DBHPartitioner().partition(graph, config["parts"]))
    iters = config["pagerank_iters"]

    def pagerank():
        return make_program("PR", graph, pagerank_iters=iters)

    def best_of(thunk):
        walls = []
        result = None
        for _ in range(config["repeats"]):
            t0 = time.perf_counter()
            result = thunk()
            walls.append(time.perf_counter() - t0)
        return result, min(walls)

    baseline_run, baseline_wall = best_of(
        lambda: BSPEngine().run(dgraph, pagerank())
    )

    scenarios = {}
    for every in (1, 5):
        root = os.path.join(workdir, f"every-{every}")

        def checkpointed(root=root, every=every):
            shutil.rmtree(root, ignore_errors=True)
            return BSPEngine(
                checkpoint_dir=root, checkpoint_every=every, checkpoint_keep=None
            ).run(dgraph, pagerank())

        ck_run, ck_wall = best_of(checkpointed)
        if not _identical(ck_run, baseline_run):
            raise SystemExit(f"checkpointed run (every={every}) diverged from baseline")

        snapshots = list_snapshots(root)
        mid = snapshots[len(snapshots) // 2 - 1] if len(snapshots) > 1 else snapshots[0]
        t0 = time.perf_counter()
        resumed = BSPEngine().run(dgraph, pagerank(), resume_from=mid)
        resume_wall = time.perf_counter() - t0
        if not _identical(resumed, baseline_run):
            raise SystemExit(f"resumed run (every={every}) diverged from baseline")

        scenarios[f"every-{every}"] = {
            "wall_seconds": ck_wall,
            "overhead_fraction": (ck_wall - baseline_wall) / baseline_wall,
            "snapshots": len(snapshots),
            "snapshot_bytes_total": _dir_bytes(root),
            "snapshot_bytes_each": _dir_bytes(snapshots[-1]),
            "resume_from_superstep": resumed.resumed_from,
            "resume_wall_seconds": resume_wall,
            "resume_identical": True,
        }

    return {
        "graph": {
            "name": graph.name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "parts": config["parts"],
        "pagerank_iters": iters,
        "supersteps": baseline_run.num_supersteps,
        "repeats": config["repeats"],
        "baseline_wall_seconds": baseline_wall,
        "scenarios": scenarios,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small graph for CI smoke runs"
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_checkpoint.json"),
        help="report output path",
    )
    parser.add_argument(
        "--check-overhead", type=float, default=None, metavar="FRACTION",
        help="exit nonzero if every-5 checkpointing costs more than this "
        "fraction of the baseline wall (e.g. 0.5 = +50%%)",
    )
    args = parser.parse_args(argv)

    config = QUICK_CONFIG if args.quick else FULL_CONFIG
    workdir = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        report = run_benchmark(config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    payload = {
        "benchmark": "checkpoint",
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        **report,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    base = report["baseline_wall_seconds"]
    print(f"baseline: {base:.3f}s over {report['supersteps']} supersteps")
    for name, s in report["scenarios"].items():
        print(
            f"{name}: {s['wall_seconds']:.3f}s "
            f"({s['overhead_fraction'] * 100:+.1f}%), "
            f"{s['snapshots']} snapshots, "
            f"{s['snapshot_bytes_each'] / 1e6:.2f} MB each; "
            f"resume from step {s['resume_from_superstep']} "
            f"in {s['resume_wall_seconds']:.3f}s (bit-identical)"
        )
    print(f"report written to {args.out}")

    if args.check_overhead is not None:
        got = report["scenarios"]["every-5"]["overhead_fraction"]
        if got > args.check_overhead:
            print(
                f"FAIL: every-5 checkpoint overhead {got:.2%} exceeds "
                f"the {args.check_overhead:.2%} gate",
                file=sys.stderr,
            )
            return 1
        print(f"overhead gate ok: every-5 costs {got:.2%} <= {args.check_overhead:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
