#!/usr/bin/env python
"""Dynamic-graph benchmark: replication-factor drift under mutations.

Applying an edge-mutation batch incrementally with :mod:`repro.mutate`
(survivors keep their parts, only inserts pass through the seeded
assigner) must track a full repartition of the mutated graph.  For each
churn fraction the script reports ``rf_after / rf_full`` and the
incremental-vs-full wall time.

Usage::

    PYTHONPATH=src python benchmarks/bench_mutate.py              # full suite
    PYTHONPATH=src python benchmarks/bench_mutate.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_mutate.py --quick --check-drift 1.15

``--check-drift X`` exits nonzero if any incremental scenario's drift
exceeds ``X`` — the CI ``mutate-smoke`` job runs it so a change that
silently degrades incremental maintenance fails the build.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

#: The quick config is the CI acceptance graph (~100k directed edges).
CONFIGS = {
    "quick": dict(
        gen=dict(kind="powerlaw", vertices=13_000, min_degree=3, seed=42,
                 directed=True),
        parts=8,
    ),
    "full": dict(
        gen=dict(kind="powerlaw", vertices=40_000, min_degree=3, seed=42,
                 directed=True),
        parts=16,
    ),
}

CHURN_FRACTIONS = (0.01, 0.05, 0.10)


def churn_batch(graph, fraction, seed=7):
    """A mixed batch touching ``fraction`` of the edge set.

    Half the ops delete existing edges (distinct ids, so parallel
    copies are never over-deleted), half insert new ones — a tenth of
    the inserts grow the vertex set, mirroring real dynamic graphs.
    """
    from repro.mutate import MutationBatch

    rng = np.random.default_rng(seed)
    n_ops = max(2, int(graph.num_edges * fraction))
    n_delete = n_ops // 2
    n_insert = n_ops - n_delete
    batch = MutationBatch()
    for eid in np.sort(rng.choice(graph.num_edges, size=n_delete, replace=False)):
        batch.delete(int(graph.src[eid]), int(graph.dst[eid]))
    n = graph.num_vertices
    grown = 0
    for k in range(n_insert):
        u = int(rng.integers(0, n))
        if k % 10 == 0:
            v = n + grown
            grown += 1
        else:
            v = int(rng.integers(0, n))
            if v == u:
                v = (v + 1) % n
        batch.insert(u, v)
    return batch


def drift_sweep(graph, parts):
    """Incremental vs full repartition across churn fractions."""
    from repro.mutate import apply_mutations
    from repro.partition import StreamingEBVPartitioner

    base = StreamingEBVPartitioner().partition(graph, parts)
    rows = []
    for fraction in CHURN_FRACTIONS:
        batch = churn_batch(graph, fraction)
        t0 = time.perf_counter()
        out = apply_mutations(base, batch, repartition_threshold=1.0)
        incr_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = StreamingEBVPartitioner().partition(out.graph, parts)
        full_seconds = time.perf_counter() - t0
        from repro.partition import replication_factor

        rf_full = replication_factor(full)
        rows.append({
            "churn_fraction": fraction,
            "num_ops": len(batch),
            "mode": out.mode,
            "reassigned_edges": out.reassigned_edges,
            "rf_before": out.rf_before,
            "rf_after": out.rf_after,
            "rf_full": rf_full,
            "drift": out.rf_after / rf_full,
            "incremental_seconds": incr_seconds,
            "full_repartition_seconds": full_seconds,
            "speedup_vs_full": full_seconds / incr_seconds
            if incr_seconds > 0 else float("inf"),
        })
        print(f"churn={fraction:5.2%} ops={len(batch):6d} "
              f"rf_after={out.rf_after:.4f} rf_full={rf_full:.4f} "
              f"drift={rows[-1]['drift']:.4f} "
              f"incr={incr_seconds:6.3f}s full={full_seconds:6.3f}s "
              f"({rows[-1]['speedup_vs_full']:5.1f}x)")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="~100k-edge graph for CI smoke runs")
    parser.add_argument("--out", type=Path, default=Path("BENCH_mutate.json"))
    parser.add_argument("--check-drift", type=float, default=None, metavar="X",
                        help="exit 1 if any incremental drift exceeds X")
    args = parser.parse_args(argv)

    from repro.graph import generate_graph

    config = CONFIGS["quick" if args.quick else "full"]
    graph = generate_graph(**config["gen"])
    print(f"graph: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"parts={config['parts']} (directed)")

    drift_rows = drift_sweep(graph, config["parts"])

    payload = {
        "benchmark": "bench_mutate",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "graph": {
            **config["gen"],
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "parts": config["parts"],
        "churn_fractions": list(CHURN_FRACTIONS),
        "drift": drift_rows,
        "max_drift": max(r["drift"] for r in drift_rows),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    print(f"max drift across churn sweep: {payload['max_drift']:.4f}")

    if args.check_drift is not None:
        over = [r for r in drift_rows if r["drift"] > args.check_drift]
        if over:
            for r in over:
                print(f"FAIL: drift {r['drift']:.4f} at churn "
                      f"{r['churn_fraction']:.2%} exceeds "
                      f"{args.check_drift:.4f}", file=sys.stderr)
            return 1
        print(f"drift check passed (<= {args.check_drift:.4f} everywhere)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
