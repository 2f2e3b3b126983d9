"""Bench A4 — streaming/distributed EBV vs the offline algorithm.

The paper's future-work directions, quantified: how much replication
does one-pass streaming (with online degree estimates) or sharded
execution (with stale state between syncs) cost relative to offline
EBV-sort?
"""

from repro.partition import (
    EBVPartitioner,
    ShardedEBVPartitioner,
    StreamingEBVPartitioner,
    partition_metrics,
)
from repro.tables import render_table


def test_ablation_streaming(benchmark, config, artifact_sink):
    graph = config.graphs()["twitter"]
    p = 16

    def sweep():
        rows = []
        variants = [
            ("EBV offline", EBVPartitioner()),
            ("EBV offline unsort", EBVPartitioner(sort_order="input")),
            ("EBV stream w=1", StreamingEBVPartitioner(chunk_size=1)),
            ("EBV stream w=256", StreamingEBVPartitioner(chunk_size=256)),
            ("EBV stream w=4096", StreamingEBVPartitioner(chunk_size=4096)),
            ("EBV sharded k=4 s=64", ShardedEBVPartitioner(4, sync_interval=64)),
            ("EBV sharded k=4 s=4096", ShardedEBVPartitioner(4, sync_interval=4096)),
        ]
        for label, partitioner in variants:
            m = partition_metrics(partitioner.partition(graph, p))
            rows.append((label, f"{m.replication:.3f}", f"{m.edge_imbalance:.3f}",
                         f"{m.vertex_imbalance:.3f}"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = render_table(
        ["Variant", "RF", "EdgeImb", "VertImb"],
        rows,
        title=f"Ablation A4 — streaming/sharded EBV (twitter stand-in, p={p})",
    )
    artifact_sink("ablation_streaming", text)

    rf = {label: float(r) for label, r, _, _ in rows}
    # Offline sorted EBV is the floor; every online variant pays a
    # premium but stays within 1.6x.
    floor = rf["EBV offline"]
    assert all(v >= floor - 0.02 for v in rf.values())
    assert max(rf.values()) < 1.6 * floor
