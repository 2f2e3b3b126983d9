"""Bench A6 — the proposed GNN application: feature-propagation messages.

Section VII proposes applying EBV to distributed GNNs.  This bench runs
the communication-bound GNN kernel (K-hop feature aggregation) under
each partitioner and reports message totals — partition quality mapped
directly onto GNN communication volume.
"""

import numpy as np

from repro.apps import FeaturePropagation
from repro.bsp import BSPEngine, build_distributed_graph
from repro.partition import (
    CVCPartitioner,
    DBHPartitioner,
    EBVPartitioner,
    GingerPartitioner,
    NEPartitioner,
)
from repro.tables import render_table


def test_gnn_feature_propagation_messages(benchmark, config, artifact_sink):
    graph = config.graphs()["twitter"]
    p = 16
    features = np.random.default_rng(0).normal(size=(graph.num_vertices, 8))

    def sweep():
        engine = BSPEngine()
        rows = []
        for cls in (EBVPartitioner, GingerPartitioner, DBHPartitioner,
                    CVCPartitioner, NEPartitioner):
            result = cls().partition(graph, p)
            dg = build_distributed_graph(result)
            run = engine.run(dg, FeaturePropagation(features, hops=3))
            rows.append((result.method, run.total_messages,
                         f"{run.message_max_mean_ratio:.3f}",
                         f"{run.execution_time:.4f}"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = render_table(
        ["Method", "Messages (3 hops)", "max/mean", "time (s)"],
        rows,
        title=f"Ablation A6 — GNN feature propagation (twitter stand-in, p={p})",
    )
    artifact_sink("gnn_messages", text)

    msgs = {method: m for method, m, _, _ in rows}
    # The paper's GNN thesis: EBV's replication advantage carries over
    # verbatim to the aggregation messages of distributed GNNs.
    for other in ("Ginger", "DBH", "CVC"):
        assert msgs["EBV"] < msgs[other]
