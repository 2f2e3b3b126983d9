#!/usr/bin/env python
"""Distributed GNN feature propagation — the paper's proposed application.

Section VII plans to "apply EBV to distributed graph neural networks".
The communication-bound kernel of distributed GNN inference is K-hop
sparse feature aggregation; this example runs it on the BSP engine
under several partitioners, verifies the result against a sequential
reference, and shows how the partitioner choice sets the GNN's
communication bill.  As a finale it uses the propagated features for a
tiny label-propagation classification task.

Run:  python examples/gnn_feature_propagation.py
"""

import numpy as np

from repro.apps import FeaturePropagation, feature_propagation_reference
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import DBHPartitioner, EBVPartitioner, GingerPartitioner
from repro.tables import render_table


def main() -> None:
    graph = powerlaw_graph(
        4000, eta=2.1, min_degree=4, seed=21, name="gnn-demo"
    )
    dims = 16
    hops = 3
    rng = np.random.default_rng(0)
    features = rng.normal(size=(graph.num_vertices, dims))
    print(
        f"{graph.name}: |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"{dims}-d features, {hops} hops\n"
    )

    engine = BSPEngine()
    reference = feature_propagation_reference(graph, features, hops=hops)
    rows = []
    for partitioner in (EBVPartitioner(), GingerPartitioner(), DBHPartitioner()):
        result = partitioner.partition(graph, 16)
        dg = build_distributed_graph(result)
        run = engine.run(dg, FeaturePropagation(features, hops=hops))
        assert np.allclose(run.values, reference, atol=1e-10)
        rows.append(
            (
                partitioner.name,
                run.total_messages,
                f"{run.message_max_mean_ratio:.3f}",
                f"{run.execution_time:.4f}",
            )
        )
    print(
        render_table(
            ["Partitioner", "Agg. messages", "max/mean", "time (s)"],
            rows,
            title="GNN aggregation communication by partitioner (16 workers)",
        )
    )
    print("\nall partitioners agree with the sequential propagation\n")

    # Toy downstream task: 2-class label propagation on the embeddings.
    # Seed labels on the two highest-degree hubs, classify by embedding
    # distance to the propagated seed rows.
    hubs = np.argsort(graph.degrees())[-2:]
    result = EBVPartitioner().partition(graph, 16)
    run = BSPEngine().run(
        build_distributed_graph(result), FeaturePropagation(features, hops=hops)
    )
    emb = run.values
    d0 = np.linalg.norm(emb - emb[hubs[0]], axis=1)
    d1 = np.linalg.norm(emb - emb[hubs[1]], axis=1)
    assigned = (d1 < d0).sum()
    print(
        f"toy classification: {assigned} vertices nearer hub {hubs[1]}, "
        f"{graph.num_vertices - assigned} nearer hub {hubs[0]}"
    )


if __name__ == "__main__":
    main()
