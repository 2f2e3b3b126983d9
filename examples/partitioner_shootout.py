#!/usr/bin/env python
"""Partitioner shoot-out: Table III/IV metrics on a graph of your choice.

Scores every partitioner in the registry — the paper's six plus the
streaming/sharded EBV variants and the extension baselines — on the
three Section III-C metrics plus measured CC messages.  Loads a
SNAP-style edge list if a path is given, otherwise generates a
Friendster-flavoured power-law graph.

Run:  python examples/partitioner_shootout.py [edge_list.txt] [num_parts]
"""

import sys

from repro.graph import powerlaw_graph, read_edge_list
from repro.pipeline import PARTITIONERS, Pipeline
from repro.tables import format_sci, render_table


def main() -> None:
    if len(sys.argv) > 1:
        graph = read_edge_list(sys.argv[1])
    else:
        graph = powerlaw_graph(
            10_000, eta=2.4, min_degree=5, seed=2, name="friendster-like"
        )
    num_parts = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    print(
        f"{graph.name}: |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"p={num_parts}\n"
    )

    rows = []
    for method in PARTITIONERS.names():
        result = (
            Pipeline()
            .source(graph)
            .partition(method, parts=num_parts)
            .run("cc")
            .execute()
        )
        m, run = result.metrics, result.run
        rows.append(
            (
                method,
                f"{m.edge_imbalance:.2f}",
                f"{m.vertex_imbalance:.2f}",
                f"{m.replication:.2f}",
                format_sci(float(run.total_messages)),
                f"{run.message_max_mean_ratio:.3f}",
            )
        )
    print(
        render_table(
            ["Method", "EdgeImb", "VertImb", "RF", "CC msgs", "max/mean"],
            rows,
            title="Partition quality and measured communication",
        )
    )


if __name__ == "__main__":
    main()
