#!/usr/bin/env python
"""Social-network analytics pipeline on a partitioned power-law graph.

The scenario from the paper's introduction: a social graph (Twitter-like
degree skew) analyzed with PageRank for influence and CC for community
reachability — and the partitioning choice decides the communication
bill.  This example sweeps the paper's six partition algorithms through
the pipeline API, then drops one level to run the second app on the
already-routed distributed graph (no re-partitioning), and prints the
trade-off table so you can see the EBV effect on *your* machine.

Run:  python examples/social_network_pipeline.py
"""

from repro.bsp import BSPEngine
from repro.experiments import PAPER_METHOD_SPECS
from repro.pipeline import APPS, GENERATORS, Pipeline
from repro.tables import render_table

SOURCE = "powerlaw?vertices=8000,eta=2.0,min_degree=4,directed=true,seed=11,name=social"
WORKERS = 16


def main() -> None:
    graph = GENERATORS.create(SOURCE)
    print(
        f"social graph: |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"{WORKERS} workers\n"
    )

    engine = BSPEngine()
    rows = []
    ebv_pagerank = None
    for display, method in PAPER_METHOD_SPECS:
        # One pipeline per method: partition once, run CC through it ...
        cc = (
            Pipeline()
            .source(graph)
            .partition(method, parts=WORKERS)
            .run("cc")
            .execute()
        )
        # ... then reuse the routed distributed graph for PageRank.
        pr = engine.run(cc.distributed, APPS.create("pr?pagerank_iters=15", graph))
        if display == "EBV":
            ebv_pagerank = pr
        m = cc.metrics
        rows.append(
            (
                display,
                f"{m.replication:.2f}",
                f"{m.edge_imbalance:.2f}",
                f"{cc.run.total_messages}",
                f"{pr.total_messages}",
                f"{cc.run.execution_time + pr.execution_time:.4f}",
            )
        )

    print(
        render_table(
            ["Partitioner", "RF", "EdgeImb", "CC msgs", "PR msgs", "time (s)"],
            rows,
            title="Influence + reachability pipeline, per partitioner",
        )
    )

    # Top influencers according to the distributed PageRank under EBV.
    top = ebv_pagerank.values.argsort()[::-1][:5]
    print("\ntop-5 influencers (vertex: rank):")
    for v in top:
        print(f"  {v}: {ebv_pagerank.values[v]:.6f}")


if __name__ == "__main__":
    main()
