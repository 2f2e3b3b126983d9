#!/usr/bin/env python
"""Road-network routing: SSSP over a partitioned weighted road graph.

The paper's non-power-law counterpoint (Figure 3): on a road network the
local-based partitioners (NE, METIS-like) preserve spatial locality and
slash communication, while hash-based vertex cuts shred it.  This
example computes shortest paths from a depot on a synthetic road grid
under three partitioning strategies and contrasts message bills, then
reconstructs one concrete route.

Run:  python examples/road_network_routing.py
"""

import numpy as np

from repro.apps import SSSP, sssp_reference
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import road_network
from repro.partition import DBHPartitioner, EBVPartitioner, NEPartitioner
from repro.tables import render_table


def main() -> None:
    grid = road_network(80, 80, seed=4, name="city")
    depot = 0
    workers = 8
    print(f"road grid: |V|={grid.num_vertices} |E|={grid.num_edges}\n")

    engine = BSPEngine()
    rows = []
    runs = {}
    for partitioner in (EBVPartitioner(), NEPartitioner(), DBHPartitioner()):
        result = partitioner.partition(grid, workers)
        run = engine.run(build_distributed_graph(result), SSSP(depot))
        run.partition_method = partitioner.name
        runs[partitioner.name] = run
        rows.append(
            (
                partitioner.name,
                run.num_supersteps,
                run.total_messages,
                f"{run.execution_time:.4f}",
            )
        )
    print(
        render_table(
            ["Partitioner", "Supersteps", "Messages", "time (s)"],
            rows,
            title="SSSP from the depot under three partitioners",
        )
    )

    # All three agree with sequential Dijkstra, bit for bit.
    reference = sssp_reference(grid, depot)
    for name, run in runs.items():
        assert np.allclose(run.values, reference), name
    print("\nall partitioners agree with sequential Dijkstra")

    # Reconstruct the route to the far corner by greedy descent.
    dist = runs["NE"].values
    target = grid.num_vertices - 1
    route = [target]
    current = target
    while current != depot and len(route) < grid.num_vertices:
        preds = grid.in_neighbors(current)
        if preds.size == 0:
            break
        edge_ids = grid.in_index().edges_of(current)
        best = None
        for e, u in zip(edge_ids.tolist(), preds.tolist()):
            if abs(dist[u] + grid.weights[e] - dist[current]) < 1e-9:
                best = u
                break
        if best is None:
            break
        route.append(best)
        current = best
    print(
        f"route depot->corner: {len(route)} hops, "
        f"distance {dist[target]:.2f} (weighted)"
    )


if __name__ == "__main__":
    main()
