"""Block-centric comparator (the Blogel stand-in).

Blogel runs subgraph-centric ("block-centric") computation over blocks
produced by its Graph Voronoi Diagram partitioner.  Two paper-mandated
fairness details are modeled:

* Blogel's Voronoi partitioner effectively *pre-computes* connectivity —
  its CC phase merely merges blocks — so, as in Section V-B, the Voronoi
  pre-computation cost (one multi-source BFS over the edges, plus the
  block merge) is **added to CC's total time**.
* Blogel's PageRank is non-standard, so :meth:`supports` excludes it
  from PR comparisons, like the paper does.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps import make_program
from ..bsp import BSPEngine, BSPRun, CostModel, SuperstepStats, build_distributed_graph
from ..graph import Graph
from .base import Framework
from .voronoi import VoronoiPartitioner

import numpy as np

__all__ = ["BlogelFramework"]


class BlogelFramework(Framework):
    """Block-centric execution over Voronoi blocks."""

    name = "Blogel"

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        seeds_per_worker: int = 8,
        pagerank_iters: int = 20,
    ):
        self.cost_model = cost_model or CostModel()
        self.engine = BSPEngine(cost_model=self.cost_model)
        self.partitioner = VoronoiPartitioner(seeds_per_worker=seeds_per_worker)
        self.pagerank_iters = pagerank_iters
        self._dgraph_cache: Dict[Tuple[int, int], object] = {}

    def supports(self, app: str) -> bool:
        """Blogel is excluded from the PR comparison (Section V-B)."""
        return app in ("CC", "SSSP")

    def run(self, graph: Graph, app: str, num_workers: int) -> BSPRun:
        """Run block-centric; charge Voronoi pre-compute to CC."""
        if not self.supports(app):
            raise ValueError(f"Blogel comparator does not run {app!r}")
        key = (id(graph), num_workers)
        if key not in self._dgraph_cache:
            result = self.partitioner.partition(graph, num_workers)
            self._dgraph_cache[key] = build_distributed_graph(result)
        dgraph = self._dgraph_cache[key]
        program = make_program(app, graph, local_convergence=True)
        run = self.engine.run(dgraph, program)
        run.partition_method = self.name
        if app == "CC":
            # The multi-source BFS touches every edge once per Voronoi
            # sampling round (~1 for connected graphs); charge one full
            # edge sweep spread across workers as an extra superstep.
            per_worker_edges = graph.num_edges / num_workers
            precompute = np.full(
                num_workers,
                self.cost_model.comp_seconds(per_worker_edges)
                + self.cost_model.superstep_overhead,
            )
            run.supersteps.insert(
                0,
                SuperstepStats(
                    work=np.full(num_workers, per_worker_edges),
                    sent=np.zeros(num_workers, dtype=np.int64),
                    received=np.zeros(num_workers, dtype=np.int64),
                    comp_seconds=precompute,
                    comm_seconds=np.zeros(num_workers),
                ),
            )
        return run
