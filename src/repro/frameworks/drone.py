"""The subgraph-centric framework (DRONE stand-in), the paper's test bed.

One instance per partition algorithm: ``SubgraphCentricFramework(EBVPartitioner())``
is what Figure 2 labels "EBV", and so on for Ginger/DBH/CVC/NE/METIS.
Partitioning overhead is *excluded* from execution time, exactly as in
Section V-B ("the partition overhead is not included").
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps import make_program
from ..bsp import BSPEngine, BSPRun, CostModel, build_distributed_graph
from ..graph import Graph
from ..partition.base import Partitioner
from .base import Framework

__all__ = ["SubgraphCentricFramework"]


class SubgraphCentricFramework(Framework):
    """Subgraph-centric BSP execution over a pluggable partitioner.

    Parameters
    ----------
    partitioner:
        Any :class:`~repro.partition.Partitioner`; its name becomes the
        framework's display name (matching the paper's figure legends).
    cost_model:
        Optional cost-model override shared with comparator frameworks.
    pagerank_iters:
        Fixed PageRank iteration budget for the PR comparisons.
    """

    def __init__(
        self,
        partitioner: Partitioner,
        cost_model: Optional[CostModel] = None,
        pagerank_iters: int = 20,
    ):
        self.partitioner = partitioner
        self.name = partitioner.name
        self.engine = BSPEngine(cost_model=cost_model)
        self.pagerank_iters = pagerank_iters
        self._dgraph_cache: Dict[Tuple[int, int], object] = {}

    def distributed_graph(self, graph: Graph, num_workers: int):
        """Partition and build the distributed graph (cached per (graph, p))."""
        key = (id(graph), num_workers)
        if key not in self._dgraph_cache:
            result = self.partitioner.partition(graph, num_workers)
            self._dgraph_cache[key] = build_distributed_graph(result)
        return self._dgraph_cache[key]

    def run(self, graph: Graph, app: str, num_workers: int) -> BSPRun:
        """Partition (cached), then execute the app; overhead excluded."""
        dgraph = self.distributed_graph(graph, num_workers)
        program = make_program(
            app, graph, local_convergence=True, pagerank_iters=self.pagerank_iters
        )
        run = self.engine.run(dgraph, program)
        run.partition_method = self.name
        return run
