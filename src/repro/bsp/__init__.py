"""Subgraph-centric BSP substrate: distributed graph, engine, cost model."""

from .cost_model import CostModel
from .distributed import (
    DistributedGraph,
    LocalSubgraph,
    build_distributed_graph,
)
from .engine import BSPEngine, BSPRun, SuperstepStats
from .program import ACCUMULATE, MINIMIZE, ComputeResult, SubgraphProgram

__all__ = [
    "CostModel",
    "DistributedGraph",
    "LocalSubgraph",
    "build_distributed_graph",
    "BSPEngine",
    "BSPRun",
    "SuperstepStats",
    "ACCUMULATE",
    "MINIMIZE",
    "ComputeResult",
    "SubgraphProgram",
]
