"""Graph partitioners: EBV (the paper's contribution) and all baselines.

Algorithms are instantiated directly from this package or, preferably,
by name through :data:`repro.pipeline.registries.PARTITIONERS` — the
registry the CLI, the fluent pipeline builder and the experiment
drivers all share (``PARTITIONERS.create("ebv?alpha=2")``).
"""

from .base import EDGE_CUT, VERTEX_CUT, Partitioner, PartitionResult
from .cvc import CVCPartitioner, grid_shape
from .dbh import DBHPartitioner
from .ebv import EBVPartitioner, KernelBuildError, SORT_ORDERS, edge_processing_order
from .ginger import GingerPartitioner
from .metislike import MetisLikePartitioner
from .metrics import (
    PartitionMetrics,
    edge_imbalance_factor,
    partition_metrics,
    replication_factor,
    theorem1_edge_imbalance_bound,
    theorem2_vertex_imbalance_bound,
    vertex_imbalance_factor,
)
from .ne import NEPartitioner
from .hdrf import HDRFPartitioner
from .io import graph_fingerprint, load_partition, save_partition
from .random_hash import RandomEdgeHashPartitioner, RandomVertexHashPartitioner
from .refine import refine_vertex_cut
from .streaming import ShardedEBVPartitioner, StreamingEBVPartitioner

__all__ = [
    "EDGE_CUT",
    "VERTEX_CUT",
    "Partitioner",
    "PartitionResult",
    "CVCPartitioner",
    "grid_shape",
    "DBHPartitioner",
    "EBVPartitioner",
    "KernelBuildError",
    "SORT_ORDERS",
    "edge_processing_order",
    "GingerPartitioner",
    "MetisLikePartitioner",
    "NEPartitioner",
    "HDRFPartitioner",
    "graph_fingerprint",
    "load_partition",
    "save_partition",
    "RandomEdgeHashPartitioner",
    "RandomVertexHashPartitioner",
    "refine_vertex_cut",
    "ShardedEBVPartitioner",
    "StreamingEBVPartitioner",
    "PartitionMetrics",
    "edge_imbalance_factor",
    "partition_metrics",
    "replication_factor",
    "theorem1_edge_imbalance_bound",
    "theorem2_vertex_imbalance_bound",
    "vertex_imbalance_factor",
]

#: Registry used by experiment drivers: the six algorithms of the paper.
PAPER_PARTITIONERS = {
    "EBV": EBVPartitioner,
    "Ginger": GingerPartitioner,
    "DBH": DBHPartitioner,
    "CVC": CVCPartitioner,
    "NE": NEPartitioner,
    "METIS": MetisLikePartitioner,
}
