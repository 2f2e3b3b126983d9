"""Subgraph-centric applications: CC, SSSP, PageRank (paper) + BFS (extra)."""

from .bfs import BFS
from .cc import ConnectedComponents
from .feature_propagation import (
    FeaturePropagation,
    deterministic_features,
    feature_propagation_reference,
)
from .kcore import KCore, kcore_reference
from .pagerank import PageRank
from .reference import bfs_reference, cc_reference, pagerank_reference, sssp_reference
from .sssp import SSSP, default_source

__all__ = [
    "BFS",
    "ConnectedComponents",
    "FeaturePropagation",
    "deterministic_features",
    "feature_propagation_reference",
    "KCore",
    "kcore_reference",
    "PageRank",
    "SSSP",
    "default_source",
    "bfs_reference",
    "cc_reference",
    "pagerank_reference",
    "sssp_reference",
]
