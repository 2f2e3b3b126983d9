"""Comparator frameworks: DRONE-like subgraph-centric, Galois-like, Blogel-like."""

from .base import Framework
from .blogel import BlogelFramework
from .drone import SubgraphCentricFramework
from .vertex_centric import VertexCentricFramework
from .voronoi import VoronoiPartitioner

__all__ = [
    "Framework",
    "BlogelFramework",
    "SubgraphCentricFramework",
    "VertexCentricFramework",
    "VoronoiPartitioner",
]
