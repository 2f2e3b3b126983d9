"""Graph substrate: data structure, generators, IO and statistics."""

from .graph import CSRIndex, Graph
from .generators import (
    GENERATOR_KINDS,
    barabasi_albert,
    erdos_renyi,
    generate_graph,
    paper_graph_suite,
    powerlaw_graph,
    rmat,
    road_network,
)
from .io import (
    iter_edge_chunks,
    read_edge_list,
    read_edge_list_header,
    read_metis,
    write_edge_list,
    write_metis,
)
from .stats import (
    GraphStats,
    degree_histogram,
    estimate_eta_fit,
    estimate_eta_mle,
    graph_stats,
)

__all__ = [
    "CSRIndex",
    "Graph",
    "GENERATOR_KINDS",
    "barabasi_albert",
    "erdos_renyi",
    "generate_graph",
    "paper_graph_suite",
    "powerlaw_graph",
    "rmat",
    "road_network",
    "iter_edge_chunks",
    "read_edge_list",
    "read_edge_list_header",
    "read_metis",
    "write_edge_list",
    "write_metis",
    "GraphStats",
    "degree_histogram",
    "estimate_eta_fit",
    "estimate_eta_mle",
    "graph_stats",
]
