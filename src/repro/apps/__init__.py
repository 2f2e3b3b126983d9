"""Subgraph-centric applications: CC, SSSP, PageRank (paper) + BFS (extra).

:func:`make_program` is the one app-name → program dispatcher: the
``APPS`` registry, the fluent pipeline and the experiment drivers all
build programs through it.
"""

from typing import Optional

import numpy as np

from ..bsp.program import SubgraphProgram
from ..graph import Graph
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
    "APP_NAMES",
    "make_program",
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

APP_NAMES = ("CC", "PR", "SSSP", "BFS", "KCORE", "FEATPROP")


def _source(graph: Graph, source: Optional[int]) -> int:
    """The SSSP/BFS source: the default hub, or a checked vertex id."""
    if source is None:
        return default_source(graph)
    if not 0 <= source < graph.num_vertices:
        raise ValueError(
            f"source {source} is not a vertex id in [0, {graph.num_vertices})"
        )
    return source


def _check_lengths(graph: Graph) -> None:
    """SSSP's lengths must be ``>= 0``: the answer it must equal is Dijkstra's.

    A negative cycle has no shortest paths, and the local fixpoint loop
    relaxes around one forever; a NaN length fails every ``<`` and its
    edge would silently drop out.
    """
    if graph.weights is None:
        return
    bad = np.flatnonzero(~(graph.weights >= 0))
    if bad.size:
        e = int(bad[0])
        raise ValueError(
            f"SSSP needs non-negative edge weights: edge {e} "
            f"({int(graph.src[e])} -> {int(graph.dst[e])}) has weight {graph.weights[e]}"
        )


def make_program(
    app: str,
    graph: Graph,
    local_convergence: bool = True,
    pagerank_iters: int = 20,
    source: Optional[int] = None,
    k: int = 3,
    hops: int = 2,
    mix: float = 0.5,
    feature_dims: int = 8,
    feature_seed: int = 0,
    features: Optional[np.ndarray] = None,
    pagerank_tol: float = 1e-10,
) -> SubgraphProgram:
    """Instantiate any registered application by (case-insensitive) name.

    ``local_convergence`` selects subgraph-centric (``True``) versus
    vertex-centric (``False``) computation-stage semantics for the
    frontier/label apps; PageRank is inherently one-iteration-per-
    superstep so the flag does not apply.  ``k`` parameterizes KCORE;
    ``hops``/``mix``/``feature_dims``/``feature_seed``/``features``
    parameterize FEATPROP (a seeded deterministic feature matrix is
    generated when none is supplied), and ``pagerank_tol`` is
    PageRank's convergence threshold.  An SSSP/BFS ``source`` outside
    ``[0, |V|)``, an SSSP edge weight that is negative or NaN, or
    ``pagerank_iters < 1`` raises ``ValueError``.
    """
    name = app.upper() if isinstance(app, str) else app
    if name == "CC":
        return ConnectedComponents(local_convergence=local_convergence)
    if name == "SSSP":
        _check_lengths(graph)
        return SSSP(_source(graph, source), local_convergence=local_convergence)
    if name == "PR":
        if pagerank_iters < 1:
            raise ValueError(f"pagerank_iters must be >= 1, got {pagerank_iters}")
        return PageRank(graph.num_vertices, max_iters=pagerank_iters, tol=pagerank_tol)
    if name == "BFS":
        return BFS(_source(graph, source), local_convergence=local_convergence)
    if name == "KCORE":
        return KCore(k)
    if name == "FEATPROP":
        if features is None:
            features = deterministic_features(graph, dims=feature_dims, seed=feature_seed)
        return FeaturePropagation(features, hops=hops, mix=mix)
    raise ValueError(f"unknown app {app!r}; expected one of {APP_NAMES}")
