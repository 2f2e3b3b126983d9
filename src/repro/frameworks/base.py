"""Framework abstraction for the cross-system comparison (Figures 2–3).

The paper compares the six partition algorithms *inside* the
subgraph-centric framework (DRONE) against two external systems: Galois
(vertex-centric, shared memory) and Blogel (block-centric).  A
:class:`Framework` bundles a partitioning policy with execution
semantics and a cost profile, so the experiment drivers can sweep
``framework × app × graph × workers`` uniformly.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..apps import (
    BFS,
    ConnectedComponents,
    FeaturePropagation,
    KCore,
    PageRank,
    SSSP,
    default_source,
    deterministic_features,
)
from ..bsp import BSPRun, SubgraphProgram
from ..graph import Graph

__all__ = ["APP_NAMES", "make_program", "Framework"]

APP_NAMES = ("CC", "PR", "SSSP", "BFS", "KCORE", "FEATPROP")


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
    PageRank's convergence threshold.
    """
    name = app.upper() if isinstance(app, str) else app
    if name == "CC":
        return ConnectedComponents(local_convergence=local_convergence)
    if name == "SSSP":
        src = default_source(graph) if source is None else source
        return SSSP(src, local_convergence=local_convergence)
    if name == "PR":
        return PageRank(graph.num_vertices, max_iters=pagerank_iters, tol=pagerank_tol)
    if name == "BFS":
        src = default_source(graph) if source is None else source
        return BFS(src, local_convergence=local_convergence)
    if name == "KCORE":
        return KCore(k)
    if name == "FEATPROP":
        if features is None:
            features = deterministic_features(graph, dims=feature_dims, seed=feature_seed)
        return FeaturePropagation(features, hops=hops, mix=mix)
    raise ValueError(f"unknown app {app!r}; expected one of {APP_NAMES}")


class Framework(abc.ABC):
    """A complete system under test: partitioning + execution semantics."""

    #: display name used in figures/tables.
    name: str = "framework"

    @abc.abstractmethod
    def run(self, graph: Graph, app: str, num_workers: int) -> BSPRun:
        """Execute ``app`` on ``graph`` with ``num_workers`` workers."""

    def supports(self, app: str) -> bool:
        """Whether this framework participates in an app's comparison.

        Mirrors the paper's exclusions (e.g. Blogel is excluded from the
        PageRank comparison because its PR is not standard).
        """
        return app in APP_NAMES
