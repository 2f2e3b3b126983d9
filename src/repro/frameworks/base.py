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

from ..apps import APP_NAMES
from ..bsp import BSPRun
from ..graph import Graph

__all__ = ["Framework"]


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
