"""Breadth-first search levels — an extension app beyond the paper's trio.

SSSP's frontier loop with every edge length 1, whatever the graph's
weights, so examples and tests can exercise hop counts.
"""

from __future__ import annotations

from .sssp import SSSP

__all__ = ["BFS"]


class BFS(SSSP):
    """Hop-count BFS from a single source, with local convergence."""

    name = "BFS"

    def edge_weights(self, local):
        return None
