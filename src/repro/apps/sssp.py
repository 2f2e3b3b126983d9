"""Single Source Shortest Path in the subgraph-centric model.

Per superstep each worker relaxes its local edges (Bellman–Ford sweeps)
until the subgraph is internally converged, then replicated vertices
exchange improved distances.  Directed edges are respected; undirected
inputs carry both directions in the edge array already.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..bsp.distributed import LocalSubgraph
from ..bsp.program import MINIMIZE, ComputeResult, SubgraphProgram
from ..graph import Graph

__all__ = ["SSSP", "default_source"]


def default_source(graph: Graph) -> int:
    """The paper does not name its sources; we use the max-degree vertex.

    A hub source reaches the giant component on every test graph, which
    keeps SSSP message volumes comparable across partitioners.
    """
    return int(np.argmax(graph.degrees()))


class SSSP(SubgraphProgram):
    """Bellman–Ford-style SSSP with per-subgraph local convergence.

    Parameters
    ----------
    source:
        Global id of the source vertex.
    local_convergence:
        ``True`` (default) relaxes to local fixpoint per superstep
        (subgraph-centric); ``False`` performs one sweep per superstep
        (vertex-centric semantics for the comparator frameworks).
    """

    mode = MINIMIZE
    dtype = np.float64
    name = "SSSP"

    def __init__(self, source: int, local_convergence: bool = True):
        self.source = int(source)
        self.local_convergence = bool(local_convergence)
        self.reactivate_changed = not self.local_convergence

    def initial_values(self, local: LocalSubgraph) -> np.ndarray:
        """Distance 0 at the source replicas, +inf elsewhere."""
        values = np.full(local.num_vertices, np.inf)
        hit = np.nonzero(local.global_ids == self.source)[0]
        values[hit] = 0.0
        return values

    def initial_active(self, local: LocalSubgraph) -> np.ndarray:
        """Only workers hosting the source start active."""
        return local.global_ids == self.source

    def edge_weights(self, local: LocalSubgraph) -> Optional[np.ndarray]:
        """Per-edge lengths; ``None`` gives every edge length 1."""
        return local.weights

    def compute(
        self, local: LocalSubgraph, values: np.ndarray, active: np.ndarray,
        superstep: int = 0,
    ) -> ComputeResult:
        """Frontier relaxation from the vertices updated since last sync.

        Only edges leaving improved vertices are relaxed (like a
        sequential Dijkstra's working set), so the modeled work tracks
        the region the superstep actually touched.  Subgraph-centric mode
        expands frontiers to local fixpoint; vertex-centric mode expands
        a single frontier.
        """
        before = values.copy()
        work = 0.0
        src, dst = local.src, local.dst
        if src.size == 0:
            return ComputeResult(changed=np.zeros_like(values, dtype=bool), work_units=0.0)
        weights = self.edge_weights(local)
        indptr, edge_order = local.out_csr()
        frontier = np.nonzero(active & (values < np.inf))[0]
        while frontier.size:
            spans = [edge_order[indptr[v] : indptr[v + 1]] for v in frontier.tolist()]
            edges = np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
            if edges.size == 0:
                break
            work += edges.size
            candidates = values[src[edges]] + (1.0 if weights is None else weights[edges])
            targets = dst[edges]
            improved = candidates < values[targets]
            if not improved.any():
                break
            np.minimum.at(values, targets[improved], candidates[improved])
            # Next frontier: targets that actually ended lower than before
            # this pass (dedup via unique).
            frontier = np.unique(targets[improved])
            frontier = frontier[values[frontier] < before[frontier]]
            if not self.local_convergence:
                break
        return ComputeResult(changed=values < before, work_units=work)
