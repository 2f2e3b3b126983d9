"""Ginger: the hybrid-cut heuristic from PowerLyra (Chen et al., TOPC 2019).

Ginger refines PowerLyra's hybrid-cut with a Fennel-style greedy
objective.  The hybrid-cut distinguishes vertices by in-degree:

* a **low-degree** target vertex ``v`` (in-degree < ``threshold``) pulls
  *all* of its in-edges onto a single subgraph, chosen greedily;
* a **high-degree** target vertex has its in-edges scattered by hashing
  each edge's *source* endpoint, so no single worker absorbs a hub.

For low-degree vertices the greedy choice maximizes the Fennel-like
score ``|N_in(v) ∩ V_i| − γ·(|V_i| + ν·|E_i|)`` where the balance term
mixes vertex and edge counts (ν = |V|/|E| normalizes edges into vertex
units), matching Ginger's published objective up to constants.  The
result is well balanced like DBH but with a noticeably lower replication
factor — and still above EBV, which also tracks replicas of *source*
endpoints and both balance dimensions explicitly.
"""

from __future__ import annotations

from math import inf

import numpy as np

from ..graph import Graph
from .base import VERTEX_CUT, Partitioner, PartitionResult
from .hashing import mix64

__all__ = ["GingerPartitioner"]


class GingerPartitioner(Partitioner):
    """Hybrid-cut with Fennel-style greedy placement of low-degree vertices.

    Parameters
    ----------
    threshold:
        In-degree above which a target vertex is treated as high-degree.
        ``None`` picks ``max(4, 2 · average in-degree)``, mirroring
        PowerLyra's practice of cutting only true hubs.
    gamma:
        Weight of the balance penalty in the greedy score.
    seed:
        Hash seed for high-degree edge scattering.
    """

    name = "Ginger"

    def __init__(self, threshold: int = None, gamma: float = 1.0, seed: int = 0):
        gamma = float(gamma)
        if not 0 <= gamma < inf:
            raise ValueError(f"gamma must be non-negative and finite, got gamma={gamma}")
        self.threshold = threshold
        self.gamma = gamma
        self.seed = seed

    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """Run hybrid-cut: greedy for low-degree targets, hash for hubs."""
        m = graph.num_edges
        n = graph.num_vertices
        in_deg = graph.in_degrees()
        threshold = self.threshold
        if threshold is None:
            threshold = max(4, int(2 * m / max(n, 1)))

        edge_parts = np.full(m, -1, dtype=np.int64)
        high = in_deg[graph.dst] >= threshold
        # High-degree targets: scatter in-edges by source hash.
        edge_parts[high] = (
            mix64(graph.src[high], self.seed) % np.uint64(num_parts)
        ).astype(np.int64)

        ecount = np.bincount(edge_parts[high], minlength=num_parts).astype(np.float64)
        vcount = np.zeros(num_parts, dtype=np.float64)
        # parts already holding each vertex (as master or replica).
        parts_of = [set() for _ in range(n)]
        for e in np.nonzero(high)[0].tolist():
            i = int(edge_parts[e])
            for w in (int(graph.src[e]), int(graph.dst[e])):
                if i not in parts_of[w]:
                    parts_of[w].add(i)
                    vcount[i] += 1

        # Low-degree targets: place each target vertex (and all its
        # low-degree in-edges) greedily.  Targets are visited in hashed
        # order — a streaming partitioner sees vertices in effectively
        # random arrival order, not sorted by id (id order would leak the
        # generator's locality, e.g. grid coordinates).
        in_index = graph.in_index()
        low_targets = np.nonzero(np.bincount(graph.dst[~high], minlength=n) > 0)[0]
        low_targets = low_targets[np.argsort(mix64(low_targets, self.seed + 7))]
        # Ginger keeps partitions balanced with a hard capacity on edges
        # (its published edge imbalance is ~1.0 across graphs).
        capacity = 1.05 * m / num_parts + threshold
        score = np.empty(num_parts, dtype=np.float64)
        vertex_target = n / num_parts
        for v in low_targets.tolist():
            all_edges = in_index.edges_of(v)
            unassigned = edge_parts[all_edges] < 0
            edges = all_edges[unassigned]
            if edges.size == 0:
                continue
            sources = in_index.neighbors_of(v)[unassigned]
            # Affinity: how many of v's already-placed in-neighbors (and v
            # itself) live in each part, minus the Fennel-style balance
            # penalty on the vertex load.
            score.fill(0.0)
            for w in sources.tolist():
                for i in parts_of[w]:
                    score[i] += 1.0
            for i in parts_of[v]:
                score[i] += 1.0
            score -= self.gamma * vcount / vertex_target
            over = ecount + edges.size > capacity
            if over.all():
                i = int(np.argmin(ecount))
            else:
                score[over] = -np.inf
                i = int(np.argmax(score))
            edge_parts[edges] = i
            ecount[i] += edges.size
            for w in [v] + sources.tolist():
                if i not in parts_of[w]:
                    parts_of[w].add(i)
                    vcount[i] += 1
        return PartitionResult(
            graph, num_parts, edge_parts=edge_parts, kind=VERTEX_CUT, method=self.name
        )
