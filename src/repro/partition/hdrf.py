"""HDRF: High-Degree (are) Replicated First, Petroni et al., CIKM 2015.

A streaming vertex-cut discussed in the paper's related work.  For each
edge ``(u, v)`` HDRF scores every partition with a replication term that
prefers co-locating the *lower*-degree endpoint (so high-degree hubs are
the ones replicated) plus a balance term, using *partial* degrees
accumulated over the stream:

    θ_u = δ(u) / (δ(u) + δ(v))
    g(w, i) = 1 + (1 - θ_w)   if w ∈ keep[i] else 0
    score(i) = g(u, i) + g(v, i) + λ · (maxsize − ecount[i]) / (ε + maxsize − minsize)

The edge goes to the highest-scoring partition.  λ trades replication
for balance exactly like EBV's α (HDRF has no vertex-balance analogue of
β, which is the gap the paper exploits).
"""

from __future__ import annotations

from math import inf

import numpy as np

from ..graph import Graph
from .base import VERTEX_CUT, Partitioner, PartitionResult

__all__ = ["HDRFPartitioner"]


class HDRFPartitioner(Partitioner):
    """Streaming HDRF edge partitioner.

    Parameters
    ----------
    lam:
        Balance weight λ (HDRF's paper default is ~1).
    epsilon:
        Small constant keeping the balance term finite when all
        partitions are equal.
    """

    name = "HDRF"

    def __init__(self, lam: float = 1.0, epsilon: float = 1.0):
        lam, epsilon = float(lam), float(epsilon)
        if not (0 <= lam < inf and 0 < epsilon < inf):
            raise ValueError(
                "lam must be non-negative and finite and epsilon positive and "
                f"finite, got lam={lam}, epsilon={epsilon}"
            )
        self.lam = lam
        self.epsilon = epsilon

    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """One pass over the edge stream in input order."""
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        m = graph.num_edges
        n = graph.num_vertices
        edge_parts = np.full(m, -1, dtype=np.int64)
        if num_parts == 1:
            edge_parts[:] = 0
            return PartitionResult(
                graph, num_parts, edge_parts=edge_parts, kind=VERTEX_CUT,
                method=self.name,
            )
        partial_degree = np.zeros(n, dtype=np.int64)
        ecount = np.zeros(num_parts, dtype=np.float64)
        parts_of = [[] for _ in range(n)]
        score = np.empty(num_parts, dtype=np.float64)
        src, dst = graph.src, graph.dst
        for e in range(m):
            u, v = int(src[e]), int(dst[e])
            partial_degree[u] += 1
            partial_degree[v] += 1
            du, dv = partial_degree[u], partial_degree[v]
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            maxsize = ecount.max()
            minsize = ecount.min()
            np.multiply(
                maxsize - ecount,
                self.lam / (self.epsilon + maxsize - minsize),
                out=score,
            )
            pu, pv = parts_of[u], parts_of[v]
            if pu:
                score[pu] += 1.0 + (1.0 - theta_u)
            if pv and u != v:
                score[pv] += 1.0 + (1.0 - theta_v)
            i = int(np.argmax(score))
            edge_parts[e] = i
            ecount[i] += 1
            if i not in pu:
                pu.append(i)
            if u != v and i not in pv:
                pv.append(i)
        return PartitionResult(
            graph, num_parts, edge_parts=edge_parts, kind=VERTEX_CUT,
            method=self.name,
        )
