"""Partitioner interface and the shared :class:`PartitionResult` container.

The paper (Section III-B/C) distinguishes two partitioning families:

* **vertex-cut (edge partitioning)** — the edge set is split into ``p``
  disjoint subsets; ``V_i`` is the vertex set covered by ``E_i`` and a
  vertex may be replicated across subgraphs.  EBV, Ginger, DBH, CVC and
  NE are vertex-cut.
* **edge-cut (vertex partitioning)** — the vertex set is split; ``E_i``
  contains every edge incident to ``V_i`` and cross-partition edges are
  replicated.  METIS is edge-cut.

:class:`PartitionResult` normalizes both so metrics, the BSP engine and
the analysis code can treat any partitioner uniformly.
"""

from __future__ import annotations

import abc
from typing import List, Optional

import numpy as np

from ..graph import Graph

__all__ = ["VERTEX_CUT", "EDGE_CUT", "PartitionResult", "Partitioner"]

VERTEX_CUT = "vertex-cut"
EDGE_CUT = "edge-cut"

#: Max ``num_vertices * num_parts`` cells for the dense (bitmap /
#: bincount) reductions in the membership and distributed-build paths;
#: larger layouts use sorted-key reductions to bound memory.
_DENSE_CELLS = 1 << 25


def _group_vertices_by_part(key_arrays, n: int, p: int) -> List[np.ndarray]:
    """Group flat ``part * n + vertex`` keys into per-part sorted vertex arrays.

    Below :data:`_DENSE_CELLS` this scatters into a dense ``(p, n)``
    bitmap and reads each row back with ``flatnonzero``; above it, a
    sorted-key reduction splits one ``np.unique`` pass at the part
    boundaries.  Both return identical arrays.
    """
    if n * p <= _DENSE_CELLS:
        mark = np.zeros(p * n, dtype=bool)
        for keys in key_arrays:
            mark[keys] = True
        rows = mark.reshape(p, n)
        return [np.flatnonzero(rows[i]) for i in range(p)]
    keys = np.unique(np.concatenate(list(key_arrays)))
    bounds = np.searchsorted(keys // n, np.arange(p + 1))
    verts = keys % n
    return [verts[bounds[i] : bounds[i + 1]] for i in range(p)]


class PartitionResult:
    """A finished partition of a graph into ``p`` subgraphs.

    Parameters
    ----------
    graph:
        The partitioned graph.
    num_parts:
        ``p``, the number of subgraphs.
    edge_parts:
        For vertex-cut results: array of length ``graph.num_edges`` giving
        each edge's subgraph in ``[0, p)``.  For edge-cut results this is
        derived (each edge is *owned* by its source vertex's part, while
        replicas extend to the destination's part).
    vertex_parts:
        For edge-cut results: array of length ``graph.num_vertices`` giving
        each vertex's (unique) subgraph.  ``None`` for vertex-cut.
    kind:
        ``VERTEX_CUT`` or ``EDGE_CUT``.
    method:
        Name of the producing algorithm, used in reports.
    """

    def __init__(
        self,
        graph: Graph,
        num_parts: int,
        edge_parts: Optional[np.ndarray] = None,
        vertex_parts: Optional[np.ndarray] = None,
        kind: str = VERTEX_CUT,
        method: str = "unknown",
    ):
        if kind not in (VERTEX_CUT, EDGE_CUT):
            raise ValueError(f"unknown partition kind {kind!r}")
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self.graph = graph
        self.num_parts = int(num_parts)
        self.kind = kind
        self.method = method

        if kind == VERTEX_CUT:
            if edge_parts is None:
                raise ValueError("vertex-cut result requires edge_parts")
            self.edge_parts = np.ascontiguousarray(edge_parts, dtype=np.int64)
            if self.edge_parts.shape[0] != graph.num_edges:
                raise ValueError("edge_parts must cover every edge")
            self.vertex_parts = None
        else:
            if vertex_parts is None:
                raise ValueError("edge-cut result requires vertex_parts")
            self.vertex_parts = np.ascontiguousarray(vertex_parts, dtype=np.int64)
            if self.vertex_parts.shape[0] != graph.num_vertices:
                raise ValueError("vertex_parts must cover every vertex")
            # Each edge is executed in its source's partition; the
            # destination's partition holds a replica if it differs.
            self.edge_parts = self.vertex_parts[graph.src]
        if self.edge_parts.size and (
            self.edge_parts.min() < 0 or self.edge_parts.max() >= num_parts
        ):
            raise ValueError("part ids out of range")
        self._vertex_membership: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def edge_counts(self) -> np.ndarray:
        """``|E_i|`` for every subgraph.

        For edge-cut partitions this counts *replicated* edges: every edge
        incident to ``V_i`` belongs to ``E_i`` (Section III-C), so a
        cross-partition edge is counted in both endpoint partitions.
        """
        if self.kind == VERTEX_CUT:
            return np.bincount(self.edge_parts, minlength=self.num_parts)
        src_p = self.vertex_parts[self.graph.src]
        dst_p = self.vertex_parts[self.graph.dst]
        counts = np.bincount(src_p, minlength=self.num_parts)
        cross = src_p != dst_p
        counts += np.bincount(dst_p[cross], minlength=self.num_parts)
        return counts

    def vertex_membership(self) -> List[np.ndarray]:
        """For each subgraph ``i``, the sorted array of vertices in ``V_i``."""
        if self._vertex_membership is None:
            n = self.graph.num_vertices
            p = self.num_parts
            if self.kind == VERTEX_CUT:
                members = _group_vertices_by_part(
                    [
                        self.edge_parts * np.int64(n) + self.graph.src,
                        self.edge_parts * np.int64(n) + self.graph.dst,
                    ],
                    n,
                    p,
                )
            else:
                # V_i is the owned vertex set plus ghosts (other endpoints
                # of replicated edges).  For metrics purposes the paper
                # treats edge-cut V_i as the *owned* set (Σ|V_i| = |V|).
                # The stable sort leaves each part's vertices ascending.
                order = np.argsort(self.vertex_parts, kind="stable")
                bounds = np.searchsorted(self.vertex_parts[order], np.arange(p + 1))
                members = [order[bounds[i] : bounds[i + 1]] for i in range(p)]
            self._vertex_membership = members
        return self._vertex_membership

    def vertex_counts(self) -> np.ndarray:
        """``|V_i|`` for every subgraph (see :meth:`vertex_membership`)."""
        return np.array([m.size for m in self.vertex_membership()], dtype=np.int64)

    def replica_map(self) -> List[np.ndarray]:
        """For each vertex, the sorted array of subgraphs holding a copy.

        For vertex-cut results these are the replica locations; for
        edge-cut results these are the owner plus every partition that
        holds the vertex as a ghost endpoint of a replicated edge.
        """
        n = self.graph.num_vertices
        p = self.num_parts
        if self.kind == VERTEX_CUT:
            keys = np.unique(
                np.concatenate(
                    [
                        self.graph.src * np.int64(p) + self.edge_parts,
                        self.graph.dst * np.int64(p) + self.edge_parts,
                    ]
                )
            )
        else:
            src_p = self.vertex_parts[self.graph.src]
            dst_p = self.vertex_parts[self.graph.dst]
            cross = src_p != dst_p
            keys = np.unique(
                np.concatenate(
                    [
                        np.arange(n, dtype=np.int64) * np.int64(p) + self.vertex_parts,
                        self.graph.dst[cross] * np.int64(p) + src_p[cross],
                        self.graph.src[cross] * np.int64(p) + dst_p[cross],
                    ]
                )
            )
        # keys are sorted by (vertex, part); split at vertex boundaries.
        bounds = np.searchsorted(keys // p, np.arange(n + 1))
        parts = np.ascontiguousarray(keys % p)
        return [parts[bounds[v] : bounds[v + 1]] for v in range(n)]

    def subgraph_edges(self, part: int) -> np.ndarray:
        """Edge ids assigned to (executed by) subgraph ``part``."""
        return np.nonzero(self.edge_parts == part)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionResult(method={self.method!r}, kind={self.kind!r}, "
            f"p={self.num_parts}, graph={self.graph.name!r})"
        )


class Partitioner(abc.ABC):
    """Base class for all partition algorithms.

    Subclasses implement :meth:`partition`, taking a graph and the number
    of target subgraphs and returning a :class:`PartitionResult`.
    """

    #: human-readable algorithm name (class attribute overridden by each
    #: implementation; used as the default ``method`` on results).
    name: str = "base"
    #: the streaming contract (see :mod:`repro.partition.streaming`)
    streams: bool = False
    requires_totals: bool = False

    @abc.abstractmethod
    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """Partition ``graph`` into ``num_parts`` subgraphs."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
