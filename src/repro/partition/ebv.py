"""EBV: the Efficient and Balanced Vertex-cut partitioner (Algorithm 1).

EBV processes edges one at a time and assigns edge ``(u, v)`` to the
subgraph ``i`` minimizing the evaluation function (Eq. 2)::

    Eva_(u,v)(i) = I(u ∉ keep[i]) + I(v ∉ keep[i])
                 + α · ecount[i] / (|E| / p)
                 + β · vcount[i] / (|V| / p)

The two indicator terms penalize creating new vertex replicas (driving
the replication factor down) while the α and β terms penalize edge and
vertex count imbalance (driving both imbalance factors toward 1).  Ties
are broken toward the lowest subgraph id, matching ``arg min``.

Before partitioning, the *sorting preprocessing* (Section IV-C) orders
edges by ascending sum of end-vertex degrees, so low-degree edges are
spread evenly as per-subgraph "seeds" before high-degree hubs arrive.
The ``sort_order`` knob also supports the ablations from DESIGN.md (A3):
descending, random, and raw input order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph import Graph
from .base import VERTEX_CUT, Partitioner, PartitionResult

__all__ = ["EBVCore", "EBVPartitioner", "SORT_ORDERS", "edge_processing_order"]

SORT_ORDERS = ("ascending", "descending", "random", "input")


def edge_processing_order(
    graph: Graph, sort_order: str = "ascending", seed: int = 0
) -> np.ndarray:
    """Return the edge permutation used by EBV's preprocessing.

    ``ascending`` is the paper's EBV-sort (stable sort by the sum of
    end-vertex total degrees); ``input`` is EBV-unsort; ``descending``
    and ``random`` exist for the sorting ablation.
    """
    if sort_order not in SORT_ORDERS:
        raise ValueError(f"sort_order must be one of {SORT_ORDERS}")
    if sort_order == "input":
        return np.arange(graph.num_edges, dtype=np.int64)
    if sort_order == "random":
        rng = np.random.default_rng(seed)
        return rng.permutation(graph.num_edges).astype(np.int64)
    degrees = graph.degrees()
    key = degrees[graph.src] + degrees[graph.dst]
    order = np.argsort(key, kind="stable")
    if sort_order == "descending":
        order = order[::-1]
    return order.astype(np.int64)


class EBVCore:
    """Replica state and the one per-edge Eq. 2 loop every EBV variant drives.

    State is the replica bitmap ``member`` (``member[v, i]`` iff
    ``v ∈ keep[i]``; rows grow on demand via :meth:`grow`) and the int64
    per-part ``ecount``/``vcount``.  :meth:`assign` is Algorithm 1's
    loop: score an edge against every part, ``arg min`` (ties to the
    lowest id), commit.  The offline, streaming and sharded partitioners
    are fronts that choose the processing order and own whatever else is
    theirs (degree estimates, epoch snapshots); none of them scores.

    Normalization: pass the exact ``num_edges``/``num_vertices`` to
    divide by ``|E|/p`` and ``|V|/p`` as Eq. 2 is written; leave them
    ``None`` to divide by the *running* totals instead (floored at one
    edge/vertex per part so the first edges never divide by zero) —
    the same greedy score, computable mid-stream.

    Balance policy (internal; the fronts choose, users never do): the
    ``α·ecount/(|E|/p) + β·vcount/(|V|/p)`` term is either *maintained*
    (a float vector bumped by one unit per commit) or *derived* from the
    integer counts before every edge.  The two round differently in the
    last ulp and a single flipped tie cascades through the whole
    assignment, so each front keeps the policy its published numbers
    were produced with.  Maintained needs fixed units and state that is
    never rewritten from outside (offline EBV); running totals
    (streaming), :meth:`seed` and rolled-back snapshots (sharded) all
    need derived.
    """

    def __init__(
        self,
        num_parts: int,
        alpha: float,
        beta: float,
        num_edges: Optional[int] = None,
        num_vertices: Optional[int] = None,
        maintained: bool = False,
    ):
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self.num_parts = p = int(num_parts)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.member = np.zeros((int(num_vertices or 0), p), dtype=bool)
        self.ecount = np.zeros(p, dtype=np.int64)
        self.vcount = np.zeros(p, dtype=np.int64)
        self._units: Optional[Tuple[float, float]] = None
        if num_edges is not None and num_vertices is not None:
            self._units = (
                self.alpha / max(num_edges / p, 1e-12),
                self.beta / max(num_vertices / p, 1e-12),
            )
        self._balance = np.zeros(p, dtype=np.float64) if maintained else None

    @property
    def edges_assigned(self) -> int:
        return int(self.ecount.sum())

    @property
    def vertices_covered(self) -> int:
        """``Σ_i |V_i|`` — (vertex, part) incidences."""
        return int(self.vcount.sum())

    @property
    def vertices_seen(self) -> int:
        """Distinct vertices holding at least one replica."""
        return int(np.count_nonzero(self.member.any(axis=1)))

    def replication_factor(self, num_vertices: Optional[int] = None) -> float:
        """``Σ_i |V_i| / |V|`` so far (1.0 before any edge).

        ``num_vertices`` is the metrics convention of
        :func:`repro.partition.replication_factor`, which also counts
        isolated vertices; without it the denominator is the distinct
        vertices seen, all that is known mid-stream.
        """
        denom = self.vertices_seen if num_vertices is None else int(num_vertices)
        if denom <= 0:
            return 1.0
        return self.vertices_covered / denom

    def grow(self, num_vertices: int) -> None:
        """Make room for vertex ids below ``num_vertices`` (amortized O(1))."""
        have = self.member.shape[0]
        if num_vertices > have:
            grown = np.zeros((max(num_vertices, 2 * have), self.num_parts), dtype=bool)
            grown[:have] = self.member
            self.member = grown

    def seed(self, src: np.ndarray, dst: np.ndarray, parts: np.ndarray) -> None:
        """Add edges already assigned elsewhere: ``(src[j], dst[j]) → parts[j]``.

        Writes straight into the bitmap and re-derives ``vcount`` from
        it, so calls add up (one per spilled shard, say).  Derived
        cores only: a maintained balance vector cannot be rebuilt.
        """
        self.member[src, parts] = True
        self.member[dst, parts] = True
        self.ecount += np.bincount(parts, minlength=self.num_parts)
        self.vcount[:] = np.count_nonzero(self.member, axis=0)

    def assign(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        order: np.ndarray,
        out: np.ndarray,
        trace: Optional[np.ndarray] = None,
    ) -> None:
        """Assign edges ``(src[j], dst[j])`` for ``j`` in ``order``, in order.

        Writes the chosen part to ``out[j]`` and, when given,
        ``Σ_i |V_i|`` after the ``t``-th step to ``trace[t]``.  Vertex
        ids must be below ``member.shape[0]`` (see :meth:`grow`).
        """
        p = self.num_parts
        member, ecount, vcount, balance = self.member, self.ecount, self.vcount, self._balance
        alpha, beta = self.alpha, self.beta
        running = self._units is None
        if not running:
            edge_unit, vertex_unit = self._units
        assigned, covered = self.edges_assigned, self.vertices_covered
        eva = np.empty(p, dtype=np.float64)
        term = np.empty(p, dtype=np.float64)
        for t, j in enumerate(order.tolist()):
            in_u = member[src[j]]
            in_v = member[dst[j]]
            # eva[i] = balance[i] + 2 - I(u ∈ keep[i]) - I(v ∈ keep[i])
            if balance is not None:
                np.add(balance, 2.0, out=eva)
            else:
                if running:
                    edge_unit = alpha / max(assigned / p, 1.0 / p)
                    vertex_unit = beta / max(covered / p, 1.0 / p)
                np.multiply(ecount, edge_unit, out=eva)
                np.multiply(vcount, vertex_unit, out=term)
                eva += term
                eva += 2.0
            eva -= in_u
            eva -= in_v
            i = int(np.argmin(eva))
            out[j] = i
            ecount[i] += 1
            assigned += 1
            # a self loop's two rows are one view: the second test sees the first write
            gained = 0
            if not in_u[i]:
                in_u[i] = True
                gained = 1
            if not in_v[i]:
                in_v[i] = True
                gained += 1
            if gained:
                vcount[i] += gained
                covered += gained
            if balance is not None:
                # one addition per unit, in commit order: this is the rounding
                # the maintained policy exists to preserve
                bumped = balance[i] + edge_unit
                for _ in range(gained):
                    bumped += vertex_unit
                balance[i] = bumped
            if trace is not None:
                trace[t] = covered


class EBVPartitioner(Partitioner):
    """Efficient and Balanced Vertex-cut partitioner.

    Parameters
    ----------
    alpha:
        Weight of the edge-balance term (default 1, per Section IV-C).
    beta:
        Weight of the vertex-balance term (default 1).
    sort_order:
        One of :data:`SORT_ORDERS`; ``"ascending"`` is EBV-sort (the
        paper default) and ``"input"`` is EBV-unsort.
    track_growth:
        When ``True``, record ``Σ_i |V_i|`` after every assigned edge so
        the Figure 5 replication-factor growth curve can be plotted; the
        trace is exposed as :attr:`last_trace`.
    seed:
        Only used by the ``"random"`` sort order.
    """

    name = "EBV"

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 1.0,
        sort_order: str = "ascending",
        track_growth: bool = False,
        seed: int = 0,
    ):
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if sort_order not in SORT_ORDERS:
            raise ValueError(f"sort_order must be one of {SORT_ORDERS}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.sort_order = sort_order
        self.track_growth = bool(track_growth)
        self.seed = seed
        #: after :meth:`partition` with ``track_growth=True``: int64 array
        #: whose ``m``-th entry is ``Σ_i |V_i|`` after ``m+1`` edges.
        self.last_trace: Optional[np.ndarray] = None

    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """Run Algorithm 1 and return the vertex-cut partition."""
        m = graph.num_edges
        edge_parts = np.full(m, -1, dtype=np.int64)
        trace = np.zeros(m, dtype=np.int64) if self.track_growth else None
        # Exact totals and no rollback: the maintained balance policy.
        core = EBVCore(
            num_parts, self.alpha, self.beta, m, graph.num_vertices, maintained=True
        )
        order = edge_processing_order(graph, self.sort_order, self.seed)
        core.assign(graph.src, graph.dst, order, edge_parts, trace)
        self.last_trace = trace
        suffix = "-sort" if self.sort_order == "ascending" else (
            "-unsort" if self.sort_order == "input" else f"-{self.sort_order}"
        )
        return PartitionResult(
            graph,
            num_parts,
            edge_parts=edge_parts,
            kind=VERTEX_CUT,
            method=f"{self.name}{suffix}" if suffix != "-sort" else self.name,
        )

    # ------------------------------------------------------------------
    # Figure 5 support
    # ------------------------------------------------------------------

    def growth_curve(
        self, graph: Graph, max_points: int = 512
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edges_processed, replication_factor)`` sample arrays.

        Requires :meth:`partition` to have been called with
        ``track_growth=True``.  Down-samples the per-edge trace to at most
        ``max_points`` points for plotting/reporting.
        """
        if self.last_trace is None:
            raise RuntimeError("partition(..) with track_growth=True must run first")
        m = self.last_trace.shape[0]
        idx = np.unique(np.linspace(0, m - 1, num=min(max_points, m)).astype(np.int64))
        x = idx + 1
        y = self.last_trace[idx] / graph.num_vertices
        return x, y
