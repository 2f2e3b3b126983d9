"""Streaming and distributed EBV — the paper's stated future work.

Section VII: "EBV is a sequential and offline partition algorithm.  We
might need to extend it to the distributed and streaming environment to
handle larger graphs."  This module provides both extensions, and
neither contains a scoring loop: **one core, three fronts**.
:class:`~repro.partition.ebv.EBVCore` holds the replica bitmap, the
per-part counts and the only per-edge Eq. 2 loop in the package; the
offline :class:`~repro.partition.ebv.EBVPartitioner` and the two
assigners below differ only in the order they hand it edges and in the
state that is genuinely their own.

* :class:`StreamingEBVAssigner` (front of
  :class:`StreamingEBVPartitioner`) — a one-pass variant that never sees
  the whole edge list.  Its own state is the *online degree estimate*:
  each window is stably sorted by the estimated end-vertex degree sum (a
  windowed approximation of the offline sorting preprocessing, in the
  spirit of ADWISE's bounded look-ahead) and handed to the core.  Exact
  |E| and |V| are unknown mid-stream, so the core normalizes by the
  *running* totals.  :meth:`StreamingEBVAssigner.seed` warm-starts it
  from an existing assignment, which is how :mod:`repro.mutate` and
  :func:`repro.stream.patch_spilled_partition` re-assign only a
  batch's inserted edges.

* :class:`ShardedEBVAssigner` (front of :class:`ShardedEBVPartitioner`)
  — a simulated distributed EBV: ``k`` workers each own a shard of the
  edge stream and score against a private snapshot of the global state,
  merging every ``sync_interval`` edges.  Its own logic is the epoch:
  snapshot the touched bitmap rows and the counts, run each shard's
  sub-queue through the plain core, roll back, and merge at the
  barrier.  Larger intervals mean staler state and a higher replication
  factor; the ablation bench quantifies that staleness cost.

**Maintained vs derived balance.**  The core can keep Eq. 2's balance
term as a float vector bumped per commit (*maintained*) or recompute it
from the integer counts before every edge (*derived*).  They agree
mathematically but not in the last ulp, and one flipped tie cascades
through the rest of the assignment.  The rule: maintained only when the
totals are exact and nothing rewrites the state from outside — offline
EBV; derived otherwise — running totals and seeding (streaming),
rolled-back snapshots (sharded).  The fronts make that choice; it is
not an option.

The assigners consume bare ``(src, dst)`` edge chunks and never touch a
:class:`~repro.graph.Graph`.  The classic :meth:`Partitioner.partition`
entry points feed them from the in-memory edge arrays; the out-of-core
driver in :mod:`repro.stream` feeds them from disk — both paths produce
byte-identical assignments (enforced by
``tests/stream/test_stream_equivalence.py``).

The contract every caller relies on:

* ``streams`` (per partitioner instance) — whether
  :func:`repro.stream.stream_partition` may feed it through
  ``streamer()``: ``ebv-stream`` always, ``ebv-sharded`` when
  ``sort_edges`` is off, no other partitioner.
* ``requires_totals`` — ``streamer()`` needs exact |E| and |V|, so the
  driver runs the degree-sketch pre-pass first (``ebv-sharded``).
* ``window`` / ``assign(src, dst)`` — an assigner takes windows of
  exactly ``window`` edges (the last may be short) and returns their
  parts in input order; :func:`repro.stream.windows` re-buffers chunk
  streams and :func:`assign_all` arrays into them, so assignments do
  not depend on chunking.
* ``seed(src, dst, parts)`` — the warm start, on
  :class:`StreamingEBVAssigner` only; :func:`repro.mutate.maintainer`
  picks the partitioner whose assigner maintains an assignment.
* ``replication_factor()`` — current replication factor of the
  assignment so far, computable from the assigner's own state without
  any graph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import Graph
from .base import VERTEX_CUT, Partitioner, PartitionResult
from .ebv import EBVCore, check_weights, degree_sum_order, edge_processing_order

__all__ = [
    "StreamingEBVPartitioner",
    "ShardedEBVPartitioner",
    "StreamingEBVAssigner",
    "ShardedEBVAssigner",
    "assign_all",
]

#: what a stream source needs, for the refusals of the driver and the spec
STREAMING_PARTITIONERS = "stream with ebv-stream, or ebv-sharded with sort_edges=false"


def _edge_arrays(*arrays) -> tuple:
    return tuple(np.ascontiguousarray(a, dtype=np.int64) for a in arrays)


def _top_vertex(src: np.ndarray, dst: np.ndarray) -> int:
    """Highest vertex id of a non-empty window; rejects negative ids.

    A negative id would index the replica bitmap from the end and score
    against some other vertex's row.
    """
    low = int(min(src.min(), dst.min()))
    if low < 0:
        raise ValueError(f"edge references negative vertex id {low}")
    return int(max(src.max(), dst.max()))


def assign_all(assigner, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Feed every edge to ``assigner`` in windows of exactly
    ``assigner.window``; returns the parts in input order."""
    src, dst = _edge_arrays(src, dst)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have identical shapes")
    out = np.empty(src.shape[0], dtype=np.int64)
    for start in range(0, src.shape[0], assigner.window):
        stop = start + assigner.window
        out[start:stop] = assigner.assign(src[start:stop], dst[start:stop])
    return out


class StreamingEBVAssigner:
    """Streaming front of :class:`EBVCore`: online degrees + window sort.

    Holds O(vertices seen) state — the degree estimates here, the
    replica bitmap in the core — growing lazily as new vertex ids
    appear, so it can be driven either from in-memory arrays or from an
    on-disk stream of unknown extent.
    """

    def __init__(self, num_parts: int, chunk_size: int, alpha: float, beta: float):
        # Running totals: the derived balance policy.
        self._core = EBVCore(num_parts, alpha, beta)
        self.num_parts = self._core.num_parts
        self.window = int(chunk_size)
        self._seen_degree = np.zeros(0, dtype=np.int64)

    def _grow(self, needed: int) -> None:
        # follow the bitmap's capacity, so one (doubling) policy sizes both
        self._core.grow(needed)
        short = self._core.member.shape[0] - self._seen_degree.shape[0]
        if short:
            self._seen_degree = np.concatenate(
                [self._seen_degree, np.zeros(short, dtype=np.int64)]
            )

    def seed(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        parts: np.ndarray,
        num_vertices: Optional[int] = None,
    ) -> None:
        """Warm-start from an existing edge assignment (additive).

        Afterwards the state — degree estimates, replica bitmap,
        per-part counts — is as if every ``(src[j], dst[j])`` edge had
        already been assigned to ``parts[j]``, in O(|E|) vectorized
        work; subsequent :meth:`assign` calls score *new* edges against
        the live partition instead of an empty one.  Calls add up, so an
        assignment held shard by shard is seeded one shard at a time.

        The seeded state is equivalent for all future scoring, not a
        byte replay of the original assignment history.
        """
        src, dst, parts = _edge_arrays(src, dst, parts)
        if not (src.shape == dst.shape == parts.shape):
            raise ValueError("src, dst and parts must have identical shapes")
        m = src.shape[0]
        if m and (parts.min() < 0 or parts.max() >= self.num_parts):
            raise ValueError(
                f"seed parts must lie in [0, {self.num_parts}); "
                f"got range [{int(parts.min())}, {int(parts.max())}]"
            )
        n = int(num_vertices) if num_vertices is not None else 0
        if m:
            n = max(n, _top_vertex(src, dst) + 1)
        self._grow(n)
        cap = self._seen_degree.shape[0]
        self._seen_degree += np.bincount(src, minlength=cap) + np.bincount(dst, minlength=cap)
        self._core.seed(src, dst, parts)

    def assign(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Assign one window of edges; returns part ids in input order.

        Each call is one sorting window: degree estimates are updated
        with the whole window first, then edges are assigned ascending
        by estimated end-vertex degree sum.
        """
        src, dst = _edge_arrays(src, dst)
        out = np.empty(src.shape[0], dtype=np.int64)
        if src.shape[0] == 0:
            return out
        self._grow(_top_vertex(src, dst) + 1)
        seen_degree = self._seen_degree
        np.add.at(seen_degree, src, 1)
        np.add.at(seen_degree, dst, 1)
        self._core.assign(src, dst, degree_sum_order(seen_degree, src, dst), out)
        return out

    def replication_factor(self, num_vertices: Optional[int] = None) -> float:
        """Replicas per vertex so far (1.0 before any edge).

        Mid-stream the true |V| is unknown, so the default denominator
        is the distinct vertices seen; pass ``num_vertices`` (e.g. from
        the degree sketch, once the stream is exhausted) to match the
        ``Σ|V_i| / |V|`` convention of
        :func:`repro.partition.replication_factor`, which also counts
        isolated vertices.
        """
        return self._core.replication_factor(num_vertices)


class ShardedEBVAssigner:
    """Sharded front of :class:`EBVCore`: epochs of stale-snapshot scoring.

    One :meth:`assign` call processes one *epoch span* of
    ``num_shards * sync_interval`` consecutive edges: the span is dealt
    round-robin to the shard workers (edge ``j`` of the span goes to
    worker ``j % num_shards``), every worker assigns its sub-queue
    against a private snapshot of the committed global state, and the
    epoch ends with the synchronization barrier that merges all deltas.
    Feeding the spans sequentially reproduces the offline simulation
    byte-for-byte.

    The evaluation function normalizes by the exact ``|E|``/``|V|`` of
    the whole stream, so both must be known up front — out of core that
    is what the :class:`repro.stream.DegreeSketch` pre-pass provides.
    """

    def __init__(
        self,
        num_parts: int,
        num_shards: int,
        sync_interval: int,
        alpha: float,
        beta: float,
        num_edges: int,
        num_vertices: int,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        # Exact totals, but every shard rolls the state back: derived.
        self._core = EBVCore(num_parts, alpha, beta, num_edges, num_vertices)
        self.num_parts = self._core.num_parts
        self.num_shards = int(num_shards)
        self.window = self.num_shards * int(sync_interval)
        self.num_vertices = int(num_vertices)

    def assign(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Run one epoch over a span of ``window`` edges (last may be short)."""
        src, dst = _edge_arrays(src, dst)
        span = src.shape[0]
        out = np.empty(span, dtype=np.int64)
        if span == 0:
            return out
        top = _top_vertex(src, dst)
        if top >= self.num_vertices:
            raise ValueError(
                f"edge references vertex id {top} but the assigner was "
                f"declared with num_vertices={self.num_vertices}"
            )
        core = self._core
        touched = np.unique(np.concatenate([src, dst]))
        committed = core.member[touched]
        ecount, vcount = core.ecount.copy(), core.vcount.copy()
        merged = committed.copy()
        for s in range(self.num_shards):
            core.assign(src, dst, np.arange(s, span, self.num_shards), out)
            merged |= core.member[touched]
            core.member[touched] = committed
            core.ecount[:] = ecount
            core.vcount[:] = vcount
        # Synchronization barrier: merge every worker's deltas.  vcount
        # is recounted from the merged rows, not summed: two workers may
        # both have replicated the same vertex into a part.
        core.member[touched] = merged
        core.ecount += np.bincount(out, minlength=self.num_parts)
        core.vcount += np.count_nonzero(merged, axis=0) - np.count_nonzero(committed, axis=0)
        return out

    def replication_factor(self, num_vertices: Optional[int] = None) -> float:
        """Committed replicas per vertex (see :class:`StreamingEBVAssigner`).

        The sharded front knows the exact |V| up front, so the metrics
        convention (``Σ|V_i| / |V|``) is the default denominator.
        """
        return self._core.replication_factor(
            self.num_vertices if num_vertices is None else num_vertices
        )


class StreamingEBVPartitioner(Partitioner):
    """One-pass EBV over an edge stream with online degree estimation.

    Parameters
    ----------
    chunk_size:
        Number of edges buffered (the sorting window).  ``1`` degenerates
        to fully-online EBV-unsort; larger windows recover more of the
        offline sorting benefit.
    alpha, beta:
        The evaluation-function balance weights (Eq. 2).
    """

    name = "EBV-stream"
    #: every configuration consumes a stream, normalizing by running counts
    streams = True

    def __init__(self, chunk_size: int = 4096, alpha: float = 1.0, beta: float = 1.0):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = int(chunk_size)
        self.alpha, self.beta = check_weights(alpha, beta)

    def streamer(
        self,
        num_parts: int,
        num_edges: Optional[int] = None,
        num_vertices: Optional[int] = None,
    ) -> StreamingEBVAssigner:
        """Fresh chunk-consuming assigner (the totals hints are unused)."""
        return StreamingEBVAssigner(num_parts, self.chunk_size, self.alpha, self.beta)

    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """Stream the edge list in input order, chunk by chunk."""
        edge_parts = assign_all(self.streamer(num_parts), graph.src, graph.dst)
        return PartitionResult(
            graph, num_parts, edge_parts=edge_parts, kind=VERTEX_CUT,
            method=self.name,
        )


class ShardedEBVPartitioner(Partitioner):
    """Distributed EBV simulation: sharded workers with periodic sync.

    Parameters
    ----------
    num_shards:
        Number of parallel partitioner workers.
    sync_interval:
        Edges each worker assigns between global state merges.  Smaller
        intervals track the sequential algorithm more closely (and cost
        more coordination in a real deployment).
    alpha, beta:
        Evaluation-function weights.
    sort_edges:
        Apply the (global) sorting preprocessing before sharding; edges
        are then dealt round-robin so every shard sees the same degree
        profile.  Sorting needs the whole edge list, so only the
        ``sort_edges=False`` configuration can consume a stream.
    """

    name = "EBV-sharded"
    #: the evaluation function divides by exact |E| and |V|, so the
    #: out-of-core driver must run a degree-sketch pre-pass first
    requires_totals = True

    def __init__(
        self,
        num_shards: int = 4,
        sync_interval: int = 256,
        alpha: float = 1.0,
        beta: float = 1.0,
        sort_edges: bool = True,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        self.num_shards = int(num_shards)
        self.sync_interval = int(sync_interval)
        self.alpha, self.beta = check_weights(alpha, beta)
        self.sort_edges = bool(sort_edges)

    @property
    def streams(self) -> bool:
        """Only the unsorted configuration can stream (see ``sort_edges``)."""
        return not self.sort_edges

    def streamer(
        self,
        num_parts: int,
        num_edges: Optional[int] = None,
        num_vertices: Optional[int] = None,
    ) -> ShardedEBVAssigner:
        """Chunk-consuming assigner; needs the stream's exact totals."""
        if self.sort_edges:
            raise ValueError(
                "EBV-sharded with sort_edges=true needs the whole edge list "
                "for the global degree sort and cannot consume a stream; "
                "use sort_edges=false"
            )
        if num_edges is None or num_vertices is None:
            raise ValueError(
                "EBV-sharded normalizes by exact |E| and |V|; run a "
                "degree-sketch pass and pass num_edges/num_vertices"
            )
        return ShardedEBVAssigner(
            num_parts, self.num_shards, self.sync_interval,
            self.alpha, self.beta, num_edges, num_vertices,
        )

    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """Run the sharded simulation; one epoch = sync_interval edges/shard."""
        order = edge_processing_order(
            graph, "ascending" if self.sort_edges else "input"
        )
        assigner = ShardedEBVAssigner(
            num_parts, self.num_shards, self.sync_interval,
            self.alpha, self.beta, graph.num_edges, graph.num_vertices,
        )
        # Each window of the processing order is one epoch (see
        # ShardedEBVAssigner); scatter the parts back to edge ids.
        edge_parts = np.empty(graph.num_edges, dtype=np.int64)
        edge_parts[order] = assign_all(assigner, graph.src[order], graph.dst[order])
        return PartitionResult(
            graph, num_parts, edge_parts=edge_parts, kind=VERTEX_CUT,
            method=self.name,
        )
