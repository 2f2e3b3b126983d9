"""Incremental partition maintenance under mutations.

:func:`apply_mutations` turns ``(PartitionResult, MutationBatch)`` into
a new partition of the mutated graph while re-assigning **only the
affected edges**:

* surviving edges keep their part — their placement cost is already
  paid and the paper's evaluation function has no reason to move them;
* deleted edges surrender their balance/replica contributions, which is
  exact: the streaming state is *re-seeded* from the surviving
  assignment (:meth:`StreamingEBVAssigner.seed`), not patched;
* inserted edges are fed in windows into the warm assigner, so they
  are scored by the same greedy EBV evaluation function against the
  live per-part counts and replica sets.

Seeding reads the *assignment*, not the history that made it, so
:func:`maintainer` (ebv-stream) maintains any vertex-cut partition.

The incremental path trades replication factor for work: it never
revisits old edges, so its RF can drift above what a full repartition
of the mutated graph would achieve.  The drift is *measured* —
``compare_full=True`` runs the full repartition and reports
``rf_after / rf_full`` — and *bounded operationally* by the
``repartition_threshold`` escape hatch: when the batch touches more
than that fraction of the mutated graph's edges, the layer falls back
to a full repartition (``mode="repartition"``).  Tier-1 holds the
drift to ≤ 1.15 at 1/5/10% churn on a 13k-vertex power-law graph
(``tests/mutate/test_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..graph import Graph
from ..partition import replication_factor
from ..partition.base import VERTEX_CUT, Partitioner, PartitionResult
from ..partition.streaming import StreamingEBVPartitioner, assign_all
from .batch import MutationBatch, MutationError, ResolvedBatch

__all__ = [
    "MutationResult",
    "apply_mutations",
    "maintainer",
    "mutated_graph",
    "DEFAULT_REPARTITION_THRESHOLD",
]

#: fraction of the mutated graph's edges a batch may touch before the
#: incremental path gives way to a full repartition
DEFAULT_REPARTITION_THRESHOLD = 0.25


@dataclass
class MutationResult:
    """Outcome of :func:`apply_mutations`: new partition + drift metrics."""

    graph: Graph
    partition: PartitionResult
    resolved: ResolvedBatch
    #: "incremental" (affected edges only) or "repartition" (escape hatch)
    mode: str
    touched_fraction: float
    repartition_threshold: float
    #: edges actually pushed through the assigner this call
    reassigned_edges: int
    rf_before: float
    rf_after: float
    #: RF of a from-scratch repartition of the mutated graph (None
    #: unless compare_full=True or the escape hatch fired)
    rf_full: Optional[float] = None
    #: rf_after / rf_full (1.0 exactly when mode == "repartition")
    drift: Optional[float] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_inserted(self) -> int:
        return self.resolved.num_inserted

    @property
    def num_deleted(self) -> int:
        return self.resolved.num_removed

    def report(self) -> Dict[str, Any]:
        """JSON-safe drift report (CLI/bench/CI artifact payload)."""
        out: Dict[str, Any] = {
            "mode": self.mode,
            "num_inserted": self.num_inserted,
            "num_deleted": self.num_deleted,
            "num_cancelled": self.resolved.num_cancelled,
            "num_edges_before": int(
                self.graph.num_edges - self.num_inserted + self.num_deleted
            ),
            "num_edges_after": int(self.graph.num_edges),
            "num_vertices_after": int(self.graph.num_vertices),
            "touched_fraction": float(self.touched_fraction),
            "repartition_threshold": float(self.repartition_threshold),
            "reassigned_edges": int(self.reassigned_edges),
            "rf_before": float(self.rf_before),
            "rf_after": float(self.rf_after),
        }
        if self.rf_full is not None:
            out["rf_full"] = float(self.rf_full)
        if self.drift is not None:
            out["drift"] = float(self.drift)
        out.update(self.extras)
        return out


def mutated_graph(graph: Graph, resolved: ResolvedBatch) -> Graph:
    """The post-batch graph: surviving edges in order, inserts appended.

    Edge ids stay dense — survivors compact down in their original
    relative order and inserted edges take the tail ids.  The vertex
    set only grows (to the largest inserted endpoint).
    """
    if resolved.has_explicit_weights and graph.weights is None:
        raise MutationError(
            "batch carries edge weights but the graph is unweighted; "
            "drop the weights or mutate a weighted graph"
        )
    keep = np.ones(graph.num_edges, dtype=bool)
    keep[resolved.removed_ids] = False
    new_src = np.concatenate([graph.src[keep], resolved.insert_src])
    new_dst = np.concatenate([graph.dst[keep], resolved.insert_dst])
    new_w = None
    if graph.weights is not None:
        new_w = np.concatenate([graph.weights[keep], resolved.insert_weights])
    num_vertices = int(graph.num_vertices)
    if resolved.num_inserted:
        num_vertices = max(
            num_vertices,
            int(max(resolved.insert_src.max(), resolved.insert_dst.max())) + 1,
        )
    return Graph(
        num_vertices,
        new_src,
        new_dst,
        weights=new_w,
        directed=True,
        name=graph.name,
    )


def maintainer(partitioner: Optional[Partitioner] = None) -> StreamingEBVPartitioner:
    """``partitioner`` if its assigner can be seeded (ebv-stream), else a
    default :class:`StreamingEBVPartitioner`: the one that maintains."""
    if isinstance(partitioner, StreamingEBVPartitioner):
        return partitioner
    return StreamingEBVPartitioner()


def apply_mutations(
    partition: PartitionResult,
    batch: MutationBatch,
    partitioner: Optional[Partitioner] = None,
    *,
    repartition_threshold: float = DEFAULT_REPARTITION_THRESHOLD,
    compare_full: bool = False,
) -> MutationResult:
    """Apply a mutation batch to a vertex-cut partition incrementally.

    :func:`maintainer` of ``partitioner`` scores the inserted edges and
    runs the full repartitions of the escape hatch and ``compare_full``,
    whichever method produced ``partition``.
    """
    if partition.kind != VERTEX_CUT:
        raise MutationError(
            f"apply_mutations maintains vertex-cut partitions; got kind "
            f"{partition.kind!r} (method {partition.method!r})"
        )
    if not 0.0 <= repartition_threshold <= 1.0:
        raise MutationError(
            f"repartition_threshold must be in [0, 1], got {repartition_threshold!r}"
        )
    partitioner = maintainer(partitioner)
    graph = partition.graph
    resolved = batch.resolve_against(graph)
    new_graph = mutated_graph(graph, resolved)
    num_parts = partition.num_parts
    m_new = new_graph.num_edges
    touched = (resolved.num_removed + resolved.num_inserted) / max(m_new, 1)
    rf_before = replication_factor(partition)

    rf_full: Optional[float] = None
    drift: Optional[float] = None
    if num_parts == 1:
        edge_parts = np.zeros(m_new, dtype=np.int64)
        mode = "incremental"
        reassigned = resolved.num_inserted
    elif touched > repartition_threshold:
        full = partitioner.partition(new_graph, num_parts)
        edge_parts = full.edge_parts
        mode = "repartition"
        reassigned = m_new
    else:
        keep = np.ones(graph.num_edges, dtype=bool)
        keep[resolved.removed_ids] = False
        surviving_parts = partition.edge_parts[keep]
        assigner = partitioner.streamer(num_parts)
        n_surviving = surviving_parts.shape[0]
        assigner.seed(
            new_graph.src[:n_surviving],
            new_graph.dst[:n_surviving],
            surviving_parts,
            num_vertices=new_graph.num_vertices,
        )
        edge_parts = np.concatenate([
            surviving_parts,
            assign_all(assigner, resolved.insert_src, resolved.insert_dst),
        ])
        mode = "incremental"
        reassigned = resolved.num_inserted

    new_partition = PartitionResult(
        new_graph,
        num_parts,
        edge_parts=np.ascontiguousarray(edge_parts, dtype=np.int64),
        kind=VERTEX_CUT,
        method=partition.method,
    )
    rf_after = replication_factor(new_partition)
    if mode == "repartition":
        rf_full = rf_after
        drift = 1.0
    elif compare_full:
        rf_full = replication_factor(partitioner.partition(new_graph, num_parts))
        drift = rf_after / max(rf_full, 1e-12)
    return MutationResult(
        graph=new_graph,
        partition=new_partition,
        resolved=resolved,
        mode=mode,
        touched_fraction=float(touched),
        repartition_threshold=float(repartition_threshold),
        reassigned_edges=int(reassigned),
        rf_before=float(rf_before),
        rf_after=float(rf_after),
        rf_full=rf_full,
        drift=drift,
    )
