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
than that fraction of the mutated graph's edges and there is more than
one part, the layer falls back to a full repartition
(``mode="repartition"``).  :func:`plan_mutations` takes that decision
for the spilled twin too.  Tier-1 holds the
drift to ≤ 1.15 at 1/5/10% churn on a 13k-vertex power-law graph
(``tests/mutate/test_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..graph import Graph
from ..partition import replication_factor
from ..partition.base import VERTEX_CUT, Partitioner, PartitionResult
from ..partition.streaming import StreamingEBVPartitioner, assign_all
from .batch import MutationBatch, MutationError, ResolvedBatch

__all__ = [
    "MutationPlan",
    "MutationResult",
    "apply_mutations",
    "maintainer",
    "mutated_graph",
    "plan_mutations",
    "DEFAULT_REPARTITION_THRESHOLD",
]

#: fraction of the mutated graph's edges a batch may touch before the
#: incremental path gives way to a full repartition
DEFAULT_REPARTITION_THRESHOLD = 0.25


@dataclass
class MutationPlan:
    """A resolved batch sized against the edge list it mutates.

    :func:`plan_mutations` builds it for both fronts —
    :func:`apply_mutations` and
    :func:`repro.stream.patch_spilled_partition` — and
    :meth:`drift_report` is their one report.
    """

    resolved: ResolvedBatch
    num_edges_before: int
    num_vertices_after: int
    touched_fraction: float
    repartition_threshold: float
    #: the escape hatch fired: a full repartition replaces the patch
    repartition: bool

    @property
    def num_inserted(self) -> int:
        return self.resolved.num_inserted

    @property
    def num_deleted(self) -> int:
        return self.resolved.num_removed

    @property
    def num_edges_after(self) -> int:
        return self.num_edges_before - self.num_deleted + self.num_inserted

    @property
    def mode(self) -> str:
        """"repartition" (escape hatch) or "incremental" (affected edges only)."""
        return "repartition" if self.repartition else "incremental"

    @property
    def reassigned_edges(self) -> int:
        """Edges pushed through the assigner."""
        return self.num_edges_after if self.repartition else self.num_inserted

    def drift_report(
        self, rf_before: float, rf_after: float, rf_full: Optional[float] = None
    ) -> Dict[str, Any]:
        """JSON-safe drift report (CLI/bench/CI artifact payload).

        ``rf_full`` is the RF of a from-scratch repartition of the
        mutated graph, when one ran; ``drift`` is ``rf_after / rf_full``,
        exactly 1.0 when the escape hatch fired.
        """
        out: Dict[str, Any] = {
            "mode": self.mode,
            "num_inserted": self.num_inserted,
            "num_deleted": self.num_deleted,
            "num_cancelled": self.resolved.num_cancelled,
            "num_edges_before": int(self.num_edges_before),
            "num_edges_after": int(self.num_edges_after),
            "num_vertices_after": int(self.num_vertices_after),
            "touched_fraction": float(self.touched_fraction),
            "repartition_threshold": float(self.repartition_threshold),
            "reassigned_edges": int(self.reassigned_edges),
            "rf_before": float(rf_before),
            "rf_after": float(rf_after),
        }
        if rf_full is not None:
            out["rf_full"] = float(rf_full)
            out["drift"] = 1.0 if self.repartition else rf_after / max(rf_full, 1e-12)
        return out


def plan_mutations(
    resolved: ResolvedBatch,
    num_edges: int,
    num_vertices: int,
    *,
    weighted: bool,
    num_parts: int,
    repartition_threshold: float,
) -> MutationPlan:
    """Check ``resolved`` against an edge list of ``num_edges`` edges over
    ``num_vertices`` vertices and take the escape-hatch decision: a
    partition into ``num_parts > 1`` parts is rebuilt when the batch
    touches more than ``repartition_threshold`` of the mutated edges."""
    if not 0.0 <= repartition_threshold <= 1.0:
        raise MutationError(
            f"repartition_threshold must be in [0, 1], got {repartition_threshold!r}"
        )
    resolved.check_weights(weighted)
    touched = resolved.num_removed + resolved.num_inserted
    touched_fraction = touched / max(num_edges - resolved.num_removed + resolved.num_inserted, 1)
    return MutationPlan(
        resolved=resolved,
        num_edges_before=int(num_edges),
        num_vertices_after=resolved.num_vertices_after(num_vertices),
        touched_fraction=float(touched_fraction),
        repartition_threshold=float(repartition_threshold),
        repartition=num_parts > 1 and touched_fraction > repartition_threshold,
    )


@dataclass
class MutationResult(MutationPlan):
    """Outcome of :func:`apply_mutations`: the plan it carried out, the
    new partition and its drift metrics."""

    graph: Graph
    partition: PartitionResult
    rf_before: float
    rf_after: float
    #: RF of a from-scratch repartition of the mutated graph (None
    #: unless compare_full=True or the escape hatch fired)
    rf_full: Optional[float] = None

    @property
    def drift(self) -> Optional[float]:
        """rf_after / rf_full (1.0 exactly when mode == "repartition")."""
        return self.report().get("drift")

    def report(self) -> Dict[str, Any]:
        """JSON-safe drift report (:meth:`MutationPlan.drift_report`)."""
        return self.drift_report(self.rf_before, self.rf_after, self.rf_full)


def mutated_graph(graph: Graph, resolved: ResolvedBatch) -> Graph:
    """The post-batch graph: surviving edges in order, inserts appended.

    Edge ids stay dense — survivors compact down in their original
    relative order and inserted edges take the tail ids.  The vertex
    set only grows (to the largest inserted endpoint).
    """
    resolved.check_weights(graph.weights is not None)
    keep = np.ones(graph.num_edges, dtype=bool)
    keep[resolved.removed_ids] = False
    new_src = np.concatenate([graph.src[keep], resolved.insert_src])
    new_dst = np.concatenate([graph.dst[keep], resolved.insert_dst])
    new_w = None
    if graph.weights is not None:
        new_w = np.concatenate([graph.weights[keep], resolved.insert_weights])
    return Graph(
        resolved.num_vertices_after(graph.num_vertices),
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
    partitioner = maintainer(partitioner)
    graph = partition.graph
    num_parts = partition.num_parts
    plan = plan_mutations(
        batch.resolve_against(graph),
        graph.num_edges,
        graph.num_vertices,
        weighted=graph.weights is not None,
        num_parts=num_parts,
        repartition_threshold=repartition_threshold,
    )
    resolved = plan.resolved
    rf_before = float(replication_factor(partition))
    new_graph = mutated_graph(graph, resolved)
    if plan.repartition:
        edge_parts = partitioner.partition(new_graph, num_parts).edge_parts
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

    new_partition = PartitionResult(
        new_graph,
        num_parts,
        edge_parts=np.ascontiguousarray(edge_parts, dtype=np.int64),
        kind=VERTEX_CUT,
        method=partition.method,
    )
    rf_after = replication_factor(new_partition)
    rf_full: Optional[float] = None
    if plan.repartition:
        rf_full = rf_after
    elif compare_full:
        rf_full = replication_factor(partitioner.partition(new_graph, num_parts))
    return MutationResult(
        **vars(plan),
        graph=new_graph,
        partition=new_partition,
        rf_before=rf_before,
        rf_after=float(rf_after),
        rf_full=rf_full,
    )
