"""Dynamic graphs: edge mutations with incremental partition maintenance.

The ROADMAP's "Dynamic graphs" layer.  A :class:`MutationBatch` is an
ordered list of edge inserts/deletes; :func:`apply_mutations` applies
it to an existing vertex-cut :class:`~repro.partition.PartitionResult`
by re-assigning **only the affected edges** through the streaming EBV
core (warm-seeded from the surviving assignment, inserts fed through
the same windowed machinery as live streams), with measured
replication-factor drift vs. a full repartition and a
``repartition_threshold`` escape hatch.  The on-disk twin —
:func:`repro.stream.patch_spilled_partition` — patches a
:class:`~repro.stream.SpilledPartition`'s shards in place.

Apps run on the maintained partition exactly as on any other (a
pipeline spec's ``mutations`` entry); the differential harness under
``tests/mutate/`` checks them against the references on the mutated
graph.
"""

from ..stream.patch import patch_spilled_partition
from .batch import DELETE, INSERT, MutationBatch, MutationError, ResolvedBatch
from .incremental import (
    DEFAULT_REPARTITION_THRESHOLD,
    MutationResult,
    apply_mutations,
    maintainer,
    mutated_graph,
)

__all__ = [
    "DEFAULT_REPARTITION_THRESHOLD",
    "DELETE",
    "INSERT",
    "MutationBatch",
    "MutationError",
    "MutationResult",
    "ResolvedBatch",
    "apply_mutations",
    "maintainer",
    "mutated_graph",
    "patch_spilled_partition",
]
