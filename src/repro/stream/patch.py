"""In-place mutation patching of spilled partitions (shard surgery).

:func:`patch_spilled_partition` applies a
:class:`~repro.mutate.MutationBatch` to an on-disk
:class:`SpilledPartition` without ever assembling the full graph:

1. **Resolve** — each shard is one ``(edge_ids, src, dst)`` piece of
   :meth:`MutationBatch.resolve`, the in-memory path's resolver, and is
   read only when the batch deletes.
   :func:`repro.mutate.incremental.plan_mutations` checks the batch and
   takes the escape-hatch decision, as for
   :func:`repro.mutate.apply_mutations`.
2. **Seed + stage** — one shard at a time, the pass drops the removed
   rows, re-densifies the surviving edge ids (a delete shifts every
   later id down) and warm-seeds a :class:`StreamingEBVAssigner`
   (:meth:`seed` is additive).  A shard that lost rows or whose ids
   shifted is written straight to its temporary file, which stays open
   (one per changed shard, as in the spill itself).
3. **Assign + stage** — the inserted edges run through the seeded
   assigner in its windows (:func:`repro.partition.streaming.assign_all`),
   exactly like a live stream, and take the tail edge ids.  Each insert
   goes to its target shard's temporary file after the survivors; a
   shard no delete changed is read once more to stage it.  Shards that
   neither change nor gain an insert are left alone.

Peak memory is O(largest shard + vertex state + |E| part ids) — the
``edge_parts.bin`` rewrite holds the id array, matching what
:meth:`SpilledPartition.edge_parts` already loads — with or without
deletes.

When the batch touches more than ``repartition_threshold`` of the
mutated edge set, the escape hatch assembles, rebuilds the mutated
graph and **re-spills from scratch** (a full repartition).

Crash safety: every changed shard, its weight file and the new
``edge_parts.bin`` are written in full to temporaries, then renamed in
part order before the manifest is republished (``driver.py``'s atomic
publish); nothing is written in place, and a patch that fails removes
the temporaries it has not renamed.  A crash mid-patch leaves the old
manifest alongside partially renamed data files.  Every reader
checks each file's size against the manifest, and
:meth:`SpilledPartition.assemble` checks that every edge id occurs
once, in the shard ``edge_parts.bin`` names — so a torn patch is
*detected* (``StreamError``) even when its row counts still match,
rather than silently served.  Recover by re-spilling with
``overwrite=True``; a checkpointed pipeline does so on resume.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, suppress
from typing import IO, Any, Dict, Optional, Tuple

import numpy as np

from .driver import (
    SpilledPartition,
    _EDGE_PARTS,
    _publish_manifest,
    _shard_name,
    _shard_weights_name,
    stream_partition,
)
from .sources import ArrayEdgeStream

__all__ = ["patch_spilled_partition"]


def patch_spilled_partition(
    spilled: SpilledPartition,
    batch,
    partitioner=None,
    *,
    repartition_threshold: Optional[float] = None,
) -> Tuple[SpilledPartition, Dict[str, Any]]:
    """Apply a mutation batch to a spilled partition in place.

    Returns the re-opened :class:`SpilledPartition` and a JSON-safe
    drift report (:meth:`repro.mutate.incremental.MutationPlan.drift_report`, as
    :meth:`repro.mutate.MutationResult.report`).  The work is done by
    :func:`repro.mutate.maintainer` of ``partitioner``, as in
    :func:`repro.mutate.apply_mutations`.
    """
    from ..mutate.incremental import (
        DEFAULT_REPARTITION_THRESHOLD,
        maintainer,
        mutated_graph,
        plan_mutations,
    )
    from ..partition.streaming import assign_all

    if repartition_threshold is None:
        repartition_threshold = DEFAULT_REPARTITION_THRESHOLD
    manifest = dict(spilled.manifest)
    weighted = bool(manifest["weighted"])
    num_parts = spilled.num_parts
    directory = spilled.directory
    pieces = (spilled.part_edges(part)[:3] for part in range(num_parts))
    plan = plan_mutations(
        batch.resolve(pieces, directed=manifest["directed"]),
        spilled.num_edges,
        spilled.num_vertices,
        weighted=weighted,
        num_parts=num_parts,
        repartition_threshold=repartition_threshold,
    )
    partitioner = maintainer(partitioner)
    resolved = plan.resolved
    rf_before = spilled.replication_factor

    if plan.repartition:
        new_graph = mutated_graph(spilled.assemble().graph, resolved)
        patched = stream_partition(
            ArrayEdgeStream.from_graph(new_graph),
            partitioner,
            num_parts,
            directory,
            overwrite=True,
        )
        rf = patched.replication_factor
        return patched, plan.drift_report(rf_before, rf, rf_full=rf)

    removed = resolved.removed_ids  # sorted ascending
    n_new, m_new = plan.num_vertices_after, plan.num_edges_after
    assigner = partitioner.streamer(num_parts)
    pid = os.getpid()
    edge_counts = np.zeros(num_parts, dtype=np.int64)
    staged: Dict[str, IO[bytes]] = {}  # spill file name -> open temporary
    stack = ExitStack()  # closes every temporary, on failure too

    def tmp_path(name: str) -> str:
        return os.path.join(directory, f"{name}.tmp-{pid}")

    def stage(name: str, array: np.ndarray) -> None:
        """Write ``array`` after what ``name``'s temporary already holds."""
        if name not in staged:
            staged[name] = stack.enter_context(open(tmp_path(name), "wb"))
        np.ascontiguousarray(array).tofile(staged[name])

    def stage_shard(part, eids, src, dst, w) -> None:
        stage(_shard_name(part), np.stack([eids, src, dst], axis=1))
        if weighted:
            stage(_shard_weights_name(part), w)

    try:
        with stack:
            for part in range(num_parts):
                eids, src, dst, w = spilled.part_edges(part)
                if removed.shape[0] and eids.shape[0] and eids.max() >= removed[0]:
                    keep = ~np.isin(eids, removed)  # lost rows, shifted ids, or both
                    eids = eids[keep] - np.searchsorted(removed, eids[keep])
                    src, dst, w = src[keep], dst[keep], None if w is None else w[keep]
                    stage_shard(part, eids, src, dst, w)
                assigner.seed(src, dst, np.full(src.shape[0], part), num_vertices=n_new)
                edge_counts[part] = src.shape[0]

            insert_parts = assign_all(assigner, resolved.insert_src, resolved.insert_dst)
            insert_counts = np.bincount(insert_parts, minlength=num_parts)
            insert_eids = np.arange(m_new - resolved.num_inserted, m_new, dtype=np.int64)
            for part in np.flatnonzero(insert_counts).tolist():
                if _shard_name(part) not in staged:
                    stage_shard(part, *spilled.part_edges(part))
                sel = insert_parts == part
                stage_shard(
                    part, insert_eids[sel], resolved.insert_src[sel],
                    resolved.insert_dst[sel], resolved.insert_weights[sel],
                )
            # Surviving parts in id order, then the inserts' parts.
            stage(_EDGE_PARTS, np.delete(spilled.edge_parts(), removed))
            stage(_EDGE_PARTS, insert_parts)

        # Publish: shards in part order, edge_parts.bin, then the manifest.
        for name in sorted(staged, key=lambda name: (name == _EDGE_PARTS, name)):
            os.replace(tmp_path(name), os.path.join(directory, name))
    except BaseException:  # no temporaries left behind to count in bytes_spilled
        for name in staged:
            with suppress(FileNotFoundError):
                os.remove(tmp_path(name))
        raise
    rf_after = float(assigner.replication_factor(n_new if m_new else None))
    manifest.update(
        num_edges=int(m_new),
        num_vertices=int(n_new),
        edge_counts=(edge_counts + insert_counts).tolist(),
        replication_factor=rf_after,
    )
    _publish_manifest(directory, manifest)
    return SpilledPartition(directory), plan.drift_report(rf_before, rf_after)
