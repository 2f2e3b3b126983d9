"""In-place mutation patching of spilled partitions (shard surgery).

:func:`patch_spilled_partition` applies a
:class:`~repro.mutate.MutationBatch` to an on-disk
:class:`SpilledPartition` without ever assembling the full graph:

1. **Resolve** — one pass over the shards finds the edge ids matching
   the batch's deletes (:func:`repro.mutate.batch._matching_rows` per
   shard), then the batch resolves with the same ordered semantics as
   the in-memory path.
2. **Patch** — each shard drops its removed rows and re-densifies the
   surviving edge ids (a delete shifts every later id down); while
   streaming the shards the pass warm-seeds a
   :class:`StreamingEBVAssigner` one shard at a time (:meth:`seed` is
   additive).  With no deletes the remap is the identity and untouched
   shards are not rewritten at all — inserts become pure appends.
3. **Assign + append** — the inserted edges run through the seeded
   assigner in its windows (:func:`repro.partition.streaming.assign_all`),
   exactly like a live stream; each insert is appended to its target
   shard with a tail edge id.

Peak memory is O(largest shard + vertex state + |E| part ids) — the
``edge_parts.bin`` rewrite holds the id array, matching what
:meth:`SpilledPartition.edge_parts` already loads.

When the batch touches more than ``repartition_threshold`` of the
mutated edge set, the escape hatch assembles, rebuilds the mutated
graph and **re-spills from scratch** (a full repartition) — same
policy as :func:`repro.mutate.apply_mutations`.

Crash safety: replacement shards and the new ``edge_parts.bin`` are
written to temporaries and renamed before the manifest is republished
(``driver.py``'s atomic publish).  A crash mid-patch leaves the old
manifest alongside partially renamed data files.  Every reader checks
each file's size against the manifest, and :meth:`SpilledPartition.assemble`
checks that every edge id occurs once, in the shard ``edge_parts.bin``
names — so a torn patch is *detected* (``StreamError``) even when its
row counts still match, rather than silently served.  Recover by
re-spilling with ``overwrite=True``; a checkpointed pipeline does so on
resume.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from .driver import (
    SpilledPartition,
    _EDGE_PARTS,
    _publish_manifest,
    _shard_name,
    _shard_weights_name,
    stream_partition,
)
from .sources import ArrayEdgeStream, StreamError

__all__ = ["patch_spilled_partition"]


def _write_rows(path: str, eids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    np.stack([eids, src, dst], axis=1).tofile(path)


def patch_spilled_partition(
    spilled: SpilledPartition,
    batch,
    partitioner=None,
    *,
    repartition_threshold: Optional[float] = None,
) -> Tuple[SpilledPartition, Dict[str, Any]]:
    """Apply a mutation batch to a spilled partition in place.

    Returns the re-opened :class:`SpilledPartition` and a JSON-safe
    drift report (same keys as
    :meth:`repro.mutate.MutationResult.report`).  The work is done by
    :func:`repro.mutate.maintainer` of ``partitioner``, as in
    :func:`repro.mutate.apply_mutations`.
    """
    from ..mutate.batch import DELETE, MutationError, _matching_rows
    from ..mutate.incremental import DEFAULT_REPARTITION_THRESHOLD, maintainer
    from ..partition.streaming import assign_all

    if repartition_threshold is None:
        repartition_threshold = DEFAULT_REPARTITION_THRESHOLD
    if not 0.0 <= repartition_threshold <= 1.0:
        raise MutationError(
            f"repartition_threshold must be in [0, 1], got {repartition_threshold!r}"
        )
    partitioner = maintainer(partitioner)
    manifest = dict(spilled.manifest)
    if not manifest["directed"]:
        raise MutationError(
            "mutation batches apply to directed edge lists; undirected "
            "spills store each edge as two arcs — mutate both explicitly"
        )
    weighted = bool(manifest["weighted"])
    num_parts = spilled.num_parts
    directory = spilled.directory

    # ---- pass 1: find delete candidates shard by shard ---------------
    delete_pairs = {(u, v) for kind, u, v, _ in batch.ops if kind == DELETE}
    triples: List[Tuple[int, int, int]] = []
    for part in range(num_parts):
        eids, src, dst, _ = spilled.part_edges(part)
        for row in _matching_rows(src, dst, delete_pairs).tolist():
            triples.append((int(eids[row]), int(src[row]), int(dst[row])))
    triples.sort()
    candidates: Dict[Tuple[int, int], Deque[int]] = {}
    for eid, u, v in triples:
        candidates.setdefault((u, v), deque()).append(eid)
    resolved = batch.resolve(candidates)
    if resolved.has_explicit_weights and not weighted:
        raise MutationError(
            "batch carries edge weights but the spill is unweighted; "
            "drop the weights or mutate a weighted spill"
        )

    m_old = spilled.num_edges
    m_surviving = m_old - resolved.num_removed
    m_new = m_surviving + resolved.num_inserted
    n_new = int(manifest["num_vertices"])
    if resolved.num_inserted:
        n_new = max(
            n_new,
            int(max(resolved.insert_src.max(), resolved.insert_dst.max())) + 1,
        )
    touched = (resolved.num_removed + resolved.num_inserted) / max(m_new, 1)
    rf_before = float(manifest["replication_factor"])

    report: Dict[str, Any] = {
        "num_inserted": resolved.num_inserted,
        "num_deleted": resolved.num_removed,
        "num_cancelled": resolved.num_cancelled,
        "num_edges_before": int(m_old),
        "num_edges_after": int(m_new),
        "num_vertices_after": int(n_new),
        "touched_fraction": float(touched),
        "repartition_threshold": float(repartition_threshold),
        "rf_before": rf_before,
    }

    # ---- escape hatch: assemble + full re-spill ----------------------
    if touched > repartition_threshold and num_parts > 1:
        from ..mutate.incremental import mutated_graph

        new_graph = mutated_graph(spilled.assemble().graph, resolved)
        patched = stream_partition(
            ArrayEdgeStream.from_graph(new_graph),
            partitioner,
            num_parts,
            directory,
            overwrite=True,
        )
        report.update(
            mode="repartition",
            reassigned_edges=int(m_new),
            rf_after=float(patched.replication_factor),
            rf_full=float(patched.replication_factor),
            drift=1.0,
        )
        return patched, report

    # ---- incremental patch -------------------------------------------
    removed = resolved.removed_ids  # sorted ascending
    assigner = partitioner.streamer(num_parts)

    edge_counts = np.zeros(num_parts, dtype=np.int64)
    # shard -> (eids, src, dst, w) of surviving rows needing a rewrite
    rewrites: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]] = {}
    for part in range(num_parts):
        eids, src, dst, w = spilled.part_edges(part)
        if removed.shape[0]:
            keep = ~np.isin(eids, removed)
            eids = eids[keep] - np.searchsorted(removed, eids[keep])
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]
            rewrites[part] = (eids, src, dst, w)
        assigner.seed(src, dst, np.full(src.shape[0], part), num_vertices=n_new)
        edge_counts[part] = src.shape[0]

    insert_part_ids = assign_all(assigner, resolved.insert_src, resolved.insert_dst)
    insert_eids = np.arange(m_surviving, m_new, dtype=np.int64)

    # Write replacement shards (deletes re-densify every shard's ids).
    pid = os.getpid()
    renames: List[Tuple[str, str]] = []
    removals: List[str] = []
    for part, (eids, src, dst, w) in rewrites.items():
        sel = insert_part_ids == part
        if sel.any():
            eids = np.concatenate([eids, insert_eids[sel]])
            src = np.concatenate([src, resolved.insert_src[sel]])
            dst = np.concatenate([dst, resolved.insert_dst[sel]])
            if weighted:
                w = np.concatenate([w, resolved.insert_weights[sel]])
        shard_path = os.path.join(directory, _shard_name(part))
        if eids.shape[0] == 0:
            if os.path.exists(shard_path):
                removals.append(shard_path)
                if weighted:
                    removals.append(os.path.join(directory, _shard_weights_name(part)))
            continue
        tmp = f"{shard_path}.tmp-{pid}"
        _write_rows(tmp, eids, src, dst)
        renames.append((tmp, shard_path))
        if weighted:
            wpath = os.path.join(directory, _shard_weights_name(part))
            wtmp = f"{wpath}.tmp-{pid}"
            np.ascontiguousarray(w, dtype=np.float64).tofile(wtmp)
            renames.append((wtmp, wpath))

    # Pure appends for untouched shards receiving inserts (no-delete case).
    appends: List[Tuple[int, np.ndarray]] = []
    if not removed.shape[0]:
        for part in np.unique(insert_part_ids).tolist():
            sel = insert_part_ids == part
            appends.append((part, np.nonzero(sel)[0]))

    # New edge_parts.bin: surviving parts in id order + insert parts.
    old_parts = spilled.edge_parts()
    if removed.shape[0]:
        keep_mask = np.ones(m_old, dtype=bool)
        keep_mask[removed] = False
        old_parts = old_parts[keep_mask]
    parts_path = os.path.join(directory, _EDGE_PARTS)
    parts_tmp = f"{parts_path}.tmp-{pid}"
    np.concatenate([old_parts, insert_part_ids]).tofile(parts_tmp)
    renames.append((parts_tmp, parts_path))

    # Publish: renames, appends, removals, then the manifest.
    for tmp, final in renames:
        os.replace(tmp, final)
    for part, rows in appends:
        shard_path = os.path.join(directory, _shard_name(part))
        with open(shard_path, "ab") as fh:
            np.stack(
                [insert_eids[rows], resolved.insert_src[rows], resolved.insert_dst[rows]],
                axis=1,
            ).tofile(fh)
        if weighted:
            with open(os.path.join(directory, _shard_weights_name(part)), "ab") as fh:
                np.ascontiguousarray(resolved.insert_weights[rows]).tofile(fh)
    for path in removals:
        try:
            os.remove(path)
        except OSError:
            pass

    new_edge_counts = edge_counts + np.bincount(insert_part_ids, minlength=num_parts)
    rf_after = float(assigner.replication_factor(n_new if m_new else None))
    manifest.update(
        num_edges=int(m_new),
        num_vertices=int(n_new),
        edge_counts=new_edge_counts.tolist(),
        replication_factor=rf_after,
    )
    _publish_manifest(directory, manifest)
    report.update(
        mode="incremental",
        reassigned_edges=int(resolved.num_inserted),
        rf_after=rf_after,
    )
    return SpilledPartition(directory), report
