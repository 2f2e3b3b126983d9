"""Out-of-core partition driver: stream → assigner → per-part spill shards.

:func:`stream_partition` is the path from an on-disk edge stream to a
finished partition without ever constructing a
:class:`~repro.graph.Graph`:

1. If the partitioner normalizes by exact totals
   (``requires_totals``, e.g. ``EBV-sharded``), a counting pass over
   the stream learns |E| and the highest vertex id first; every other
   partitioner reads the stream once.
2. Re-buffer the reader's chunks into windows of exactly the
   assigner's preferred ``window`` size, so the assignment is
   byte-identical for every on-disk chunking of the same edge order.
3. Assign each window and *spill* it: every edge is appended to its
   partition's shard file as an ``(edge_id, src, dst)`` int64 row
   (plus a parallel float64 weight file for weighted streams), and the
   per-edge part id is appended to ``edge_parts.bin`` in input order.
   The same pass counts |E| and the highest vertex id for the manifest.

Peak memory is O(window + partitioner state): one window of edges, the
assigner's per-vertex state, and constant-size spill buffers — never
O(|E|).  The shards plus a ``manifest.json`` form a
:class:`SpilledPartition`, which can later *assemble* the in-memory
:class:`~repro.partition.PartitionResult` /
:class:`~repro.bsp.DistributedGraph` (an explicitly O(|E|) step — do it
on the machine that runs the BSP job, not the one that partitioned).
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..arraytable import ArrayTableError, read_file
from ..graph import Graph
from ..obs import NULL_RECORDER
from ..partition.base import VERTEX_CUT, PartitionResult
from ..partition.streaming import STREAMING_PARTITIONERS, _top_vertex
from .sources import EdgeChunk, EdgeChunkStream, StreamError

__all__ = ["stream_partition", "SpilledPartition", "windows"]

_MANIFEST = "manifest.json"
_EDGE_PARTS = "edge_parts.bin"
_MANIFEST_VERSION = 1
#: The manifest keys readers use, with their JSON types (a bool is no int).
_MANIFEST_TYPES = {
    "num_parts": (int,), "num_edges": (int,), "num_vertices": (int,),
    "method": (str,), "name": (str,), "weighted": (bool,), "directed": (bool,),
    "edge_counts": (list,), "replication_factor": (float, int),
}


def _shard_name(part: int) -> str:
    return f"shard_{part:05d}.bin"


def _is_spill_artifact(name: str) -> bool:
    """Whether a directory entry belongs to a spilled partition.

    The single definition used both to clear stale artifacts before a
    spill and to remove partial ones after a failed spill — the two
    sweeps must never disagree about what a spill owns.
    """
    return (
        name == _MANIFEST
        or name.startswith(_MANIFEST + ".tmp-")
        or name == _EDGE_PARTS
        or name.startswith(_EDGE_PARTS + ".tmp-")
        or (name.startswith("shard_") and (name.endswith(".bin") or ".bin.tmp-" in name))
    )


def _shard_weights_name(part: int) -> str:
    return f"shard_{part:05d}.w.bin"


def _checked(chunks: Iterable[EdgeChunk]) -> Iterator[EdgeChunk]:
    """The non-empty chunks as contiguous int64 ids and float64 weights.

    Refuses ragged chunks and a stream that mixes weighted and
    unweighted chunks: the one set of chunk checks every pass applies.
    """
    weighted: Optional[bool] = None
    for src, dst, w in chunks:
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise StreamError("src and dst must be 1-D arrays of equal length")
        if src.shape[0] == 0:
            continue
        if weighted is None:
            weighted = w is not None
        elif weighted != (w is not None):
            raise StreamError("stream mixes weighted and unweighted chunks")
        if w is not None:
            w = np.ascontiguousarray(w, dtype=np.float64)
            if w.shape != src.shape:
                raise StreamError("weights must parallel the edge arrays")
        yield src, dst, w


def windows(chunks: Iterable[EdgeChunk], window: int) -> Iterator[EdgeChunk]:
    """Re-buffer arbitrary chunks into windows of exactly ``window`` edges.

    Every yielded chunk holds exactly ``window`` edges except the final
    one, regardless of the incoming granularity — the invariant that
    makes out-of-core assignment independent of reader chunk size.
    Weighted and unweighted chunks cannot be mixed.
    """
    if window < 1:
        raise StreamError("window must be >= 1")
    pend_src: List[np.ndarray] = []
    pend_dst: List[np.ndarray] = []
    pend_w: List[np.ndarray] = []
    have = 0
    weighted = False
    for src, dst, w in _checked(chunks):
        weighted = w is not None
        if weighted:
            pend_w.append(w)
        pend_src.append(src)
        pend_dst.append(dst)
        have += src.shape[0]
        if have < window:
            continue
        cat_src = np.concatenate(pend_src)
        cat_dst = np.concatenate(pend_dst)
        cat_w = np.concatenate(pend_w) if weighted else None
        off = 0
        while have - off >= window:
            yield (
                cat_src[off : off + window],
                cat_dst[off : off + window],
                None if cat_w is None else cat_w[off : off + window],
            )
            off += window
        pend_src = [cat_src[off:]] if have > off else []
        pend_dst = [cat_dst[off:]] if have > off else []
        pend_w = [cat_w[off:]] if weighted and have > off else []
        have -= off
    if have:
        yield (
            np.concatenate(pend_src),
            np.concatenate(pend_dst),
            np.concatenate(pend_w) if weighted else None,
        )


def _resolve_assigner(stream: EdgeChunkStream, partitioner, num_parts: int):
    """Build the partitioner's assigner; one that ``requires_totals``
    gets |E| and |V| from a counting pass over the stream first."""
    if not partitioner.streams:
        raise StreamError(
            f"partitioner {partitioner.name!r} does not support streaming; "
            f"{STREAMING_PARTITIONERS}"
        )
    if not partitioner.requires_totals:
        return partitioner.streamer(num_parts)
    num_edges, top = 0, -1
    for src, dst, _ in _checked(stream.chunks()):
        num_edges += src.shape[0]
        top = max(top, _top_vertex(src, dst))
    return partitioner.streamer(
        num_parts,
        num_edges=num_edges,
        num_vertices=max(top + 1, stream.num_vertices_hint or 0),
    )


def stream_partition(
    stream: EdgeChunkStream,
    partitioner,
    num_parts: int,
    spill_dir: str,
    overwrite: bool = False,
    recorder=None,
) -> "SpilledPartition":
    """Partition an edge stream out of core, spilling shards to ``spill_dir``.

    ``partitioner`` must stream (its ``streams`` fact; see
    :mod:`repro.partition.streaming`).  Returns the
    :class:`SpilledPartition` handle over the written shards.  An
    optional :class:`repro.obs.TraceRecorder` wraps the spill in a
    ``stream.spill`` span and records the on-disk bytes as the
    ``spill.bytes`` counter.
    """
    recorder = NULL_RECORDER if recorder is None else recorder
    with recorder.span("stream.spill", cat="stream"):
        spilled = _stream_partition(stream, partitioner, num_parts, spill_dir, overwrite)
    if recorder.enabled:
        recorder.metrics.counter("spill.bytes").inc(
            int(spilled.manifest["bytes_spilled"])
        )
    return spilled


def _stream_partition(
    stream: EdgeChunkStream,
    partitioner,
    num_parts: int,
    spill_dir: str,
    overwrite: bool,
) -> "SpilledPartition":
    if num_parts < 1:
        raise StreamError("num_parts must be >= 1")
    created_dir = not os.path.isdir(spill_dir)
    os.makedirs(spill_dir, exist_ok=True)
    manifest_path = os.path.join(spill_dir, _MANIFEST)
    if os.path.exists(manifest_path) and not overwrite:
        raise StreamError(
            f"{spill_dir} already holds a spilled partition; pass "
            "overwrite=True (--overwrite from the CLI) to replace it"
        )
    if not os.path.exists(manifest_path) and not overwrite and os.listdir(spill_dir):
        # A non-empty directory with no manifest is NOT ours: it is
        # either a crashed partial spill or (worse) someone else's
        # files whose names happen to collide with spill artifacts.
        # Deleting or writing among them silently would destroy data
        # the manifest never vouched for — demand an explicit opt-in.
        raise StreamError(
            f"{spill_dir} is non-empty but holds no {_MANIFEST}; refusing to "
            "spill among foreign files — pass overwrite=True (--overwrite "
            "from the CLI) to clear stale spill artifacts and proceed"
        )
    # Clear every artifact a previous (or crashed partial) spill left
    # behind: a part that receives no edges this run would otherwise
    # leave its old shard file in place and corrupt the new assembly.
    for name in os.listdir(spill_dir):
        if _is_spill_artifact(name):
            os.remove(os.path.join(spill_dir, name))

    shard_files: Dict[int, IO[bytes]] = {}
    weight_files: Dict[int, IO[bytes]] = {}
    edge_counts = np.zeros(num_parts, dtype=np.int64)
    weighted: Optional[bool] = None
    next_edge_id = 0
    top = -1
    try:
        assigner = _resolve_assigner(stream, partitioner, num_parts)
        try:
            parts_file = open(os.path.join(spill_dir, _EDGE_PARTS), "wb")
            try:
                for src, dst, w in windows(stream.chunks(), assigner.window):
                    if weighted is None:
                        weighted = w is not None
                    parts = assigner.assign(src, dst)
                    top = max(top, _top_vertex(src, dst))
                    parts.tofile(parts_file)
                    eids = np.arange(
                        next_edge_id, next_edge_id + src.shape[0], dtype=np.int64
                    )
                    next_edge_id += src.shape[0]
                    # bincount, not np.unique: numpy's first unique()
                    # imports numpy.ma, milliseconds inside the spill.
                    counts = np.bincount(parts, minlength=num_parts)
                    for i in np.flatnonzero(counts).tolist():
                        sel = parts == i
                        if i not in shard_files:
                            shard_files[i] = open(
                                os.path.join(spill_dir, _shard_name(i)), "wb"
                            )
                            if w is not None:
                                weight_files[i] = open(
                                    os.path.join(spill_dir, _shard_weights_name(i)), "wb"
                                )
                        rows = np.stack([eids[sel], src[sel], dst[sel]], axis=1)
                        rows.tofile(shard_files[i])
                        if w is not None:
                            np.ascontiguousarray(w[sel]).tofile(weight_files[i])
                    edge_counts += counts
            finally:
                parts_file.close()
        finally:
            for fh in shard_files.values():
                fh.close()
            for fh in weight_files.values():
                fh.close()
    except BaseException:
        # A failed spill (bad source line, full disk, interrupted run)
        # must not leave orphan shards behind: without a manifest they
        # are unreadable, and with one from a *previous* spill they
        # would silently corrupt the next assembly.
        _remove_partial_spill(spill_dir, created_dir)
        raise

    num_vertices = max(top + 1, stream.num_vertices_hint or 0, 1)
    manifest = {
        "format": "repro-stream-partition",
        "version": _MANIFEST_VERSION,
        "name": stream.name,
        "method": getattr(partitioner, "name", type(partitioner).__name__),
        "num_parts": int(num_parts),
        "num_edges": int(next_edge_id),
        "num_vertices": int(num_vertices),
        "directed": (
            True if stream.directed_hint is None else bool(stream.directed_hint)
        ),
        "weighted": bool(weighted),
        "window": int(assigner.window),
        "reader_chunk_size": stream.chunk_size,
        "edge_counts": edge_counts.tolist(),
        "replication_factor": float(
            assigner.replication_factor(num_vertices if next_edge_id else None)
        ),
    }
    try:
        _publish_manifest(spill_dir, manifest)
    except BaseException:
        _remove_partial_spill(spill_dir, created_dir)
        raise
    return SpilledPartition(spill_dir)


def _publish_manifest(spill_dir: str, manifest: Dict[str, Any]) -> None:
    """Stamp ``bytes_spilled``, publish atomically (tmp + fsync + rename):
    resumed pipelines reuse a spill because this file is trustworthy."""
    manifest["bytes_spilled"] = sum(
        os.path.getsize(os.path.join(spill_dir, f))
        for f in os.listdir(spill_dir)
        if f != _MANIFEST
    )
    manifest_path = os.path.join(spill_dir, _MANIFEST)
    tmp_manifest = f"{manifest_path}.tmp-{os.getpid()}"
    with open(tmp_manifest, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_manifest, manifest_path)


def _remove_partial_spill(spill_dir: str, created_dir: bool) -> None:
    """Delete the artifacts of a failed spill (best effort, idempotent).

    Removes the shard/weight files, ``edge_parts.bin`` and any manifest
    from ``spill_dir``; the directory itself is removed only when this
    run created it and nothing else was placed inside.
    """
    try:
        names = os.listdir(spill_dir)
    except OSError:
        return
    for name in names:
        if _is_spill_artifact(name):
            try:
                os.remove(os.path.join(spill_dir, name))
            except OSError:
                pass
    if created_dir:
        try:
            os.rmdir(spill_dir)
        except OSError:
            pass


class SpilledPartition:
    """Handle over an on-disk spilled partition (shards + manifest).

    The handle itself stays O(p): reading any edge data is explicit —
    :meth:`part_edges` loads one shard, :meth:`assemble` rebuilds the
    whole in-memory :class:`~repro.partition.PartitionResult` (O(|E|),
    for handing off to the BSP engine).
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        manifest_path = os.path.join(self.directory, _MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise StreamError(
                f"{self.directory} is not a spilled partition: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != "repro-stream-partition":
            raise StreamError(f"{manifest_path} is not a spilled-partition manifest")
        if manifest.get("version") != _MANIFEST_VERSION:
            raise StreamError(f"{manifest_path}: unsupported version {manifest.get('version')!r}")
        for key, types in _MANIFEST_TYPES.items():
            value = manifest.get(key)
            if type(value) not in types or (
                key == "edge_counts" and any(type(c) is not int for c in value)
            ):
                raise StreamError(f"{manifest_path}: {key!r} is missing or mistyped: {value!r:.40}")
        self.manifest = manifest
        self.num_parts: int = manifest["num_parts"]
        self.num_edges: int = manifest["num_edges"]
        self.num_vertices: int = manifest["num_vertices"]
        self.method: str = manifest["method"]
        self.edge_counts = np.asarray(manifest["edge_counts"], dtype=np.int64)
        if self.edge_counts.shape != (self.num_parts,) or self.edge_counts.sum() != self.num_edges:
            raise StreamError(f"{manifest_path}: edge_counts do not add up to num_edges")
        self.replication_factor: float = manifest["replication_factor"]

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------

    def _read(self, name: str, dtype, shape) -> np.ndarray:
        """A spill file at the manifest's ``shape`` (absent if empty)."""
        path = os.path.join(self.directory, name)
        if shape[0] == 0 and not os.path.exists(path):
            return np.empty(shape, dtype)
        try:
            return read_file(path, dtype, shape)
        except (ArrayTableError, OSError) as exc:
            raise StreamError(f"{path}: {exc}") from exc

    def edge_parts(self) -> np.ndarray:
        """Per-edge part ids in input order (reads ``edge_parts.bin``)."""
        return self._read(_EDGE_PARTS, np.int64, (self.num_edges,))

    def part_edges(self, part: int):
        """One partition's spilled edges: ``(edge_ids, src, dst, weights)``."""
        if not 0 <= part < self.num_parts:
            raise StreamError(f"part {part} out of range [0, {self.num_parts})")
        count = int(self.edge_counts[part])
        rows = self._read(_shard_name(part), np.int64, (count, 3))
        weights = None
        if self.manifest["weighted"]:
            weights = self._read(_shard_weights_name(part), np.float64, (count,))
        return (
            np.ascontiguousarray(rows[:, 0]),
            np.ascontiguousarray(rows[:, 1]),
            np.ascontiguousarray(rows[:, 2]),
            weights,
        )

    # ------------------------------------------------------------------
    # Assembly (explicitly O(|E|))
    # ------------------------------------------------------------------

    def assemble(self) -> PartitionResult:
        """Rebuild the in-memory graph + partition from the shards.

        The edges come back in their original stream order (shard rows
        carry the input-order edge id), so the result is indistinguishable
        from partitioning the fully-loaded graph.  An edge id outside
        ``[0, |E|)``, repeated, or in a shard ``edge_parts.bin`` does not
        name, or an endpoint outside ``[0, |V|)`` (a torn patch) raises
        :class:`StreamError`.
        """
        m = self.num_edges
        parts = self.edge_parts()
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        weights = np.empty(m, dtype=np.float64) if self.manifest["weighted"] else None
        seen = np.zeros(m, dtype=bool)
        for part in range(self.num_parts):
            eids, psrc, pdst, pw = self.part_edges(part)
            if eids.size and (eids.min() < 0 or eids.max() >= m) or np.any(parts[eids] != part):
                raise StreamError(f"shard {part} holds edge ids edge_parts.bin does not give it")
            src[eids] = psrc
            dst[eids] = pdst
            if weights is not None:
                weights[eids] = pw
            seen[eids] = True
        # The manifest's row counts add up to m, so m ids seen = each once.
        if not seen.all():
            raise StreamError(f"shards cover {int(seen.sum())} of the manifest's {m} edge ids")
        try:
            graph = Graph(
                self.num_vertices,
                src,
                dst,
                weights=weights,
                directed=self.manifest["directed"],
                name=self.manifest["name"],
            )
        except ValueError as exc:  # e.g. an endpoint the manifest's |V| does not hold
            raise StreamError(f"{self.directory}: {exc}") from exc
        return PartitionResult(
            graph,
            self.num_parts,
            edge_parts=parts,
            kind=VERTEX_CUT,
            method=self.method,
        )

    def to_distributed(self):
        """Assemble and route: the :class:`~repro.bsp.DistributedGraph`."""
        from ..bsp import build_distributed_graph

        return build_distributed_graph(self.assemble())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpilledPartition(dir={self.directory!r}, method={self.method!r}, "
            f"p={self.num_parts}, |E|={self.num_edges})"
        )
