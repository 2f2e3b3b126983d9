"""Out-of-core streaming ingestion: partition graphs that never fit in RAM.

This package is the disk→partitions→BSP path for inputs larger than
memory.  Everything upstream of it in the repo assumes a fully
materialized :class:`~repro.graph.Graph`; here the unit of work is an
:class:`EdgeChunkStream` — a re-iterable source of bounded
``(src, dst, weights)`` array chunks over edge-list text
(:class:`TextEdgeListStream`), memory-mapped binary ``.npy`` files
(:class:`NpyEdgeStream`) or in-memory arrays (:class:`ArrayEdgeStream`,
for tests, benchmarks and spill patches).

Memory model
------------

:func:`stream_partition` holds, at any instant:

* **one window** of edges — the reader's chunks are re-buffered into
  windows of exactly the partitioner's preferred size (its sorting
  window / sync epoch), so assignments are independent of the on-disk
  chunking;
* **the assigner state** — the streaming partitioner cores keep
  O(vertices seen) state (online degree estimates and per-vertex
  replica sets for ``EBV-stream``; committed replica bitmasks for
  ``EBV-sharded``), never any per-edge structure;
* **two counters** — |E| and the highest vertex id, counted in the
  assignment pass for the manifest; a partitioner that normalizes by
  exact |E|/|V| (``EBV-sharded``) gets them from a counting pass over
  the stream before it assigns.

Everything per-edge goes to disk the moment it is produced: spill
**kicks in at the first assigned window** — there is no in-memory
accumulation phase.  Each edge is appended to its partition's shard
file as an ``(edge_id, src, dst)`` row plus the per-edge part id in
``edge_parts.bin``, forming a :class:`SpilledPartition`.  Peak RSS is
therefore O(window + vertex state), not O(|E|); CI's ``stream-smoke``
peak-memory gate holds the in-memory build's tracemalloc peak to at
least 2x every stream's.

Re-materializing is explicit: :meth:`SpilledPartition.assemble` (and
:meth:`~SpilledPartition.to_distributed`) rebuild the O(|E|) in-memory
objects from the shards for handing off to the BSP engine — run that on
the machine that executes the job, not necessarily the one that
partitioned.

The chunked path is locked to the in-memory path by the differential
harness ``tests/stream/test_stream_equivalence.py``: for every
streaming-capable partitioner, the out-of-core assignment is
byte-identical to :meth:`~repro.partition.Partitioner.partition` on the
fully-loaded graph in the same edge order, across chunk sizes and
sources.
"""

from .driver import SpilledPartition, stream_partition, windows
from .patch import patch_spilled_partition
from .sources import (
    ArrayEdgeStream,
    EdgeChunk,
    EdgeChunkStream,
    NpyEdgeStream,
    StreamError,
    TextEdgeListStream,
    save_edge_npy,
)

__all__ = [
    "ArrayEdgeStream",
    "EdgeChunk",
    "EdgeChunkStream",
    "NpyEdgeStream",
    "SpilledPartition",
    "StreamError",
    "TextEdgeListStream",
    "patch_spilled_partition",
    "save_edge_npy",
    "stream_partition",
    "windows",
]
