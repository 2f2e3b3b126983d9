"""``repro.checkpoint`` — superstep-granular checkpoint/restart for BSP runs.

The paper's subgraph-centric BSP model assumes long multi-superstep
jobs over partitioned graphs; at production scale a crash at superstep
``k`` would otherwise throw away the whole O(|E|) partition/build plus
all compute.  Pregel-style systems treat superstep-granular
checkpointing as the baseline fault-tolerance mechanism, and this
package is that mechanism for :class:`~repro.bsp.engine.BSPEngine`:

* :mod:`repro.checkpoint.store` — one snapshot per superstep boundary:
  one raw ``payload.bin`` (every array's buffer back to back, hashed
  while it is written) plus a ``manifest.json`` that carries its
  SHA-256 and the array table, written **atomically** (staged in a
  ``.tmp-*`` directory, fsynced, renamed into place).  Torn writes,
  corrupted payloads, hand-edited manifests and snapshots in an older
  layout are all rejected at load time with :class:`CheckpointError`
  — a damaged checkpoint is never silently resumed.
* :mod:`repro.checkpoint.fingerprint` — a cheap, exact identity of the
  run (graph CRCs, partition layout CRCs, program parameters, cost
  model, superstep cap).  A snapshot only resumes a run whose
  fingerprint matches bit-for-bit; resuming e.g. a different graph,
  worker count or PageRank damping fails eagerly.
* :mod:`repro.checkpoint.writer` — the engine-facing
  :class:`CheckpointWriter` (``every=k`` cadence, ``keep=n`` retention).

A snapshot keeps the arrays a session's ``pull_state`` returns: the
kinds :data:`repro.runtime.shard.SNAPSHOT_KINDS` names, each a
per-worker list.  Resume is the session's ``push_state``, on every
backend validated whole by :func:`repro.runtime.shard.check_restore`
before any array changes — in place through the coordinator's views
where it holds them (the process backend's children observe the
restored values through their existing mappings), over the wire
otherwise.

The resume contract is **bit-identity**: a run resumed from any
snapshot produces exactly the values, superstep records, message
tallies and cost-model accounting of the uninterrupted run, on every
backend (see ``tests/checkpoint/``).  Only real wall-clock differs —
the pre-crash supersteps keep the walls measured before the crash.
"""

from __future__ import annotations

from .fingerprint import compute_fingerprint, verify_fingerprint
from .store import (
    CheckpointError,
    Snapshot,
    clear_snapshots,
    latest_snapshot_dir,
    list_snapshots,
    load_snapshot,
    write_snapshot,
)
from .writer import CheckpointWriter

__all__ = [
    "CheckpointError",
    "CheckpointWriter",
    "Snapshot",
    "clear_snapshots",
    "compute_fingerprint",
    "latest_snapshot_dir",
    "list_snapshots",
    "load_snapshot",
    "verify_fingerprint",
    "write_snapshot",
]
