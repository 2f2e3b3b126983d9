"""The engine-facing checkpoint writer.

:class:`CheckpointWriter` owns the cadence (``every=k`` superstep
boundaries) and retention (``keep=n`` snapshots, ``None`` = keep all)
policy; the :class:`~repro.bsp.engine.BSPEngine` calls
:meth:`CheckpointWriter.maybe_write` after every completed superstep
(compute + exchange + stats) and forces a final ``done`` snapshot when
the run terminates, so ``resume_from`` on a finished run is a cheap
no-op that reproduces the recorded result.

A snapshot's arrays are what the session's
:meth:`~repro.runtime.base.BackendSession.pull_state` returns (the
kinds :data:`repro.runtime.shard.SNAPSHOT_KINDS` names); restoring them
is the session's :meth:`~repro.runtime.base.BackendSession.push_state`,
validated by :func:`repro.runtime.shard.check_restore`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from ..obs import NULL_RECORDER
from .store import CheckpointError, write_snapshot

__all__ = ["CheckpointWriter"]


def _snapshot_bytes(snapshot_dir: Optional[str]) -> int:
    """Total on-disk bytes of one snapshot directory (traced runs only)."""
    if snapshot_dir is None:
        return 0
    total = 0
    for entry in sorted(os.scandir(snapshot_dir), key=lambda e: e.name):
        if entry.is_file(follow_symlinks=False):
            total += entry.stat(follow_symlinks=False).st_size
    return total


class CheckpointWriter:
    """Write snapshots for one engine run at a fixed superstep cadence.

    An optional :class:`repro.obs.TraceRecorder` turns every snapshot
    write into a ``ckpt.snapshot`` span plus ``checkpoint.bytes`` /
    ``checkpoint.snapshots`` counter updates; with the default null
    recorder nothing is measured and no extra filesystem work happens.
    """

    def __init__(
        self, root: str, every: int = 1, keep: Optional[int] = 2, recorder=None
    ):
        if not isinstance(root, str) or not root:
            raise CheckpointError(f"checkpoint directory must be a path, got {root!r}")
        if isinstance(every, bool) or not isinstance(every, int) or every < 1:
            raise CheckpointError(f"checkpoint_every must be an integer >= 1, got {every!r}")
        if keep is not None and (
            isinstance(keep, bool) or not isinstance(keep, int) or keep < 1
        ):
            raise CheckpointError(
                f"checkpoint_keep must be an integer >= 1 or None, got {keep!r}"
            )
        self.root = root
        self.every = every
        self.keep = keep
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: directory of the last snapshot this writer produced, if any.
        self.last_snapshot: Optional[str] = None

    def due(self, superstep: int) -> bool:
        """Whether boundary ``superstep`` is on the ``every`` cadence."""
        return superstep > 0 and superstep % self.every == 0

    def maybe_write(
        self,
        *,
        superstep: int,
        done: bool,
        fingerprint: Dict[str, Any],
        meta: Dict[str, Any],
        arrays: Dict[str, list],
        supersteps: List,
    ) -> Optional[str]:
        """Snapshot if the boundary is due or the run just finished."""
        if not done and not self.due(superstep):
            return None
        with self.recorder.span(
            "ckpt.snapshot", superstep=superstep, cat="checkpoint"
        ):
            self.last_snapshot = write_snapshot(
                self.root,
                superstep=superstep,
                done=done,
                fingerprint=fingerprint,
                meta=meta,
                arrays=arrays,
                supersteps=supersteps,
                keep=self.keep,
            )
        if self.recorder.enabled:
            metrics = self.recorder.metrics
            metrics.counter("checkpoint.snapshots").inc()
            metrics.counter("checkpoint.bytes").inc(
                _snapshot_bytes(self.last_snapshot)
            )
        return self.last_snapshot
