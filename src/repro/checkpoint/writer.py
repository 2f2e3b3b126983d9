"""The engine-facing checkpoint writer and session-state restore.

:class:`CheckpointWriter` owns the cadence (``every=k`` superstep
boundaries) and retention (``keep=n`` snapshots, ``None`` = keep all)
policy; the :class:`~repro.bsp.engine.BSPEngine` calls
:meth:`CheckpointWriter.maybe_write` after every completed superstep
(compute + exchange + stats) and forces a final ``done`` snapshot when
the run terminates, so ``resume_from`` on a finished run is a cheap
no-op that reproduces the recorded result.

:func:`restore_state` is the other half: it copies a verified
snapshot's per-worker arrays back into a live
:class:`~repro.runtime.base.WorkerState` *in place*.  In-place is the
whole point — the process backend's arrays are views over
``multiprocessing.shared_memory`` blocks that the persistent children
already map, so restoring through the parent's views rehydrates every
worker without a single extra pickle.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

import numpy as np

from ..obs import NULL_RECORDER
from .store import CheckpointError, write_snapshot

__all__ = ["CheckpointWriter", "restore_state", "state_arrays"]


def state_arrays(state) -> Dict[str, List[np.ndarray]]:
    """The kind -> per-worker-array mapping a snapshot persists.

    ``changed`` and ``partials`` are live state, not scratch: the exchange
    stages read them, and a recovery that rewinds to a boundary needs them.
    """
    arrays: Dict[str, List[np.ndarray]] = {
        "values": list(state.values),
        "changed": list(state.changed),
    }
    if state.active is not None:
        arrays["active"] = list(state.active)
    if state.partials is not None:
        arrays["partials"] = list(state.partials)
    return arrays


def restore_state(state, arrays: Dict[str, List[np.ndarray]]) -> None:
    """Copy snapshot arrays into a live session's state, in place.

    Validates the array-kind set, per-worker counts, shapes and dtypes
    against the session before touching anything, so a mismatched
    snapshot fails atomically instead of half-restoring.
    """
    session_arrays = state_arrays(state)
    if set(session_arrays) != set(arrays):
        raise CheckpointError(
            f"snapshot holds array kinds {sorted(arrays)} but this run "
            f"allocates {sorted(session_arrays)} (program mode mismatch?)"
        )
    for kind, live in session_arrays.items():
        saved = arrays[kind]
        if len(saved) != len(live):
            raise CheckpointError(
                f"snapshot has {len(saved)} {kind!r} arrays for "
                f"{len(live)} workers"
            )
        for w, (dst, src) in enumerate(zip(live, saved)):
            if dst.shape != src.shape or dst.dtype != src.dtype:
                raise CheckpointError(
                    f"snapshot array {kind}[{w}] is {src.dtype}{src.shape}, "
                    f"session expects {dst.dtype}{dst.shape}"
                )
    for kind, live in session_arrays.items():
        for dst, src in zip(live, arrays[kind]):
            dst[...] = src


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
        state,
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
                arrays=state_arrays(state),
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
