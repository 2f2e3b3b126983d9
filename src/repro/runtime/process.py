"""Process backend: pipe links, shards over state inherited at fork.

The real-parallelism backend on one host.  It contributes exactly three
things to the shared :class:`~repro.runtime.protocol.CommandSession`:

*Its link* — :class:`_PipeLink`, a ``multiprocessing`` pipe to a
long-lived daemon ``Process`` forked to run :func:`_worker_main`.

*Its state plane* — :class:`ShmPlane`.  Before the pool forks, the
parent copies every worker's :func:`~repro.runtime.shard.worker_arrays`
into anonymous shared mappings, one per array.  Each child inherits
every mapping at fork and gets the plane's kind → per-worker slots as
its ``Process`` arguments — under fork those are passed by memory:
nothing is pickled, named or attached — and builds its
:class:`~repro.runtime.shard.WorkerShard` over them, so every slot is a
sibling's real array.  Both superstep stages therefore run in the
children with zero per-superstep pickling: an exchange is two
broadcasts (``exchange_up``, then — after every reply is in, the
mandatory barrier — ``exchange_down``), and the only per-superstep pipe
traffic is one small command → ``(result, t0, t1)`` round trip per
worker per phase.  The coordinator reads convergence, the final gather
and checkpoints straight out of its own views of the same pages, and a
checkpoint restore written through those views is seen by every child.
The pages have no name, so they go with the last process that maps
them: nothing is left in ``/dev/shm``, however the run ends.

*Its worker entry point* — :func:`_worker_main`: close the coordinator's
pipe ends the fork copied, then run the shared
:func:`~repro.runtime.protocol.serve` loop over the child's own end.
With no copy of the coordinator's end left open, a child reads
end-of-file the moment the coordinator dies, however it dies.

Crash containment, stage timeouts, the failed latch, typed worker loss
and teardown are the session's (see :mod:`repro.runtime.protocol`).
Lost workers are not replaced (``supports_recovery`` is false).  The
backend needs ``fork``; where the platform has none, use ``socket``.
"""

from __future__ import annotations

import mmap
import multiprocessing
from functools import partial
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import List, Optional, Sequence

import numpy as np

from ..bsp.distributed import DistributedGraph
from ..bsp.program import SubgraphProgram
from .base import Backend, BackendSession
from .protocol import (
    JOIN_TIMEOUT,
    CommandSession,
    ReplyTimeout,
    StatePlane,
    positive_timeout,
    serve,
)
from .shard import Slots, WorkerShard, by_kind, worker_arrays

__all__ = ["ProcessBackend", "ShmPlane"]


class _PipeLink:
    """A ``multiprocessing`` pipe to one child ``Process``."""

    def __init__(self, conn: Connection, proc: BaseProcess):
        self._conn = conn
        self._proc = proc

    def send(self, message) -> None:
        self._conn.send(message)

    def recv(self, timeout: Optional[float] = None):
        if timeout is not None and not self._conn.poll(timeout):
            raise ReplyTimeout()
        return self._conn.recv()  # EOFError once the child is gone

    def alive(self) -> bool:
        return self._proc.is_alive()

    def exit_code(self) -> Optional[int]:
        return self._proc.exitcode

    def wait(self, timeout: float) -> None:
        self._proc.join(timeout)

    def terminate(self) -> None:
        self._proc.terminate()

    def kill(self) -> None:
        self._proc.kill()

    def close(self) -> None:
        self._conn.close()


def _worker_main(conn: Connection, coordinator_ends: Sequence[Connection], slots: Slots) -> None:
    """Child entry point: drop the coordinator's pipe ends, serve the session."""
    for end in coordinator_ends:
        end.close()
    try:
        # init = (worker id, local, program, inbound up, inbound down, plane extra)
        serve(conn, lambda init: WorkerShard(*init[:5], slots))
    except KeyboardInterrupt:  # the terminal's ^C reaches the whole group
        pass


def _spawn(ctx, plane: "ShmPlane", workers: Sequence[int]) -> List[_PipeLink]:
    """Fork one child per worker over the plane's slots; a batch that
    fails leaves no child behind."""
    links: List[_PipeLink] = []
    try:
        for w in workers:
            parent_conn, child_conn = ctx.Pipe()
            # This child's coordinator end and those of the siblings
            # forked before it: every one the fork copies.
            ends = [link._conn for link in links] + [parent_conn]
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, ends, plane.state),
                name=f"repro-bsp-{w}",
                daemon=True,
            )
            links.append(_PipeLink(parent_conn, proc))
            try:
                proc.start()
            finally:
                child_conn.close()
    except BaseException:
        for link in links:
            if link.alive():
                link.kill()
                link.wait(JOIN_TIMEOUT)
            link.close()
        raise
    return links


def _shared_copy(template: np.ndarray) -> np.ndarray:
    """``template`` copied into anonymous shared pages (page-aligned;
    zero-length arrays get one byte, the smallest mapping)."""
    array = np.ndarray(template.shape, template.dtype, mmap.mmap(-1, max(1, template.nbytes)))
    array[...] = template
    return array


class ShmPlane(StatePlane):
    """Every worker array, scratch included, in pages the pool inherits:
    minimize-mode dirty masks are read across children during the down
    phase."""

    def open(self, dgraph: DistributedGraph, program: SubgraphProgram):
        self.state = by_kind(
            [
                {kind: _shared_copy(array) for kind, array in worker_arrays(local, program).items()}
                for local in dgraph.locals
            ]
        )
        # A child's slots arrive as its Process arguments, not in init.
        return [None] * dgraph.num_workers


class ProcessBackend(Backend):
    """Persistent pool of forked workers over shared, inherited state.

    Parameters
    ----------
    stage_timeout:
        Seconds to wait for each worker's stage reply before raising
        :class:`~repro.runtime.base.BackendError` (default
        :data:`~repro.runtime.protocol.DEFAULT_STAGE_TIMEOUT`); spec
        form ``process?stage_timeout=120``.
    """

    name = "process"

    def __init__(self, stage_timeout: Optional[float] = None):
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:
            raise ValueError(
                "the process backend forks its workers and this platform cannot "
                "fork; use the socket backend"
            ) from None
        self.stage_timeout = positive_timeout("stage_timeout", stage_timeout)

    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        plane = ShmPlane()
        spawn = partial(_spawn, self._context, plane)
        return CommandSession(self.name, dgraph, program, spawn, plane, self.stage_timeout)
