"""Process backend: pipe links, shards over shared memory.

The real-parallelism backend on one host.  It contributes exactly three
things to the shared :class:`~repro.runtime.protocol.CommandSession`:

*Its link* — :class:`_PipeLink`, a ``multiprocessing`` pipe to a
long-lived daemon ``Process`` running :func:`_worker_main`.

*Its state plane* — :class:`ShmPlane`.  The parent copies every
worker's :func:`~repro.runtime.shard.worker_arrays` into
``multiprocessing.shared_memory`` blocks, one per array; each child
maps **every** worker's blocks and builds its
:class:`~repro.runtime.shard.WorkerShard` over them, so every slot is a
sibling's real array.  Both superstep stages therefore run in the
children with zero per-superstep pickling: an exchange is two
broadcasts (``exchange_up``, then — after every reply is in, the
mandatory barrier — ``exchange_down``), and the only per-superstep pipe
traffic is one small command → ``(result, t0, t1)`` round trip per
worker per phase.  The coordinator reads convergence, the final gather
and checkpoints straight out of its own views of the same blocks, and a
checkpoint restore written through those views is seen by every child.

*Its worker entry point* — :func:`_worker_main`: the shared
:func:`~repro.runtime.protocol.serve` loop over the child's pipe end,
closing the child's mappings on the way out.

Crash containment, stage timeouts, the failed latch, typed worker loss
and teardown are the session's (see :mod:`repro.runtime.protocol`);
the plane's ``release`` unlinks every block after the last child is
gone, even when only a subset of workers died or allocation failed half
way.  Lost workers are not replaced (``supports_recovery`` is false).
"""

from __future__ import annotations

import multiprocessing
from functools import partial
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bsp.distributed import DistributedGraph
from ..bsp.program import SubgraphProgram
from .base import Backend, BackendSession, worker_context
from .protocol import CommandSession, ReplyTimeout, StatePlane, positive_timeout, serve
from .shard import WorkerShard, by_kind, worker_arrays
from .shm import SharedArraySpec, attach_shared_array, create_shared_array, destroy_shared_array

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


def _attach_shard(mappings: List[SharedMemory], payload) -> WorkerShard:
    """Map every worker's blocks and build this child's shard over them."""
    worker_id, local, program, inbound_up, inbound_down, spec_table = payload
    slots: Dict[str, List[np.ndarray]] = {}
    for specs in spec_table:  # in worker order
        for kind, spec in specs.items():
            shm, array = attach_shared_array(spec)
            mappings.append(shm)
            slots.setdefault(kind, []).append(array)
    return WorkerShard(worker_id, local, program, inbound_up, inbound_down, slots)


def _worker_main(conn: Connection) -> None:
    """Child entry point: serve the session's commands, then unmap."""
    mappings: List[SharedMemory] = []
    try:
        serve(conn, partial(_attach_shard, mappings))
    except KeyboardInterrupt:  # the terminal's ^C reaches the whole group
        pass
    finally:
        for shm in mappings:
            shm.close()


def _spawn(ctx: multiprocessing.context.BaseContext, w: int) -> _PipeLink:
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_worker_main, args=(child_conn,), name=f"repro-bsp-{w}", daemon=True
    )
    proc.start()
    child_conn.close()
    return _PipeLink(parent_conn, proc)


class ShmPlane(StatePlane):
    """Every worker array, scratch included, in a parent-owned shared-memory
    block: minimize-mode dirty masks are read across children during the
    down phase."""

    def __init__(self) -> None:
        self._blocks: List[SharedMemory] = []

    def open(self, dgraph: DistributedGraph, program: SubgraphProgram):
        arrays: List[Dict[str, np.ndarray]] = []
        specs: List[Dict[str, SharedArraySpec]] = []
        for local in dgraph.locals:
            own: Dict[str, np.ndarray] = {}
            spec: Dict[str, SharedArraySpec] = {}
            for kind, template in worker_arrays(local, program).items():
                shm, own[kind], spec[kind] = create_shared_array(template)
                self._blocks.append(shm)
            arrays.append(own)
            specs.append(spec)
        self.state = by_kind(arrays)
        return [specs] * len(specs)

    def release(self) -> None:
        while self._blocks:
            destroy_shared_array(self._blocks.pop())


class ProcessBackend(Backend):
    """Persistent ``multiprocessing`` pool with shared-memory state.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap startup, Linux) and the platform default
        elsewhere.  ``"spawn"`` works everywhere but pays interpreter
        startup per worker.
    stage_timeout:
        Seconds to wait for each worker's stage reply before raising
        :class:`~repro.runtime.base.BackendError` (default
        :data:`~repro.runtime.protocol.DEFAULT_STAGE_TIMEOUT`); spec
        form ``process?stage_timeout=120``.
    """

    name = "process"

    def __init__(
        self,
        start_method: Optional[str] = None,
        stage_timeout: Optional[float] = None,
    ):
        self.start_method = start_method
        # Resolved here so an unknown name fails at construction, not at
        # the first session.
        self._context = worker_context(start_method)
        self.stage_timeout = positive_timeout("stage_timeout", stage_timeout)

    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        ctx = self._context

        def spawn(workers: Sequence[int]) -> List[_PipeLink]:
            return [_spawn(ctx, w) for w in workers]

        return CommandSession(self.name, dgraph, program, spawn, ShmPlane(), self.stage_timeout)
