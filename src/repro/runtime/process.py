"""Process backend: pipe links, shards over state inherited at fork.

The real-parallelism backend on one host.  It contributes exactly three
things to the shared :class:`~repro.runtime.protocol.CommandSession`:

*Its link* — :class:`_PipeLink`, a ``multiprocessing`` pipe to a
long-lived daemon ``Process`` forked to run :func:`_worker_main`.

*Its state plane* — :class:`ShmPlane`.  Before the pool forks, the
parent copies every worker's :func:`~repro.runtime.shard.worker_arrays`
into anonymous shared mappings, one per array, and maps one more
anonymous page for the pool's barrier.  Each child inherits every
mapping at fork and gets the plane's kind → per-worker slots and its
side of the barrier as its ``Process`` arguments — under fork those are
passed by memory: nothing is pickled, named or attached — and builds
its :class:`~repro.runtime.shard.WorkerShard` over them, so every slot
is a sibling's real array.  A superstep is therefore one ``superstep``
command per worker and one reply: each child computes, meets its
siblings at the barrier, runs the up phase, meets them again and runs
the down phase (:meth:`~repro.runtime.shard.WorkerShard.superstep`),
with zero pickling of state.  The coordinator reads convergence, the
final gather and checkpoints straight out of its own views of the same
pages, and a checkpoint restore written through those views is seen by
every child.  The pages have no name, so they go with the last process
that maps them: nothing is left in ``/dev/shm``, however the run ends.

*The barrier* — :class:`_Barrier`, over the C99 kernel
``barrier_kernel.c`` (built through :mod:`repro.ckernel`, loaded before
the fork): one arrival epoch per worker and an abort word, stored with
release and loaded with acquire ordering.  A waiting child spins,
yielding its CPU on each pass, then backs off to short sleeps; it gives
up once the abort word is set, ``stage_timeout`` has passed or the
coordinator has died.  The coordinator waits on every pipe at once and
sets the abort word on any failure (an error reply, a lost worker, a
timeout), so a sibling waiting on a failed or dead worker replies and
then reads ``stop`` instead of spinning until its own deadline.

*Its worker entry point* — :func:`_worker_main`: close the
coordinator's pipe ends the fork copied, then run the shared
:func:`~repro.runtime.protocol.serve` loop over the child's own end.
With no copy of the coordinator's end left open, a child reads
end-of-file the moment the coordinator dies, however it dies.

The per-stage commands (``compute``, ``exchange_up``,
``exchange_down``) still serve :meth:`~BackendSession.compute_stage`
and :meth:`~BackendSession.exchange_stage` called on their own.  Crash
containment, stage timeouts, the failed latch, typed worker loss and
teardown are the session's (see :mod:`repro.runtime.protocol`).  Lost
workers are not replaced (``supports_recovery`` is false).  The backend
needs ``fork``; where the platform has none, use ``socket``.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from time import monotonic_ns
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..bsp.distributed import DistributedGraph
from ..bsp.program import SubgraphProgram
from ..ckernel import load_library
from .base import (
    Backend,
    BackendError,
    BackendSession,
    ComputeStageResult,
    ExchangeResult,
    finish_compute_stage,
    finish_exchange_stage,
)
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

KERNEL_SOURCE = Path(__file__).with_name("barrier_kernel.c")

#: ``barrier_wait``'s return codes (``barrier_kernel.c``).
_PASSED, _ABORTED, _TIMED_OUT, _ORPHANED = 0, 1, 2, 3


@functools.lru_cache(maxsize=None)
def _kernel() -> Tuple[Callable[..., int], Callable[..., None]]:
    """The kernel's ``(barrier_wait, barrier_abort)``, loaded once per process."""
    library = load_library(KERNEL_SOURCE, "barrier")
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    barrier_wait, barrier_abort = library.barrier_wait, library.barrier_abort
    barrier_wait.argtypes = [ptr, i64, i64, ctypes.c_uint64, i64, i64, ctypes.POINTER(i64)]
    barrier_wait.restype = ctypes.c_int
    barrier_abort.argtypes = [ptr]
    barrier_abort.restype = None
    return barrier_wait, barrier_abort


class _Barrier:
    """Worker ``worker``'s side of the pool's barrier over ``words``: the
    shared page's abort word, then one arrival epoch per worker.  The
    wait also ends once the waiting process's parent is no longer
    ``coordinator`` (a pid)."""

    def __init__(self, words: np.ndarray, worker: int, timeout: float, coordinator: int):
        self._words = words  # keeps the mapping alive
        self._page = (words.ctypes.data, words.shape[0] - 1, worker)
        self._timeout = timeout
        self._timeout_ns = int(min(timeout, 9e9) * 1e9)  # within int64
        self._coordinator = coordinator
        self._epoch = 0
        self._missing = ctypes.c_int64(-1)

    def __call__(self) -> None:
        """Return once every sibling has arrived as often; raise
        :class:`~repro.runtime.base.BackendError` otherwise."""
        self._epoch += 1
        status = _kernel()[0](
            *self._page, self._epoch, self._timeout_ns, self._coordinator,
            ctypes.byref(self._missing),
        )
        if status == _ABORTED:
            raise BackendError("superstep aborted: the coordinator saw a sibling fail")
        if status == _ORPHANED:
            raise BackendError("superstep abandoned: the coordinator is gone")
        if status == _TIMED_OUT:
            raise BackendError(
                f"worker {self._missing.value} did not reach the superstep barrier "
                f"within {self._timeout:.0f}s"
            )


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

    def fileno(self) -> int:
        return self._conn.fileno()

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


def _worker_main(
    conn: Connection,
    coordinator_ends: Sequence[Connection],
    slots: Slots,
    barrier: _Barrier,
) -> None:
    """Child entry point: drop the coordinator's pipe ends, serve the session."""
    for end in coordinator_ends:
        end.close()
    try:
        # init = (worker id, local, program, inbound up, inbound down, plane extra)
        serve(conn, lambda init: WorkerShard(*init[:5], slots, barrier=barrier))
    except KeyboardInterrupt:  # the terminal's ^C reaches the whole group
        pass


def _spawn(ctx, plane: "ShmPlane", workers: Sequence[int]) -> List[_PipeLink]:
    """Fork one child per worker over the plane's slots and barrier;
    a batch that fails leaves no child behind."""
    links: List[_PipeLink] = []
    try:
        for w in workers:
            parent_conn, child_conn = ctx.Pipe()
            # This child's coordinator end and those of the siblings
            # forked before it: every one the fork copies.
            ends = [link._conn for link in links] + [parent_conn]
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, ends, plane.state, plane.barrier(w)),
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
    """Every worker array, scratch included, in pages the pool inherits
    (minimize-mode dirty masks are read across children during the down
    phase), and the barrier page a fused superstep meets at."""

    def __init__(self, stage_timeout: float):
        self._stage_timeout = stage_timeout
        self._words: Optional[np.ndarray] = None

    def open(self, dgraph: DistributedGraph, program: SubgraphProgram):
        self.state = by_kind(
            [
                {kind: _shared_copy(array) for kind, array in worker_arrays(local, program).items()}
                for local in dgraph.locals
            ]
        )
        _kernel()  # built and loaded here, so no child compiles it
        self._words = _shared_copy(np.zeros(dgraph.num_workers + 1, dtype=np.uint64))
        # A child's slots and barrier arrive as its Process arguments, not in init.
        return [None] * dgraph.num_workers

    def barrier(self, worker: int) -> _Barrier:
        """Child ``worker``'s side of the barrier."""
        return _Barrier(self._words, worker, self._stage_timeout, os.getpid())

    def superstep(
        self, session: CommandSession, superstep: int
    ) -> Tuple[ComputeStageResult, ExchangeResult]:
        """One ``superstep`` command per worker, one reply each.

        The compute stage's window runs from the broadcast to the last
        child's compute end (when the first barrier opened), the
        exchange stage's from there to the last reply; the per-worker
        walls and spans are the children's own kernel windows.
        """
        t0 = monotonic_ns()
        try:
            session.broadcast("superstep", superstep)
            # Three phases, each allowed stage_timeout, as each child's
            # barrier waits are.
            replies = session.results(3 * session.stage_timeout)
        except BaseException:
            _kernel()[1](self._words.ctypes.data)  # release every waiting sibling
            raise
        t1 = monotonic_ns()
        computes, ups, downs = zip(*replies)
        comp = finish_compute_stage(session.recorder, superstep, computes)
        exchange = finish_exchange_stage(session.recorder, superstep, ups, downs)
        opened = max(end for _, _, end in computes)
        comp.window, exchange.window = (t0, opened), (opened, t1)
        return comp, exchange


class ProcessBackend(Backend):
    """Persistent pool of forked workers over shared, inherited state.

    Parameters
    ----------
    stage_timeout:
        Seconds each stage phase may take before the session raises
        :class:`~repro.runtime.base.BackendError` (default
        :data:`~repro.runtime.protocol.DEFAULT_STAGE_TIMEOUT`): a
        per-stage reply is awaited this long, a whole-superstep reply
        (three phases) three times as long, and each barrier wait in a
        child this long.  Spec form ``process?stage_timeout=120``.
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
        plane = ShmPlane(self.stage_timeout)
        spawn = functools.partial(_spawn, self._context, plane)
        return CommandSession(self.name, dgraph, program, spawn, plane, self.stage_timeout)
