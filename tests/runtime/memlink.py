"""An in-memory :class:`repro.runtime.protocol.Link`: two queues and a thread.

The third link implementation, for tests only.  The coordinator end
(:class:`MemoryLink`) satisfies the same eight-method contract as the
pipe and TCP links; the worker end runs on a daemon thread — by default
the real worker loop, :func:`repro.runtime.protocol.serve`, over the
wire plane's :func:`~repro.runtime.socket.standalone_shard`.  Messages
are pickled across the queues, so the two sides share no arrays — what
a real transport guarantees and the stand-in logic relies on.

This is what makes the wire plane (the peer mesh, the one-command
exchange, index-compacted stand-ins, ``owned``/``restore``) reachable
without spawning TCP subprocesses: :func:`memory_session` is the real
:class:`~repro.runtime.protocol.CommandSession` over the real
:class:`~repro.runtime.socket.WirePlane`.  Only the coordinator's
commands and replies skip the socket; the worker threads mesh over real
loopback peer connections and trade replica updates on them, as TCP
workers do.
"""

import pickle
import queue
import threading

from repro.runtime.protocol import CommandSession, ReplyTimeout, serve
from repro.runtime.socket import WirePlane, standalone_shard

_EOF = None  # queue sentinel: this side is gone


class _WorkerEnd:
    """What ``serve`` (or a misbehaving stand-in) sees of the link."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox, self._outbox = inbox, outbox

    def recv(self):
        data = self._inbox.get()
        if data is _EOF:
            raise EOFError("coordinator went away")
        return pickle.loads(data)

    def send(self, message) -> None:
        self._outbox.put(pickle.dumps(message))

    def close(self) -> None:
        self._outbox.put(_EOF)


def serve_standalone(end: _WorkerEnd) -> None:
    """The real worker loop over wire-plane shards."""
    serve(end, standalone_shard)


class MemoryLink:
    """Coordinator end of a queue pair; ``worker(end)`` runs on a thread."""

    #: where the worker's peers dial it (its listener binds there too).
    host = "127.0.0.1"

    def __init__(self, worker=serve_standalone):
        self._to_worker: queue.Queue = queue.Queue()
        self._from_worker: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=worker,
            args=(_WorkerEnd(self._to_worker, self._from_worker),),
            daemon=True,
        )
        self._thread.start()

    def send(self, message) -> None:
        if not self._thread.is_alive():
            raise BrokenPipeError("worker thread exited")
        self._to_worker.put(pickle.dumps(message))

    def recv(self, timeout=None):
        try:
            data = self._from_worker.get(timeout=timeout)
        except queue.Empty:
            raise ReplyTimeout() from None
        if data is _EOF:
            raise EOFError("worker thread exited")
        return pickle.loads(data)

    def alive(self) -> bool:
        return self._thread.is_alive()

    def exit_code(self):
        return None

    def wait(self, timeout: float) -> None:
        self._thread.join(timeout)

    def terminate(self) -> None:
        self._to_worker.put(_EOF)

    kill = terminate

    def close(self) -> None:
        pass


def memory_session(dgraph, program, worker=serve_standalone, stage_timeout=60.0):
    """The real pool session over the real wire plane over in-memory links."""
    return CommandSession(
        "socket",
        dgraph,
        program,
        lambda ws: [MemoryLink(worker) for _ in ws],
        WirePlane(spawned=False),
        stage_timeout,
    )
