"""An in-memory :class:`repro.runtime.protocol.Link`: a queue, a pipe and a thread.

The third link implementation, for tests only.  The coordinator end
(:class:`MemoryLink`) satisfies the same nine-method contract as the
pipe and TCP links; the worker end runs on a daemon thread — by default
the real worker loop, :func:`repro.runtime.protocol.serve`, over the
wire plane's :func:`~repro.runtime.socket.standalone_shard`.  Commands
go down a queue and replies come back over a one-way pipe, whose read
end is what the coordinator waits on.  Messages are pickled both ways,
so the two sides share no arrays — what a real transport guarantees and
the stand-in logic relies on.

This is what makes the wire plane (the peer mesh, the one-command
exchange, index-compacted stand-ins, ``owned``/``restore``) reachable
without spawning TCP subprocesses: :func:`memory_session` is the real
:class:`~repro.runtime.protocol.CommandSession` over the real
:class:`~repro.runtime.socket.WirePlane`.  Only the coordinator's
commands and replies skip the socket; the worker threads mesh over real
loopback peer connections and trade replica updates on them, as TCP
workers do.
"""

import multiprocessing
import pickle
import queue
import threading
from multiprocessing.connection import Connection

from repro.runtime.protocol import CommandSession, ReplyTimeout, serve
from repro.runtime.socket import WirePlane, standalone_shard

_EOF = None  # command-queue sentinel: the coordinator is gone


class _WorkerEnd:
    """What ``serve`` (or a misbehaving stand-in) sees of the link."""

    def __init__(self, inbox: queue.Queue, outbox: Connection):
        self._inbox, self._outbox = inbox, outbox

    def recv(self):
        data = self._inbox.get()
        if data is _EOF:
            raise EOFError("coordinator went away")
        return pickle.loads(data)

    def send(self, message) -> None:
        self._outbox.send_bytes(pickle.dumps(message))

    def close(self) -> None:
        self._outbox.close()  # the coordinator reads end of file


def serve_standalone(end: _WorkerEnd) -> None:
    """The real worker loop over wire-plane shards."""
    serve(end, standalone_shard)


class MemoryLink:
    """Coordinator end of a queue and a pipe; ``worker(end)`` runs on a thread."""

    #: where the worker's peers dial it (its listener binds there too).
    host = "127.0.0.1"

    def __init__(self, worker=serve_standalone):
        self._to_worker: queue.Queue = queue.Queue()
        self._from_worker, replies = multiprocessing.Pipe(duplex=False)
        self._thread = threading.Thread(
            target=worker,
            args=(_WorkerEnd(self._to_worker, replies),),
            daemon=True,
        )
        self._thread.start()

    def send(self, message) -> None:
        if not self._thread.is_alive():
            raise BrokenPipeError("worker thread exited")
        self._to_worker.put(pickle.dumps(message))

    def recv(self, timeout=None):
        if timeout is not None and not self._from_worker.poll(timeout):
            raise ReplyTimeout()
        return pickle.loads(self._from_worker.recv_bytes())  # EOFError once closed

    def fileno(self) -> int:
        return self._from_worker.fileno()

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
        self._from_worker.close()


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
