"""Socket backend: TCP links, shards that own their state, peers that talk.

The multi-node analogue of the process backend.  Each BSP worker is an
independent OS process behind one TCP connection — spawned on 127.0.0.1
by the session itself for tests and single-host runs, or launched
standalone elsewhere via ``repro worker --listen host:port`` and named
in the backend spec (``socket?workers=hostA:7001+hostB:7001``).  It
contributes to the shared :class:`~repro.runtime.protocol.CommandSession`:

*Its link* — :class:`_TcpLink`: length-prefixed object frames over the
small versioned protocol in :mod:`repro.runtime.wire`, plus the
``multiprocessing`` ``Process`` when the coordinator started the worker.

*Spawn = bind → fork → dial* (:class:`_Spawner`; one batch under one
``connect_timeout`` — the pool at session start, the dead set at
recovery).  The coordinator binds each child's listening socket on
``127.0.0.1:0`` itself, so it knows the port; starts the child from
:func:`~repro.runtime.base.worker_context` (``fork`` where the platform
has it: a warm copy of this interpreter); closes its own copy; and, with
the whole batch started, dials each and trades version hellos.  A forked
child inherits every descriptor the coordinator holds — at recovery,
the connections to the survivors, which a copy left open would keep from
ever seeing the coordinator go away — so it closes those first (not
``os.closerange``: that also closes the pipe ``Process.join`` waits
on).  It trusts nothing else of its memory image: like an external
worker it builds its shard from the ``init`` message, so a
replacement starts from *initial* state until the engine pushes a
snapshot.

*Its state plane* — :class:`WirePlane`.  Each worker owns the arrays of
its :class:`~repro.runtime.shard.WorkerShard` (:func:`standalone_shard`,
the same :func:`~repro.runtime.shard.worker_arrays` every backend
runs).  The coordinator never holds O(|V|·p) state: it sees full arrays
only through the ``owned`` / ``restore`` commands when the engine
gathers or restores, and tracks convergence from the has-active flag
every reply carries.  Each launch batch ends by meshing the whole pool
(:meth:`WirePlane.connect`): every pair of workers connects once,
authenticated by a per-session token, and carries only
:mod:`repro.arraytable` frames: a peer's bytes are read as validated
arrays, never as objects.  An exchange is then **one** command: each
shard ships its up-phase slices straight to the peers that need them,
runs the unchanged kernel over stand-ins (see
:mod:`repro.runtime.shard` for why that is exact), does the same for
the down phase and replies once — the coordinator moves no replica
data.  Only changed selections travel, so traffic follows the paper's
message tallies, not |V|.

*Recovery* — :meth:`WirePlane.recover_workers`.  A worker death
surfaces as :class:`~repro.runtime.base.WorkerLostError`; for workers it
spawned, the plane resyncs survivors against an echo nonce (draining
stale replies of the aborted stage), relaunches the dead shards and
re-meshes the pool, and the engine pushes the last fingerprint-valid
snapshot and replays (``BSPEngine(..., max_recoveries=...)``).  Sessions
over external endpoints refuse: the coordinator cannot respawn a
process on another machine.

*The worker program* — :func:`serve_sessions`: accept, handshake, then
the shared :func:`~repro.runtime.protocol.serve` loop per connection,
run by the children and by :func:`serve_worker` (``repro worker``).

Kernel walls use each worker's own ``CLOCK_MONOTONIC``: shared on one
host, so traces merge exactly; unrelated across machines, so traced
spans of a genuinely multi-node run are approximate (results are not).
"""

from __future__ import annotations

import secrets
import socket
import sys
from multiprocessing.process import BaseProcess
from time import monotonic, monotonic_ns
from typing import Dict, List, Optional, Sequence, Tuple

from .. import arraytable
from ..bsp.distributed import DistributedGraph, _Route
from ..bsp.program import SubgraphProgram
from . import wire
from .base import Backend, BackendError, BackendSession, worker_context
from .protocol import (
    DEFAULT_STAGE_TIMEOUT,
    INIT_TIMEOUT,
    JOIN_TIMEOUT,
    CommandSession,
    Link,
    ReplyTimeout,
    StatePlane,
    positive_timeout,
    serve,
)
from .shard import (
    Slice,
    WorkerShard,
    by_kind,
    check_restore,
    compact_routes,
    snapshot_view,
    worker_arrays,
)

__all__ = ["SocketBackend", "WirePlane", "serve_sessions", "serve_worker", "standalone_shard"]


class _TcpLink:
    """Framed TCP to one worker (at ``host``, which its peers dial too),
    plus its ``Process`` if we started it."""

    def __init__(self, sock: socket.socket, host: str = "", proc: Optional[BaseProcess] = None):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._proc = proc
        self.host = host

    def send(self, message) -> None:
        try:
            wire.send_msg(self._sock, message)
        except wire.WireError as exc:
            raise OSError(str(exc)) from exc

    def recv(self, timeout: Optional[float] = None):
        try:
            return wire.recv_msg(self._sock, timeout=timeout)
        except wire.WireTimeout:
            raise ReplyTimeout() from None
        except wire.WireError as exc:
            raise EOFError(str(exc)) from None

    def fileno(self) -> int:
        return self._sock.fileno()

    def alive(self) -> bool:
        if self._proc is None:
            return self._sock.fileno() >= 0
        return self._proc.is_alive()

    def exit_code(self) -> Optional[int]:
        return None if self._proc is None else self._proc.exitcode

    def wait(self, timeout: float) -> None:
        if self._proc is not None:
            self._proc.join(timeout)

    def terminate(self) -> None:
        if self._proc is not None:
            self._proc.terminate()

    def kill(self) -> None:
        if self._proc is not None:
            self._proc.kill()

    def close(self) -> None:
        self._sock.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _Peers:
    """One worker's side of the peer mesh.

    ``listen`` binds a port on ``host``, where the coordinator reached
    this worker.  ``connect`` dials every lower worker id and accepts
    every higher one — a dial waits in the backlog until accepted, so no
    order deadlocks — then closes the listener.  A connection whose
    hello lacks the session token is dropped unread.
    """

    def __init__(self, worker_id: int, host: str):
        self.worker_id, self._host = worker_id, host
        self._listener: Optional[socket.socket] = None
        self._socks: Dict[int, socket.socket] = {}
        self._timeout = DEFAULT_STAGE_TIMEOUT

    def listen(self) -> int:
        self.close()
        self._listener = wire.listen(self._host, 0)
        return self._listener.getsockname()[1]

    def connect(self, token: bytes, endpoints: Sequence[Tuple[str, int]], timeout: float) -> None:
        deadline, self._timeout = monotonic() + timeout, timeout
        try:
            for peer in range(self.worker_id):
                sock = socket.create_connection(endpoints[peer], timeout=_time_left(deadline))
                self._socks[peer] = sock
                wire.send_peer_hello(sock, token, self.worker_id)
            while len(self._socks) < len(endpoints) - 1:
                self._listener.settimeout(_time_left(deadline))
                conn, _addr = self._listener.accept()
                try:
                    self._socks[wire.expect_peer_hello(conn, token, _time_left(deadline))] = conn
                except wire.WireError:
                    conn.close()
        finally:
            self._listener.close()
            self._listener = None
        for sock in self._socks.values():
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)

    def trade(self, outbox: Dict[int, Slice], sources: Sequence[int]) -> Dict[int, Slice]:
        """Send ``outbox``'s slices and receive one from each of ``sources``."""
        packed = {dst: arraytable.pack(data) for dst, data in outbox.items()}
        inbox = {}
        for src, frame in wire.trade_frames(self._socks, packed, sources, self._timeout).items():
            try:
                inbox[src] = arraytable.unpack(frame)
            except arraytable.ArrayTableError as exc:
                raise wire.FrameError(f"peer {src}: undecodable frame: {exc}") from None
        return inbox

    def close(self) -> None:
        for sock in self._socks.values():
            sock.close()
        self._socks.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None


def standalone_shard(payload, host: str = "127.0.0.1") -> WorkerShard:
    """Build a shard that owns its arrays (sibling slots start empty) and
    meshes with its peers on ``host``."""
    worker_id, local, program, inbound_up, inbound_down, extra = payload
    num_workers, outbound_up, outbound_down = extra
    own = worker_arrays(local, program)
    return WorkerShard(
        worker_id,
        local,
        program,
        compact_routes(inbound_up),
        compact_routes(inbound_down),
        by_kind([own if w == worker_id else dict.fromkeys(own) for w in range(num_workers)]),
        outbound_up,
        outbound_down,
        _Peers(worker_id, host),
    )


def serve_sessions(lsock: socket.socket, sessions: int) -> None:
    """Serve ``sessions`` coordinator sessions on ``lsock`` (0 = forever).

    Each session ends on a ``stop`` command or when the coordinator's
    connection drops — so a worker cannot outlive a killed coordinator.
    """
    served = 0
    while sessions == 0 or served < sessions:
        conn, _addr = lsock.accept()
        try:
            link = _TcpLink(conn)
            # The worker speaks first so a mismatched coordinator can
            # read this side's version and report the mismatch
            # locally; then it validates the coordinator's hello.
            wire.send_hello(conn, "worker")
            wire.expect_hello(conn, "coordinator", timeout=INIT_TIMEOUT)
            host = conn.getsockname()[0]
            serve(link, lambda init: standalone_shard(init, host))
            served += 1
        except wire.WireError as exc:
            # Handshake failure: report, drop the connection, keep
            # listening — a misdialed peer must not kill the worker.
            print(f"repro worker: rejected connection: {exc}", file=sys.stderr)
        finally:
            conn.close()


def serve_worker(listen: str, sessions: int = 1) -> int:
    """Run a standalone socket-backend worker (the ``repro worker`` verb).

    Binds ``listen`` (``host:port`` or ``[v6]:port``; port 0 picks a
    free one), announces the bound address on stdout as
    ``REPRO-WORKER listening host:port`` for whoever launched it, then
    serves ``sessions`` coordinator sessions (:func:`serve_sessions`)
    before returning.
    """
    lsock = wire.listen(*wire.parse_hostport(listen))
    try:
        bound = wire.format_hostport(*lsock.getsockname()[:2])
        print(f"REPRO-WORKER listening {bound}", flush=True)
        serve_sessions(lsock, sessions)
    finally:
        lsock.close()
    return 0


def _serve_child(lsock: socket.socket, inherited: Sequence[socket.socket]) -> None:
    """A spawned worker's whole life: close its copies of the
    coordinator's connections to other workers, serve one session."""
    for sock in inherited:
        sock.close()
    try:
        serve_sessions(lsock, 1)
    except KeyboardInterrupt:  # the terminal's ^C reaches the whole group
        pass
    finally:
        lsock.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``, floored just above zero: the wait
    still times out, where 0 would make a socket non-blocking."""
    return max(deadline - monotonic(), 1e-3)


def _dial(
    w: int, endpoint: Tuple[str, int], deadline: float, proc: Optional[BaseProcess] = None
) -> _TcpLink:
    """Connect to worker ``w``'s endpoint and trade version hellos."""
    host, port = endpoint
    try:
        sock = socket.create_connection((host, port), timeout=_time_left(deadline))
    except OSError as exc:
        where = wire.format_hostport(host, port)
        raise BackendError(
            f"cannot connect to worker at {where}: {exc} "
            f"(is `repro worker --listen {where}` running?)"
        ) from exc
    link = _TcpLink(sock, host, proc)
    try:
        wire.expect_hello(sock, "worker", timeout=_time_left(deadline))
        wire.send_hello(sock, "coordinator")
    except wire.WireError as exc:
        sock.close()
        raise BackendError(f"worker {w} handshake failed: {exc}") from exc
    return link


def _start_child(ctx, w: int, inherited: Sequence[socket.socket]):
    """Start worker ``w`` behind a port we bind; return its endpoint and process."""
    lsock = socket.create_server(("127.0.0.1", 0))
    try:
        proc = ctx.Process(
            target=_serve_child, args=(lsock, inherited), name=f"repro-wire-{w}", daemon=True
        )
        proc.start()
        return lsock.getsockname()[:2], proc
    finally:
        lsock.close()  # the child's copy is the one that accepts


def _launch_failure(w: int, proc: BaseProcess, deadline: float, timeout: float) -> BackendError:
    """Why worker ``w``, which we started, never shook hands."""
    # A refusal or a hang-up fails the dial early, the child on its way out:
    # wait for its exit code.  Silence runs the deadline out: this is a poll.
    proc.join(max(deadline - monotonic(), 0.0))
    code = proc.exitcode
    if code is None:
        return BackendError(f"spawned worker {w}: no handshake within {timeout:.0f}s")
    return BackendError(f"spawned worker {w} exited before the handshake (exit code {code})")


class _Spawner:
    """The session's ``spawn`` seam: links to a batch of workers, in
    order, inside one ``timeout`` — to ``endpoints``, or to children on
    127.0.0.1, **all** started before the first is dialled.  A batch that
    fails leaves no child, socket or bound port behind."""

    def __init__(self, endpoints: Optional[Sequence[Tuple[str, int]]], timeout: float):
        self._endpoints = endpoints
        self._timeout = timeout
        #: worker id -> our end of the connection last handed out for it.
        self._socks: Dict[int, socket.socket] = {}

    def __call__(self, workers: Sequence[int]) -> List[_TcpLink]:
        deadline = monotonic() + self._timeout
        endpoints = self._endpoints
        procs: Dict[int, BaseProcess] = {}
        links: List[_TcpLink] = []
        try:
            if endpoints is None:
                ctx, endpoints = worker_context(), {}
                survivors = [sock for v, sock in self._socks.items() if v not in workers]
                for w in workers:
                    endpoints[w], procs[w] = _start_child(ctx, w, survivors)
            for w in workers:
                try:
                    links.append(_dial(w, endpoints[w], deadline, procs.get(w)))
                except BackendError as exc:
                    if w not in procs:
                        raise
                    raise _launch_failure(w, procs[w], deadline, self._timeout) from exc
        except BaseException:
            for link in links:
                link.close()
            for proc in procs.values():
                proc.kill()
                proc.join()
            raise
        self._socks.update((w, link._sock) for w, link in zip(workers, links))
        return links


class WirePlane(StatePlane):
    """State owned by the workers; updates traded peer to peer."""

    def __init__(self, spawned: bool):
        #: dead workers can be replaced only if we launched them.
        self.supports_recovery = spawned
        self._nonce = 0
        #: proves a peer connection comes from this session's workers.
        self._token = secrets.token_bytes(wire.TOKEN_BYTES)

    def open(self, dgraph: DistributedGraph, program: SubgraphProgram):
        # Nothing to allocate here; each worker is told the pool size and
        # its per-source route slices — what it ships in an exchange.
        self._workers = (dgraph.locals, program)
        p = dgraph.num_workers
        outbound_up: List[List[Tuple[int, _Route]]] = [[] for _ in range(p)]
        outbound_down: List[List[Tuple[int, _Route]]] = [[] for _ in range(p)]
        for (w, mw), route in dgraph.up_routes.items():
            outbound_up[w].append((mw, route))
        for (mw, w), route in dgraph.down_routes.items():
            outbound_down[mw].append((w, route))
        return [(p, outbound_up[w], outbound_down[w]) for w in range(p)]

    def connect(self, session: CommandSession) -> None:
        """(Re)form the whole pool's peer mesh: every worker opens a
        listener and reports its port, then connects to every sibling at
        (the host we dialled for it, the port it reported)."""
        ports = session.call("listen")
        endpoints = [(link.host, port) for link, port in zip(session.links, ports)]
        session.call("mesh", (self._token, endpoints, session.stage_timeout))

    def exchange(self, session: CommandSession, superstep: int):
        """One command: each worker trades both phases with its peers."""
        t0 = monotonic_ns()
        session.broadcast("exchange")
        # A worker gives a silent peer ``stage_timeout`` per phase before
        # replying with an error naming it; that verdict must arrive
        # before our own wait runs out.
        replies = session.results(2 * session.stage_timeout)
        rec = session.recorder
        if rec.enabled:
            # Coordinator-side wall: the one round trip; per worker, the
            # window of each phase's trade, on the worker's own clock.
            rec.add("wire.exchange", t0, monotonic_ns(), None, superstep, "wire")
            for w, (_, _, windows) in enumerate(replies):
                for phase, (p0, p1) in zip(("up", "down"), windows):
                    rec.add(f"wire.peer.{phase}", p0, p1, w, superstep, "wire")
        return [up for up, _, _ in replies], [down for _, down, _ in replies]

    # -- state access -----------------------------------------------------

    def any_active(self, session: CommandSession) -> bool:
        return any(session.active)

    def pull_state(self, session: CommandSession) -> Dict[str, list]:
        with session.recorder.span("wire.pull_state", cat="wire"):
            return by_kind(session.call("owned"))

    def push_state(self, session: CommandSession, arrays) -> None:
        # The workers hold the arrays, so the check runs against what
        # they allocate, rebuilt here, before any worker's array changes.
        locals_, program = self._workers
        check_restore(
            snapshot_view(by_kind([worker_arrays(local, program) for local in locals_])), arrays
        )
        shards = [{kind: per[w] for kind, per in arrays.items()} for w in range(len(locals_))]
        with session.recorder.span("wire.push_state", cat="wire"):
            session.scatter("restore", shards)
            session.results()

    # -- recovery ---------------------------------------------------------

    def recover_workers(self, session: CommandSession) -> List[int]:
        self._nonce += 1
        dead = [w for w, link in enumerate(session.links) if not self._resync(session, link)]
        for w in dead:
            link = session.links[w]
            link.kill()
            link.wait(JOIN_TIMEOUT)
            link.close()
        session.launch(dead)
        return dead

    def _resync(self, session: CommandSession, link: Link) -> bool:
        """Drain ``link``'s stale replies until it echoes the current nonce."""
        if not link.alive():
            return False
        try:
            link.send(("echo", self._nonce))
            # An aborted stage leaves at most a handful of unread
            # replies queued ahead of the echo; the bound is defensive.
            for _ in range(32):
                if link.recv(session.stage_timeout) == ("echo", self._nonce):
                    return True
        except (EOFError, OSError, ReplyTimeout):
            pass
        return False


def _parse_workers(workers) -> List[Tuple[str, int]]:
    """Parse a ``workers=`` value: ``host:port`` entries joined by ``+``
    (or ``;``), or an already-split sequence of such strings."""
    if isinstance(workers, str):
        entries = [e for e in workers.replace(";", "+").split("+") if e]
    else:
        entries = list(workers)
    if not entries:
        raise ValueError("workers= names no endpoints")
    return _distinct([wire.parse_hostport(entry.strip()) for entry in entries])


def _read_topology(path: str) -> List[Tuple[str, int]]:
    """Read a topology file: one ``host:port`` per line, ``#`` comments."""
    endpoints = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = line.split("#", 1)[0].strip()
            if entry:
                endpoints.append(wire.parse_hostport(entry))
    if not endpoints:
        raise ValueError(f"topology file {path!r} names no workers")
    return _distinct(endpoints)


def _distinct(endpoints: List[Tuple[str, int]]) -> List[Tuple[str, int]]:
    """``endpoints``, refusing a repeat: a worker serves one session at a time."""
    for i, endpoint in enumerate(endpoints):
        if endpoint in endpoints[:i]:
            where = wire.format_hostport(*endpoint)
            raise ValueError(f"worker endpoint {where} is listed twice (it serves one session)")
    return endpoints


class SocketBackend(Backend):
    """Workers as independent processes behind TCP.

    Parameters
    ----------
    workers:
        Pre-launched worker endpoints — ``host:port`` entries joined by
        ``+`` (spec form ``socket?workers=hostA:7001+hostB:7001``), or a
        sequence of such strings.  Exactly one endpoint per graph
        partition, in worker order.  Default ``None``: the session
        starts one child process per partition on 127.0.0.1, forked from
        this one where the platform can (the single-host mode tests and
        CI use).
    topology:
        Path to a topology file (one ``host:port`` per line, ``#``
        comments) — the file-based spelling of ``workers``.
    stage_timeout:
        Seconds to wait for each worker's stage reply before raising
        :class:`~repro.runtime.base.BackendError`; shares
        :data:`~repro.runtime.protocol.DEFAULT_STAGE_TIMEOUT` with the
        process backend.  Spec form ``socket?stage_timeout=120``.
    connect_timeout:
        Seconds for spawn/connect/handshake — one deadline for the whole
        batch of workers at session start or recovery.
    """

    name = "socket"

    def __init__(
        self,
        workers=None,
        topology: Optional[str] = None,
        stage_timeout: Optional[float] = None,
        connect_timeout: float = 30.0,
    ):
        if workers is not None and topology is not None:
            raise ValueError("pass workers= or topology=, not both")
        self.workers = workers
        self.topology = topology
        self.stage_timeout = positive_timeout("stage_timeout", stage_timeout)
        self.connect_timeout = positive_timeout("connect_timeout", connect_timeout)
        # Malformed endpoint lists fail at spec/construction time, not
        # at the first session of a long pipeline.
        self._static_endpoints = None if workers is None else _parse_workers(workers)

    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        endpoints = self._static_endpoints
        if endpoints is None and self.topology is not None:
            endpoints = _read_topology(self.topology)
        if endpoints is not None and len(endpoints) != dgraph.num_workers:
            raise BackendError(
                f"backend spec names {len(endpoints)} workers but the "
                f"graph is partitioned for p={dgraph.num_workers}"
            )
        spawn = _Spawner(endpoints, self.connect_timeout)
        plane = WirePlane(spawned=endpoints is None)
        return CommandSession(self.name, dgraph, program, spawn, plane, self.stage_timeout)
