"""The one out-of-process session and the one worker command loop.

``process`` and ``socket`` are the same conversation: the coordinator
(:class:`CommandSession`) spawns one worker per shard, sends each an
``init`` message once, then broadcasts the commands of each superstep —
how many is the state plane's choice (see below); every worker
(:func:`serve`) answers each command with exactly one reply —
``("ok", payload)``, ``("error", traceback_text)``, or transport death
— and collecting the replies is the barrier the coordinator waits on.
The two backends differ in exactly two seams, both passed to the
session as objects:

**The link** (:class:`Link`) — how messages reach worker ``w`` and how
its process is observed and stopped.  ``multiprocessing`` pipe +
``Process`` in :mod:`repro.runtime.process`; framed TCP
(:mod:`repro.runtime.wire`) + ``Popen`` or an external endpoint in
:mod:`repro.runtime.socket`.  The session never touches a pipe, socket
or process handle directly.

**The state plane** (:class:`StatePlane`) — where the state arrays live
and how replica updates move between workers.  Shared memory: the
parent allocates every array, children inherit them all at fork, a
whole superstep is one broadcast (the children meet at a shared-memory
barrier between its phases) and the coordinator reads state in place.
Wire: each worker owns its arrays, a superstep is two broadcasts
(``compute``, then ``exchange``, after which the workers trade replica
updates peer to peer), and state access is a command.

Everything else is here, once:

*Stage timeouts.*  The coordinator waits on every link at once and
reads the replies in the order they arrive, each awaited for
``stage_timeout`` per stage phase the command runs (default
:data:`DEFAULT_STAGE_TIMEOUT`; spec form ``process?stage_timeout=120``)
— one phase for a per-stage command, three for the shared-memory
plane's whole superstep.  A worker hung inside a kernel raises
:class:`~repro.runtime.base.BackendError` naming the workers still
alive — "worker 3 is wedged" versus "the whole pool is gone" — and a
worker that dies while its siblings wait on it is reported at once.

*Typed worker loss.*  A link that fails on send **or** receive raises
:class:`~repro.runtime.base.WorkerLostError` with the worker id and the
link's exit code, on either backend and whether the worker died during
a stage or between two — or when any worker replies with an error while
another is dead (a survivor may report the lost peer connection first).

*The failed latch.*  A stage error leaves the conversation desynced
(some workers ran the stage, unread replies may be queued), so the
first one latches the session *failed* and every later stage call
raises ``BackendError("session is failed")`` instead of exchanging
mismatched frames.  ``close()`` always works; wire-plane recovery
resyncs against an echo nonce and clears the latch.

*Teardown.*  ``stop`` to every worker, then wait → ``terminate`` → wait
→ ``kill`` → wait, each wait under one deadline shared by all
stragglers; then links close.  Runs from ``close()`` or, as a safety
net, from a ``weakref.finalize``.
"""

from __future__ import annotations

import traceback
import weakref
from multiprocessing.connection import wait
from time import monotonic
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from ..bsp.distributed import DistributedGraph
from ..bsp.program import SubgraphProgram
from .base import (
    BackendError,
    BackendSession,
    ComputeStageResult,
    ExchangeResult,
    WorkerLostError,
    build_route_plan,
)
from .shard import Slots, TimedResult, WorkerShard

__all__ = [
    "DEFAULT_STAGE_TIMEOUT",
    "ReplyTimeout",
    "Link",
    "StatePlane",
    "CommandSession",
    "serve",
    "positive_timeout",
]

#: generous default for one stage reply: far above any kernel wall this
#: repo's graphs produce, small enough that a wedged worker surfaces in
#: minutes rather than never.
DEFAULT_STAGE_TIMEOUT = 600.0
#: seconds to wait for each worker's ``init`` acknowledgement.
INIT_TIMEOUT = 120.0
#: seconds each teardown wait (after stop / terminate / kill) may take.
JOIN_TIMEOUT = 5.0


def positive_timeout(
    name: str, value: Optional[float], default: float = DEFAULT_STAGE_TIMEOUT
) -> float:
    """``value`` (``default`` when ``None``) in seconds; ``ValueError`` unless > 0."""
    seconds = float(default if value is None else value)
    if not seconds > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return seconds


class ReplyTimeout(Exception):
    """Link signal: nothing arrived within the deadline.

    Translated by :meth:`CommandSession._expect` into a
    :class:`BackendError` that names the still-alive workers.
    """


class Link(Protocol):
    """The coordinator's handle on one worker: a channel and a process.

    ``send``/``recv`` raise ``EOFError`` or ``OSError`` when the peer is
    gone; ``recv`` raises :class:`ReplyTimeout` when ``timeout`` seconds
    pass without a complete message.  ``fileno`` is a descriptor that
    turns readable when a reply (or end of file) is waiting, for
    :func:`multiprocessing.connection.wait`.  The process methods are
    no-ops (``exit_code`` is ``None``) for a worker the coordinator did
    not launch.  ``close`` is idempotent.
    """

    def send(self, message) -> None: ...
    def recv(self, timeout: Optional[float] = None): ...
    def fileno(self) -> int: ...
    def alive(self) -> bool: ...
    def exit_code(self) -> Optional[int]: ...
    def wait(self, timeout: float) -> None: ...
    def terminate(self) -> None: ...
    def kill(self) -> None: ...
    def close(self) -> None: ...


class StatePlane:
    """Where worker state lives and how an exchange moves it.

    The defaults are the shared-storage ones: :attr:`state` is the
    coordinator's live view, read and restored in place, a superstep is
    the two stage calls and an exchange is the two pull phases, one
    broadcast each.
    """

    #: the coordinator-visible arrays, or ``None`` when workers own them.
    state: Optional[Slots] = None
    #: whether :meth:`recover_workers` can replace dead workers.
    supports_recovery = False

    def open(self, dgraph: DistributedGraph, program: SubgraphProgram) -> Sequence:
        """Allocate; return each worker's plane-specific ``init`` extra."""
        raise NotImplementedError

    def connect(self, session: "CommandSession") -> None:
        """Called after every launch batch, over the whole pool."""

    def superstep(
        self, session: "CommandSession", superstep: int
    ) -> Tuple[ComputeStageResult, ExchangeResult]:
        """Run one whole superstep (:meth:`BackendSession.superstep`)."""
        return BackendSession.superstep(session, superstep)

    def exchange(
        self, session: "CommandSession", superstep: int
    ) -> Tuple[List[TimedResult], List[TimedResult]]:
        """Run both exchange phases; return the (up, down) timed results."""
        return BackendSession.exchange_phases(session, superstep)

    def any_active(self, session: "CommandSession") -> bool:
        return BackendSession.any_active(session)

    def pull_state(self, session: "CommandSession") -> Dict[str, list]:
        return BackendSession.pull_state(session)

    def push_state(self, session: "CommandSession", arrays) -> None:
        BackendSession.push_state(session, arrays)

    def recover_workers(self, session: "CommandSession") -> List[int]:
        """Replace dead workers and resync survivors; return the replaced ids."""
        raise NotImplementedError


def serve(link, make_shard: Callable[[tuple], WorkerShard]) -> None:
    """Serve one coordinator session on ``link``: the worker command loop.

    ``link`` needs ``recv()``, ``send(message)`` and ``close()``;
    ``make_shard`` turns the ``init`` payload into this worker's
    :class:`~repro.runtime.shard.WorkerShard`.  Returns on ``stop`` or
    when the coordinator goes away, so a worker never outlives it.
    """
    shard: Optional[WorkerShard] = None
    try:
        while True:
            try:
                cmd, payload = link.recv()
            except (ValueError, TypeError):
                return  # not a (command, payload) pair: foreign or desynced peer
            if cmd == "stop":
                return
            if cmd == "echo":
                link.send(("echo", payload))
                continue
            try:
                if cmd == "init":
                    shard = make_shard(payload)
                    reply = ("ready", shard.active_any())
                elif shard is None:
                    reply = ("error", f"command {cmd!r} before init")
                elif cmd not in shard.COMMANDS:
                    reply = ("error", f"unknown command {cmd!r}")
                else:
                    reply = ("ok", (getattr(shard, cmd)(payload), shard.active_any()))
            except BaseException:
                reply = ("error", traceback.format_exc())
            link.send(reply)
    except (EOFError, OSError):
        pass  # coordinator went away
    finally:
        if shard is not None:
            shard.close()
        link.close()


def _quietly(call: Callable, *args) -> None:
    """One best-effort teardown step: a dead peer must not stop the rest."""
    try:
        call(*args)
    except Exception:
        pass


def _teardown(links: List[Link]) -> None:
    """Stop every worker, escalating; safe to call twice and from a finalizer."""
    for link in links:
        _quietly(link.send, ("stop", None))
    for escalate in (None, "terminate", "kill"):
        stragglers = [link for link in links if link.alive()]
        if not stragglers:
            break
        if escalate is not None:
            for link in stragglers:
                _quietly(getattr(link, escalate))
        deadline = monotonic() + JOIN_TIMEOUT
        for link in stragglers:
            _quietly(link.wait, max(0.0, deadline - monotonic()))
    for link in links:
        _quietly(link.close)
    links.clear()


class CommandSession(BackendSession):
    """A pool of out-of-process workers driven over command/reply links.

    ``spawn(workers)`` starts or dials the given workers and returns
    their links, in order — called once for the whole pool at open and
    once for the dead set at recovery, so an implementation can start
    them side by side.  A ``spawn`` that raises must leave no worker
    behind: the session tears down only the links it was handed.
    ``plane`` is the :class:`StatePlane`.  Neither may hold a reference
    to the session (the finalizer must not keep it alive).
    """

    def __init__(
        self,
        backend_name: str,
        dgraph: DistributedGraph,
        program: SubgraphProgram,
        spawn: Callable[[Sequence[int]], Sequence[Link]],
        plane: StatePlane,
        stage_timeout: float = DEFAULT_STAGE_TIMEOUT,
    ):
        p = dgraph.num_workers
        self.backend_name = backend_name
        self.stage_timeout = stage_timeout
        #: worker id -> its link.
        self.links: List[Link] = []
        #: worker id -> "has an active vertex", as of its last reply.
        self.active = [False] * p
        self._spawn = spawn
        self._plane = plane
        self._failed = False
        # Registered before any allocation or spawn so a partially
        # constructed session still tears down whatever it started.
        self._finalizer = weakref.finalize(self, _teardown, self.links)
        try:
            plan = build_route_plan(dgraph)
            extras = plane.open(dgraph, program)
            if plane.state is not None:
                self.state = plane.state
            self._init_parts = (dgraph.locals, program, plan, extras)
            self.launch(range(p))
        except BaseException:
            self.close()
            raise

    def launch(self, workers: Iterable[int]) -> None:
        """spawn → ``init`` → ``ready``, each step over the whole batch:
        every worker at open, the replacements at recovery."""
        workers = list(workers)
        locals_, program, plan, extras = self._init_parts
        for w, link in zip(workers, self._spawn(workers)):
            if w < len(self.links):
                self.links[w] = link  # a replacement
            else:
                self.links.append(link)
        for w in workers:
            # Everything a worker holds for the whole run, in one message.
            init = (w, locals_[w], program, plan.inbound_up[w], plan.inbound_down[w], extras[w])
            self._post(w, "init", init)
        for w in workers:
            self.active[w] = bool(self._expect(w, "ready", timeout=INIT_TIMEOUT))
        self._plane.connect(self)

    # -- failure semantics ------------------------------------------------

    def _check_usable(self) -> None:
        """Gate every stage entry on the closed/failed latches."""
        if not self._finalizer.alive:
            raise BackendError("session is closed")
        if self._failed:
            raise BackendError("session is failed")

    def _fail(self, error: BackendError) -> BackendError:
        self._failed = True
        return error

    def _lost(self, w: int, exc: BaseException) -> WorkerLostError:
        code = self.links[w].exit_code()
        detail = str(exc) if code is None else f"exit code {code}"
        return self._fail(WorkerLostError(w, f"worker {w} died unexpectedly ({detail})"))

    def _timed_out(self, w: int, timeout: float) -> BackendError:
        alive = [v for v, link in enumerate(self.links) if link.alive()]
        return self._fail(
            BackendError(
                f"worker {w} did not answer within {timeout:.0f}s "
                f"(alive workers: {alive}) — "
                "a stage kernel is hung or the host is overloaded; "
                "raise stage_timeout (e.g. backend spec "
                "'process?stage_timeout=1200') if the latter"
            )
        )

    def _post(self, w: int, command: str, payload) -> None:
        """Send one command to worker ``w``; a dead link is a lost worker."""
        try:
            self.links[w].send((command, payload))
        except (EOFError, OSError) as exc:
            raise self._lost(w, exc) from exc

    def _expect(self, w: int, expected: str, timeout: Optional[float] = None):
        """Await worker ``w``'s reply payload; latch the session failed on error."""
        if timeout is None:
            timeout = self.stage_timeout
        try:
            reply = self.links[w].recv(timeout)
        except (EOFError, OSError) as exc:
            raise self._lost(w, exc) from None
        except ReplyTimeout:
            raise self._timed_out(w, timeout) from None
        # A desynced or foreign peer can deliver any unpickled object;
        # treat a non-pair reply as a protocol fault, not an unpacking crash.
        if not (isinstance(reply, tuple) and len(reply) == 2):
            raise self._fail(
                BackendError(
                    f"worker {w} sent a malformed reply ({type(reply).__name__}, "
                    f"expected a (status, payload) pair)"
                )
            )
        status, payload = reply
        if status == "error":
            error = BackendError(f"worker {w} failed:\n{payload}")
            dead = next((v for v, link in enumerate(self.links) if not link.alive()), None)
            if dead is not None:
                raise self._lost(dead, error) from error
            raise self._fail(error)
        if status != expected:  # pragma: no cover - protocol guard
            raise self._fail(BackendError(f"worker {w}: expected {expected!r}, got {status!r}"))
        return payload

    # -- the conversation (also the planes' API) ---------------------------

    def broadcast(self, command: str, payload=None) -> None:
        """Send one stage command to every worker (entry-checked)."""
        self.scatter(command, [payload] * len(self.links))

    def scatter(self, command: str, payloads: Sequence) -> None:
        """Send one command with a *per-worker* payload to every worker."""
        self._check_usable()
        for w, payload in enumerate(payloads):
            self._post(w, command, payload)

    def results(self, timeout: Optional[float] = None) -> list:
        """Collect every worker's ``ok`` reply — the barrier.

        Replies are read as they arrive, each next one awaited for
        ``timeout`` seconds (default ``stage_timeout``), so the first
        failure to arrive is the one raised.
        """
        if timeout is None:
            timeout = self.stage_timeout
        values = [None] * len(self.links)
        pending = {self.links[w]: w for w in range(len(self.links))}
        while pending:
            arrived = wait(list(pending), timeout)
            if not arrived:
                raise self._timed_out(min(pending.values()), timeout)
            for w in sorted(pending.pop(link) for link in arrived):
                values[w], self.active[w] = self._expect(w, "ok", timeout)
        return values

    # -- BackendSession ----------------------------------------------------

    def call(self, method: str, payload=None) -> list:
        self.broadcast(method, payload)
        return self.results()

    def superstep(self, superstep: int) -> Tuple[ComputeStageResult, ExchangeResult]:
        return self._plane.superstep(self, superstep)

    def exchange_phases(self, superstep: int) -> Tuple[List[TimedResult], List[TimedResult]]:
        return self._plane.exchange(self, superstep)

    def any_active(self) -> bool:
        return self._plane.any_active(self)

    def pull_state(self) -> Dict[str, list]:
        return self._plane.pull_state(self)

    def push_state(self, arrays) -> None:
        self._plane.push_state(self, arrays)

    @property
    def supports_recovery(self) -> bool:
        """Whether :meth:`recover_workers` can replace dead workers."""
        return self._plane.supports_recovery

    def recover_workers(self) -> List[int]:
        """Replace dead workers, resync survivors, clear the failed latch.

        Returns the replaced worker ids.  The caller (the engine's
        recovery path) must follow up with ``push_state`` — replacements
        come up with *initial* state, and survivors have advanced past
        the snapshot boundary.
        """
        if not self._finalizer.alive:
            raise BackendError("session is closed")
        if not self.supports_recovery:
            raise BackendError(
                "cannot recover: only local workers the coordinator spawned "
                "itself over the wire plane can be replaced"
            )
        self._failed = False  # the plane's relaunch and re-mesh talk to the pool
        try:
            return self._plane.recover_workers(self)
        except BaseException:
            self._failed = True
            raise

    def close(self) -> None:
        self._finalizer()
