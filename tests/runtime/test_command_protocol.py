"""Failure semantics of the shared command/reply session protocol.

Regression coverage for two coordinator-side bugs and one teardown
hazard, exercised against *both* out-of-process backends:

1. **Stage timeouts** — historically the reply timeout was applied only
   to the init handshake; a worker hung inside a stage kernel blocked
   the coordinator forever.  Now every stage reply honours a
   configurable ``stage_timeout`` (spec ``process?stage_timeout=120``)
   and a timeout raises :class:`BackendError` naming the workers that
   were still alive.
2. **The failed-session latch** — after a stage error the conversation
   is desynced (unread replies may be queued); subsequent stage calls
   must raise ``BackendError("session is failed")`` instead of
   exchanging mismatched frames.
3. **Partial-death teardown** — ``close()`` after a SIGKILLed subset of
   workers must reap every survivor, and a killed coordinator must take
   its whole pool with it; the process backend's state lives in
   anonymous pages, so neither leaves anything in ``/dev/shm``.

Both backends run one session class
(:class:`repro.runtime.protocol.CommandSession`), so each failure is
provoked through every *link* that can carry it: pipes and TCP for real
worker death, TCP and the in-memory link (``memlink.py``) for peers that
misbehave.  Workers are reached only through ``session.links``.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from memlink import memory_session
from repro.apps.cc import ConnectedComponents
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.pipeline import BACKENDS
from repro.runtime import (
    BackendError,
    ProcessBackend,
    SocketBackend,
    WorkerLostError,
    wire,
)


class SleepyCC(ConnectedComponents):
    """CC whose compute kernel wedges — the hung-worker injection.

    Defined at module scope so it pickles into process-backend children
    (fork shares the parent's modules) for the stage-timeout tests.
    """

    name = "sleepy-cc"

    def compute(self, local, values, active, superstep):
        time.sleep(60.0)
        return super().compute(local, values, active, superstep)  # pragma: no cover


def misbehave(end, mode: str) -> None:
    """A worker that acks the launch and then breaks the conversation.

    ``end`` is any object with ``recv()``/``send(message)``.  It acks
    ``init`` and the wire plane's two mesh commands (``listen``,
    ``mesh``) without meshing.  After the first stage command it either
    never answers (``mode="silent"`` — a hung remote worker) or answers
    with a non-``(status, payload)`` object (``mode="malformed"`` — a
    desynced/foreign peer); then it holds the link open, ignoring
    everything but ``stop``.
    """
    cmd, _payload = end.recv()
    assert cmd == "init"
    end.send(("ready", False))
    for launch_command in ("listen", "mesh"):
        cmd, _payload = end.recv()
        assert cmd == launch_command
        end.send(("ok", (None, False)))
    end.recv()  # the first stage command
    if mode == "malformed":
        end.send("this is not a (status, payload) pair")
    try:
        while end.recv()[0] != "stop":
            pass
    except (EOFError, wire.WireError):
        pass


class _WireEnd:
    """``misbehave``'s view of an accepted, handshaken TCP connection."""

    def __init__(self, conn):
        self._conn = conn

    def recv(self):
        return wire.recv_msg(self._conn, timeout=30.0)

    def send(self, message):
        wire.send_msg(self._conn, message)


class FakeSocketWorker(threading.Thread):
    """A wire-correct endpoint (real handshake) that then misbehaves."""

    def __init__(self, mode: str):
        super().__init__(daemon=True)
        self.mode = mode
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self):
        conn, _ = self.listener.accept()
        try:
            wire.send_hello(conn, "worker")
            wire.expect_hello(conn, "coordinator", timeout=30.0)
            misbehave(_WireEnd(conn), self.mode)
        except wire.WireError:
            pass
        finally:
            conn.close()

    def close(self):
        self.listener.close()
        self.join(timeout=30)


#: every misbehaving-peer case runs over framed TCP and the in-memory link.
BOTH_TRANSPORTS = ["tcp", "memory"]


def fake_pools(mode):
    return pytest.mark.parametrize(
        "fake_pool",
        [(transport, mode) for transport in BOTH_TRANSPORTS],
        indirect=True,
        ids=BOTH_TRANSPORTS,
    )


@pytest.fixture()
def fake_pool(request):
    """``open(dgraph, program)`` -> a wire-plane session over two fake
    workers in the requested ``(transport, mode)``, stage_timeout 0.5 s."""
    transport, mode = request.param
    if transport == "memory":
        yield lambda dgraph, program: memory_session(
            dgraph, program, worker=lambda end: misbehave(end, mode), stage_timeout=0.5
        )
        return
    workers = [FakeSocketWorker(mode) for _ in range(2)]
    for w in workers:
        w.start()
    endpoints = "+".join(f"127.0.0.1:{w.port}" for w in workers)
    yield SocketBackend(workers=endpoints, stage_timeout=0.5).session
    for w in workers:
        w.close()


@pytest.fixture(scope="module")
def dgraph():
    g = powerlaw_graph(120, eta=2.2, min_degree=2, seed=11, name="proto-pl")
    return build_distributed_graph(EBVPartitioner().partition(g, 2))


@pytest.fixture(scope="module")
def program():
    return ConnectedComponents()


# ----------------------------------------------------------------------
# Satellite 1: stage timeouts apply to stages, not just init
# ----------------------------------------------------------------------


def test_process_hung_worker_times_out_and_names_alive_workers(dgraph):
    backend = ProcessBackend(stage_timeout=0.5)
    with backend.session(dgraph, SleepyCC()) as session:
        with pytest.raises(BackendError, match="did not answer within") as excinfo:
            session.compute_stage(0)
        # The report distinguishes "hung" from "dead": both children are
        # alive, just wedged inside the sleeping kernel ...
        assert "alive workers: [0, 1]" in str(excinfo.value)
        # ... and teaches the spec knob for genuinely slow hosts.
        assert "stage_timeout" in str(excinfo.value)


@fake_pools("silent")
def test_socket_hung_worker_times_out(fake_pool, dgraph, program):
    with fake_pool(dgraph, program) as session:
        with pytest.raises(BackendError, match="did not answer within") as excinfo:
            session.compute_stage(0)
        # Both peers still hold their links open: hung, not dead.
        assert "alive workers: [0, 1]" in str(excinfo.value)


@pytest.mark.parametrize(
    "spec", ["process?stage_timeout=120", "socket?stage_timeout=120"]
)
def test_stage_timeout_reaches_backend_through_spec(spec):
    assert BACKENDS.create(spec).stage_timeout == 120


@pytest.mark.parametrize("cls", [ProcessBackend, SocketBackend])
def test_nonpositive_stage_timeout_rejected_at_session_start(cls, dgraph, program):
    with pytest.raises(ValueError, match="stage_timeout"):
        cls(stage_timeout=0).session(dgraph, program)


@pytest.mark.parametrize(
    "spec, name",
    [
        ("process?stage_timeout=0", "stage_timeout"),
        ("socket?stage_timeout=-5,connect_timeout=-1", "stage_timeout"),
        ("socket?connect_timeout=-1", "connect_timeout"),
        ("socket?connect_timeout=0", "connect_timeout"),
    ],
)
def test_bad_timeouts_fail_when_the_spec_is_parsed(spec, name):
    """Not at session start — that is after graph read, partition and
    distributed build.  Same place ``socket?workers=`` typos fail."""
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        BACKENDS.create(spec)


def test_unparseable_timeout_fails_when_the_spec_is_parsed():
    """``&`` is not the spec separator, so this is one non-numeric value."""
    with pytest.raises(ValueError):
        BACKENDS.create("socket?stage_timeout=-5&connect_timeout=-1")


# ----------------------------------------------------------------------
# Satellite 2: the failed latch + the typed WorkerLostError
# ----------------------------------------------------------------------


def _kill_last_worker(session):
    """SIGKILL the highest-id worker through its link and reap it."""
    victim = session.links[-1]
    victim.kill()
    victim.wait(30)
    assert not victim.alive()


@pytest.mark.parametrize("backend_cls", [ProcessBackend, SocketBackend])
def test_lost_worker_is_typed_and_latches_the_session(backend_cls, dgraph, program):
    with backend_cls().session(dgraph, program) as session:
        _kill_last_worker(session)
        # Waiting on the dead worker's reply is the deterministic path
        # to the typed error (a full stage call races the kill against
        # the command send, which may surface as "worker pool is down").
        with pytest.raises(WorkerLostError, match="died unexpectedly") as excinfo:
            session._expect(1, "ok")
        assert excinfo.value.worker_id == 1
        assert isinstance(excinfo.value, BackendError)
        # Every subsequent stage call refuses instead of desyncing.
        with pytest.raises(BackendError, match="session is failed"):
            session.compute_stage(1)
        with pytest.raises(BackendError, match="session is failed"):
            session.exchange_stage(1)
    # context-manager exit: close() after the latch is clean.


@pytest.mark.parametrize("backend_cls", [ProcessBackend, SocketBackend])
def test_worker_killed_between_stages_is_typed_on_the_next_stage(
    backend_cls, dgraph, program
):
    """The loss is noticed when the next command is *sent* (a dead pipe
    raises EPIPE at once; a small TCP send may be buffered and the recv
    notices instead).  Either way it is a WorkerLostError naming the
    worker and its exit code — not a transport-dependent plain
    BackendError — so the engine's recovery path sees it."""
    with backend_cls().session(dgraph, program) as session:
        session.compute_stage(0)
        _kill_last_worker(session)
        time.sleep(0.2)
        with pytest.raises(WorkerLostError, match="died unexpectedly") as excinfo:
            session.exchange_stage(0)
        assert excinfo.value.worker_id == 1
        assert "exit code -9" in str(excinfo.value)
        with pytest.raises(BackendError, match="session is failed"):
            session.compute_stage(1)


def test_hung_worker_also_latches_the_session(dgraph):
    with ProcessBackend(stage_timeout=0.5).session(dgraph, SleepyCC()) as session:
        with pytest.raises(BackendError, match="did not answer"):
            session.compute_stage(0)
        with pytest.raises(BackendError, match="session is failed"):
            session.exchange_stage(0)


@fake_pools("silent")
def test_socket_timeout_also_latches_the_session(fake_pool, dgraph, program):
    """The wire-plane twin of the test above."""
    with fake_pool(dgraph, program) as session:
        with pytest.raises(BackendError, match="did not answer"):
            session.compute_stage(0)
        with pytest.raises(BackendError, match="session is failed"):
            session.exchange_stage(0)
        with pytest.raises(BackendError, match="session is failed"):
            session.pull_state()


@fake_pools("malformed")
def test_socket_malformed_reply_latches_instead_of_crashing(
    fake_pool, dgraph, program
):
    """A peer shipping a non-(status, payload) object is a protocol
    fault reported as BackendError, never a bare unpacking ValueError."""
    with fake_pool(dgraph, program) as session:
        with pytest.raises(BackendError, match="malformed reply"):
            session.compute_stage(0)
        with pytest.raises(BackendError, match="session is failed"):
            session.compute_stage(1)


# ----------------------------------------------------------------------
# Satellite 3: teardown with a partially-dead pool
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_cls", [ProcessBackend, SocketBackend])
def test_close_reaps_survivors_after_partial_death(backend_cls, dgraph, program):
    session = backend_cls().session(dgraph, program)
    links = list(session.links)
    _kill_last_worker(session)
    session.close()
    session.close()  # idempotent
    for link in links:
        assert not link.alive(), "close() left a worker running"
    with pytest.raises(BackendError, match="session is closed"):
        session.compute_stage(0)


_LEAK_SCRIPT = """
import os
from repro.apps.cc import ConnectedComponents
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import ProcessBackend


class SecondWorkerFails(ConnectedComponents):
    def initial_values(self, local):
        if local.worker_id > 0:
            raise MemoryError("no room for worker 1")
        return super().initial_values(local)


g = powerlaw_graph(120, eta=2.2, min_degree=2, seed=11, name="leak-pl")
dg = build_distributed_graph(EBVPartitioner().partition(g, 4))
before = set(os.listdir("/dev/shm"))
try:
    ProcessBackend().session(dg, SecondWorkerFails())
except MemoryError:
    pass
else:
    raise AssertionError("the allocation did not fail")
session = ProcessBackend().session(dg, ConnectedComponents())
session.compute_stage(0)
assert set(os.listdir("/dev/shm")) == before, set(os.listdir("/dev/shm")) - before
# Kill half the pool, then tear down with survivors still running.
for link in session.links[2:]:
    link.kill()
    link.wait(30)
session.close()
assert set(os.listdir("/dev/shm")) == before, set(os.listdir("/dev/shm")) - before
print("CLEAN")
"""


def test_process_sessions_leave_dev_shm_alone_and_tear_down_quietly():
    """Full-interpreter check: a process session, a failed allocation and
    a teardown after partial death create no ``/dev/shm`` entry, and
    nothing reports a leak when the interpreter exits.

    Leak reports print at interpreter shutdown, so the assertion must
    run over a subprocess's stderr, not in-process.
    """
    result = subprocess.run(
        [sys.executable, "-c", _LEAK_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "CLEAN" in result.stdout
    assert "leaked" not in result.stderr.lower(), result.stderr


_COORDINATOR_SCRIPT = """
import multiprocessing
import sys
import time
from repro.apps.cc import ConnectedComponents
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.pipeline import BACKENDS

g = powerlaw_graph(120, eta=2.2, min_degree=2, seed=11, name="orphan-pl")
dg = build_distributed_graph(EBVPartitioner().partition(g, 3))
session = BACKENDS.create(sys.argv[1]).session(dg, ConnectedComponents())
session.compute_stage(0)
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
time.sleep(300)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has already exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("backend", ["process", "socket"])
def test_a_killed_coordinator_takes_its_workers_with_it(backend):
    """SIGKILL runs no teardown: each worker must notice on its own that
    the coordinator is gone, which it can only if no process — itself
    or a sibling — still holds a copy of the coordinator's end."""
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR_SCRIPT, backend], stdout=subprocess.PIPE, text=True
    )
    children = []
    try:
        children = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(children) == 3, children
        coordinator.kill()
        coordinator.wait(30)
        deadline = time.monotonic() + 5.0
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _running(pid)], "workers outlived the coordinator"
    finally:
        coordinator.kill()
        coordinator.wait(30)
        coordinator.stdout.close()
        for pid in filter(_running, children):
            os.kill(pid, signal.SIGKILL)
