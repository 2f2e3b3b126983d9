"""Session open and recovery start their workers as one batch.

``CommandSession.launch`` hands the spawn seam the whole list of workers
(``[0..p-1]`` at open, the dead ids at recovery) and the socket backend
binds a port for and starts every local child before it dials the first.
Nothing here measures wall time except the deadline case: the contract
is checked by counting calls at the seam and by instrumenting the
``Process`` of the shared context helper and ``_dial`` inside
:mod:`repro.runtime.socket`.  A launch that fails part-way must leave
nothing behind — every child joined, every port the batch bound no
longer listening.  A child holds no descriptor it does not own, and
cannot outlive its coordinator.
"""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from memlink import MemoryLink
from repro.apps.cc import ConnectedComponents
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import BackendError, SerialBackend, SocketBackend
from repro.runtime import socket as socket_backend
from repro.runtime.protocol import CommandSession
from repro.runtime.socket import WirePlane

P = 4

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads descriptors and states from /proc"
)


@pytest.fixture(scope="module")
def dgraph():
    g = powerlaw_graph(120, eta=2.2, min_degree=2, seed=11, name="batch-pl")
    return build_distributed_graph(EBVPartitioner().partition(g, P))


@pytest.fixture(scope="module")
def program():
    return ConnectedComponents()


def test_spawn_is_called_once_per_batch_at_open_and_at_recovery(dgraph, program):
    calls = []

    def spawn(workers):
        calls.append(list(workers))
        return [MemoryLink() for _ in workers]

    with CommandSession("socket", dgraph, program, spawn, WirePlane(spawned=True), 30.0) as session:
        assert calls == [[0, 1, 2, 3]]
        session.compute_stage(0)
        for w in (1, 3):
            session.links[w].kill()
            session.links[w].wait(30)
            assert not session.links[w].alive()
        survivors = [session.links[0], session.links[2]]
        assert session.recover_workers() == [1, 3]
        assert calls == [[0, 1, 2, 3], [1, 3]]
        assert [session.links[0], session.links[2]] == survivors
        session.compute_stage(0)  # the latch is clear and all four answer


class _Instrumented:
    """Record every child ``runtime.socket`` creates and every dial it makes.

    ``sabotage`` maps a child's index to a function that runs in that
    child in place of the real target, with the same arguments.
    """

    def __init__(self, monkeypatch, sabotage=None, start_method="fork"):
        self.procs = []
        #: the endpoint each child was to serve, read off its listening socket.
        self.endpoints = []
        #: how many children had been started each time a worker was dialled.
        self.started_at_dial = []
        sabotage = sabotage or {}
        real_dial = socket_backend._dial
        seen = self

        class Context:
            """A ``start_method`` context with a recording ``Process``."""

            def Process(self, target, args, **kwargs):
                target = sabotage.get(len(seen.procs), target)
                ctx = multiprocessing.get_context(start_method)
                proc = ctx.Process(target=target, args=args, **kwargs)
                seen.procs.append(proc)
                seen.endpoints.append(args[0].getsockname()[:2])
                return proc

        def dial(*args):
            self.started_at_dial.append(sum(proc.pid is not None for proc in self.procs))
            return real_dial(*args)

        monkeypatch.setattr(socket_backend, "worker_context", Context)
        monkeypatch.setattr(socket_backend, "_dial", dial)


def _kill_workers(session, workers):
    for w in workers:
        session.links[w].kill()
        session.links[w].wait(30)
        assert not session.links[w].alive()


def test_every_child_is_started_before_the_first_dial(monkeypatch, dgraph, program):
    seen = _Instrumented(monkeypatch)
    with SocketBackend().session(dgraph, program) as session:
        assert seen.started_at_dial == [P] * P
        assert len(session.links) == P
        # A replacement batch goes through the same path.
        _kill_workers(session, (0, 2))
        assert session.recover_workers() == [0, 2]
        assert seen.started_at_dial == [P] * P + [P + 2] * 2
    assert len(seen.procs) == P + 2
    _assert_nothing_survives(seen)


def _assert_nothing_survives(seen):
    for proc in seen.procs:
        # A child that was killed but never joined is a zombie, and a
        # zombie still takes signals; this must run before ``exitcode``,
        # which would reap it.
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)
        assert proc.exitcode is not None
    for endpoint in seen.endpoints:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(endpoint, timeout=5).close()


def _exit_3(lsock, inherited):
    sys.exit(3)


def _sleep_without_accepting(lsock, inherited):
    time.sleep(120)


@pytest.mark.parametrize("bad", [0, 2])
def test_a_child_that_dies_before_the_handshake_is_named_with_its_exit_code(
    monkeypatch, dgraph, program, bad
):
    seen = _Instrumented(monkeypatch, sabotage={bad: _exit_3})
    t0 = time.monotonic()
    with pytest.raises(
        BackendError, match=rf"spawned worker {bad} exited before the handshake \(exit code 3\)"
    ):
        SocketBackend().session(dgraph, program)
    assert time.monotonic() - t0 < 25, "waited out connect_timeout for a dead child"
    assert len(seen.procs) == P
    assert seen.started_at_dial == [P] * (bad + 1)  # the workers ahead of it had shaken hands
    _assert_nothing_survives(seen)


@pytest.mark.parametrize("bad", [0, 2])
def test_a_silent_child_cannot_outlive_the_deadline(monkeypatch, dgraph, program, bad):
    seen = _Instrumented(monkeypatch, sabotage={bad: _sleep_without_accepting})
    t0 = time.monotonic()
    with pytest.raises(BackendError, match=f"spawned worker {bad}: no handshake within 1s"):
        SocketBackend(connect_timeout=1.0).session(dgraph, program)
    assert time.monotonic() - t0 < 60
    assert len(seen.procs) == P
    _assert_nothing_survives(seen)


@pytest.mark.parametrize(
    "target, message, connect_timeout",
    [
        (_exit_3, r"spawned worker 1 exited before the handshake \(exit code 3\)", 30.0),
        (_sleep_without_accepting, "spawned worker 1: no handshake within 1s", 1.0),
    ],
    ids=["exits", "silent"],
)
def test_a_failed_replacement_batch_is_reaped_and_the_survivors_still_close(
    monkeypatch, dgraph, program, target, message, connect_timeout
):
    seen = _Instrumented(monkeypatch, sabotage={P: target})
    with SocketBackend(connect_timeout=connect_timeout).session(dgraph, program) as session:
        _kill_workers(session, (1, 3))
        with pytest.raises(BackendError, match=message):
            session.recover_workers()
        assert len(seen.procs) == P + 2
        survivors = [session.links[0]._proc, session.links[2]._proc]
        assert all(proc.is_alive() for proc in survivors)
    _assert_nothing_survives(seen)


def _sockets_of(pid):
    sockets = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # the descriptor the listing itself used
        if target.startswith("socket:"):
            sockets.add(target)
    return sockets


@needs_proc
def test_a_worker_holds_only_its_listening_socket_and_its_connection(dgraph, program):
    """A forked child inherits what the coordinator holds: at recovery,
    the live connections to the survivors.  Besides its listening socket
    and its connection, a worker holds exactly its ``P - 1`` peer
    connections — none of them a copy of one the coordinator holds."""
    # What this process held before the session is not the session's to
    # close (under a CI runner or pytest's capture, stdin may be a socket).
    before = _sockets_of(os.getpid())

    def assert_own_sockets_only(session):
        coordinator = _sockets_of(os.getpid()) - before
        for link in session.links:
            held = _sockets_of(link._proc.pid) - before
            assert len(held) == 2 + (P - 1)
            assert not held & coordinator

    with SocketBackend().session(dgraph, program) as session:
        session.compute_stage(0)
        assert_own_sockets_only(session)
        _kill_workers(session, (1, 2))
        assert session.recover_workers() == [1, 2]
        assert_own_sockets_only(session)
        session.compute_stage(0)


_ORPHAN_SCRIPT = """
import sys, time
from repro.apps.cc import ConnectedComponents
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import SocketBackend

g = powerlaw_graph(120, eta=2.2, min_degree=2, seed=11)
dgraph = build_distributed_graph(EBVPartitioner().partition(g, 4))
session = SocketBackend().session(dgraph, ConnectedComponents())
session.compute_stage(0)
session.links[1].kill()
session.links[1].wait(30)
assert session.recover_workers() == [1]
print(*[link._proc.pid for link in session.links], flush=True)
time.sleep(120)
"""


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as fh:
            status = fh.read()
    except OSError:
        return True
    return "\nState:\tZ" in status


@needs_proc
def test_spawned_workers_do_not_outlive_a_sigkilled_coordinator():
    """Each worker ends when its connection drops — which it only sees if
    no sibling forked later holds a copy of the coordinator's end."""
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        pids = [int(token) for token in coordinator.stdout.readline().split()]
        assert len(pids) == 4 and len(set(pids)) == 4
        assert not any(_gone_or_zombie(pid) for pid in pids)
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(30)
        deadline = time.monotonic() + 5
        while not all(_gone_or_zombie(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = [pid for pid in pids if not _gone_or_zombie(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []
    finally:
        coordinator.kill()
        coordinator.wait(30)
        coordinator.stdout.close()


def test_a_stray_repro_or_numpy_in_the_cwd_cannot_shadow_the_workers_imports(
    monkeypatch, tmp_path, dgraph, program
):
    """Spawned workers re-import nothing, so the current directory —
    which ``python -m`` puts first on a fresh interpreter's path — has
    no say in what they run."""
    (tmp_path / "repro.py").write_text("raise ImportError('stray repro.py')\n")
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    expected = BSPEngine(backend=SerialBackend()).run(dgraph, program)
    got = BSPEngine(backend=SocketBackend()).run(dgraph, program)
    assert np.array_equal(got.values, expected.values)
    assert got.total_messages == expected.total_messages


def test_the_platform_default_start_method_runs_the_same_call(monkeypatch, dgraph, program):
    """Where there is no ``fork`` the helper returns the platform's
    context; the listening socket then travels by socket reduction."""
    expected = BSPEngine(backend=SerialBackend()).run(dgraph, program)
    seen = _Instrumented(monkeypatch, start_method="spawn")
    got = BSPEngine(backend=SocketBackend()).run(dgraph, program)
    assert seen.started_at_dial == [P] * P
    assert np.array_equal(got.values, expected.values)
    assert got.num_supersteps == expected.num_supersteps
    _assert_nothing_survives(seen)
