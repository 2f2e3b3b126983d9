"""Session open and recovery start their workers as one batch.

``CommandSession.launch`` hands the spawn seam the whole list of workers
(``[0..p-1]`` at open, the dead ids at recovery) and the socket backend
starts every local ``repro worker`` child before it waits for the first
announce.  Nothing here measures wall time: the contract is checked by
counting calls at the seam and by instrumenting ``subprocess.Popen`` and
the announce reader inside :mod:`repro.runtime.socket`.  A launch that
fails part-way must leave nothing behind — every child reaped, every
pipe closed, every announced port no longer listening.
"""

import os
import socket
import subprocess
import sys
import time

import pytest

from memlink import MemoryLink
from repro.apps.cc import ConnectedComponents
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import BackendError, SocketBackend
from repro.runtime import socket as socket_backend
from repro.runtime.protocol import CommandSession
from repro.runtime.socket import WirePlane

P = 4


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
    """Record every ``Popen`` and announce read ``runtime.socket`` makes.

    ``sabotage`` maps a spawn index to a ``python -c`` body that runs in
    place of that ``repro worker`` child.
    """

    def __init__(self, monkeypatch, sabotage=None):
        self.procs = []
        self.envs = []
        self.endpoints = []
        #: how many children existed each time an announce was awaited.
        self.children_at_read = []
        sabotage = sabotage or {}
        real_popen = subprocess.Popen
        real_read = socket_backend._read_announce

        def popen(argv, **kwargs):
            body = sabotage.get(len(self.procs))
            if body is not None:
                argv = [sys.executable, "-c", body]
            proc = real_popen(argv, **kwargs)
            self.procs.append(proc)
            self.envs.append(kwargs["env"])
            return proc

        def read_announce(proc, *args):
            self.children_at_read.append(len(self.procs))
            endpoint = real_read(proc, *args)
            self.endpoints.append(endpoint)
            return endpoint

        monkeypatch.setattr(socket_backend.subprocess, "Popen", popen)
        monkeypatch.setattr(socket_backend, "_read_announce", read_announce)


def test_every_child_is_started_before_the_first_announce_is_awaited(
    monkeypatch, dgraph, program
):
    seen = _Instrumented(monkeypatch)
    with SocketBackend().session(dgraph, program) as session:
        assert seen.children_at_read == [P] * P
        assert len(session.links) == P
        for env in seen.envs:
            assert "" not in env["PYTHONPATH"].split(os.pathsep)
        # A replacement batch goes through the same path.
        for w in (0, 2):
            session.links[w].kill()
            session.links[w].wait(30)
        assert session.recover_workers() == [0, 2]
        assert seen.children_at_read == [P] * P + [P + 2] * 2
    for proc in seen.procs:
        assert proc.returncode is not None, "close() left a child unreaped"


def _assert_nothing_survives(seen):
    assert len(seen.procs) == P
    for proc in seen.procs:
        # ``returncode`` is only ever set by wait()/poll(): reaped, not just killed.
        assert proc.returncode is not None
        assert proc.stdout.closed
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)
    for endpoint in seen.endpoints:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(endpoint, timeout=5).close()


@pytest.mark.parametrize("bad", [0, 2])
@pytest.mark.parametrize(
    "body, message",
    [
        ("import sys; sys.exit(3)", r"exited before announcing a port \(exit code 3\)"),
        ("print('garbage', flush=True)", "printed 'garbage' instead of"),
    ],
    ids=["exits", "garbage"],
)
def test_a_failed_launch_names_the_worker_and_leaves_nothing_behind(
    monkeypatch, dgraph, program, bad, body, message
):
    seen = _Instrumented(monkeypatch, sabotage={bad: body})
    with pytest.raises(BackendError, match=f"spawned worker {bad} {message}"):
        SocketBackend().session(dgraph, program)
    assert len(seen.endpoints) == bad  # the workers ahead of it had announced
    _assert_nothing_survives(seen)


def test_half_an_announce_line_cannot_outlive_the_deadline(monkeypatch, dgraph, program):
    """The child prints no newline and stalls: a buffered ``readline``
    would block until it exits, long past ``connect_timeout``."""
    stall = "import sys, time; sys.stdout.write('REPRO-WORKER listen'); sys.stdout.flush(); time.sleep(120)"
    seen = _Instrumented(monkeypatch, sabotage={0: stall})
    t0 = time.monotonic()
    with pytest.raises(BackendError, match="spawned worker 0: no announce within 1s"):
        SocketBackend(connect_timeout=1.0).session(dgraph, program)
    assert time.monotonic() - t0 < 60
    _assert_nothing_survives(seen)


@pytest.mark.parametrize("inherited", [None, "", "/opt/lib", "/opt/lib" + os.pathsep, os.pathsep])
def test_worker_pythonpath_has_no_empty_entry(monkeypatch, inherited):
    """An empty ``PYTHONPATH`` entry is the current directory."""
    if inherited is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", inherited)
    entries = socket_backend._worker_env()["PYTHONPATH"].split(os.pathsep)
    assert "" not in entries
    assert os.path.isfile(os.path.join(entries[0], "repro", "__init__.py"))
    assert entries[1:] == (["/opt/lib"] if inherited and "/opt/lib" in inherited else [])
