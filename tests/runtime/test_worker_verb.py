"""The ``repro worker`` verb as a real process.

Sessions that spawn their own workers fork them from the coordinator,
so nothing on that path boots ``python -m repro worker`` any more.  This
is the case that does: two fresh interpreters that import the package
themselves, announce a port (IPv4, and IPv6 where the host has it),
serve one session over ``workers=`` and exit.  It is also what proves a
program and its ``init`` payload survive a process that shares no memory image with the coordinator.
``conftest.external_workers`` (threads) stays for the fast cases.
"""

import os
import re
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.apps.cc import ConnectedComponents
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import SerialBackend, SocketBackend


def _has_ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


def _serve_one_session(listen: str, workers: int = 2) -> None:
    """``workers`` fresh ``repro worker --listen LISTEN`` processes serve
    one CC session equal to serial, then exit 0 on their own."""
    graph = powerlaw_graph(300, eta=2.2, min_degree=2, seed=17, name="verb-pl")
    dgraph = build_distributed_graph(EBVPartitioner().partition(graph, workers))
    expected = BSPEngine(backend=SerialBackend()).run(dgraph, ConnectedComponents())

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    # PYTHONSAFEPATH keeps the current directory off the worker's path
    # (Python >= 3.11; older interpreters ignore the variable).
    env = dict(os.environ, PYTHONPATH=src, PYTHONSAFEPATH="1")
    argv = [sys.executable, "-m", "repro", "worker", "--listen", listen, "--sessions", "1"]
    procs = [
        subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(workers)
    ]
    # A worker that never announces must not hang the suite on readline.
    guards = [threading.Timer(120, proc.kill) for proc in procs]
    try:
        for guard in guards:
            guard.start()
        endpoints = []
        for proc in procs:
            announce = re.fullmatch(r"REPRO-WORKER listening (\S+)\n", proc.stdout.readline())
            assert announce, "worker exited or printed something else first"
            endpoints.append(announce.group(1))

        got = BSPEngine(backend=SocketBackend(workers=endpoints)).run(dgraph, ConnectedComponents())

        assert np.array_equal(got.values, expected.values)
        assert got.num_supersteps == expected.num_supersteps
        for step, (have, want) in enumerate(zip(got.supersteps, expected.supersteps)):
            assert np.array_equal(have.sent, want.sent), f"superstep {step}"
            assert np.array_equal(have.received, want.received), f"superstep {step}"
        assert [proc.wait(timeout=30) for proc in procs] == [0] * workers
    finally:
        for guard in guards:
            guard.cancel()
        for proc in procs:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()


def test_two_worker_processes_serve_a_session_and_exit_on_their_own():
    _serve_one_session("127.0.0.1:0")


@pytest.mark.skipif(not _has_ipv6_loopback(), reason="the host has no IPv6 loopback")
def test_ipv6_worker_processes_serve_a_session():
    """``[::1]:0`` binds in the address's own family, the worker announces
    ``[::1]:PORT``, and the coordinator and the peers dial that."""
    _serve_one_session("[::1]:0")
