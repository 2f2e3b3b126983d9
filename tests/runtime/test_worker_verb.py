"""The ``repro worker`` verb as a real process.

Sessions that spawn their own workers fork them from the coordinator,
so nothing on that path boots ``python -m repro worker`` any more.  This
is the case that does: two fresh interpreters that import the package
themselves, announce a port, serve one session over ``workers=`` and
exit.  It is also what proves a program and its ``init`` payload
survive a process that shares no memory image with the coordinator.
``conftest.external_workers`` (threads) stays for the fast cases.
"""

import os
import re
import subprocess
import sys
import threading

import numpy as np

from repro.apps.cc import ConnectedComponents
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import SerialBackend, SocketBackend


def test_two_worker_processes_serve_a_session_and_exit_on_their_own():
    graph = powerlaw_graph(300, eta=2.2, min_degree=2, seed=17, name="verb-pl")
    dgraph = build_distributed_graph(EBVPartitioner().partition(graph, 2))
    expected = BSPEngine(backend=SerialBackend()).run(dgraph, ConnectedComponents())

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    # PYTHONSAFEPATH keeps the current directory off the worker's path
    # (Python >= 3.11; older interpreters ignore the variable).
    env = dict(os.environ, PYTHONPATH=src, PYTHONSAFEPATH="1")
    argv = [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0", "--sessions", "1"]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) for _ in range(2)]
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
        assert [proc.wait(timeout=30) for proc in procs] == [0, 0]
    finally:
        for guard in guards:
            guard.cancel()
        for proc in procs:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
