"""The process backend's fused superstep: one command, two barriers.

``ShmPlane.superstep`` sends every child one ``superstep`` command; the
child computes, meets its siblings at the shared-memory barrier
(``runtime/barrier_kernel.c``), exchanges up, meets them again and
exchanges down.  These tests hold it to the serial session after every
superstep and drive each failure the barrier adds: a sibling killed or
failing while the others wait on it, a stage timeout, and a coordinator
killed while they wait.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.apps import ConnectedComponents, PageRank
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import BackendError, ProcessBackend, SerialBackend, WorkerLostError
from repro.runtime.shard import WorkerShard
from test_command_protocol import SleepyCC

class StuckLastCC(ConnectedComponents):
    """CC whose highest-id worker wedges in compute, so its siblings wait
    at the first barrier.  Module scope: ``init`` pickles the program."""

    name = "stuck-last-cc"

    def compute(self, local, values, active, superstep):
        if local.worker_id == self.last:
            time.sleep(60.0)
        return super().compute(local, values, active, superstep)


class FailingLastCC(ConnectedComponents):
    """CC whose highest-id worker raises in compute."""

    name = "failing-last-cc"

    def compute(self, local, values, active, superstep):
        if local.worker_id == self.last:
            raise RuntimeError("injected compute failure")
        return super().compute(local, values, active, superstep)


class NappingCC(ConnectedComponents):
    """CC whose every worker sleeps ``nap`` seconds in compute."""

    name = "napping-cc"
    nap = 0.0

    def compute(self, local, values, active, superstep):
        time.sleep(self.nap)
        return super().compute(local, values, active, superstep)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, eta=2.2, min_degree=2, directed=True, seed=5, name="pl-fused")


@pytest.fixture(scope="module")
def dgraphs(graph):
    return {p: build_distributed_graph(EBVPartitioner().partition(graph, p)) for p in (2, 3, 4)}


def _last(program, p):
    program.last = p - 1
    return program


# -- bit identity ---------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("app", ["pr", "cc"])
def test_every_superstep_equals_the_serial_session(graph, dgraphs, app, p):
    """p > CPUs puts several children on one CPU: the barrier's yield path."""
    program = PageRank(graph.num_vertices) if app == "pr" else ConnectedComponents()
    dgraph = dgraphs[p]
    with SerialBackend().session(dgraph, program) as serial, \
            ProcessBackend().session(dgraph, program) as fused:
        for step in range(8):
            want_comp, want_ex = serial.superstep(step)
            comp, ex = fused.superstep(step)
            assert np.array_equal(comp.work, want_comp.work)
            assert np.array_equal(ex.sent, want_ex.sent)
            assert np.array_equal(ex.received, want_ex.received)
            assert ex.delta == want_ex.delta
            want, got = serial.pull_state(), fused.pull_state()
            assert sorted(got) == sorted(want)
            for kind in want:
                for w in range(p):
                    assert np.array_equal(got[kind][w], want[kind][w]), (step, kind, w)
            assert fused.any_active() == serial.any_active()


def test_the_stage_windows_nest(dgraphs, graph):
    """The compute window ends where the exchange window starts: at the
    last child's compute end, inside the round trip."""
    with ProcessBackend().session(dgraphs[2], PageRank(graph.num_vertices)) as session:
        t0 = time.monotonic_ns()
        comp, ex = session.superstep(0)
        t1 = time.monotonic_ns()
    assert t0 <= comp.window[0] < comp.window[1] == ex.window[0] < ex.window[1] <= t1
    assert (comp.walls > 0).all() and (ex.up_walls > 0).all() and (ex.down_walls > 0).all()


# -- failures -------------------------------------------------------------


def test_a_worker_killed_at_the_barrier_is_lost_at_once(dgraphs):
    """Its siblings wait at the barrier; the coordinator waits on every
    link, so the death surfaces long before ``stage_timeout``."""
    backend = ProcessBackend(stage_timeout=600)
    with backend.session(dgraphs[3], _last(StuckLastCC(), 3)) as session:
        victim = session.links[2]
        killer = threading.Timer(0.5, victim.kill)
        killer.start()
        started = time.monotonic()
        try:
            with pytest.raises(WorkerLostError, match="worker 2 died unexpectedly") as excinfo:
                session.superstep(0)
        finally:
            killer.join()
        assert time.monotonic() - started < 5.0
        assert excinfo.value.worker_id == 2
        with pytest.raises(BackendError, match="session is failed"):
            session.superstep(1)
        survivors = session.links[:2]
        closed = time.monotonic()
    assert time.monotonic() - closed < 5.0
    # The abort word released them: they replied and read ``stop``.
    assert [link.exit_code() for link in survivors] == [0, 0]


def test_a_per_stage_call_also_reports_a_lost_worker_at_once(dgraphs):
    """Every plane reads replies as they arrive: worker 2's death is
    seen while workers 0 and 1 are still in their 3 s compute."""
    program = NappingCC()
    program.nap = 3.0
    with ProcessBackend(stage_timeout=600).session(dgraphs[3], program) as session:
        killer = threading.Timer(0.5, session.links[2].kill)
        killer.start()
        started = time.monotonic()
        try:
            with pytest.raises(WorkerLostError, match="worker 2 died unexpectedly"):
                session.compute_stage(0)
        finally:
            killer.join()
        assert time.monotonic() - started < 2.0


def test_a_failing_compute_reports_its_traceback_and_closes_clean(dgraphs):
    backend = ProcessBackend(stage_timeout=600)
    session = backend.session(dgraphs[3], _last(FailingLastCC(), 3))
    links = list(session.links)
    with pytest.raises(BackendError, match="worker 2 failed") as excinfo:
        session.superstep(0)
    assert "RuntimeError: injected compute failure" in str(excinfo.value)
    assert "Traceback" in str(excinfo.value)
    started = time.monotonic()
    session.close()
    assert time.monotonic() - started < 5.0
    # Exit code 0, not -SIGTERM: nobody had to be terminated.
    assert [link.exit_code() for link in links] == [0, 0, 0]


def test_a_hung_superstep_still_times_out(dgraphs):
    with ProcessBackend(stage_timeout=0.5).session(dgraphs[2], SleepyCC()) as session:
        with pytest.raises(BackendError, match="did not answer within") as excinfo:
            session.superstep(0)
        assert "alive workers: [0, 1]" in str(excinfo.value)
        with pytest.raises(BackendError, match="session is failed"):
            session.superstep(0)


def test_each_phase_of_a_superstep_has_its_own_stage_timeout(dgraphs, monkeypatch):
    """Compute and the up pull take 0.3 s each of a 0.5 s ``stage_timeout``:
    0.6 s before the one reply, which is no hang."""
    real_up = WorkerShard.exchange_up

    def slow_up(shard, payload=None):
        time.sleep(0.3)
        return real_up(shard, payload)

    program = NappingCC()
    program.nap = 0.3
    monkeypatch.setattr(WorkerShard, "exchange_up", slow_up)
    with ProcessBackend(stage_timeout=0.5).session(dgraphs[2], program) as session:
        monkeypatch.undo()  # the children forked with the slow pull
        started = time.monotonic()
        comp, ex = session.superstep(0)
        assert time.monotonic() - started > 0.6
    assert all((end - start) * 1e-9 > 0.3 for start, end in (comp.window, ex.window))


_COORDINATOR_SCRIPT = """
import threading
import time
from repro.apps.cc import ConnectedComponents
from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import ProcessBackend


class StuckLastCC(ConnectedComponents):
    def compute(self, local, values, active, superstep):
        if local.worker_id == 2:
            time.sleep(60.0)
        return super().compute(local, values, active, superstep)


g = powerlaw_graph(120, eta=2.2, min_degree=2, seed=11, name="orphan-pl")
dg = build_distributed_graph(EBVPartitioner().partition(g, 3))
session = ProcessBackend().session(dg, StuckLastCC())
threading.Thread(target=session.superstep, args=(0,), daemon=True).start()
time.sleep(0.5)  # workers 0 and 1 now wait at the barrier on worker 2
print(*[link._proc.pid for link in session.links], flush=True)
time.sleep(300)
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has already exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_killed_coordinator_releases_its_waiting_workers():
    """SIGKILL sets no abort word: a child waiting at the barrier must
    notice on its own that the coordinator is gone, not spin until
    ``stage_timeout`` (600 s here)."""
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR_SCRIPT], stdout=subprocess.PIPE, text=True
    )
    children = []
    try:
        children = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(children) == 3, children
        coordinator.kill()
        coordinator.wait(30)
        waiting = children[:2]  # worker 2 is asleep in its compute
        deadline = time.monotonic() + 5.0
        while any(map(_running, waiting)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in waiting if _running(pid)], "waiting workers outlived it"
    finally:
        coordinator.kill()
        coordinator.wait(30)
        coordinator.stdout.close()
        for pid in filter(_running, children):
            os.kill(pid, signal.SIGKILL)
