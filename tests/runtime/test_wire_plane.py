"""The wire plane, driven through the real pool session, in memory.

The socket backend's half of the runtime — the peer mesh and the
one-command exchange, index-compacted stand-ins for sibling arrays,
``owned``/``restore`` in place of shared state, convergence tracked from
reply flags — used to be reachable only through spawned TCP
subprocesses (``test_backend_equivalence.py``, ~0.5 s of interpreter
start-up per session).  Here the same :class:`~repro.runtime.protocol.CommandSession`
and :class:`~repro.runtime.socket.WirePlane` run over the in-memory link
(``memlink.py``: a queue and a pipe, ``serve()`` on a thread, every
message pickled, replica updates over real loopback peer sockets), so every app
is checked against ``serial`` in milliseconds — and, separately, once
over real ``serve_worker`` endpoints the session did not spawn.
"""

import functools
import threading
from collections import Counter

import numpy as np
import pytest

from memlink import MemoryLink, memory_session, serve_standalone
from repro.bsp import BSPEngine, build_distributed_graph
from repro.checkpoint import CheckpointError, list_snapshots, load_snapshot
from repro.graph import generate_graph, powerlaw_graph
from repro.obs import TraceRecorder, validate_chrome_trace, write_chrome_trace
from repro.partition import DBHPartitioner, EBVPartitioner
from repro.pipeline import APPS
from repro.runtime import Backend, BackendError, SocketBackend, WorkerLostError
from repro.runtime.base import finish_exchange_stage
from repro.runtime.protocol import CommandSession, serve
from repro.runtime.socket import WirePlane, standalone_shard

PARTS = (2, 4)


class MemoryWireBackend(Backend):
    """``socket``'s session and plane; links that never touch a socket."""

    name = "socket"

    def session(self, dgraph, program):
        return memory_session(dgraph, program)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(400, eta=2.2, min_degree=2, seed=7, name="pl-wire")


@pytest.fixture(scope="module")
def dgraphs(graph):
    return {
        p: build_distributed_graph(EBVPartitioner().partition(graph, p))
        for p in PARTS
    }


def assert_same_run(run, ref):
    assert run.num_supersteps == ref.num_supersteps
    assert run.values.dtype == ref.values.dtype
    assert np.array_equal(run.values, ref.values, equal_nan=True)
    for step, (got, want) in enumerate(zip(run.supersteps, ref.supersteps)):
        assert np.array_equal(got.work, want.work), f"superstep {step}"
        assert np.array_equal(got.sent, want.sent), f"superstep {step}"
        assert np.array_equal(got.received, want.received), f"superstep {step}"
        assert got.delta_c == want.delta_c, f"superstep {step}"
    assert run.total_messages == ref.total_messages


@pytest.mark.parametrize("p", PARTS)
@pytest.mark.parametrize("app", APPS.names())
def test_wire_plane_matches_serial(app, p, graph, dgraphs):
    ref = BSPEngine(backend="serial").run(dgraphs[p], APPS.create(app, graph))
    run = BSPEngine(backend=MemoryWireBackend()).run(dgraphs[p], APPS.create(app, graph))
    assert run.backend == "socket"
    assert_same_run(run, ref)


@pytest.mark.parametrize("p", PARTS)
@pytest.mark.parametrize("app", APPS.names())
def test_wire_plane_matches_serial_on_maintained_partition(app, p, maintained):
    mgraph, dgraph = maintained[p]
    ref = BSPEngine(backend="serial").run(dgraph, APPS.create(app, mgraph))
    run = BSPEngine(backend=MemoryWireBackend()).run(dgraph, APPS.create(app, mgraph))
    assert run.backend == "socket"
    assert_same_run(run, ref)


@pytest.mark.parametrize("every", [1, 3])
def test_checkpointed_run_gathers_state_only_for_a_due_snapshot(
    every, graph, dgraphs, tmp_path, monkeypatch
):
    """On this plane ``pull_state`` is an ``owned`` broadcast plus every
    shard's arrays over the link: paid per snapshot, not per superstep."""
    pulls = []
    pull_state = WirePlane.pull_state

    def counting(plane, session):
        pulls.append(session)
        return pull_state(plane, session)

    monkeypatch.setattr(WirePlane, "pull_state", counting)
    engine = BSPEngine(
        backend=MemoryWireBackend(),
        checkpoint_dir=str(tmp_path),
        checkpoint_every=every,
        checkpoint_keep=None,
    )
    run = engine.run(dgraphs[2], APPS.create("pr?pagerank_iters=8", graph))
    assert run.num_supersteps == 8
    due = [k for k in range(1, 8) if k % every == 0]
    assert [load_snapshot(s).superstep for s in list_snapshots(str(tmp_path))] == due + [8]
    # One pull per due boundary, one for the final snapshot, one for the gather.
    assert len(pulls) == len(due) + 2


@pytest.mark.parametrize("app", ["cc", "pr"])
def test_state_round_trips_through_owned_and_restore(app, graph, dgraphs):
    """``pull_state`` after ``push_state`` returns the pushed arrays, and a
    snapshot of the wrong worker count or shape is refused before any
    worker's array changes."""
    dgraph = dgraphs[2]
    with memory_session(dgraph, APPS.create(app, graph)) as session:
        session.compute_stage(0)
        session.exchange_stage(0)
        arrays = session.pull_state()
        for kind in arrays:
            arrays[kind] = [np.roll(a, 1, axis=0) for a in arrays[kind]]
        session.push_state(arrays)
        pulled = session.pull_state()
        assert sorted(pulled) == sorted(arrays)
        for kind in arrays:
            for got, want in zip(pulled[kind], arrays[kind]):
                assert np.array_equal(got, want, equal_nan=True)
        if "active" in arrays:
            assert session.any_active() == any(a.any() for a in arrays["active"])
        with pytest.raises(CheckpointError, match="snapshot has 1 'values' arrays"):
            session.push_state({kind: per[:1] for kind, per in arrays.items()})
        arrays["values"] = [a[:-1] for a in arrays["values"]]
        with pytest.raises(CheckpointError, match=r"snapshot array values\[0\] is"):
            session.push_state(arrays)
        assert all(
            np.array_equal(got, want, equal_nan=True)
            for got, want in zip(session.pull_state()["values"], pulled["values"])
        )


def test_workers_the_session_did_not_spawn(graph, dgraphs, external_workers):
    """``socket?workers=`` against real ``serve_worker`` endpoints: same
    results, and ``close()`` ends the workers' (single) session."""
    backend = SocketBackend(workers=external_workers(2))
    ref = BSPEngine(backend="serial").run(dgraphs[2], APPS.create("sssp", graph))
    run = BSPEngine(backend=backend).run(dgraphs[2], APPS.create("sssp", graph))
    assert_same_run(run, ref)


def test_endpoint_count_must_match_the_partition(dgraphs, graph):
    backend = SocketBackend(workers="127.0.0.1:1+127.0.0.1:2+127.0.0.1:3")
    with pytest.raises(BackendError, match="names 3 workers but the graph is partitioned for p=2"):
        backend.session(dgraphs[2], APPS.create("cc", graph))


@pytest.mark.parametrize(
    "workers",
    ["127.0.0.1:7001+localhost:7002+127.0.0.1:7001", ["[::1]:9", "[::1]:9"]],
)
def test_a_repeated_endpoint_is_refused_when_the_spec_is_parsed(workers):
    """A ``repro worker`` serves one session at a time: the second use of
    an endpoint could only wait out ``connect_timeout``."""
    with pytest.raises(ValueError, match=r"worker endpoint \S+ is listed twice"):
        SocketBackend(workers=workers)


def test_a_repeated_topology_entry_is_refused(tmp_path, dgraphs, graph):
    topology = tmp_path / "topo.txt"
    topology.write_text("127.0.0.1:7001\n# the same again\n127.0.0.1:7001\n")
    with pytest.raises(ValueError, match="127.0.0.1:7001 is listed twice"):
        SocketBackend(topology=str(topology)).session(dgraphs[2], APPS.create("cc", graph))


class CountingLink(MemoryLink):
    """A memory link that tallies the commands the coordinator sends."""

    def __init__(self, sent: Counter, worker=serve_standalone):
        super().__init__(worker)
        self._sent = sent

    def send(self, message) -> None:
        self._sent[message[0]] += 1
        super().send(message)


@pytest.mark.parametrize("app", ["cc", "pr"])
def test_a_superstep_is_two_coordinator_commands(app, graph, dgraphs):
    """``compute`` and one ``exchange`` per worker and superstep; replica
    updates never pass through the coordinator.  The launch adds
    ``init`` + ``listen`` + ``mesh`` and the final gather one ``owned``."""
    p = 4
    sent = Counter()
    backend = MemoryWireBackend()
    backend.session = lambda dgraph, program: CommandSession(
        "socket", dgraph, program, lambda ws: [CountingLink(sent) for _ in ws],
        WirePlane(spawned=False), 60.0,
    )
    run = BSPEngine(backend=backend).run(dgraphs[p], APPS.create(app, graph))
    steps = run.num_supersteps
    assert sent == Counter(
        init=p, listen=p, mesh=p, compute=steps * p, exchange=steps * p, owned=p, stop=p
    )


def test_a_traced_exchange_is_one_round_trip_with_per_worker_trades(graph, dgraphs, tmp_path):
    """The coordinator records one ``wire.exchange`` span per superstep
    (no worker); each worker reports one ``wire.peer.up`` and one
    ``wire.peer.down`` trade window per superstep, on its own lane, and
    every lane still nests: a worker's up-phase barrier ends where its
    peer-to-peer down phase begins."""
    p, rec = 4, TraceRecorder()
    run = BSPEngine(backend=MemoryWireBackend(), recorder=rec).run(
        dgraphs[p], APPS.create("pr", graph)
    )
    spans = Counter((s.name, s.worker is None) for s in rec.spans() if s.cat == "wire")
    steps = run.num_supersteps
    assert spans[("wire.exchange", True)] == steps
    for phase in ("up", "down"):
        assert spans[(f"wire.peer.{phase}", False)] == p * steps
    assert not {name for name, _ in spans} - {
        "wire.exchange", "wire.peer.up", "wire.peer.down", "wire.pull_state"
    }
    assert validate_chrome_trace(write_chrome_trace(rec, str(tmp_path / "wire.json")))


def test_an_up_barrier_ends_where_the_worker_began_its_down_phase(tmp_path):
    """Worker 0 finishes its whole peer-to-peer exchange while worker 1
    is still in its up kernel: worker 0's up-phase barrier stops at its
    own down start, or its down barrier would straddle it."""
    rec, counts = TraceRecorder(), np.zeros(2, dtype=np.int64)
    ups = [((counts, 0.0), 1_000, 2_000), ((counts, 0.0), 1_000, 9_000)]
    downs = [(counts, 3_000, 4_000), (counts, 9_500, 10_000)]
    finish_exchange_stage(rec, 0, ups, downs)
    barriers = {
        s.worker: (s.t0_ns, s.t1_ns) for s in rec.spans() if s.name == "barrier.exchange.up"
    }
    assert barriers == {0: (2_000, 3_000), 1: (9_000, 9_000)}
    assert validate_chrome_trace(write_chrome_trace(rec, str(tmp_path / "phases.json")))


def test_a_traced_socket_run_nests_on_every_lane(tmp_path):
    """Spawned workers run truly in parallel: a worker's down-phase trade
    runs while slower workers are still in their up kernels — inside its
    own up-phase barrier span — and every lane must still nest."""
    road = generate_graph("road", vertices=25_000, seed=20210707)
    dgraph = build_distributed_graph(DBHPartitioner().partition(road, 4))
    rec = TraceRecorder()
    BSPEngine(backend=SocketBackend(), recorder=rec).run(dgraph, APPS.create("cc", road))
    assert validate_chrome_trace(write_chrome_trace(rec, str(tmp_path / "socket.json")))


def _swallow_exchanges(end):
    """A real worker that never sees (so never trades or answers) an ``exchange``."""

    class Deaf:
        def recv(self):
            while True:
                message = end.recv()
                if message[0] != "exchange":
                    return message

        send, close = end.send, end.close

    serve_standalone(Deaf())


def _dies_at_exchange(end, held=None, keep=None):
    """A real worker whose thread ends when an ``exchange`` arrives.

    Its peer connections drop only once the thread is gone — the order
    a killed process's do — mid-exchange for the peers already trading.
    With ``keep``, one side of it goes to ``held`` instead of closing
    (the caller closes it): ``"link"`` hides the death from the
    coordinator, ``"peers"`` from the other workers.
    """
    me = threading.current_thread()

    def make_shard(init):
        shard = standalone_shard(init)

        def close_once_dead():
            me.join()
            shard.peers.close()

        if keep == "peers":
            shard.close = lambda: held.append(shard.peers)
        else:
            shard.close = lambda: threading.Thread(target=close_once_dead, daemon=True).start()
        return shard

    class Dying:
        def recv(self):
            message = end.recv()
            if message[0] == "exchange":
                raise EOFError("killed")
            return message

        send = end.send

        def close(self):
            if keep == "link":
                held.append(end)
            else:
                end.close()

    serve(Dying(), make_shard)


def _pool_with(victim, worker, p, stage_timeout=60.0):
    def spawn(workers):
        return [MemoryLink(worker if w == victim else serve_standalone) for w in workers]

    def open_session(dgraph, program):
        return CommandSession(
            "socket", dgraph, program, spawn, WirePlane(spawned=False), stage_timeout
        )

    return open_session


@pytest.mark.parametrize("first", ["end of file", "error reply"])
def test_a_peer_killed_mid_exchange_is_a_lost_worker(graph, dgraphs, first):
    """The session names the dead worker, typed, so the engine's recovery
    path sees it, whichever reaches the coordinator first: the dead
    link's end of file, or the survivors' error replies about the
    broken peer connection while that end of file is not yet seen."""
    held = []
    keep = "peers" if first == "end of file" else "link"
    worker = functools.partial(_dies_at_exchange, held=held, keep=keep)
    with _pool_with(3, worker, 4)(dgraphs[4], APPS.create("cc", graph)) as session:
        try:
            session.compute_stage(0)
            with pytest.raises(WorkerLostError, match="worker 3 died unexpectedly") as excinfo:
                session.exchange_stage(0)
            assert excinfo.value.worker_id == 3
            if first == "end of file":
                assert excinfo.value.__cause__ is None
            else:
                assert str(excinfo.value.__cause__).startswith("worker 0 failed")
            with pytest.raises(BackendError, match="session is failed"):
                session.compute_stage(1)
        finally:
            for side in held:
                side.close()


def test_a_silent_peer_is_named_by_its_neighbours_within_the_timeout(graph, dgraphs):
    open_session = _pool_with(1, _swallow_exchanges, 2, stage_timeout=0.5)
    with open_session(dgraphs[2], APPS.create("cc", graph)) as session:
        session.compute_stage(0)
        with pytest.raises(BackendError, match="peer 1 did not trade within 0.5s") as excinfo:
            session.exchange_stage(0)
        assert not isinstance(excinfo.value, WorkerLostError)
        assert str(excinfo.value).startswith("worker 0 failed")
