"""The wire plane, driven through the real pool session, in memory.

The socket backend's half of the runtime — collect → reroute → apply,
index-compacted stand-ins for sibling arrays, ``owned``/``restore`` in
place of shared state, convergence tracked from reply flags — used to be
reachable only through spawned TCP subprocesses
(``test_backend_equivalence.py``, ~0.5 s of interpreter start-up per
session).  Here the same :class:`~repro.runtime.protocol.CommandSession`
and :class:`~repro.runtime.socket.WirePlane` run over the in-memory link
(``memlink.py``: two queues, ``serve()`` on a thread, every message
pickled), so every app is checked against ``serial`` in milliseconds —
and, separately, once over real ``serve_worker`` endpoints the session
did not spawn.
"""

import numpy as np
import pytest

from memlink import memory_session
from repro.bsp import BSPEngine, build_distributed_graph
from repro.checkpoint import list_snapshots, load_snapshot
from repro.checkpoint.writer import state_arrays
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.pipeline import APPS
from repro.runtime import Backend, BackendError, SocketBackend
from repro.runtime.socket import WirePlane

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
    shard of the wrong kind set or shape is refused by the worker."""
    dgraph = dgraphs[2]
    with memory_session(dgraph, APPS.create(app, graph)) as session:
        session.compute_stage(0)
        session.exchange_stage(0)
        arrays = state_arrays(session.pull_state())
        for kind in arrays:
            arrays[kind] = [np.roll(a, 1, axis=0) for a in arrays[kind]]
        session.push_state(arrays)
        pulled = state_arrays(session.pull_state())
        assert sorted(pulled) == sorted(arrays)
        for kind in arrays:
            for got, want in zip(pulled[kind], arrays[kind]):
                assert np.array_equal(got, want, equal_nan=True)
        if "active" in arrays:
            assert session.any_active() == any(a.any() for a in arrays["active"])
        with pytest.raises(BackendError, match="snapshot has 1 'values' arrays"):
            session.push_state({kind: per[:1] for kind, per in arrays.items()})
        arrays["values"] = [a[:-1] for a in arrays["values"]]
        with pytest.raises(BackendError, match="snapshot array 'values' is"):
            session.push_state(arrays)


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
