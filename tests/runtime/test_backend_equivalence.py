"""Every registered app is bit-identical on every runtime backend.

The backend contract (see :mod:`repro.runtime`) is that parallelism may
change wall-clock time only — final vertex values, superstep counts and
the deterministic cost-model accounting must match the serial reference
exactly.  This module sweeps the full ``APPS`` registry over seeded
graphs at p ∈ {2, 4} for the ``serial``, ``thread``, ``process`` and
``socket`` backends and asserts exactly that — for the socket backend
the values additionally round-trip a pickle/TCP wire, so this sweep is
also the bit-identity proof for the route-compacted exchange protocol.
The same sweep runs on a partition maintained by
:func:`~repro.mutate.apply_mutations` (deletes, inserts and a new
vertex), whose routing is built from patched, not freshly partitioned,
edge assignments.
"""

import numpy as np
import pytest

from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.pipeline import APPS
from repro.runtime import create_backend

BACKEND_NAMES = ("serial", "thread", "process", "socket")
PARTS = (2, 4)


@pytest.fixture(scope="module")
def graph():
    """Seeded ~400-vertex power-law graph shared by the whole sweep."""
    return powerlaw_graph(400, eta=2.2, min_degree=2, seed=7, name="pl-eq")


@pytest.fixture(scope="module")
def dgraphs(graph):
    """One routed distributed graph per worker count."""
    return {
        p: build_distributed_graph(EBVPartitioner().partition(graph, p))
        for p in PARTS
    }


@pytest.fixture(scope="module")
def reference_runs(graph, dgraphs):
    """Serial-reference run per (app, p); parallel backends diff these."""
    runs = {}
    for app in APPS.names():
        for p in PARTS:
            program = APPS.create(app, graph)
            runs[(app, p)] = BSPEngine(backend="serial").run(dgraphs[p], program)
    return runs


@pytest.fixture(scope="module")
def maintained_reference_runs(maintained):
    """Serial-reference run per (app, p) on the maintained partitions."""
    return {
        (app, p): BSPEngine(backend="serial").run(dgraph, APPS.create(app, mgraph))
        for app in APPS.names()
        for p, (mgraph, dgraph) in maintained.items()
    }


def assert_matches_reference(run, ref):
    assert run.num_supersteps == ref.num_supersteps
    # Final vertex values must be *identical*, not merely close: every
    # backend runs the same kernel over the same arrays in the same
    # order, so even floating-point results are bitwise equal.
    assert run.values.shape == ref.values.shape
    assert np.array_equal(run.values, ref.values, equal_nan=True)
    # The deterministic cost-model accounting (paper artifacts) and the
    # exact message tallies must be backend-independent too — including
    # the per-superstep load-imbalance term ΔC_k now that the exchange
    # tallies are assembled from worker-side pulls.
    for step, (got, want) in enumerate(zip(run.supersteps, ref.supersteps)):
        assert np.array_equal(got.work, want.work), f"superstep {step}"
        assert np.array_equal(got.sent, want.sent), f"superstep {step}"
        assert np.array_equal(got.received, want.received), f"superstep {step}"
        assert np.array_equal(got.comp_seconds, want.comp_seconds), f"superstep {step}"
        assert np.array_equal(got.comm_seconds, want.comm_seconds), f"superstep {step}"
        assert got.delta_c == want.delta_c, f"superstep {step}"
    assert run.delta_c == ref.delta_c
    assert run.total_messages == ref.total_messages


@pytest.mark.parametrize("backend", [b for b in BACKEND_NAMES if b != "serial"])
@pytest.mark.parametrize("p", PARTS)
@pytest.mark.parametrize("app", APPS.names())
def test_backend_matches_serial_reference(
    app, p, backend, graph, dgraphs, reference_runs
):
    run = BSPEngine(backend=backend).run(dgraphs[p], APPS.create(app, graph))
    assert run.backend == backend
    assert_matches_reference(run, reference_runs[(app, p)])


@pytest.mark.parametrize("backend", [b for b in BACKEND_NAMES if b != "serial"])
@pytest.mark.parametrize("p", PARTS)
@pytest.mark.parametrize("app", APPS.names())
def test_maintained_partition_matches_serial_reference(
    app, p, backend, maintained, maintained_reference_runs
):
    mgraph, dgraph = maintained[p]
    run = BSPEngine(backend=backend).run(dgraph, APPS.create(app, mgraph))
    assert run.backend == backend
    assert_matches_reference(run, maintained_reference_runs[(app, p)])


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_real_wall_clock_recorded_per_stage(backend, graph, dgraphs):
    run = BSPEngine(backend=backend).run(dgraphs[2], APPS.create("pr", graph))
    assert run.num_supersteps > 0
    for stats in run.supersteps:
        assert set(stats.real_seconds) == {"compute", "exchange", "converge"}
        assert all(v >= 0.0 for v in stats.real_seconds.values())
    totals = run.real_stage_seconds()
    assert run.real_time == pytest.approx(
        totals["compute"] + totals["exchange"] + totals["converge"]
    )


def test_serial_default_backend_unchanged(graph, dgraphs, reference_runs):
    """BSPEngine() with no backend argument is the serial reference."""
    run = BSPEngine().run(dgraphs[2], APPS.create("cc", graph))
    ref = reference_runs[("cc", 2)]
    assert run.backend == "serial"
    assert np.array_equal(run.values, ref.values)


def _step(session, superstep):
    """Run one superstep on ``session``; return everything it reports."""
    work = session.compute_stage(superstep).work
    exchange = session.exchange_stage(superstep)
    state = session.pull_state()
    return work, exchange.sent, exchange.received, exchange.delta, session.any_active(), state


def _assert_same_step(got, want):
    *got_tallies, got_state = got
    *want_tallies, want_state = want
    for got_value, want_value in zip(got_tallies, want_tallies):
        assert np.array_equal(got_value, want_value)
    assert set(got_state) == set(want_state)
    for kind, arrays in want_state.items():
        for got_array, want_array in zip(got_state[kind], arrays, strict=True):
            assert np.array_equal(got_array, want_array, equal_nan=True), kind


@pytest.mark.parametrize("backend", ["process", "socket"])
def test_two_open_sessions_step_like_serial_ones(backend, graph, dgraphs):
    """Two pools of one backend open at once: the second forks with the
    first one's state and coordinator ends in its image.  Stepped
    alternately, then the second alone after the first closes, each
    stays bit-identical to a serial session stepped the same way."""
    runs = [("cc", 2), ("pr", 4)]
    pairs = []
    try:
        for app, p in runs:
            pairs.append(
                [
                    create_backend(name).session(dgraphs[p], APPS.create(app, graph))
                    for name in (backend, "serial")
                ]
            )
        for superstep in range(3):
            for session, serial in pairs:
                _assert_same_step(_step(session, superstep), _step(serial, superstep))
        for session in pairs.pop(0):
            session.close()
        (session, serial), = pairs
        for superstep in range(3, 6):
            _assert_same_step(_step(session, superstep), _step(serial, superstep))
    finally:
        for pair in pairs:
            for session in pair:
                session.close()
