"""Worker-side exchange: route-plan sharding, per-stage bit-identity.

The exchange stage is now a backend responsibility, sharded per worker
over a :class:`~repro.runtime.base.RoutePlan`.  This module locks down
the three load-bearing properties of that refactor:

* the route plan is a faithful, order-preserving reshard of the
  distributed graph's route dictionaries, and it is built exactly once
  per run — never per superstep;
* driving a parallel session stage-by-stage produces bit-identical
  state arrays (values, changed, active/partials) and identical
  :class:`~repro.runtime.base.ExchangeResult` tallies to the serial
  reference session *after every individual stage*, not just at the end
  of the run;
* the tally assembly (pull counts → global sent/received) matches the
  per-route send/receive accounting by construction.
"""

import numpy as np
import pytest

import repro.runtime.base as runtime_base
import repro.runtime.protocol as runtime_protocol
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.pipeline import APPS
from repro.runtime import (
    ExchangeResult,
    assemble_exchange,
    build_route_plan,
    create_backend,
)

PARTS = (2, 4)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, eta=2.2, min_degree=2, seed=11, name="pl-ex")


@pytest.fixture(scope="module")
def dgraphs(graph):
    return {
        p: build_distributed_graph(EBVPartitioner().partition(graph, p))
        for p in PARTS
    }


# ----------------------------------------------------------------------
# RoutePlan construction
# ----------------------------------------------------------------------


class TestRoutePlan:
    @pytest.mark.parametrize("p", PARTS)
    def test_plan_is_a_partition_of_the_route_dicts(self, dgraphs, p):
        """Every route lands in exactly one inbound slice, keyed by dest."""
        dgraph = dgraphs[p]
        plan = build_route_plan(dgraph)
        assert plan.num_workers == p

        seen_up = []
        for dest, inbound in enumerate(plan.inbound_up):
            for src, route in inbound:
                assert route is dgraph.up_routes[(src, dest)]
                seen_up.append((src, dest))
        assert sorted(seen_up) == sorted(dgraph.up_routes)

        seen_down = []
        for dest, inbound in enumerate(plan.inbound_down):
            for src, route in inbound:
                assert route is dgraph.down_routes[(src, dest)]
                seen_down.append((src, dest))
        assert sorted(seen_down) == sorted(dgraph.down_routes)

    def test_plan_preserves_per_destination_route_order(self, dgraphs):
        """Within one destination, dict insertion order survives.

        This is what keeps floating-point accumulation (``np.add.at``
        over inbound partials) bit-identical to the historical
        coordinator-side loop, which visited the route dict in
        insertion order.
        """
        dgraph = dgraphs[4]
        plan = build_route_plan(dgraph)
        for dest in range(4):
            expected = [w for (w, mw) in dgraph.up_routes if mw == dest]
            assert [src for src, _ in plan.inbound_up[dest]] == expected
            expected = [mw for (mw, w) in dgraph.down_routes if w == dest]
            assert [src for src, _ in plan.inbound_down[dest]] == expected


class TestRoutePlanBuiltOncePerRun:
    """Satellite: the plan is built once per session, never per superstep."""

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_multi_superstep_run_builds_plan_exactly_once(
        self, graph, dgraphs, backend_name, monkeypatch
    ):
        calls = []
        real = runtime_base.build_route_plan

        def counting(dgraph):
            calls.append(dgraph)
            return real(dgraph)

        # The serial/thread sessions resolve the name through base's
        # module globals; the out-of-process session (protocol.py, the
        # one place process and socket build the plan) imported its own
        # binding.
        monkeypatch.setattr(runtime_base, "build_route_plan", counting)
        monkeypatch.setattr(runtime_protocol, "build_route_plan", counting)

        run = BSPEngine(backend=backend_name).run(
            dgraphs[2], APPS.create("cc", graph)
        )
        assert run.num_supersteps >= 2, "need a multi-superstep run to prove it"
        assert len(calls) == 1

    def test_each_run_gets_a_fresh_plan(self, graph, dgraphs, monkeypatch):
        count = 0
        real = runtime_base.build_route_plan

        def counting(dgraph):
            nonlocal count
            count += 1
            return real(dgraph)

        monkeypatch.setattr(runtime_base, "build_route_plan", counting)
        engine = BSPEngine(backend="serial")
        engine.run(dgraphs[2], APPS.create("cc", graph))
        engine.run(dgraphs[2], APPS.create("cc", graph))
        assert count == 2


# ----------------------------------------------------------------------
# ExchangeResult assembly
# ----------------------------------------------------------------------


class TestAssembleExchange:
    def test_counts_fold_to_sent_received(self):
        # worker 0 pulled 3 msgs from worker 1 (up) and 2 from worker 2
        # (down); worker 1 pulled 5 from worker 0 (up); worker 2 nothing.
        up = [
            np.array([0, 3, 0], dtype=np.int64),
            np.array([5, 0, 0], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        ]
        down = [
            np.array([0, 0, 2], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        ]
        result = assemble_exchange(up, down, [0.0, 0.0, 0.0])
        assert isinstance(result, ExchangeResult)
        # received[i] = everything i pulled; sent[j] = everything pulled from j.
        assert result.received.tolist() == [5, 5, 0]
        assert result.sent.tolist() == [5, 3, 2]
        assert result.sent.dtype == np.int64
        assert result.delta == 0.0

    def test_deltas_sum_in_worker_order(self):
        deltas = [0.1, 0.2, 0.3]
        result = assemble_exchange(
            [np.zeros(3, dtype=np.int64)] * 3,
            [np.zeros(3, dtype=np.int64)] * 3,
            deltas,
        )
        expected = 0.0
        for d in deltas:
            expected += float(d)
        assert result.delta == expected


# ----------------------------------------------------------------------
# Per-stage bit-identity: drive sessions directly, compare after every
# stage of every superstep — a strictly stronger check than comparing
# finished runs.
# ----------------------------------------------------------------------


def _state_snapshot(session):
    return {kind: [a.copy() for a in per] for kind, per in session.pull_state().items()}


def _assert_states_equal(got, want, where):
    assert got.keys() == want.keys()
    for kind in got:
        for w, (g, e) in enumerate(zip(got[kind], want[kind])):
            assert np.array_equal(g, e, equal_nan=True), (
                f"{where}: state {kind!r} of worker {w} diverged"
            )


@pytest.mark.parametrize("backend_name", ["thread", "process"])
@pytest.mark.parametrize("p", PARTS)
@pytest.mark.parametrize("app", ["cc", "pr"])
def test_per_stage_state_bit_identity(graph, dgraphs, backend_name, p, app):
    """After every compute and every exchange, all arrays match serial."""
    dgraph = dgraphs[p]
    ref_session = create_backend("serial").session(dgraph, APPS.create(app, graph))
    par_session = create_backend(backend_name).session(dgraph, APPS.create(app, graph))
    max_steps = 6
    with ref_session, par_session:
        _assert_states_equal(
            _state_snapshot(par_session),
            _state_snapshot(ref_session),
            "initial allocation",
        )
        for step in range(max_steps):
            ref_comp = ref_session.compute_stage(step)
            par_comp = par_session.compute_stage(step)
            assert np.array_equal(par_comp.work, ref_comp.work), f"work units, step {step}"
            # Per-worker walls ride every stage return, traced or not.
            assert len(par_comp.walls) == p and all(w >= 0.0 for w in par_comp.walls)
            _assert_states_equal(
                _state_snapshot(par_session),
                _state_snapshot(ref_session),
                f"after compute {step}",
            )

            ref_ex = ref_session.exchange_stage(step)
            par_ex = par_session.exchange_stage(step)
            assert np.array_equal(par_ex.sent, ref_ex.sent), f"sent, step {step}"
            assert np.array_equal(par_ex.received, ref_ex.received), (
                f"received, step {step}"
            )
            assert par_ex.delta == ref_ex.delta, f"delta, step {step}"
            assert len(par_ex.up_walls) == p and len(par_ex.down_walls) == p
            _assert_states_equal(
                _state_snapshot(par_session),
                _state_snapshot(ref_session),
                f"after exchange {step}",
            )
