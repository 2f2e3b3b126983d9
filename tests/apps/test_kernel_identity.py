"""The hoisted superstep kernels equal the kernels they replaced, bit for bit.

``oracles.py`` keeps ``PageRank.compute``, ``FeaturePropagation.compute``
and ``superstep_exchange_up`` as they stood before the loop-invariant
work moved onto ``LocalSubgraph`` (``out_fanout`` / ``master_index``)
and the scatters stopped going through ``np.add.at`` /
``np.minimum.at``.  Every comparison here is ``np.array_equal`` on the
same inputs — values, ``changed``, ``partials``, ``sums``, ``counts``,
``delta``, and in minimize mode ``dirty`` / ``active`` — never a
tolerance: the rewrite claims the same quotient per edge and the same
accumulation order, not a close one.
"""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ConnectedComponents, FeaturePropagation, PageRank, SSSP
from repro.apps.feature_propagation import deterministic_features
from repro.bsp import build_distributed_graph
from repro.bsp.distributed import LocalSubgraph
from repro.bsp.program import ACCUMULATE
from repro.graph import Graph
from repro.partition import DBHPartitioner, EBVPartitioner, MetisLikePartitioner, PartitionResult
from repro.runtime.base import build_route_plan
from repro.runtime.worker import (
    superstep_compute,
    superstep_exchange_down,
    superstep_exchange_up,
)

# tests/partition and tests/graph have an ``oracles`` module too, and test
# directories are not packages: load this one by path.
_spec = importlib.util.spec_from_file_location(
    "apps_kernel_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

ORACLE_COMPUTE = {
    PageRank: oracles.oracle_pagerank_compute,
    FeaturePropagation: oracles.oracle_feature_propagation_compute,
}


class State:
    """Every worker's superstep arrays, as the engine initialises them."""

    def __init__(self, dg, program):
        locals_ = dg.locals
        self.values = [np.asarray(program.initial_values(l)) for l in locals_]
        self.changed = [np.zeros(l.num_vertices, dtype=bool) for l in locals_]
        self.accumulate = program.mode == ACCUMULATE
        if self.accumulate:
            self.partials = [np.zeros_like(v) for v in self.values]
            self.sums = [np.zeros_like(v) for v in self.values]
            self.active = self.dirty = None
        else:
            self.partials = self.sums = None
            self.active = [np.asarray(program.initial_active(l)).copy() for l in locals_]
            self.dirty = [np.zeros(l.num_vertices, dtype=bool) for l in locals_]

    def assert_equal(self, other, where):
        for kind in ("values", "changed", "partials", "sums", "active", "dirty"):
            mine, theirs = getattr(self, kind), getattr(other, kind)
            if mine is None:
                assert theirs is None
                continue
            for w, (a, b) in enumerate(zip(mine, theirs)):
                assert a.dtype == b.dtype and a.shape == b.shape, (where, kind, w)
                assert np.array_equal(a, b), (where, kind, w)


def exchange_up_all(kernel, program, dg, plan, state):
    """Run ``kernel`` as every worker's up phase; return the tallies."""
    out = []
    for w, local in enumerate(dg.locals):
        counts, delta = kernel(
            program,
            local,
            w,
            plan.inbound_up[w],
            state.values,
            state.changed,
            None if state.active is None else state.active[w],
            None if state.dirty is None else state.dirty[w],
            state.partials,
            None if state.sums is None else state.sums[w],
        )
        out.append((counts, delta))
    return out


def assert_exchange_up_identical(program, dg, plan, state, where):
    """New and oracle up phase from the same ``state``; leaves the result in it."""
    old_state = copy.deepcopy(state)
    new = exchange_up_all(superstep_exchange_up, program, dg, plan, state)
    old = exchange_up_all(oracles.oracle_superstep_exchange_up, program, dg, plan, old_state)
    for w, ((nc, nd), (oc, od)) in enumerate(zip(new, old)):
        assert nc.dtype == oc.dtype and np.array_equal(nc, oc), (where, "counts", w)
        assert nd == od, (where, "delta", w, nd, od)
    state.assert_equal(old_state, where)
    return new


def lockstep(dg, program, supersteps):
    """Real supersteps, each kernel checked against its oracle on the way."""
    plan = build_route_plan(dg)
    state = State(dg, program)
    oracle_compute = ORACLE_COMPUTE.get(type(program))
    messages = 0
    for step in range(supersteps):
        for w, local in enumerate(dg.locals):
            if oracle_compute is not None:
                old = oracle_compute(program, local, state.values[w].copy())
            work = superstep_compute(
                program,
                local,
                state.values[w],
                None if state.active is None else state.active[w],
                state.changed[w],
                None if state.partials is None else state.partials[w],
                step,
            )
            if oracle_compute is not None:
                where = (step, "compute", w)
                assert np.array_equal(state.changed[w], old.changed), where
                assert np.array_equal(state.partials[w], old.partials), where
                assert state.partials[w].dtype == old.partials.dtype, where
                assert work == old.work_units, where
        tallies = assert_exchange_up_identical(program, dg, plan, state, (step, "up"))
        messages += sum(int(c.sum()) for c, _ in tallies)
        for w, local in enumerate(dg.locals):
            superstep_exchange_down(
                program,
                local,
                w,
                plan.inbound_down[w],
                state.values,
                None if state.active is None else state.active[w],
                state.dirty,
            )
    return state, messages


# -- graphs and layouts -----------------------------------------------------


def dangling_digraph():
    """Directed, with sinks (3, 6, 7), source-only vertices and three isolates."""
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (1, 3), (4, 3), (4, 0), (5, 6), (2, 6), (5, 7)]
    return Graph.from_edges(edges, num_vertices=11, directed=True, name="dangling")


def idle_worker_partition(graph):
    """p = 3 with every edge on parts 0 and 1: worker 2 holds no edge.

    Worker 2 still hosts a vertex: isolates are homed round-robin and
    the third one lands there, so it has a master, no mirror, no route.
    """
    parts = np.arange(graph.num_edges, dtype=np.int64) % 2
    return PartitionResult(graph, 3, edge_parts=parts, method="manual")


LAYOUTS = {
    "dangling-idle-worker": lambda zoo: idle_worker_partition(dangling_digraph()),
    "dangling-ebv-p4": lambda zoo: EBVPartitioner().partition(dangling_digraph(), 4),
    "path-dbh-p3": lambda zoo: DBHPartitioner().partition(zoo["path"], 3),
    "pl-dir-ebv-p4": lambda zoo: EBVPartitioner().partition(zoo["pl-dir"], 4),
    "pl-dir-dbh-p8": lambda zoo: DBHPartitioner().partition(zoo["pl-dir"], 8),
    "pl-small-dbh-p2": lambda zoo: DBHPartitioner().partition(zoo["pl-small"], 2),
    "pl-small-metis-p4": lambda zoo: MetisLikePartitioner().partition(zoo["pl-small"], 4),
    "road-ebv-p4": lambda zoo: EBVPartitioner().partition(zoo["road-small"], 4),
    "triangles-p1": lambda zoo: EBVPartitioner().partition(zoo["triangles"], 1),
}

PROGRAMS = {
    "pr": lambda g: PageRank(g.num_vertices, max_iters=6, tol=0.0),
    "featprop": lambda g: FeaturePropagation(deterministic_features(g, dims=3, seed=7), hops=4),
    "cc": lambda g: ConnectedComponents(),
    "cc-vertex-centric": lambda g: ConnectedComponents(local_convergence=False),
    "sssp": lambda g: SSSP(source=0),
}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def dgraph(request, graph_zoo):
    return build_distributed_graph(LAYOUTS[request.param](graph_zoo))


# -- whole supersteps -------------------------------------------------------


@pytest.mark.parametrize("app", sorted(PROGRAMS))
def test_lockstep_supersteps(dgraph, app):
    program = PROGRAMS[app](dgraph.graph)
    lockstep(dgraph, program, supersteps=6)


def test_layouts_cover_the_corner_cases(graph_zoo):
    """The shapes the issue names really occur in the layouts above."""
    dg = build_distributed_graph(LAYOUTS["dangling-idle-worker"](graph_zoo))
    plan = build_route_plan(dg)
    idle = dg.locals[2]
    assert idle.num_edges == 0 and idle.num_vertices > 0
    assert plan.inbound_up[2] == [] and idle.is_master.all()
    assert any(l.out_fanout()[1] is not None for l in dg.locals)
    # a sink can be a local *destination* only; no local source is dangling
    for local in dg.locals:
        assert (local.global_out_degree[local.src] > 0).all()
    undirected = build_distributed_graph(LAYOUTS["road-ebv-p4"](graph_zoo))
    assert all(l.out_fanout()[1] is None for l in undirected.locals)
    # lockstep moves real messages on a routed layout
    _, messages = lockstep(undirected, PROGRAMS["pr"](undirected.graph), 2)
    assert messages > 0


def test_dangling_source_is_zeroed_like_the_oracle():
    """A hand-built shard whose out-degree column says a *source* is dangling.

    ``build_distributed_graph`` cannot produce it (a source has an
    out-edge), but both kernels define it: that edge contributes 0.0.
    """
    local = LocalSubgraph(
        worker_id=0,
        global_ids=np.arange(4, dtype=np.int64),
        src=np.array([0, 1, 1, 3], dtype=np.int64),
        dst=np.array([1, 2, 0, 2], dtype=np.int64),
        weights=None,
        is_master=np.ones(4, dtype=bool),
        master_worker=np.zeros(4, dtype=np.int64),
        global_out_degree=np.array([3, 0, 5, 2], dtype=np.int64),
    )
    program = PageRank(4)
    values = np.array([0.1, 0.7, 0.15, 0.05])
    new = program.compute(local, values.copy(), None)
    old = oracles.oracle_pagerank_compute(program, local, values.copy())
    assert np.array_equal(new.partials, old.partials)
    assert np.array_equal(new.changed, old.changed)
    assert new.partials.tolist() == [0.0, 0.1 / 3, 0.05 / 2, 0.0]


# -- the up phase under forced selections -----------------------------------


def _force_changed(state, dg, selection, rng):
    for w, local in enumerate(dg.locals):
        n = local.num_vertices
        if selection == "empty":
            state.changed[w][:] = False
        elif selection == "full":
            state.changed[w][:] = True
        else:
            state.changed[w][:] = rng.random(n) < 0.5


@pytest.mark.parametrize("selection", ["empty", "partial", "full"])
@pytest.mark.parametrize("app", ["pr", "featprop", "cc", "sssp"])
def test_exchange_up_forced_selection(dgraph, app, selection, rng):
    """Route selections the real run may never produce: none, some, all."""
    program = PROGRAMS[app](dgraph.graph)
    plan = build_route_plan(dgraph)
    state = State(dgraph, program)
    # Arbitrary, replica-inconsistent state: the kernels must still agree.
    for w, local in enumerate(dgraph.locals):
        shape = state.values[w].shape
        if state.accumulate:
            state.values[w][...] = rng.normal(size=shape)
            state.partials[w][...] = rng.normal(size=shape)
        else:
            state.values[w][...] = rng.integers(0, 50, size=shape).astype(state.values[w].dtype)
            state.active[w][:] = rng.random(local.num_vertices) < 0.3
    _force_changed(state, dgraph, selection, rng)
    tallies = assert_exchange_up_identical(program, dgraph, plan, state, (app, selection))
    pulled = sum(int(c.sum()) for c, _ in tallies)
    routed = sum(r.src_index.size for r in dgraph.up_routes.values())
    if selection == "empty":
        assert pulled == 0
    elif selection == "full":
        assert pulled == routed


# -- hypothesis: any small graph, any layout --------------------------------


@st.composite
def layouts(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=30))
    p = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    parts = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=m, max_size=m))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, edges, p, parts, seed


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_hypothesis_any_layout(layout):
    n, edges, p, parts, seed = layout
    graph = Graph.from_edges(edges, num_vertices=n, directed=True, name="hyp")
    result = PartitionResult(
        graph, p, edge_parts=np.asarray(parts, dtype=np.int64), method="manual"
    )
    dg = build_distributed_graph(result)
    plan = build_route_plan(dg)
    rng = np.random.default_rng(seed)
    for app in ("pr", "featprop", "cc"):
        program = PROGRAMS[app](graph)
        lockstep(dg, program, supersteps=3)
        state = State(dg, program)
        if state.accumulate:
            for w in range(p):
                state.partials[w][...] = rng.normal(size=state.partials[w].shape)
        _force_changed(state, dg, "partial", rng)
        assert_exchange_up_identical(program, dg, plan, state, (app, "hypothesis"))
