"""``EBVCore.assign`` scores one candidate class; the answer is Eq. 2's.

``oracles.OracleCore`` is the core as it stood before: Eq. 2 on all
``p`` parts for every edge.  The seams the candidate-class loop added —
replica rows packed into Python ints (any ``p``, not just one machine
word), state carried from one block of edges to the next, the
``full_scans`` fallback — are each compared with it here, byte for byte
and state included, in all three balance modes.
"""

import numpy as np
import pytest

from oracles import CORE_MODES, assert_same_assignment, core_pair
from repro.graph import generate_graph
from repro.partition import EBVPartitioner
from repro.partition import ebv as ebv_module
from repro.partition.ebv import EBVCore, edge_processing_order

WEIGHTS = ((1.0, 1.0), (100.0, 1e-9), (1e-9, 1e-9))


@pytest.fixture(scope="module")
def multigraph():
    """Power-law edges plus self loops and duplicates, shuffled."""
    base = generate_graph("powerlaw", vertices=200, seed=23)
    rng = np.random.default_rng(29)
    loops = rng.integers(0, base.num_vertices, size=10)
    dups = rng.integers(0, base.num_edges, size=20)
    src = np.concatenate([base.src, loops, base.src[dups]])
    dst = np.concatenate([base.dst, loops, base.dst[dups]])
    shuffle = rng.permutation(src.shape[0])
    return base.num_vertices, src[shuffle], dst[shuffle]


@pytest.mark.parametrize("mode", CORE_MODES)
@pytest.mark.parametrize("alpha,beta", WEIGHTS)
@pytest.mark.parametrize("num_parts", [1, 7, 8, 9, 63, 64, 65, 67])
def test_packing_boundaries(multigraph, num_parts, alpha, beta, mode):
    """One bit short of, exactly at, and one past a byte and a 64-bit word."""
    n, src, dst = multigraph
    core, oracle = core_pair(mode, num_parts, alpha, beta, src.shape[0], n)
    half = src.shape[0] // 2
    # two calls: the second packs rows the first one wrote back
    assert_same_assignment(core, oracle, src, dst, np.arange(half))
    assert_same_assignment(core, oracle, src, dst, np.arange(half, src.shape[0])[::-1])
    assert 0 < core.full_scans <= src.shape[0]


@pytest.mark.parametrize("mode", CORE_MODES)
def test_hub_and_self_loop_straddle_a_block_boundary(mode):
    """One call, three blocks: replicas gained in a block score the next.

    Vertex 0 is a hub with an edge on both sides of each boundary, and
    the self loop on vertex 5 is both the last edge of the first block
    and the first edge of the second.  The growth trace is cut at the
    same boundaries and must still be the oracle's.
    """
    block = ebv_module._BLOCK
    n, m = 600, 2 * block + 100
    rng = np.random.default_rng(31)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    for boundary in (block, 2 * block):
        src[boundary - 3 : boundary + 3] = 0
    src[block - 1 : block + 1] = dst[block - 1 : block + 1] = 5
    core, oracle = core_pair(mode, 8, 1.0, 1.0, m, n)
    assert_same_assignment(core, oracle, src, dst, np.arange(m))


def _ledger_case(alpha, beta):
    graph = generate_graph("powerlaw", vertices=2000, seed=20210707)
    order = edge_processing_order(graph)
    core = EBVCore(8, alpha, beta, graph.num_edges, graph.num_vertices, maintained=True)
    out = np.full(graph.num_edges, -1, dtype=np.int64)
    core.assign(graph.src, graph.dst, order, out)
    want = EBVPartitioner(alpha=alpha, beta=beta).partition(graph, 8).edge_parts
    assert out.tobytes() == want.tobytes()
    # An edge neither of whose endpoints has a replica yet has no
    # candidate class: those always take the full scan.
    src, dst = graph.src[order], graph.dst[order]
    first = np.full(graph.num_vertices, graph.num_edges)
    np.minimum.at(first, src, np.arange(graph.num_edges))
    np.minimum.at(first, dst, np.arange(graph.num_edges))
    both_new = int(np.count_nonzero(np.minimum(first[src], first[dst]) == np.arange(graph.num_edges)))
    return core, both_new


def test_full_scans_are_rare_on_a_power_law_graph():
    """Counts, not timings: they repeat exactly on every host."""
    core, both_new = _ledger_case(1.0, 1.0)
    assert core.edges_assigned == 17594
    assert both_new <= core.full_scans <= 0.05 * core.edges_assigned


def test_a_wide_balance_spread_forces_full_scans():
    """With α = 100 the balance term can outweigh a replica: the guard
    must send those edges — which do have a candidate class — to the
    full scan."""
    core, both_new = _ledger_case(100.0, 1e-9)
    assert core.full_scans > both_new > 0


@pytest.mark.parametrize(
    "seeded_low,edge",
    [((0, 0), (0, 1)), ((2, 2), (0, 3))],
    ids=["both-vs-either", "either-vs-neither"],
)
def test_cross_class_tie_goes_to_the_lowest_id(seeded_low, edge):
    """Units of exactly 1.0 make ``eva`` an integer, so a part one class
    down and one unit lighter ties the class winner exactly — and has
    the lower id.  Only a strict guard sends that edge to the full scan.
    """
    core, oracle = core_pair("derived", 2, 2.0, 2.0, 4, 4)
    src, dst = np.array([0, seeded_low[0]]), np.array([1, seeded_low[1]])
    for c in (core, oracle):
        c.seed(src, dst, np.array([1, 0]))
    u, v = edge
    out = assert_same_assignment(core, oracle, np.array([u]), np.array([v]), np.arange(1))
    assert out[0] == 0 and core.full_scans == 1
