"""``EBVCore.assign``'s compiled loop gives Eq. 2's answer, byte for byte.

``oracles.OracleCore`` is Eq. 2 on all ``p`` parts for every edge, in
numpy.  The inputs here are the ones that pinned the seams of earlier
Python loops — part counts around a byte and a 64-bit word, a hub and a
self loop across the edges of 4096-edge blocks, balance weights that
outweigh a replica, ties between parts that hold different endpoints —
and each is compared with the oracle, state included, in all three
balance modes.
"""

import numpy as np
import pytest

from oracles import CORE_MODES, assert_same_assignment, core_pair
from repro.graph import generate_graph
from repro.partition.ebv import edge_processing_order

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
    # two calls: the second scores rows the first one wrote
    assert_same_assignment(core, oracle, src, dst, np.arange(half))
    assert_same_assignment(core, oracle, src, dst, np.arange(src.shape[0] - 1, half - 1, -1))


@pytest.mark.parametrize("mode", CORE_MODES)
def test_hub_and_self_loop_straddle_a_block_boundary(mode):
    """One call, three 4096-edge blocks: replicas gained in one score the next.

    Vertex 0 is a hub with an edge on both sides of each boundary, and
    the self loop on vertex 5 is both the last edge of the first block
    and the first edge of the second; the growth trace must be the
    oracle's across them.
    """
    block = 4096
    n, m = 600, 2 * block + 100
    rng = np.random.default_rng(31)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    for boundary in (block, 2 * block):
        src[boundary - 3 : boundary + 3] = 0
    src[block - 1 : block + 1] = dst[block - 1 : block + 1] = 5
    core, oracle = core_pair(mode, 8, 1.0, 1.0, m, n)
    assert_same_assignment(core, oracle, src, dst, np.arange(m))


def test_a_wide_balance_spread_matches_the_oracle():
    """With α = 100 the balance term can outweigh a replica, so the arg
    min often leaves the parts that hold an endpoint; the ledger's
    smaller input at p = 8, maintained, as the offline front runs it."""
    graph = generate_graph("powerlaw", vertices=2000, seed=20210707)
    core, oracle = core_pair(
        "maintained", 8, 100.0, 1e-9, graph.num_edges, graph.num_vertices
    )
    assert_same_assignment(core, oracle, graph.src, graph.dst, edge_processing_order(graph))


@pytest.mark.parametrize(
    "seeded_low,edge",
    [((0, 0), (0, 1)), ((2, 2), (0, 3))],
    ids=["both-vs-either", "either-vs-neither"],
)
def test_cross_class_tie_goes_to_the_lowest_id(seeded_low, edge):
    """Units of exactly 1.0 make ``eva`` an integer, so a part holding
    one endpoint fewer and one unit lighter ties the part holding more
    exactly — and has the lower id, which must win.
    """
    core, oracle = core_pair("derived", 2, 2.0, 2.0, 4, 4)
    src, dst = np.array([0, seeded_low[0]]), np.array([1, seeded_low[1]])
    for c in (core, oracle):
        c.seed(src, dst, np.array([1, 0]))
    u, v = edge
    out = assert_same_assignment(core, oracle, np.array([u]), np.array([v]), np.arange(1))
    assert out[0] == 0


def test_a_fused_multiply_add_would_flip_this_tie():
    """Derived units 1/3 and 1/5 (|E| = 6, |V| = 10, p = 2): part 0 holds
    8 edges over 16 vertices, part 1 11 edges over 11.  Rounded after
    each operation both score 7.866666666666667, a tie that goes to part
    0; with either product fused into the sum, part 1 scores one ulp
    less and wins.  So a kernel built with FMA contraction fails here.
    """
    core, oracle = core_pair("derived", 2, 1.0, 1.0, 6, 10)
    src = np.concatenate([np.arange(0, 16, 2), np.arange(16, 27)])
    dst = np.concatenate([np.arange(1, 16, 2), np.roll(np.arange(16, 27), -1)])
    parts = np.repeat([0, 1], [8, 11])
    for c in (core, oracle):
        c.grow(29)
        c.seed(src, dst, parts)
    assert core.ecount.tolist() == [8, 11] and core.vcount.tolist() == [16, 11]
    out = assert_same_assignment(core, oracle, np.array([27]), np.array([28]), np.arange(1))
    assert out[0] == 0
