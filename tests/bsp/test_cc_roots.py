"""``LocalSubgraph.cc_roots`` equals the per-edge union-find it replaced.

The vectorised min-hook + pointer-jumping pass must return, bit for
bit, the array the union-find oracle in ``union_find.py`` returns (each
local component's lowest local index) and the same
``cc_root_count`` — on random graphs, on the degenerate shapes, on a
long path whose ids are shuffled (many hook rounds), and on every local
subgraph the ledger's road and power-law inputs produce under the
partitioners it runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from union_find import union_find_roots
from repro.bsp import build_distributed_graph
from repro.bsp.distributed import LocalSubgraph
from repro.graph import generate_graph
from repro.pipeline import PARTITIONERS


def local_subgraph(num_vertices, src, dst) -> LocalSubgraph:
    n = int(num_vertices)
    return LocalSubgraph(
        worker_id=0,
        global_ids=np.arange(n, dtype=np.int64),
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        weights=None,
        is_master=np.ones(n, dtype=bool),
        master_worker=np.zeros(n, dtype=np.int64),
        global_out_degree=np.zeros(n, dtype=np.int64),
    )


def assert_matches_oracle(local: LocalSubgraph) -> None:
    want, count = union_find_roots(local.num_vertices, local.src, local.dst)
    got = local.cc_roots()
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert local.cc_root_count() == count


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, [], []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120))
    return n, [u for u, _ in pairs], [v for _, v in pairs]


@given(edge_lists())
@settings(max_examples=300, deadline=None)
def test_random_graphs_match_the_union_find(case):
    assert_matches_oracle(local_subgraph(*case))


@pytest.mark.parametrize(
    "n, src, dst",
    [
        (0, [], []),  # empty subgraph
        (5, [], []),  # no edges: every vertex is its own root
        (4, [0, 2, 2], [0, 2, 2]),  # self-loops only
        (6, [5, 3], [4, 1]),  # isolated vertices between two components
        (5, [4, 3, 2, 1], [3, 2, 1, 0]),  # a path walked from the top
        (5, [4, 4, 4, 4], [0, 1, 2, 3]),  # a star onto the largest id
    ],
)
def test_degenerate_shapes(n, src, dst):
    assert_matches_oracle(local_subgraph(n, src, dst))


def test_long_shuffled_path():
    """100 000 vertices on one path with shuffled ids: many hook rounds,
    one component rooted at 0."""
    n = 100_000
    order = np.random.default_rng(3).permutation(n)
    local = local_subgraph(n, order[:-1], order[1:])
    assert_matches_oracle(local)
    assert local.cc_root_count() == 1
    assert not local.cc_roots().any()


@pytest.mark.parametrize(
    "kind, vertices, parts",
    [("road", 25_000, 4), ("powerlaw", 10_000, 8)],
    ids=["road", "powerlaw"],
)
@pytest.mark.parametrize("method", ["ebv", "dbh", "ne"])
def test_ledger_inputs_local_subgraphs(kind, vertices, parts, method):
    graph = generate_graph(kind, vertices=vertices, seed=20210707)
    dgraph = build_distributed_graph(PARTITIONERS.create(method).partition(graph, parts))
    for local in dgraph.locals:
        assert_matches_oracle(local)
