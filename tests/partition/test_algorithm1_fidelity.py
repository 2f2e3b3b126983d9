"""Fidelity to the paper's Algorithm 1, judged in exact integer arithmetic.

``oracles.algorithm1_exact`` scores with integers only, so equal scores
are exactly equal and every tie goes to the lowest subgraph id.  The
sharded front with one shard and ``sync_interval=1`` *is* sequential
EBV under the derived balance policy and matches it edge for edge.
Offline EBV's maintained balance does not — see the strict ``xfail``.
"""

import functools

import numpy as np
import pytest

from oracles import algorithm1_exact
from repro.graph import generate_graph
from repro.partition import EBVPartitioner, ShardedEBVPartitioner
from repro.partition.ebv import edge_processing_order

SEED = 20210707


@functools.lru_cache(maxsize=None)
def _case(vertices):
    """``(graph, order, exact Algorithm 1 parts)`` on the ledger's powerlaw input."""
    graph = generate_graph("powerlaw", vertices=vertices, seed=SEED)
    order = edge_processing_order(graph)
    return graph, order, algorithm1_exact(graph, 8, order)


@pytest.mark.parametrize("vertices", [500, 2000])
def test_sequential_sharded_is_algorithm1(vertices):
    graph, _, want = _case(vertices)
    got = ShardedEBVPartitioner(num_shards=1, sync_interval=1).partition(graph, 8)
    np.testing.assert_array_equal(got.edge_parts, want)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Known divergence: offline EBV maintains the balance term as a float "
        "accumulator, whose rounding breaks exact ties by history instead of by "
        "lowest id.  On powerlaw n=2000, seed 20210707, p=8 it first departs from "
        "Algorithm 1 at processing step 2210 and ends with 10237 of 17594 edges "
        "placed differently.  Fixing it re-bases every paper artifact under "
        "benchmarks/out/ — a separate issue."
    ),
)
def test_offline_ebv_is_algorithm1():
    graph, _, want = _case(2000)
    np.testing.assert_array_equal(EBVPartitioner().partition(graph, 8).edge_parts, want)


def test_offline_ebv_divergence_is_the_recorded_one():
    """Pins the numbers quoted in the ``xfail`` reason and the README."""
    graph, order, want = _case(2000)
    got = EBVPartitioner().partition(graph, 8).edge_parts
    differs = got[order] != want[order]
    assert graph.num_edges == 17594
    assert int(np.argmax(differs)) == 2210
    assert int(differs.sum()) == 10237
