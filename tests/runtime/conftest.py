"""Shared fixtures for the runtime suite."""

import numpy as np
import pytest

from repro.bsp import build_distributed_graph
from repro.graph import powerlaw_graph
from repro.mutate import MutationBatch, apply_mutations
from repro.partition import EBVPartitioner


@pytest.fixture(scope="module")
def maintained():
    """A directed power-law graph mutated by one batch (deletes, inserts
    and one new vertex) per worker count: ``{p: (mutated graph, routed
    graph of the partition apply_mutations maintained)}``."""
    base = powerlaw_graph(400, eta=2.2, min_degree=2, directed=True, seed=7, name="pl-mut")
    rng = np.random.default_rng(5)
    batch = MutationBatch()
    for eid in np.sort(rng.choice(base.num_edges, size=20, replace=False)):
        batch.delete(int(base.src[eid]), int(base.dst[eid]))
    n = base.num_vertices
    for _ in range(30):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            batch.insert(u, v)
    batch.insert(1, n + 3)
    out = {}
    for p in (2, 4):
        mut = apply_mutations(EBVPartitioner().partition(base, p), batch)
        assert mut.mode == "incremental"
        assert mut.graph.num_vertices == n + 4
        out[p] = (mut.graph, build_distributed_graph(mut.partition))
    return out
