"""The differential harness: apply-then-compute vs the references.

For every mutation scenario the cold app on the incrementally-maintained
partition (:func:`apply_mutations`) must reproduce the single-machine
reference on the mutated graph — bit-for-bit for CC, within 1e-8 for
PageRank — across backends and part counts.
"""

import numpy as np
import pytest

from repro.apps import cc_reference, make_program, pagerank_reference
from repro.bsp import BSPEngine, build_distributed_graph
from repro.mutate import MutationBatch, apply_mutations
from repro.partition import StreamingEBVPartitioner


def scenario_batch(graph, name):
    rng = np.random.default_rng(42)
    batch = MutationBatch()
    if name in ("mixed", "delete_only"):
        pick = np.sort(rng.choice(graph.num_edges, size=15, replace=False))
        for eid in pick:
            batch.delete(int(graph.src[eid]), int(graph.dst[eid]))
    if name in ("mixed", "insert_only"):
        n = graph.num_vertices
        for _ in range(20):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n + 8))
            if u != v:
                batch.insert(u, v)
    if name == "churn":
        # delete-then-reinsert plus a cancelling insert/delete pair
        u, v = int(graph.src[0]), int(graph.dst[0])
        batch.delete(u, v).insert(u, v).insert(901, 902).delete(901, 902)
        batch.insert(3, 4).insert(3, 4)
    return batch


def run_differential(graph, scenario, app, backend, parts):
    part = StreamingEBVPartitioner().partition(graph, parts)
    mut = apply_mutations(part, scenario_batch(graph, scenario))
    run = BSPEngine(backend=backend).run(
        build_distributed_graph(mut.partition), make_program(app.upper(), mut.graph)
    )
    if app == "cc":
        np.testing.assert_array_equal(run.values, cc_reference(mut.graph))
    else:
        ref = pagerank_reference(mut.graph)
        assert float(np.max(np.abs(run.values - ref))) < 1e-8


SCENARIOS = ("mixed", "insert_only", "delete_only", "churn")


class TestSerialMatrix:
    """Full scenario × parts × app matrix on the serial backend."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("parts", [2, 4])
    def test_cc_bit_identical(self, directed_graph, scenario, parts):
        run_differential(directed_graph, scenario, "cc", "serial", parts)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("parts", [2, 4])
    def test_pr_within_tolerance(self, directed_graph, scenario, parts):
        run_differential(directed_graph, scenario, "pr", "serial", parts)


class TestParallelBackends:
    """The harness holds on real worker pools too (one scenario each to
    bound wall time; backend-equivalence tests cover the rest)."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("parts", [2, 4])
    def test_cc_mixed(self, directed_graph, backend, parts):
        run_differential(directed_graph, "mixed", "cc", backend, parts)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("parts", [2, 4])
    def test_pr_mixed(self, directed_graph, backend, parts):
        run_differential(directed_graph, "mixed", "pr", backend, parts)

