"""Unit tests for the three framework wrappers used in Figures 2-3."""

import numpy as np
import pytest

from repro.apps import cc_reference, pagerank_reference
from repro.frameworks import (
    BlogelFramework,
    SubgraphCentricFramework,
    VertexCentricFramework,
)
from repro.partition import EBVPartitioner


class TestSubgraphCentric:
    def test_runs_and_labels(self, small_powerlaw):
        fw = SubgraphCentricFramework(EBVPartitioner())
        run = fw.run(small_powerlaw, "CC", 4)
        assert run.partition_method == "EBV"
        assert np.array_equal(run.values, cc_reference(small_powerlaw))

    def test_dgraph_cached(self, small_powerlaw):
        fw = SubgraphCentricFramework(EBVPartitioner())
        a = fw.distributed_graph(small_powerlaw, 4)
        b = fw.distributed_graph(small_powerlaw, 4)
        assert a is b
        c = fw.distributed_graph(small_powerlaw, 8)
        assert c is not a

    def test_supports_all_apps(self, small_powerlaw):
        fw = SubgraphCentricFramework(EBVPartitioner())
        assert fw.supports("CC") and fw.supports("PR") and fw.supports("SSSP")
        assert not fw.supports("Triangles")


class TestVertexCentric:
    def test_correct_results(self, small_powerlaw):
        fw = VertexCentricFramework()
        run = fw.run(small_powerlaw, "CC", 4)
        assert np.array_equal(run.values, cc_reference(small_powerlaw))

    def test_pagerank_matches_reference(self, small_directed_powerlaw):
        g = small_directed_powerlaw
        fw = VertexCentricFramework(pagerank_iters=10)
        run = fw.run(g, "PR", 4)
        assert np.allclose(run.values, pagerank_reference(g, max_iters=10), atol=1e-12)

    def test_more_supersteps_than_subgraph_centric(self, small_road):
        sub = SubgraphCentricFramework(EBVPartitioner()).run(small_road, "CC", 4)
        vc = VertexCentricFramework().run(small_road, "CC", 4)
        assert vc.num_supersteps > sub.num_supersteps

    def test_invalid_speedup(self):
        with pytest.raises(ValueError):
            VertexCentricFramework(speedup=0)


class TestBlogel:
    def test_cc_correct(self, small_powerlaw):
        fw = BlogelFramework()
        run = fw.run(small_powerlaw, "CC", 4)
        assert np.array_equal(run.values, cc_reference(small_powerlaw))

    def test_pr_not_supported(self, small_powerlaw):
        fw = BlogelFramework()
        assert not fw.supports("PR")
        with pytest.raises(ValueError):
            fw.run(small_powerlaw, "PR", 4)

    def test_cc_charged_precompute(self, small_powerlaw):
        fw = BlogelFramework()
        cc = fw.run(small_powerlaw, "CC", 4)
        sssp = fw.run(small_powerlaw, "SSSP", 4)
        # The CC run carries an extra leading superstep (the Voronoi
        # pre-compute); SSSP does not.
        assert cc.supersteps[0].sent.sum() == 0
        assert float(cc.supersteps[0].work.sum()) == pytest.approx(
            small_powerlaw.num_edges
        )
        assert float(sssp.supersteps[0].work.sum()) != pytest.approx(
            small_powerlaw.num_edges
        )
