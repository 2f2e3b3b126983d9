"""End-to-end pipeline test: generate -> partition -> execute -> analyze."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import breakdown_row, message_stats, render_timeline
from repro.apps import (
    ConnectedComponents,
    PageRank,
    SSSP,
    cc_reference,
    default_source,
    pagerank_reference,
    sssp_reference,
)
from repro.bsp import BSPEngine, build_distributed_graph
from repro.graph import powerlaw_graph, read_edge_list, write_edge_list
from repro.partition import EBVPartitioner, partition_metrics


def test_full_pipeline(tmp_path):
    # 1. Generate and persist a workload.
    g = powerlaw_graph(600, eta=2.1, min_degree=3, seed=42, name="pipeline")
    path = str(tmp_path / "pipeline.txt")
    write_edge_list(g, path)
    g = read_edge_list(path)

    # 2. Partition with the paper's algorithm and check its guarantees.
    ebv = EBVPartitioner(track_growth=True)
    result = ebv.partition(g, 6)
    metrics = partition_metrics(result)
    assert metrics.edge_imbalance < 1.2
    assert metrics.vertex_imbalance < 1.2

    # 3. Execute all three paper applications.
    dgraph = build_distributed_graph(result)
    engine = BSPEngine()

    cc = engine.run(dgraph, ConnectedComponents())
    assert np.array_equal(cc.values, cc_reference(g))

    src = default_source(g)
    sssp = engine.run(dgraph, SSSP(src))
    assert np.allclose(sssp.values, sssp_reference(g.with_unit_weights(), src))

    pr = engine.run(dgraph, PageRank(g.num_vertices, max_iters=12))
    assert np.allclose(pr.values, pagerank_reference(g, max_iters=12), atol=1e-12)

    # 4. Analyze.
    row = breakdown_row(cc)
    assert row.execution_time > 0
    stats = message_stats(cc, replication_factor=metrics.replication)
    assert stats.total_messages == cc.total_messages
    assert "worker 0" in render_timeline(cc)

    # 5. The replication growth trace covers the whole edge stream.
    x, y = ebv.growth_curve(g)
    assert x[-1] == g.num_edges
    assert y[-1] == pytest.approx(metrics.replication, rel=1e-6)


def test_public_api_importable():
    """Everything advertised in repro.__init__ resolves."""
    import repro

    assert repro.__version__
    for name in repro.__all__:
        if name != "__version__":
            importlib.import_module(f"repro.{name}")
    from repro.partition import PAPER_PARTITIONERS

    assert set(PAPER_PARTITIONERS) == {"EBV", "Ginger", "DBH", "CVC", "NE", "METIS"}


def test_production_path_imports_no_paper_code():
    """The CLI, the pipeline and a runtime worker load no module of the
    paper-artifact layer (experiments, modelled frameworks, analysis):
    that layer imports production code, never the reverse."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    script = (
        "import sys, repro.cli, repro.pipeline, repro.runtime.worker\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in ("
        "['repro', 'experiments'], ['repro', 'frameworks'], ['repro', 'analysis'])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
