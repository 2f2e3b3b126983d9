"""Bench A5 — the local-search refinement post-pass on every partitioner."""

from repro.partition import (
    DBHPartitioner,
    EBVPartitioner,
    GingerPartitioner,
    HDRFPartitioner,
    RandomEdgeHashPartitioner,
    refine_vertex_cut,
    replication_factor,
)
from repro.tables import render_table


def test_ablation_refinement(benchmark, config, artifact_sink):
    graph = config.graphs()["livejournal"]
    p = 12

    def sweep():
        rows = []
        for cls in (EBVPartitioner, GingerPartitioner, DBHPartitioner,
                    HDRFPartitioner, RandomEdgeHashPartitioner):
            base = cls().partition(graph, p)
            refined = refine_vertex_cut(base)
            rf0 = replication_factor(base)
            rf1 = replication_factor(refined)
            rows.append((base.method, f"{rf0:.3f}", f"{rf1:.3f}",
                         f"{(rf0 - rf1) / rf0 * 100:.1f}%"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = render_table(
        ["Method", "RF before", "RF after", "saved"],
        rows,
        title=f"Ablation A5 — refinement post-pass (livejournal stand-in, p={p})",
    )
    artifact_sink("ablation_refinement", text)

    saved = {method: float(s.rstrip("%")) for method, _, _, s in rows}
    # Refinement helps the oblivious partitioners far more than EBV —
    # EBV's greedy already sits near a local optimum of the objective.
    assert saved["RandomEdge"] > saved["EBV"]
