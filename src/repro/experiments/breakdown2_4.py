"""Experiments T2 & F4 — the CC/4-worker breakdown and worker timeline.

Table II decomposes CC with 4 workers over LiveJournal into comp, comm
and ΔC per partition algorithm; Figure 4 shows the same runs as
per-worker Gantt lanes.  Both come from the same six runs, so one
driver produces both artifacts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis import (
    BreakdownRow,
    breakdown_row,
    render_breakdown_table,
    render_timeline,
)
from ..apps import make_program
from ..bsp import BSPEngine, BSPRun, build_distributed_graph
from .config import ExperimentConfig, default_config

__all__ = ["run_breakdown"]


def run_breakdown(
    config: ExperimentConfig = None,
    graph_name: str = "livejournal",
    app: str = "CC",
    num_workers: int = 4,
) -> Tuple[List[BreakdownRow], Dict[str, BSPRun], str, str]:
    """Run the six partitioners; return (rows, runs, table_text, timeline_text)."""
    config = config or default_config()
    graph = config.graphs()[graph_name]
    engine = BSPEngine(cost_model=config.cost_model)
    rows: List[BreakdownRow] = []
    runs: Dict[str, BSPRun] = {}
    for name, partitioner in config.partitioners().items():
        result = partitioner.partition(graph, num_workers)
        dgraph = build_distributed_graph(result)
        run = engine.run(dgraph, make_program(app, graph))
        run.partition_method = name
        rows.append(breakdown_row(run))
        runs[name] = run
    rows.sort(key=lambda r: r.execution_time)
    table_text = render_breakdown_table(
        rows,
        title=(
            f"Table II — breakdown (seconds, modeled) of {app} with "
            f"{num_workers} workers over {graph_name}"
        ),
    )
    timeline_text = "\n\n".join(render_timeline(runs[name]) for name in runs)
    timeline_text = (
        f"Figure 4 — per-worker breakdown of {app} with {num_workers} workers "
        f"over {graph_name}\n\n" + timeline_text
    )
    return rows, runs, table_text, timeline_text
