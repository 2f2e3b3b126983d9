"""Experiment T1 — Table I: statistics of the tested graphs."""

from __future__ import annotations

from typing import List, Tuple

from ..graph import GraphStats, graph_stats
from ..tables import render_table
from .config import ExperimentConfig, default_config

__all__ = ["run_table1"]

#: the paper's reference rows, for side-by-side reporting.
PAPER_TABLE1 = {
    "usa-road": ("Undirected", 23_947_347, 58_333_344, 2.44, 6.30),
    "livejournal": ("Directed", 4_847_571, 68_993_773, 14.23, 2.64),
    "friendster": ("Undirected", 65_608_366, 1_806_067_135, 27.53, 2.43),
    "twitter": ("Directed", 41_652_230, 1_468_365_182, 35.25, 1.87),
}


def run_table1(config: ExperimentConfig = None) -> Tuple[List[GraphStats], str]:
    """Compute Table I for the stand-in suite; returns (rows, rendered)."""
    config = config or default_config()
    rows = [graph_stats(g) for g in config.graphs().values()]
    table_rows = []
    for s in rows:
        paper = PAPER_TABLE1.get(s.name)
        table_rows.append(
            (
                s.name,
                s.kind,
                s.num_vertices,
                s.num_edges,
                f"{s.average_degree:.2f}",
                f"{s.eta:.2f}",
                f"{paper[4]:.2f}" if paper else "-",
            )
        )
    text = render_table(
        ["Graph", "Type", "V", "E", "AvgDeg", "eta", "paper eta"],
        table_rows,
        title="Table I — statistics of tested graphs (stand-ins; see DESIGN.md §3)",
    )
    return rows, text
