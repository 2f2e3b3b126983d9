"""Experiments F2 & F3 — cross-system execution time sweeps.

Figure 2: CC, PR and SSSP on the three power-law graphs over a range of
worker counts, comparing the six partition algorithms inside the
subgraph-centric framework plus the Galois and Blogel stand-ins.
Figure 3: CC and SSSP on the non-power-law road graph.

Each sweep produces a ``{framework: [seconds per worker count]}`` series
dict; the renderer prints one aligned block per (app, graph) panel.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..tables import render_table
from .config import ExperimentConfig, POWER_LAW_GRAPHS, ROAD_GRAPH, default_config

__all__ = ["sweep_panel", "run_fig2", "run_fig3", "render_panels"]

Panel = Dict[str, List[float]]


def sweep_panel(
    config: ExperimentConfig, graph_name: str, app: str, workers: Sequence[int]
) -> Panel:
    """One figure panel: execution time per framework per worker count."""
    graph = config.graphs()[graph_name]
    panel: Panel = {}
    for framework in config.frameworks():
        if not framework.supports(app):
            continue
        times: List[float] = []
        for p in workers:
            run = framework.run(graph, app, p)
            times.append(run.execution_time)
        panel[framework.name] = times
    return panel


def render_panels(
    panels: Dict[Tuple[str, str], Panel],
    workers_of: Dict[str, Sequence[int]],
    title: str,
) -> str:
    """Render every (app, graph) panel as an aligned text block."""
    blocks: List[str] = [title]
    for (app, graph_name), panel in panels.items():
        workers = workers_of[graph_name]
        rows = []
        for framework, times in panel.items():
            rows.append([framework] + [f"{t:.4f}" for t in times])
        blocks.append(
            render_table(
                ["Framework"] + [f"p={p}" for p in workers],
                rows,
                title=f"\n{app} — {graph_name} (execution seconds, modeled)",
            )
        )
    return "\n".join(blocks)


def run_fig2(
    config: ExperimentConfig = None,
    apps: Sequence[str] = ("CC", "PR", "SSSP"),
    graphs: Sequence[str] = POWER_LAW_GRAPHS,
) -> Tuple[Dict[Tuple[str, str], Panel], str]:
    """Figure 2: the full power-law sweep; returns (panels, rendered)."""
    config = config or default_config()
    panels: Dict[Tuple[str, str], Panel] = {}
    for app in apps:
        for graph_name in graphs:
            workers = config.figure_workers[graph_name]
            panels[(app, graph_name)] = sweep_panel(config, graph_name, app, workers)
    text = render_panels(
        panels,
        config.figure_workers,
        "Figure 2 — cross-system comparison on power-law graphs",
    )
    return panels, text


def run_fig3(
    config: ExperimentConfig = None,
    apps: Sequence[str] = ("CC", "SSSP"),
) -> Tuple[Dict[Tuple[str, str], Panel], str]:
    """Figure 3: CC and SSSP on the road graph; returns (panels, rendered)."""
    config = config or default_config()
    panels: Dict[Tuple[str, str], Panel] = {}
    for app in apps:
        workers = config.figure_workers[ROAD_GRAPH]
        panels[(app, ROAD_GRAPH)] = sweep_panel(config, ROAD_GRAPH, app, workers)
    text = render_panels(
        panels,
        config.figure_workers,
        "Figure 3 — CC and SSSP over the non-power-law road graph",
    )
    return panels, text
