"""Experiment F5 — replication-factor growth, EBV-sort vs EBV-unsort.

Figure 5 plots the replication factor as a function of edges processed
for p ∈ {4, 8, 16, 32} on the three power-law graphs.  The expected
shape (Section V-D): EBV-sort rises sharply while low-degree seed edges
create vertices, then flattens as hub edges stop creating replicas,
finishing *below* EBV-unsort with a gap that widens with p.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..partition import EBVPartitioner
from ..tables import render_table
from .config import ExperimentConfig, POWER_LAW_GRAPHS, default_config

__all__ = ["run_fig5", "GrowthCurves"]

#: (variant, p) → (edges_processed, replication_factor) arrays
GrowthCurves = Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]]


def run_fig5(
    config: ExperimentConfig = None,
    graphs: Sequence[str] = POWER_LAW_GRAPHS,
    subgraph_counts: Sequence[int] = (4, 8, 16, 32),
    samples: int = 8,
) -> Tuple[Dict[str, GrowthCurves], str]:
    """Trace RF growth for both variants; returns (curves per graph, text)."""
    config = config or default_config()
    all_curves: Dict[str, GrowthCurves] = {}
    blocks: List[str] = ["Figure 5 — replication factor growth curves"]
    for graph_name in graphs:
        graph = config.graphs()[graph_name]
        curves: GrowthCurves = {}
        for p in subgraph_counts:
            for variant, order in (("sort", "ascending"), ("unsort", "input")):
                ebv = EBVPartitioner(sort_order=order, track_growth=True)
                ebv.partition(graph, p)
                curves[(variant, p)] = ebv.growth_curve(graph, max_points=512)
        all_curves[graph_name] = curves

        # Render a compact sample grid: RF at fractions of |E| processed.
        fracs = np.linspace(1.0 / samples, 1.0, samples)
        rows = []
        for (variant, p), (x, y) in sorted(curves.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            picks = [float(np.interp(f * x[-1], x, y)) for f in fracs]
            rows.append([f"EBV-{variant} p={p}"] + [f"{v:.2f}" for v in picks])
        blocks.append(
            render_table(
                ["Variant"] + [f"{f:.0%}|E|" for f in fracs],
                rows,
                title=f"\n{graph_name}: replication factor after processing x% of edges",
            )
        )
    return all_curves, "\n".join(blocks)
