"""Ablations A1–A3 (DESIGN.md §6): bound tightness, α/β sensitivity, sort order.

These go beyond the paper's headline artifacts and probe the design
choices it calls out: the Theorem 1/2 guarantees, the evaluation
function's balance weights, and the edge-processing order (extending
Section V-D with descending and random orders).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..partition import (
    EBVPartitioner,
    SORT_ORDERS,
    edge_imbalance_factor,
    partition_metrics,
    replication_factor,
    theorem1_edge_imbalance_bound,
    theorem2_vertex_imbalance_bound,
    vertex_imbalance_factor,
)
from ..tables import render_table
from .config import ExperimentConfig, default_config

__all__ = ["run_bounds_ablation", "run_alpha_beta_ablation", "run_sort_order_ablation"]


def run_bounds_ablation(
    config: ExperimentConfig = None,
    graph_name: str = "livejournal",
    num_parts: int = 8,
    alphas: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    betas: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
) -> Tuple[List[dict], str]:
    """A1: measured imbalance factors vs the Theorem 1/2 upper bounds."""
    config = config or default_config()
    graph = config.graphs()[graph_name]
    rows: List[dict] = []
    for alpha in alphas:
        for beta in betas:
            result = EBVPartitioner(alpha=alpha, beta=beta).partition(graph, num_parts)
            covered = int(result.vertex_counts().sum())
            rows.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "edge_imbalance": edge_imbalance_factor(result),
                    "edge_bound": theorem1_edge_imbalance_bound(
                        graph.num_edges, graph.num_vertices, num_parts, alpha, beta
                    ),
                    "vertex_imbalance": vertex_imbalance_factor(result),
                    "vertex_bound": theorem2_vertex_imbalance_bound(
                        graph.num_vertices, covered, num_parts, alpha, beta
                    ),
                }
            )
    text = render_table(
        ["alpha", "beta", "edge imb", "T1 bound", "vert imb", "T2 bound"],
        [
            (
                r["alpha"],
                r["beta"],
                f"{r['edge_imbalance']:.3f}",
                f"{r['edge_bound']:.1f}",
                f"{r['vertex_imbalance']:.3f}",
                f"{r['vertex_bound']:.1f}",
            )
            for r in rows
        ],
        title=(
            f"Ablation A1 — measured imbalance vs Theorem 1/2 bounds "
            f"({graph_name}, p={num_parts})"
        ),
    )
    return rows, text


def run_alpha_beta_ablation(
    config: ExperimentConfig = None,
    graph_name: str = "twitter",
    num_parts: int = 16,
    weights: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> Tuple[List[dict], str]:
    """A2: the RF-vs-balance trade-off as α=β sweeps through ``weights``.

    Larger weights push EBV toward perfect balance at the cost of extra
    replicas; tiny weights recover an NE-like low-RF/imbalanced regime.
    """
    config = config or default_config()
    graph = config.graphs()[graph_name]
    rows: List[dict] = []
    for w in weights:
        result = EBVPartitioner(alpha=w, beta=w).partition(graph, num_parts)
        m = partition_metrics(result)
        rows.append(
            {
                "weight": w,
                "replication": m.replication,
                "edge_imbalance": m.edge_imbalance,
                "vertex_imbalance": m.vertex_imbalance,
            }
        )
    text = render_table(
        ["alpha=beta", "RF", "edge imb", "vert imb"],
        [
            (r["weight"], f"{r['replication']:.3f}", f"{r['edge_imbalance']:.3f}",
             f"{r['vertex_imbalance']:.3f}")
            for r in rows
        ],
        title=f"Ablation A2 — balance-weight sweep ({graph_name}, p={num_parts})",
    )
    return rows, text


def run_sort_order_ablation(
    config: ExperimentConfig = None,
    graph_name: str = "twitter",
    num_parts: int = 16,
    orders: Sequence[str] = SORT_ORDERS,
) -> Tuple[Dict[str, float], str]:
    """A3: replication factor under all four edge-processing orders."""
    config = config or default_config()
    graph = config.graphs()[graph_name]
    results: Dict[str, float] = {}
    for order in orders:
        result = EBVPartitioner(sort_order=order).partition(graph, num_parts)
        results[order] = replication_factor(result)
    text = render_table(
        ["Order", "Replication factor"],
        [(order, f"{rf:.3f}") for order, rf in results.items()],
        title=f"Ablation A3 — edge-processing order ({graph_name}, p={num_parts})",
    )
    return results, text
