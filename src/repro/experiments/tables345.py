"""Experiments T3, T4, T5 — partition metrics and message statistics.

Table III: edge/vertex imbalance factors and replication factor for the
six partition algorithms over the four graphs (12/12/32/32 subgraphs).
Table IV: total CC messages (tracking the replication factor).
Table V: per-worker max/mean message ratio (tracking the imbalance
factors).  One driver computes all three since they share the partition
and CC runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis import (
    MessageStats,
    message_stats,
    render_max_mean_table,
    render_message_table,
)
from ..apps import make_program
from ..bsp import BSPEngine, build_distributed_graph
from ..partition import PartitionMetrics, partition_metrics
from ..tables import render_table
from .config import ExperimentConfig, default_config

__all__ = ["run_tables345", "Table345Data"]


@dataclass
class Table345Data:
    """All three tables' raw rows, keyed by (graph, method)."""

    metrics: Dict[Tuple[str, str], PartitionMetrics]
    messages: Dict[Tuple[str, str], MessageStats]


def run_tables345(
    config: ExperimentConfig = None,
    app: str = "CC",
) -> Tuple[Table345Data, str, str, str]:
    """Partition every graph with every algorithm, run CC, tabulate.

    Returns ``(data, table3_text, table4_text, table5_text)``.
    """
    config = config or default_config()
    engine = BSPEngine(cost_model=config.cost_model)
    metrics: Dict[Tuple[str, str], PartitionMetrics] = {}
    messages: Dict[Tuple[str, str], MessageStats] = {}
    for graph_name, graph in config.graphs().items():
        p = config.table_workers[graph_name]
        for method, partitioner in config.partitioners().items():
            result = partitioner.partition(graph, p)
            m = partition_metrics(result)
            m.method = method
            metrics[(graph_name, method)] = m
            dgraph = build_distributed_graph(result)
            run = engine.run(dgraph, make_program(app, graph))
            run.partition_method = method
            messages[(graph_name, method)] = message_stats(
                run,
                replication_factor=m.replication,
                edge_imbalance=m.edge_imbalance,
                vertex_imbalance=m.vertex_imbalance,
            )

    table3_rows = [
        (
            g,
            method,
            f"{m.edge_imbalance:.2f}",
            f"{m.vertex_imbalance:.2f}",
            f"{m.replication:.2f}",
        )
        for (g, method), m in metrics.items()
    ]
    table3 = render_table(
        ["Graph", "Method", "EdgeImb", "VertImb", "RF"],
        table3_rows,
        title="Table III — partitioning metrics (12/12/32/32 subgraphs)",
    )
    stats = list(messages.values())
    table4 = render_message_table(
        stats, title=f"Table IV — total messages for {app}"
    )
    table5 = render_max_mean_table(
        stats, title=f"Table V — max/mean message ratio for {app}"
    )
    return Table345Data(metrics=metrics, messages=messages), table3, table4, table5
