"""Message statistics: the platform-independent metrics of Tables IV & V.

The paper's key methodological move is using the *number of
communication messages* as a platform-independent proxy for both total
communication volume (Table IV, which tracks the replication factor)
and workload imbalance (Table V's max/mean ratio, which tracks the
edge/vertex imbalance factors).  This module extracts both from
:class:`~repro.bsp.BSPRun` records and renders the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..bsp import BSPRun
from ..tables import format_sci, render_table

__all__ = [
    "MessageStats",
    "message_stats",
    "render_message_table",
    "render_max_mean_table",
]


@dataclass
class MessageStats:
    """Message-level summary of one run (one Table IV/V cell pair)."""

    method: str
    graph: str
    total_messages: int
    max_mean_ratio: float
    replication_factor: Optional[float] = None
    edge_imbalance: Optional[float] = None
    vertex_imbalance: Optional[float] = None


def message_stats(
    run: BSPRun,
    replication_factor: Optional[float] = None,
    edge_imbalance: Optional[float] = None,
    vertex_imbalance: Optional[float] = None,
) -> MessageStats:
    """Build a :class:`MessageStats`, optionally annotated with Table III metrics."""
    return MessageStats(
        method=run.partition_method,
        graph=run.graph_name,
        total_messages=run.total_messages,
        max_mean_ratio=run.message_max_mean_ratio,
        replication_factor=replication_factor,
        edge_imbalance=edge_imbalance,
        vertex_imbalance=vertex_imbalance,
    )


def render_message_table(stats: Sequence[MessageStats], title: str = "") -> str:
    """Table IV: totals with the replication factor in parentheses."""
    rows = []
    for s in stats:
        total = format_sci(float(s.total_messages))
        if s.replication_factor is not None:
            total = f"{total} ({s.replication_factor:.2f})"
        rows.append((s.graph, s.method, total))
    return render_table(["Graph", "Method", "Total messages (RF)"], rows, title=title)


def render_max_mean_table(stats: Sequence[MessageStats], title: str = "") -> str:
    """Table V: max/mean ratios with imbalance factors in parentheses."""
    rows = []
    for s in stats:
        cell = f"{s.max_mean_ratio:.3f}"
        if s.edge_imbalance is not None and s.vertex_imbalance is not None:
            cell = f"{cell} ({s.edge_imbalance:.2f}/{s.vertex_imbalance:.2f})"
        rows.append((s.graph, s.method, cell))
    return render_table(
        ["Graph", "Method", "max/mean (edge-imb/vert-imb)"], rows, title=title
    )
