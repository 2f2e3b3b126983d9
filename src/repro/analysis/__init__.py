"""Analysis and reporting: breakdowns, message statistics, text tables."""

from .communication import (
    per_worker_sync_messages,
    quotient_graph,
    replica_sync_volume,
)
from .breakdown import (
    BreakdownRow,
    breakdown_row,
    render_breakdown_table,
    render_timeline,
)
from .messages import (
    MessageStats,
    message_stats,
    render_max_mean_table,
    render_message_table,
)
from .tables import format_sci, render_table

__all__ = [
    "per_worker_sync_messages",
    "quotient_graph",
    "replica_sync_volume",
    "BreakdownRow",
    "breakdown_row",
    "render_breakdown_table",
    "render_timeline",
    "MessageStats",
    "message_stats",
    "render_max_mean_table",
    "render_message_table",
    "format_sci",
    "render_table",
]
