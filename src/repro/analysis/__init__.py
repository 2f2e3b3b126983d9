"""Analysis and reporting: Table II breakdowns and message statistics."""

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

__all__ = [
    "BreakdownRow",
    "breakdown_row",
    "render_breakdown_table",
    "render_timeline",
    "MessageStats",
    "message_stats",
    "render_max_mean_table",
    "render_message_table",
]
