"""Superstep breakdown analysis: Table II and the Figure 4 timeline.

Section V-B instruments CC with 4 workers on LiveJournal and reports,
per partition algorithm: ``comp`` (average per-worker computation time),
``comm`` (average communication time), ``ΔC`` (accumulated max−min
busy-time spread, i.e. synchronization waiting), and total execution
time.  :class:`BreakdownRow` extracts exactly those quantities from a
:class:`~repro.bsp.BSPRun`; :func:`render_timeline` draws the Figure 4
per-worker Gantt chart as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..bsp import BSPRun
from ..tables import render_table

__all__ = ["BreakdownRow", "breakdown_row", "render_breakdown_table", "render_timeline"]


@dataclass
class BreakdownRow:
    """One Table II row (seconds are simulated; see the cost model)."""

    method: str
    comp: float
    comm: float
    delta_c: float
    execution_time: float


def breakdown_row(run: BSPRun) -> BreakdownRow:
    """Extract the Table II quantities from a finished run."""
    return BreakdownRow(
        method=run.partition_method,
        comp=run.comp,
        comm=run.comm,
        delta_c=run.delta_c,
        execution_time=run.execution_time,
    )


def render_breakdown_table(rows: Sequence[BreakdownRow], title: str = "") -> str:
    """Render rows in the Table II layout."""
    return render_table(
        ["Method", "comp", "comm", "dC", "Execution time"],
        [(r.method, r.comp, r.comm, r.delta_c, r.execution_time) for r in rows],
        title=title,
        float_fmt="{:.4f}",
    )


def render_timeline(run: BSPRun, width: int = 72) -> str:
    """Figure 4 as text: one lane per worker, supersteps left to right.

    Each worker's lane shows computation (``#``), communication (``%``)
    and synchronization waiting (``.``) in proportion to modeled time.
    """
    timelines = run.worker_timeline()
    total = run.execution_time
    if total <= 0:
        return f"{run.partition_method}: empty run"
    lines: List[str] = [
        f"{run.partition_method} — {run.program} on {run.graph_name} "
        f"({run.num_workers} workers, {run.num_supersteps} supersteps; "
        f"#=comp %=comm .=sync)"
    ]
    for worker, lanes in enumerate(timelines):
        cells: List[str] = []
        for comp, comm, sync in lanes:
            for amount, glyph in ((comp, "#"), (comm, "%"), (sync, ".")):
                n = int(round(width * amount / total))
                cells.append(glyph * n)
        lane = "".join(cells)[:width]
        lines.append(f"  worker {worker}: {lane.ljust(width)}|")
    return "\n".join(lines)
