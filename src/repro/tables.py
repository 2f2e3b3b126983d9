"""The one text-table renderer: CLI reports, ``repro trace`` summaries
and every experiment driver print through :func:`render_table`.

The paper's artifacts are tables and figures; since this reproduction is
terminal-first, figures are rendered as aligned text series (and the
benchmark harness prints them), so everything lands in one place:
stdout and the EXPERIMENTS.md transcript.  This module imports nothing
from ``repro``, so any layer may use it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

__all__ = ["render_table", "format_sci"]

Cell = Union[str, int, float]


def format_sci(x: float) -> str:
    """Format like the paper's Table IV: ``4.05 × 10^7`` → ``4.05e+07``."""
    return f"{x:.2e}"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned monospace table with a separator under headers."""
    str_rows: List[List[str]] = []
    for row in rows:
        out: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                out.append(float_fmt.format(cell))
            else:
                out.append(str(cell))
        str_rows.append(out)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
