"""The :class:`Finding` record every lint rule produces.

A finding pins a rule violation to a file and line with a
human-actionable message.  Any finding that no inline suppression
covers fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        The producing rule's id (``"determinism"``, ...).
    path:
        POSIX-style path relative to the lint root (``"apps/cc.py"``).
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        What is wrong, naming the construct rather than its position.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: rule: message`` — the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
