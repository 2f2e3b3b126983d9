"""Rule interface: what a lint rule sees and how it reports.

A rule sees one :class:`ModuleContext` per file — the parsed AST plus
the raw source — and yields :class:`~repro.lint.findings.Finding`
records.  Adding a rule: subclass :class:`LintRule`, set ``id``
(optionally override ``applies_to`` to scope it by path), and append
the class to :data:`repro.lint.rules.RULES`.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List

from .findings import Finding

__all__ = ["ModuleContext", "LintRule"]


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    #: POSIX path relative to the lint root (``"apps/cc.py"``) — rule
    #: scoping and finding paths both key on this.
    rel: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, rel: str) -> "ModuleContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, rel=rel, source=source, tree=tree, lines=source.splitlines())


class LintRule(abc.ABC):
    """One domain invariant, checked per module."""

    #: unique rule id — the ``[rule-id]`` in suppression comments and
    #: the ``rule`` field of findings.
    id: str = "?"

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on ``ctx`` (default: every module)."""
        return True

    @abc.abstractmethod
    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Yield findings for one module."""

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``."""
        return Finding(
            rule=self.id,
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
