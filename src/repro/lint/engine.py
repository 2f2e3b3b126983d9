"""The lint engine: file walk, every rule, inline suppression.

One :func:`run_lint` call scans a tree of Python files, runs every rule
in :data:`~repro.lint.rules.RULES` whose ``applies_to`` accepts the
file, applies inline suppressions, and returns a :class:`LintReport`
whose :attr:`~LintReport.exit_code` encodes the CI contract: ``0`` when
every finding is suppressed, ``1`` when anything surfaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .base import ModuleContext
from .findings import Finding
from .rules import RULES
from .suppress import collect_suppressions, is_suppressed

__all__ = ["LintReport", "run_lint", "iter_python_files", "default_root"]

#: directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", ".tmp", "node_modules"}


@dataclass
class LintReport:
    """Outcome of one lint run: surfaced and suppressed findings."""

    root: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rule_ids: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """1 when any finding surfaced, else 0."""
        return 1 if self.findings else 0


def default_root() -> Path:
    """The repro package directory — what ``repro lint`` scans by default."""
    return Path(__file__).resolve().parent.parent


def iter_python_files(root: Path) -> List[Path]:
    """Every ``.py`` under ``root`` (or ``root`` itself), sorted for stable output."""
    root = Path(root)
    if root.is_file():
        return [root]
    files: List[Path] = []
    for path in sorted(root.rglob("*.py")):
        if not any(part in _SKIP_DIRS for part in path.parts):
            files.append(path)
    return files


def run_lint(root: Optional[Path] = None) -> LintReport:
    """Lint every Python file under ``root``; see module docstring."""
    root = Path(root) if root is not None else default_root()
    rules = [rule_cls() for rule_cls in RULES]
    report = LintReport(root=str(root), rule_ids=sorted(rule.id for rule in rules))

    scan_base = root if root.is_dir() else root.parent
    for path in iter_python_files(root):
        rel = path.relative_to(scan_base).as_posix()
        report.files_scanned += 1
        try:
            ctx = ModuleContext.parse(path, rel)
        except SyntaxError as exc:
            report.findings.append(
                Finding(
                    rule="parse-error",
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue

        suppressions = collect_suppressions(ctx.lines)
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if is_suppressed(finding, suppressions):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
