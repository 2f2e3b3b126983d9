"""Text and JSON renderings of a :class:`~repro.lint.engine.LintReport`.

The text reporter is for humans at a terminal; the JSON reporter is the
machine contract CI archives as an artifact (stable keys, sorted
findings, schema version).
"""

from __future__ import annotations

import json

from .engine import LintReport

__all__ = ["render_text", "render_json", "JSON_REPORT_VERSION"]

JSON_REPORT_VERSION = 2


def render_text(report: LintReport) -> str:
    """Human-readable report: one finding per line, then a summary."""
    lines = [f.render() for f in report.findings]
    lines.append(
        f"{len(report.findings)} finding(s) ({len(report.suppressed)} suppressed) "
        f"in {report.files_scanned} file(s)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact), stable across runs."""
    payload = {
        "version": JSON_REPORT_VERSION,
        "root": report.root,
        "rules": report.rule_ids,
        "files_scanned": report.files_scanned,
        "exit_code": report.exit_code,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [f.to_dict() for f in report.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
