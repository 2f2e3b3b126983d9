"""Tiny helpers shared by the lint test modules."""

import dataclasses


def rule_ids(report):
    return [f.rule for f in report.findings]


def only(report, rules):
    """``report`` narrowed to the findings of ``rules`` (every rule ran)."""
    keep = set(rules)
    return dataclasses.replace(
        report,
        findings=[f for f in report.findings if f.rule in keep],
        suppressed=[f for f in report.suppressed if f.rule in keep],
    )
