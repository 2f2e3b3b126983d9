#!/usr/bin/env python3
"""Compare two ledger results: ``compare.py A.json B.json`` (A = before).

Prints, per workload and end-to-end metric, each side's median with its
quartiles, the change from A to B, the regression bound BENCHMARK.json
fixes for that metric, and a verdict:

* ``worse``/``better`` — B's median moved past the bound;
* ``same`` — it did not;
* ``unresolved`` — either side's own run-to-run spread (q3 - q1 over the
  median) is wider than the bound, or either side was measured on fewer
  than 2 CPUs, so the two cannot be told apart.

Exits nonzero on any ``worse`` or on a higher ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def _spread(metric: Dict[str, Any]) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0  # a single sample or a deterministic count
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def _cell(metric: Dict[str, Any]) -> str:
    text = f"{metric['value']:.6g}"
    if "q1" in metric:
        text += f" [{metric['q1']:.4g}, {metric['q3']:.4g}]"
    return text


def verdict(a: Dict[str, Any], b: Dict[str, Any], declared: Dict[str, Any], resolved: bool) -> Tuple[float, str]:
    """Relative change (positive = worse) and its verdict."""
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if declared["better"] == "higher":
        change = -change
    bound = declared["bound"]
    if not resolved or max(_spread(a), _spread(b)) > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "same"


def compare(before: Dict[str, Any], after: Dict[str, Any]) -> Tuple[List[List[str]], bool]:
    """Table rows and whether anything got worse."""
    resolved = before["resolved"] and after["resolved"]
    rows: List[List[str]] = []
    regressed = False
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        a, b = before["workloads"].get(workload), after["workloads"].get(workload)
        if not a or not b:
            continue
        for declared in BENCHMARK["end_to_end"]:
            name = declared["name"]
            if name not in a.get("end_to_end", {}) or name not in b.get("end_to_end", {}):
                rows.append([workload, name, "-", "-", "-", "-", "missing"])
                continue
            ma, mb = a["end_to_end"][name], b["end_to_end"][name]
            change, word = verdict(ma, mb, declared, resolved)
            regressed |= word == "worse"
            rows.append([
                workload, f"{name} ({ma['unit']})", _cell(ma), _cell(mb),
                f"{100 * change:+.2f}%", f"{100 * declared['bound']:g}%", word,
            ])
        word = "worse" if b["failed_share"] > a["failed_share"] else "same"
        regressed |= word == "worse"
        rows.append([workload, "failed_share", f"{a['failed_share']:g}",
                     f"{b['failed_share']:g}", "", "0%", word])
    return rows, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows, regressed = compare(before, after)
    header = ["workload", "metric", f"A seed={before['seed']}", f"B seed={after['seed']}",
              "change (+ = worse)", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for side, ledger in (("A", before), ("B", after)):
        if not ledger["resolved"]:
            print(f"{side} was measured on {ledger['stamp']['cpus']} CPU: every verdict is unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
