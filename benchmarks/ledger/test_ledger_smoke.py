"""Tier-1 smoke test of the perf ledger: ``run.py --quick`` end to end.

Checks that BENCHMARK.json and the benchmark's output stay in step —
every declared workload and metric appears, named and with its unit —
that every run verified and left nothing behind, and that the emitted
traces are well-formed.  Timings are not asserted.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from repro.obs import validate_chrome_trace

LEDGER_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((LEDGER_DIR.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_stays_within_the_declared_limits():
    groups = {key: BENCHMARK[key] for key in ("workloads", "end_to_end", "per_layer")}
    assert 2 <= len(groups["workloads"]) <= 8
    assert 1 <= len(groups["end_to_end"]) <= 16
    assert 1 <= len(groups["per_layer"]) <= 128
    names = [entry["name"] for entries in groups.values() for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in groups["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in groups["end_to_end"])


def test_quick_ledger_reports_every_declared_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--quick", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ledger = json.loads(next(tmp_path.glob("ledger-seed*-quick.json")).read_text(encoding="utf-8"))
    printed = proc.stdout
    for workload in BENCHMARK["workloads"]:
        record = ledger["workloads"][workload["name"]]
        assert record["why"] == workload["why"]
        assert record["failed_share"] == 0, record["problems"]
        assert set(record["size"]) == {"vertices", "edges", "parts"}
        assert f"== {workload['name']} " in printed
        for group in ("end_to_end", "per_layer"):
            assert list(record[group]) == [m["name"] for m in BENCHMARK[group]]
            for declared in BENCHMARK[group]:
                metric = record[group][declared["name"]]
                assert metric["unit"] == declared["unit"]
                assert isinstance(metric["value"], (int, float))
                assert re.search(
                    rf"^ +{re.escape(declared['name'])} +\S+ {re.escape(declared['unit'])}(?:\s|$)",
                    printed, re.MULTILINE,
                ), declared["name"]
        assert all(record["end_to_end"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])
        assert record["per_layer"]["bench.leaked_resources"]["value"] == 0
        stats = validate_chrome_trace(str(tmp_path / f"trace-{workload['name']}.json"))
        assert stats["num_events"] > 0
    # Inputs are scratch: nothing but the ledger and the traces stays behind.
    assert not list(tmp_path.glob("work-*"))
