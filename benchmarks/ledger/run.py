#!/usr/bin/env python3
"""The perf ledger: one command, five workloads, every metric by name.

    python3 benchmarks/ledger/run.py --seed S              # the whole ledger
    python3 benchmarks/ledger/run.py --quick               # smoke, < 20 s
    python3 benchmarks/ledger/run.py --workload W --seed S --seconds N --trace 0|1

The last form is the one BENCHMARK.json's ``command`` names: it measures
one workload and prints, as its last line, one JSON object with
``correct``/``attempted``/``failed``/``metrics`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A closed loop of one client: one batch job at a time, each in a fresh
process (``workloads.py``), round-robin across the selected workloads —
one discarded warm-up round, then measured rounds until ``--seconds`` per
workload have passed (at least three) or ``--repeats`` are done; the
inputs are generated once more before each, which gives ``setup_s`` its
samples.  Every run is verified; end-to-end numbers are medians of the
untraced runs, per-layer numbers come from one extra traced run.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional

import workloads  # also puts the repository's src/ on sys.path
from workloads import LEDGER_DIR, REPO_ROOT, WORKLOADS

import numpy as np

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

DEFAULT_SEED = 20210707
#: never used while tuning; the acceptance run measures it as well.
HOLDOUT_SEED = 77001
MIN_ROUNDS = 3
RUN_TIMEOUT_S = 150
ORPHAN_GRACE_S = 2.0

#: end-to-end metrics that are deterministic for a given input.
QUALITY = (
    "replication_factor", "edge_imbalance", "vertex_imbalance",
    "messages_total", "message_max_mean_ratio",
)


def stamp() -> Dict[str, Any]:
    """Where and on what this result was measured."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # e.g. an exported checkout without .git
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg()[0],
    }


def summary(samples: List[float]) -> Dict[str, Any]:
    """Median first; quartiles and extremes so a reader can judge the spread."""
    out: Dict[str, Any] = {"value": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3, min=min(samples), max=max(samples))
    return out


# ----------------------------------------------------------------------
# What a run may not leave behind
# ----------------------------------------------------------------------


def _listening_sockets() -> set:
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, "r", encoding="ascii") as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A":  # TCP_LISTEN
                listening.add((table, fields[1]))
    return listening


def _shm_blocks() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _session_members(sid: int) -> List[int]:
    """Live processes of session ``sid`` (each run is its own session)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as fh:
                # "pid (comm) state ppid pgrp session ..."; comm may hold spaces.
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we were looking
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


# ----------------------------------------------------------------------
# One workload being measured
# ----------------------------------------------------------------------


class Session:
    def __init__(self, name: str, seed: int, quick: bool, out_dir: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.vertices = workloads.QUICK_VERTICES if quick else self.wl.vertices
        self.workdir = out_dir / f"work-{name}-{os.getpid()}"
        self.trace_path = out_dir / f"trace-{name}.json"
        self.setup_samples: List[float] = []
        self.measured: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.leaked = 0
        self.problems: List[str] = []

    def setup(self) -> None:
        """Generate the inputs and the reference answers."""
        self.workdir.mkdir(parents=True)
        graph = self._generate(self.workdir)
        workloads.write_reference(self.wl, graph, self.workdir)

    def setup_again(self) -> None:
        """One more sample of ``setup_s``: the same generation, thrown away.

        Taken before every measured round, so that the samples spread
        over the whole run as the ``e2e_s`` samples do and one slow
        moment of the host cannot own the median.
        """
        scratch = self.workdir / "setup-again"
        scratch.mkdir()
        self._generate(scratch)
        shutil.rmtree(scratch)

    def _generate(self, directory: Path):
        t0 = perf_counter()
        graph = workloads.setup(self.wl, self.seed, self.vertices, directory)
        self.setup_samples.append(perf_counter() - t0)
        return graph

    def run(self, label: str, measured: bool = False, traced: bool = False) -> None:
        """One job in a fresh process, then its verification and leak check."""
        run_dir = self.workdir / "runs" / label
        tmp_dir = run_dir / "tmp"
        tmp_dir.mkdir(parents=True)
        result_path = run_dir / "result.json"
        job = {
            "workload": self.wl.name, "run_id": f"{self.wl.name}#{label}",
            "workdir": str(self.workdir), "traced": traced,
            "trace_path": str(self.trace_path), "result_path": str(result_path),
        }
        (run_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        shm_before, sockets_before = _shm_blocks(), _listening_sockets()
        # Its own session, so that whatever it starts can be found again;
        # its own TMPDIR, so that the program's temp files stay in the checkout.
        proc = subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "workloads.py"), str(run_dir / "job.json")],
            env=dict(os.environ, TMPDIR=str(tmp_dir)),
            stdout=sys.stderr, start_new_session=True,
        )
        problems: List[str] = []
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
            if code != 0:
                problems.append(f"exit code {code}")
        except subprocess.TimeoutExpired:
            problems.append(f"no result within {RUN_TIMEOUT_S} s")
            proc.kill()
            proc.wait()

        orphans = _session_members(proc.pid)
        # multiprocessing's resource tracker outlives its parent by the
        # moment it takes to see the pipe close; that is not a leak.
        grace_ends = perf_counter() + ORPHAN_GRACE_S
        while orphans and perf_counter() < grace_ends:
            sleep(0.02)
            orphans = _session_members(proc.pid)
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        leaks = [f"process {pid}" for pid in orphans]
        leaks += [f"/dev/shm/{name}" for name in sorted(_shm_blocks() - shm_before)]
        leaks += [f"listening {addr}" for _, addr in sorted(_listening_sockets() - sockets_before)]
        leaks += [f"temp {entry.name}" for entry in tmp_dir.iterdir()]
        self.leaked += len(leaks)
        problems += [f"left behind: {leak}" for leak in leaks]

        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            problems += result["failures"]
            if self.measured and result["quality"] != self.measured[0]["quality"]:
                problems.append("deterministic results differ from the first measured run")
        elif not problems:
            problems.append("no result file")

        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{job['run_id']}: {p}" for p in problems]
            print(f"FAILED {job['run_id']}: " + "; ".join(problems), file=sys.stderr)
        elif traced:
            self.traced = result
        elif measured:
            self.measured.append(result)

    # ------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        metrics = {
            "setup_s": summary(self.setup_samples),
            "e2e_s": summary([r["e2e_s"] for r in self.measured]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in self.measured]),
        }
        for name in QUALITY:
            metrics[name] = {"value": self.measured[0]["quality"][name], "n": len(self.measured)}
        return _with_units(metrics, END_TO_END)

    def per_layer(self) -> Dict[str, Dict[str, Any]]:
        e2e = summary([r["e2e_s"] for r in self.measured])
        layers = dict.fromkeys(PER_LAYER, 0.0)  # a layer the workload bypasses reads 0
        layers.update(self.traced["layers"])
        layers.update({
            "bsp.supersteps": self.traced["quality"]["supersteps"],
            # What the front door spends outside the layers it calls.
            "pipeline.self_s": e2e["value"] - self.traced["top_level_s"],
            "bench.trace_overhead_pct": 100.0 * (self.traced["e2e_s"] / e2e["value"] - 1.0),
            "bench.e2e_iqr_pct": 100.0 * (e2e["q3"] - e2e["q1"]) / e2e["value"] if "q1" in e2e else 0.0,
            "bench.leaked_resources": self.leaked,
        })
        return _with_units({name: {"value": value} for name, value in layers.items()}, PER_LAYER)

    def record(self, want_layers: bool) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "why": next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == self.wl.name),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / self.attempted,
            "problems": self.problems,
        }
        if self.measured:
            record["size"] = self.measured[0]["size"]
            record["end_to_end"] = self.end_to_end()
            if want_layers and self.traced:
                record["per_layer"] = self.per_layer()
        return record


def _with_units(metrics: Dict[str, Dict[str, Any]], declared: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    if set(metrics) != set(declared):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}"
        )
    return {name: {**metrics[name], "unit": declared[name]["unit"]} for name in declared}


# ----------------------------------------------------------------------


def _print_record(name: str, record: Dict[str, Any]) -> None:
    size = record.get("size", {})
    print(f"\n== {name}  |V|={size.get('vertices')} |E|={size.get('edges')} p={size.get('parts')}"
          f"  runs={record['attempted']} failed_share={record['failed_share']:g}")
    print(f"   {record['why']}")
    for group in ("end_to_end", "per_layer"):
        for metric, m in record.get(group, {}).items():
            spread = (
                f"  q1={m['q1']:.6g} q3={m['q3']:.6g} min={m['min']:.6g} max={m['max']:.6g} n={m['n']}"
                if "q1" in m else ""
            )
            print(f"   {metric:<34}{m['value']:>16.6g} {m['unit']:<6}{spread}")


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="measure one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="measured time per workload")
    parser.add_argument("--repeats", type=int, help="measured rounds, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: add the traced run (default)")
    parser.add_argument("--quick", action="store_true",
                        help=f"{workloads.QUICK_VERTICES}-vertex inputs, one repeat, no warm-up")
    parser.add_argument("--out-dir", type=Path, default=LEDGER_DIR / "out",
                        help="receives ledger-seed<S>.json, trace-<workload>.json and, "
                             "while running, the inputs (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    out_dir = args.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    hygiene = stamp()
    selected = [args.workload] if args.workload else names
    sessions = [Session(name, args.seed, args.quick, out_dir) for name in selected]
    repeats = 1 if args.quick and args.repeats is None else args.repeats
    want_layers = args.trace != 0
    try:
        for s in sessions:
            s.setup()
        if not args.quick:
            for s in sessions:
                s.run("warmup")
        started, rounds = perf_counter(), 0
        while True:
            for s in sessions:
                if not args.quick:
                    s.setup_again()
                s.run(f"r{rounds}", measured=True)
            rounds += 1
            if repeats is not None:
                if rounds >= repeats:
                    break
            elif rounds >= MIN_ROUNDS and perf_counter() - started >= args.seconds * len(sessions):
                break
        if want_layers:
            for s in sessions:
                s.run("traced", traced=True)
        records = {s.wl.name: s.record(want_layers) for s in sessions}
    finally:
        for s in sessions:
            shutil.rmtree(s.workdir, ignore_errors=True)

    ledger = {
        "benchmark": "ledger",
        "seed": args.seed,
        "quick": args.quick,
        "stamp": hygiene,
        # On one CPU the process and socket workloads measure time slicing.
        "resolved": hygiene["cpus"] >= 2,
        "workloads": records,
    }
    suffix = "-quick" if args.quick else ""
    out_path = out_dir / f"ledger-seed{args.seed}{suffix}.json"
    out_path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")

    print(f"ledger seed={args.seed} " + " ".join(f"{k}={v}" for k, v in hygiene.items())
          + ("" if ledger["resolved"] else "  UNRESOLVED: fewer than 2 CPUs"))
    for name, record in records.items():
        _print_record(name, record)
    print(f"\nwrote {out_path}")

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    if args.workload and args.trace is not None:
        # The driver's contract: one workload, one metric group, last line.
        group = records[args.workload].get("per_layer" if args.trace else "end_to_end", {})
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in group.items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
