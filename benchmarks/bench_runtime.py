#!/usr/bin/env python
"""Runtime-backend benchmark: the same BSP run on every backend.

Partitions each configured graph once, builds the distributed graph
once, then executes PageRank and Connected Components through the BSP
engine on every selected :mod:`repro.runtime` backend (default
``serial``, ``thread``, ``process``; add ``--backend socket`` for the
multi-node TCP backend on spawned localhost workers), timing real
wall-clock — best-of-N end-to-end plus the engine's
per-superstep-stage walls (compute vs. replica exchange).  Results are
written as ``BENCH_runtime.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py            # full suite
    PYTHONPATH=src python benchmarks/bench_runtime.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_runtime.py --check-speedup 1.5
    PYTHONPATH=src python benchmarks/bench_runtime.py --quick --trace \
        --check-overhead 5
    PYTHONPATH=src python benchmarks/bench_runtime.py --quick --trace \
        --backend socket                                 # localhost TCP

``--backend NAME`` (repeatable) replaces the default backend set;
``serial`` is always kept as the bit-identity/timing reference.  For
the ``socket`` backend with ``--trace`` the trace block additionally
reports the wire walls summed from the recorder's ``wire.*`` spans —
``wire_s.exchange`` (the coordinator's one exchange round trip per
superstep), ``wire_s.peer`` (the workers' peer-to-peer trade windows,
both phases, summed across workers) and ``wire_s.state`` (explicit
per-superstep state pulls, a cost only traced runs pay) — so trade time
is visible separately from the stage walls.

``--trace`` runs one extra best-of-N pass per (app, backend) with a
:class:`repro.obs.TraceRecorder` attached and adds a ``trace`` block to
each backend entry in ``BENCH_runtime.json``: the traced wall,
``trace_overhead`` (traced best / untraced best — the cost of enabling
tracing), and the load-balance figures computed from the recorded
per-worker spans (``straggler_ratio``, per-stage ``stage_imbalance``,
per-worker barrier seconds).  Plain and traced passes are interleaved
inside one loop so both see the same background load.
``--check-overhead PCT`` exits nonzero if the *aggregate* tracing
overhead — sum of traced bests over sum of untraced bests across all
entries, also written as ``trace_overhead_aggregate`` — exceeds ``PCT``
percent; single entries are millisecond-scale and individually too
noisy to gate on.

Since PR 7 both superstep stages run in the workers (the replica
exchange is no longer coordinator-serial), so the report breaks the
speedup down per stage: ``stage_speedup_vs_serial`` gives the compute
and exchange walls of each parallel backend against the serial
reference's same stage.

``--check-speedup X`` exits nonzero unless the ``process`` backend
beats ``serial`` by at least ``X``× end-to-end on PageRank for every
configuration *and* its exchange stage is no slower than serial's
(exchange-stage speedup ≥ 1.0 — the stage must actually scale, not
merely hide behind compute) — *when enough CPUs are visible to make
that physically possible*.  On a host where fewer than 2 CPUs are
schedulable (``cpus_available`` in the report), no parallel backend can
beat serial; the check then documents the limiting factor in
``speedup_notes`` instead of failing, so the report always states
exactly which stage (or machine limit) prevents the speedup.

The ISSUE-3 acceptance configuration is the full suite's
``powerlaw-200k-p4`` entry: PageRank on a 200k-vertex power-law graph
at p=4, target ≥1.5× real wall-clock over serial.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.apps import make_program  # noqa: E402
from repro.bsp import BSPEngine, build_distributed_graph  # noqa: E402
from repro.graph import generate_graph  # noqa: E402
from repro.obs import TraceRecorder, summarize_trace  # noqa: E402
from repro.partition import DBHPartitioner  # noqa: E402
from repro.pipeline import BACKENDS  # noqa: E402

#: (name, generator kwargs, num_parts).  DBH partitions everything: it
#: is fast and vectorized, so the BSP run timings dominate the setup.
FULL_CONFIGS = [
    ("powerlaw-200k-p4", dict(kind="powerlaw", vertices=200_000, seed=1), 4),
    ("powerlaw-100k-p8", dict(kind="powerlaw", vertices=100_000, seed=2), 8),
    ("rmat-65k-p4", dict(kind="rmat", vertices=65_000, edge_factor=8, seed=4), 4),
]

QUICK_CONFIGS = [
    ("powerlaw-5k-p2", dict(kind="powerlaw", vertices=5_000, seed=1), 2),
    ("powerlaw-5k-p4", dict(kind="powerlaw", vertices=5_000, seed=1), 4),
]

#: apps swept per configuration (registry spec strings).
APPS_UNDER_TEST = ("pagerank", "cc")

DEFAULT_BACKENDS = ("serial", "thread", "process")

#: every backend the harness can time (--backend choices).
KNOWN_BACKENDS = ("serial", "thread", "process", "socket")


def cpus_available() -> int:
    """Schedulable CPUs (affinity-aware where the platform supports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time_run(engine, dgraph, make_prog, repeats):
    """Best-of-``repeats`` wall-clock; returns (seconds, best run)."""
    best_s = float("inf")
    best_run = None
    for _ in range(repeats):
        program = make_prog()
        t0 = time.perf_counter()
        run = engine.run(dgraph, program)
        elapsed = time.perf_counter() - t0
        if elapsed < best_s:
            best_s = elapsed
            best_run = run
    return best_s, best_run


def _time_paired(backend_name, dgraph, make_prog, repeats):
    """Interleaved plain/traced best-of-``repeats``.

    Alternating the two variants inside one loop exposes both to the
    same background load, so the ``trace_overhead`` ratio measures the
    recorder, not whatever else the host was doing during one of two
    separated timing windows.  Returns ``(plain best seconds, its run,
    traced best seconds, the traced best's recorder)``.
    """
    best_plain, best_run = float("inf"), None
    best_traced, best_rec = float("inf"), None
    for _ in range(repeats):
        program = make_prog()
        engine = BSPEngine(backend=BACKENDS.create(backend_name))
        t0 = time.perf_counter()
        run = engine.run(dgraph, program)
        elapsed = time.perf_counter() - t0
        if elapsed < best_plain:
            best_plain, best_run = elapsed, run

        program = make_prog()
        rec = TraceRecorder(label=f"bench:{backend_name}")
        engine = BSPEngine(backend=BACKENDS.create(backend_name), recorder=rec)
        t0 = time.perf_counter()
        engine.run(dgraph, program)
        elapsed = time.perf_counter() - t0
        if elapsed < best_traced:
            best_traced, best_rec = elapsed, rec
    return best_plain, best_run, best_traced, best_rec


def _summarize_recorder(rec):
    """summarize_trace over in-memory spans (no file round-trip needed)."""
    origin = rec.origin_ns
    events = [
        {
            "name": s.name, "cat": s.cat, "worker": s.worker,
            "superstep": s.superstep,
            "ts_us": (s.t0_ns - origin) / 1000.0,
            "dur_us": (s.t1_ns - s.t0_ns) / 1000.0,
            "args": s.args or {},
        }
        for s in rec.spans()
    ]
    trace = {
        "format": "chrome",
        "meta": {"label": rec.label, "num_workers": rec.num_workers()},
        "events": events,
        "metrics": rec.metrics.snapshot(),
    }
    return summarize_trace(trace)


def _wire_walls(rec):
    """Sum the socket backend's ``wire.*`` span walls, in seconds.

    Groups by the span name's second token: ``exchange`` (the
    coordinator's round trip), ``peer`` (worker-side trade windows,
    summed across workers) and ``state`` (pull/push_state — the
    explicit per-superstep pulls only traced runs perform).  Returns
    ``{}`` for backends that never touch a wire.
    """
    walls = {}
    for span in rec.spans():
        if span.cat != "wire":
            continue
        kind = span.name.split(".")[1]
        if kind in ("pull_state", "push_state"):
            kind = "state"
        walls[kind] = walls.get(kind, 0.0) + (span.t1_ns - span.t0_ns) / 1e9
    return {k: walls[k] for k in sorted(walls)}


def run_config(name, gen_kwargs, p, repeats, pagerank_iters, backends,
               trace=False):
    graph = generate_graph(**gen_kwargs)
    result = DBHPartitioner().partition(graph, p)
    dgraph = build_distributed_graph(result)

    apps = {
        "pagerank": lambda: make_program("PR", graph, pagerank_iters=pagerank_iters),
        "cc": lambda: make_program("CC", graph),
    }

    record = {
        "config": name,
        "graph": {
            "kind": gen_kwargs["kind"],
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "partitioner": DBHPartitioner.name,
        "num_parts": p,
        "replication_factor": dgraph.replication_factor(),
        "apps": {},
    }

    for app in APPS_UNDER_TEST:
        per_backend = {}
        for backend_name in backends:
            if trace:
                total_s, run, traced_s, rec = _time_paired(
                    backend_name, dgraph, apps[app], repeats
                )
            else:
                engine = BSPEngine(backend=BACKENDS.create(backend_name))
                total_s, run = _time_run(engine, dgraph, apps[app], repeats)
            stages = run.real_stage_seconds()
            compute_s = stages.get("compute", 0.0)
            exchange_s = stages.get("exchange", 0.0)
            per_backend[backend_name] = {
                "total_s": total_s,
                "supersteps": run.num_supersteps,
                "stage_s": {
                    "compute": compute_s,
                    "exchange": exchange_s,
                    # pool/session startup, initial-value allocation and
                    # the final gather — everything outside supersteps.
                    "overhead": max(0.0, total_s - compute_s - exchange_s),
                },
                "per_superstep_s": {
                    "compute": compute_s / max(1, run.num_supersteps),
                    "exchange": exchange_s / max(1, run.num_supersteps),
                },
            }
            if trace:
                summary = _summarize_recorder(rec)
                per_backend[backend_name]["trace"] = {
                    "traced_total_s": traced_s,
                    # cost of enabling tracing: traced best / untraced best.
                    "trace_overhead": traced_s / total_s if total_s > 0 else 1.0,
                    "num_spans": len(rec),
                    "straggler_ratio": summary.straggler_ratio,
                    "stage_imbalance": summary.stage_imbalance,
                    "worker_barrier_s": summary.worker_barrier_seconds,
                    "worker_busy_s": summary.worker_busy_seconds(),
                }
                wire_s = _wire_walls(rec)
                if wire_s:  # socket backend: serialize/send breakdown
                    per_backend[backend_name]["trace"]["wire_s"] = wire_s
        serial_total = per_backend["serial"]["total_s"]
        serial_stages = per_backend["serial"]["stage_s"]
        for backend_name in backends:
            entry = per_backend[backend_name]
            entry["speedup_vs_serial"] = (
                serial_total / entry["total_s"] if entry["total_s"] > 0 else float("inf")
            )
            # Both stages run in the workers, so each scales (or fails
            # to) on its own — report them separately.
            entry["stage_speedup_vs_serial"] = {
                stage: (
                    serial_stages[stage] / entry["stage_s"][stage]
                    if entry["stage_s"][stage] > 0
                    else float("inf")
                )
                for stage in ("compute", "exchange")
            }
        record["apps"][app] = per_backend
    return record


def speedup_note(record, app, ncpus, required):
    """Explain why ``app`` missed ``required``× on the process backend."""
    entry = record["apps"][app]["process"]
    serial = record["apps"][app]["serial"]
    p = record["num_parts"]
    if ncpus < 2:
        return (
            f"{record['config']}/{app}: only {ncpus} CPU schedulable on this "
            f"host — neither worker-side stage (compute or exchange) can "
            f"outrun serial on one core (process backend "
            f"{entry['speedup_vs_serial']:.2f}x). Re-run on a >=2-core host "
            f"to measure real scaling."
        )
    # With real cores available, bound the achievable speedup by Amdahl.
    # Both stages run in the workers now, so the whole superstep divides
    # by min(p, ncpus); what stays serial is the process backend's own
    # overhead (pool startup, per-superstep pipe barriers, final gather).
    total = serial["total_s"]
    exchange = serial["stage_s"]["exchange"]
    compute = serial["stage_s"]["compute"]
    overhead = entry["stage_s"]["overhead"]
    parallel_wall = (compute + exchange) / min(p, ncpus)
    bound = total / (parallel_wall + overhead) if total > 0 else 1.0
    stage_speedups = entry["stage_speedup_vs_serial"]
    slowest_stage = min(("compute", "exchange"), key=lambda s: stage_speedups[s])
    limiter = (
        "session startup/teardown and barrier overhead"
        if overhead >= parallel_wall
        else f"the {slowest_stage} stage "
        f"({stage_speedups[slowest_stage]:.2f}x vs serial)"
    )
    return (
        f"{record['config']}/{app}: process backend reached "
        f"{entry['speedup_vs_serial']:.2f}x (< {required:.2f}x); limiting "
        f"factor is {limiter} (serial walls: compute {compute:.3f}s, "
        f"exchange {exchange:.3f}s; stage speedups: "
        f"compute {stage_speedups['compute']:.2f}x, "
        f"exchange {stage_speedups['exchange']:.2f}x; Amdahl bound at "
        f"p={p} on {ncpus} CPUs is {bound:.2f}x)."
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small graphs for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent / "out" / "BENCH_runtime.json",
        help="output JSON path (default: benchmarks/out/BENCH_runtime.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per (app, backend) pair (best-of)",
    )
    parser.add_argument(
        "--pagerank-iters", type=int, default=10,
        help="PageRank iterations for the BSP runs",
    )
    parser.add_argument(
        "--backend", action="append", dest="backends", choices=KNOWN_BACKENDS,
        metavar="NAME", default=None,
        help="backend to time (repeatable; choices: %(choices)s). Replaces "
        "the default set {serial,thread,process}; 'serial' is always kept "
        "as the reference. '--backend socket' times the multi-node TCP "
        "backend on spawned localhost workers.",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="run one extra traced best-of pass per (app, backend) and add "
        "trace overhead + load-balance stats (straggler ratio, per-stage "
        "imbalance, barrier seconds) to the report",
    )
    parser.add_argument(
        "--check-overhead", type=float, default=None, metavar="PCT",
        help="with --trace: exit 1 if the aggregate tracing overhead (sum of "
        "traced bests / sum of untraced bests across all entries) exceeds "
        "PCT percent",
    )
    parser.add_argument(
        "--check-speedup", type=float, default=None, metavar="X",
        help="exit 1 unless the process backend is >= X times faster than "
        "serial on PageRank for every config AND its exchange stage is no "
        "slower than serial's (skipped, with a documented note, when <2 "
        "CPUs are schedulable)",
    )
    args = parser.parse_args(argv)

    ncpus = cpus_available()
    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    if args.backends is None:
        backends = list(DEFAULT_BACKENDS)
    else:
        # serial stays in as the speedup reference; keep request order.
        backends = ["serial"] + [
            b for b in dict.fromkeys(args.backends) if b != "serial"
        ]
    records = []
    notes = []
    threshold = args.check_speedup if args.check_speedup is not None else 1.5
    for name, gen_kwargs, p in configs:
        rec = run_config(
            name, gen_kwargs, p, args.repeats, args.pagerank_iters, backends,
            trace=args.trace,
        )
        records.append(rec)
        for app in APPS_UNDER_TEST:
            row = rec["apps"][app]
            line = " ".join(
                f"{b}={row[b]['total_s']:.3f}s({row[b]['speedup_vs_serial']:.2f}x)"
                for b in backends
            )
            print(
                f"{name:20s} {app:8s} p={rec['num_parts']:<3d} "
                f"supersteps={row['serial']['supersteps']:<3d} {line}"
            )
            if args.trace:
                trace_line = " ".join(
                    f"{b}=+{100 * (row[b]['trace']['trace_overhead'] - 1):.1f}%"
                    for b in backends
                )
                parallel = [b for b in backends if b != "serial"]
                straggler = (
                    f"  straggler({parallel[-1]})="
                    f"{row[parallel[-1]]['trace']['straggler_ratio']:.3f}"
                    if parallel
                    else ""
                )
                print(f"{'':20s} {'':8s} trace overhead {trace_line}{straggler}")
                for b in parallel:
                    wire_s = row[b].get("trace", {}).get("wire_s")
                    if wire_s:
                        wire_line = " ".join(
                            f"{k}={v:.3f}s" for k, v in wire_s.items()
                        )
                        print(f"{'':20s} {'':8s} wire walls ({b}) {wire_line}")
            if (
                "process" in backends
                and row["process"]["speedup_vs_serial"] < threshold
            ):
                notes.append(speedup_note(rec, app, ncpus, threshold))

    payload = {
        "benchmark": "bench_runtime",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus_available": ncpus,
        "apps": list(APPS_UNDER_TEST),
        "backends": list(backends),
        "speedup_notes": notes,
        "results": records,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    for note in notes:
        print(f"note: {note}")

    if args.check_overhead is not None:
        if not args.trace:
            print("--check-overhead requires --trace", file=sys.stderr)
            return 1
        # Gate on the aggregate ratio — sum of traced bests over sum of
        # untraced bests across every (config, app, backend) entry.
        # Individual entries are millisecond-scale runs whose wall-clock
        # ratio swings +/-10% with host load even interleaved; the
        # aggregate pools ~12 entries (dominated by the longer process-
        # backend runs) and is what the <= N% acceptance actually means:
        # tracing must not make the benchmark suite materially slower.
        plain_total = sum(
            r["apps"][app][b]["total_s"]
            for r in records for app in APPS_UNDER_TEST for b in backends
        )
        traced_total = sum(
            r["apps"][app][b]["trace"]["traced_total_s"]
            for r in records for app in APPS_UNDER_TEST for b in backends
        )
        aggregate = traced_total / plain_total if plain_total > 0 else 1.0
        payload["trace_overhead_aggregate"] = aggregate
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        if aggregate > 1.0 + args.check_overhead / 100.0:
            print(
                f"FAIL: aggregate tracing overhead "
                f"+{100 * (aggregate - 1):.1f}% across "
                f"{len(records) * len(APPS_UNDER_TEST) * len(backends)} "
                f"entries (limit +{args.check_overhead:.1f}%)",
                file=sys.stderr,
            )
            return 1
        print(
            f"overhead check passed: aggregate +{100 * (aggregate - 1):.1f}% "
            f"(limit +{args.check_overhead:.1f}%)"
        )

    if args.check_speedup is not None:
        if "process" not in backends:
            print(
                "--check-speedup gates the process backend, which is not in "
                "the selected --backend set",
                file=sys.stderr,
            )
            return 1
        if ncpus < 2:
            print(
                f"speedup check skipped: {ncpus} CPU schedulable; see "
                f"speedup_notes in {args.out.name} for the documented limit"
            )
            return 0
        failures = []
        for r in records:
            entry = r["apps"]["pagerank"]["process"]
            if entry["speedup_vs_serial"] < args.check_speedup:
                failures.append(
                    f"FAIL: {r['config']} process backend only "
                    f"{entry['speedup_vs_serial']:.2f}x vs serial "
                    f"(required {args.check_speedup:.2f}x)"
                )
            # The exchange stage runs in the workers; on a multi-core
            # host it must at least keep pace with the serial exchange,
            # or the two-stage parallelism is not actually scaling.
            exchange_x = entry["stage_speedup_vs_serial"]["exchange"]
            if exchange_x < 1.0:
                failures.append(
                    f"FAIL: {r['config']} process-backend exchange stage "
                    f"only {exchange_x:.2f}x vs serial exchange "
                    f"(required >= 1.00x)"
                )
        if failures:
            for line in failures:
                print(line, file=sys.stderr)
            return 1
        print(
            f"speedup check passed (>= {args.check_speedup:.2f}x end-to-end "
            f"and exchange stage >= 1.00x everywhere)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
