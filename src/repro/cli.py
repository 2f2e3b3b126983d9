"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``         write a synthetic graph to an edge-list file
``stats``            print the Table I statistics row for an edge list
``partition``        partition an edge list and print Section III-C metrics
``stream-partition`` partition an on-disk edge stream *out of core*
``run``              execute any registered app on a partitioned graph
``pipeline``         execute a full JSON pipeline spec (see below)
``resume``           continue a crashed checkpointed pipeline run
``experiment``       regenerate one of the paper's tables/figures
``trace``            summarize a recorded execution trace (per-worker /
                     per-stage walls, straggler and imbalance ratios)
``lint``             run the domain-aware static-analysis pass (exit 1
                     on any finding; see :mod:`repro.lint`)

``stream-partition`` never loads the whole graph: the file is read in
chunks, assignments stream to per-partition shard files in a spill
directory (see :mod:`repro.stream`), and peak memory stays
O(chunk + partitioner state) no matter how large the input is::

    python -m repro stream-partition huge.txt --parts 16 \
        --method "ebv-stream?chunk_size=4096" --spill-dir huge.spill

Every command prints human-readable text to stdout; ``partition`` can
additionally persist the per-edge assignment, and ``pipeline --json``
emits the machine-readable :class:`~repro.pipeline.PipelineResult`.

Component lookups all go through :mod:`repro.pipeline.registries`, so
the ``--method``/``--app``/``experiment`` choices can never drift from
the implementations that actually exist.  Methods and apps accept full
spec strings with constructor kwargs, e.g.::

    python -m repro partition graph.txt --method "ebv?alpha=2,sort_order=input"
    python -m repro run graph.txt --app "pr?pagerank_iters=10"

``run`` executes on a :mod:`repro.runtime` backend selected with
``--backend`` (``serial``, ``thread``, or ``process`` — a persistent
worker pool over shared memory); results are identical on every
backend, only real wall-clock changes::

    python -m repro run graph.txt --app pagerank --backend process

Tracing
-------
``run --trace out.trace.json`` (and a pipeline spec's ``"trace"``
entry) records a structured execution trace: per-worker compute /
exchange / barrier spans, coordinator stage spans and a metrics
snapshot (see :mod:`repro.obs`).  A ``.jsonl`` path writes
line-delimited JSON; any other path writes Chrome trace-event JSON —
load it at https://ui.perfetto.dev for the per-worker timeline.
``repro trace out.trace.json`` prints the per-worker/per-stage summary
with straggler and imbalance ratios.  Tracing never changes results::

    python -m repro run graph.txt --app pagerank --backend process \
        --trace out.trace.json
    python -m repro trace out.trace.json

Pipeline specs
--------------
``python -m repro pipeline spec.json`` executes one serialized run —
generate/load, partition, optionally refine, execute, report.  A spec is
a single JSON object::

    {
      "source": "powerlaw?vertices=10000,eta=2.2",
      "partition": "ebv?alpha=1.0",
      "parts": 8,
      "refine": true,
      "app": "pagerank",
      "backend": "process",
      "cost_model": {"seconds_per_message": 2e-7}
    }

``source`` may also be ``"file?path=graph.txt"``.  The same document
round-trips through :class:`repro.pipeline.PipelineSpec` and the fluent
:class:`repro.pipeline.Pipeline` builder.

Checkpoint/restart
------------------
A spec with a ``checkpoint`` entry snapshots the BSP run every
``every`` supersteps (atomic, checksummed — see :mod:`repro.checkpoint`)
and drops its own serialized spec next to the snapshots; after a crash
(power loss, OOM kill, a SIGKILL'd worker) the run continues from the
newest snapshot, bit-identical to an uninterrupted execution::

    {"source": "...", "app": "pagerank", "backend": "process",
     "checkpoint": {"dir": "ckpt/", "every": 2}}

    python -m repro pipeline spec.json      # crashes at superstep 17
    python -m repro resume ckpt/            # finishes the same run
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .analysis import breakdown_row, render_table
from .apps import default_source
from .checkpoint import CheckpointError
from .experiments import default_config
from .graph import generate_graph, graph_stats, read_edge_list, write_edge_list
from .partition import save_partition
from .pipeline import (
    Pipeline,
    PipelineSpec,
    RegistryError,
    SpecError,
    parse_spec,
    resume_pipeline,
    run_spec,
)
from .pipeline import registries

__all__ = ["main", "build_parser"]


def _registry_arg(registry):
    """argparse ``type`` validating a component spec against a registry.

    Accepts full spec strings (``"ebv?alpha=2"``); rejects unknown names
    at parse time with the registry's self-documenting message.
    """

    def validate(value: str) -> str:
        try:
            name, _ = parse_spec(value)
            registry.canonical(name)
        except RegistryError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    validate.__name__ = f"{registry.kind}-spec"
    return validate


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="EBV graph partitioning reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generator_kinds = tuple(
        k for k in registries.GENERATORS.names() if k != "file"
    )
    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("output", help="edge-list file to write")
    gen.add_argument("--kind", choices=generator_kinds, default="powerlaw")
    gen.add_argument("--vertices", type=int, default=10_000)
    gen.add_argument("--eta", type=float, default=2.2)
    gen.add_argument("--min-degree", type=int, default=3)
    gen.add_argument("--directed", action="store_true")
    gen.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats", help="print Table I statistics")
    stats.add_argument("input", help="edge-list file")

    method_help = (
        "partitioner spec (name plus optional kwargs, e.g. 'ebv?alpha=2'); "
        f"available: {', '.join(registries.PARTITIONERS.names())}"
    )
    part = sub.add_parser("partition", help="partition a graph")
    part.add_argument("input", help="edge-list file")
    part.add_argument(
        "--method",
        type=_registry_arg(registries.PARTITIONERS),
        default="ebv",
        help=method_help,
    )
    part.add_argument("--parts", type=int, default=8)
    part.add_argument("--refine", action="store_true", help="apply the post-pass")
    part.add_argument("--output", help="write per-edge part ids here")

    sp = sub.add_parser(
        "stream-partition",
        help="partition an on-disk edge stream out of core (O(chunk) memory)",
    )
    sp.add_argument("input", help="edge-list text file or (m, 2) .npy edge array")
    sp.add_argument(
        "--format",
        choices=("auto",) + registries.STREAMS.names(),
        default="auto",
        help="stream reader (auto: .npy extension selects npy, else edgelist)",
    )
    sp.add_argument(
        "--method",
        type=_registry_arg(registries.PARTITIONERS),
        default="ebv-stream",
        help=(
            "streaming-capable partitioner spec (e.g. "
            "'ebv-stream?chunk_size=4096', 'ebv-sharded?sort_edges=false'); "
            f"available: {', '.join(registries.PARTITIONERS.names())}"
        ),
    )
    sp.add_argument("--parts", type=int, default=8)
    sp.add_argument(
        "--chunk-size",
        type=int,
        default=65536,
        help="reader chunk in edges (results never depend on it; the driver "
        "re-buffers into the partitioner's window)",
    )
    sp.add_argument(
        "--spill-dir",
        default=None,
        help="directory for the per-partition shards (default: <input>.spill)",
    )
    sp.add_argument(
        "--overwrite", action="store_true", help="replace an existing spill dir"
    )
    sp.add_argument(
        "--json", action="store_true",
        help="print the machine-readable manifest + timing JSON",
    )

    run = sub.add_parser("run", help="run an application on a partitioned graph")
    run.add_argument("input", help="edge-list file")
    run.add_argument(
        "--app",
        type=_registry_arg(registries.APPS),
        default="CC",
        help=(
            "application spec (e.g. 'pr?pagerank_iters=10'); "
            f"available: {', '.join(registries.APPS.names())}"
        ),
    )
    run.add_argument(
        "--method",
        type=_registry_arg(registries.PARTITIONERS),
        default="ebv",
        help=method_help,
    )
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--source", type=int, default=None, help="SSSP/BFS source")
    run.add_argument(
        "--backend",
        type=_registry_arg(registries.BACKENDS),
        default="serial",
        help=(
            "runtime backend spec (e.g. 'process?start_method=spawn'); "
            f"available: {', '.join(registries.BACKENDS.names())}"
        ),
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an execution trace here (.jsonl for line-delimited "
        "JSON, anything else for Perfetto-loadable Chrome trace JSON); "
        "tracing never changes results",
    )

    mut = sub.add_parser(
        "mutate",
        help="apply an edge mutation batch to a partitioned graph and "
        "report the replication-factor drift against a full repartition",
    )
    mut.add_argument("input", help="edge-list file (the pre-mutation graph)")
    mut.add_argument(
        "--mutations",
        required=True,
        metavar="FILE",
        help="mutation file: one op per line, '+ u v [w]' inserts and "
        "'- u v' deletes; '#' starts a comment",
    )
    mut.add_argument(
        "--method",
        type=_registry_arg(registries.PARTITIONERS),
        default="ebv-stream",
        help="partitioner used for the base partition and for re-assigning "
        f"mutated edges; available: {', '.join(registries.PARTITIONERS.names())}",
    )
    mut.add_argument("--parts", type=int, default=8)
    mut.add_argument(
        "--repartition-threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="touched-edge fraction above which the escape hatch does a "
        "full repartition instead of incremental maintenance "
        "(default 0.25)",
    )
    mut.add_argument(
        "--json", action="store_true",
        help="print the machine-readable drift report JSON",
    )

    trace = sub.add_parser(
        "trace",
        help="summarize a recorded execution trace (per-worker/per-stage "
        "walls, straggler + imbalance ratios)",
    )
    trace.add_argument("input", help="trace file written by --trace or a spec's 'trace' entry")
    trace.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary JSON",
    )

    pipe = sub.add_parser("pipeline", help="execute a JSON pipeline spec")
    pipe.add_argument("spec", help="path to a JSON spec file, or '-' for stdin")
    pipe.add_argument(
        "--json", action="store_true", help="print the machine-readable result JSON"
    )

    res = sub.add_parser(
        "resume",
        help="resume a crashed checkpointed pipeline run from its newest snapshot",
    )
    res.add_argument(
        "dir",
        help="checkpoint directory written by a pipeline spec with a "
        "'checkpoint' entry (holds pipeline.json + step-NNNNNN snapshots)",
    )
    res.add_argument(
        "--json", action="store_true", help="print the machine-readable result JSON"
    )

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("name", choices=registries.EXPERIMENTS.names())
    exp.add_argument("--scale", type=float, default=None)

    work = sub.add_parser(
        "worker",
        help="serve one standalone socket-backend worker "
        "(pair with --backend 'socket?workers=...' on the coordinator)",
    )
    work.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to bind (port 0 picks a free port; the bound "
        "address is announced on stdout)",
    )
    work.add_argument(
        "--sessions",
        type=int,
        default=1,
        metavar="N",
        help="number of coordinator sessions to serve before exiting "
        "(0 = serve forever; default 1)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware static-analysis pass over src/repro",
    )
    lint.add_argument(
        "root",
        nargs="?",
        default=None,
        help="file or directory to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the machine-readable JSON report"
    )
    return parser


def _cmd_generate(args) -> int:
    opts = {"vertices": args.vertices, "seed": args.seed, "directed": args.directed}
    if args.kind == "powerlaw":
        opts.update(eta=args.eta, min_degree=args.min_degree)
    g = generate_graph(args.kind, **opts)
    write_edge_list(g, args.output)
    print(f"wrote {g.num_edges} edges over {g.num_vertices} vertices to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    g = read_edge_list(args.input)
    s = graph_stats(g)
    print(
        render_table(
            ["Graph", "Type", "V", "E", "AvgDeg", "eta"],
            [(s.name, s.kind, s.num_vertices, s.num_edges,
              f"{s.average_degree:.2f}", f"{s.eta:.2f}")],
        )
    )
    return 0


def _cmd_partition(args) -> int:
    g = read_edge_list(args.input)
    try:
        result = (
            Pipeline()
            .source(g)
            .partition(args.method, parts=args.parts)
            .refine(args.refine)
            .execute()
        )
    except (SpecError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    m = result.metrics
    print(
        render_table(
            ["Method", "Parts", "EdgeImb", "VertImb", "RF"],
            [(m.method, args.parts, f"{m.edge_imbalance:.3f}",
              f"{m.vertex_imbalance:.3f}", f"{m.replication:.3f}")],
        )
    )
    if args.output:
        save_partition(result.partition, args.output)
        print(f"partition written to {args.output}")
    return 0


def _cmd_stream_partition(args) -> int:
    from time import perf_counter

    from .obs import sample_peak_rss_kb
    from .stream import StreamError, stream_partition

    fmt = args.format
    if fmt == "auto":
        fmt = "npy" if args.input.endswith(".npy") else "edgelist"
    spill_dir = args.spill_dir or args.input + ".spill"
    t0 = perf_counter()
    try:
        stream = registries.STREAMS.create(
            fmt, path=args.input, chunk_size=args.chunk_size
        )
        partitioner = registries.PARTITIONERS.create(args.method)
        spilled = stream_partition(
            stream, partitioner, args.parts, spill_dir, overwrite=args.overwrite
        )
    except (SpecError, RegistryError, StreamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = perf_counter() - t0
    peak_rss = sample_peak_rss_kb()
    peak_rss_kb = None if peak_rss is None else int(peak_rss)
    manifest = spilled.manifest
    if args.json:
        payload = dict(manifest)
        payload["seconds"] = seconds
        payload["peak_rss_kb"] = peak_rss_kb
        payload["spill_dir"] = spilled.directory
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    counts = spilled.edge_counts
    mean = counts.mean() if counts.size else 0.0
    imbalance = float(counts.max() / mean) if mean else 1.0
    throughput = manifest["num_edges"] / seconds if seconds > 0 else float("inf")
    print(
        render_table(
            ["Method", "Parts", "E", "V", "EdgeImb", "RF", "Spill MB",
             "Edges/s", "PeakRSS MB"],
            [(
                manifest["method"], manifest["num_parts"],
                manifest["num_edges"], manifest["num_vertices"],
                f"{imbalance:.3f}", f"{manifest['replication_factor']:.3f}",
                f"{manifest['bytes_spilled'] / 1e6:.1f}",
                f"{throughput:.0f}",
                "?" if peak_rss_kb is None else f"{peak_rss_kb / 1024:.1f}",
            )],
        )
    )
    print(f"shards + manifest written to {spilled.directory}")
    return 0


def _cmd_run(args) -> int:
    g = read_edge_list(args.input)
    app_name = registries.APPS.canonical(parse_spec(args.app)[0])
    overrides = {} if args.source is None else {"source": args.source}
    try:
        result = (
            Pipeline()
            .source(g)
            .partition(args.method, parts=args.workers)
            .run(args.app, **overrides)
            .backend(args.backend)
            .trace(args.trace)
            .execute()
        )
    except (SpecError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = result.run
    row = breakdown_row(run)
    print(
        render_table(
            ["App", "Method", "Backend", "Workers", "Supersteps", "Messages",
             "comp", "comm", "dC", "time"],
            [(app_name.upper(), row.method, run.backend, args.workers,
              run.num_supersteps, run.total_messages, f"{row.comp:.4f}",
              f"{row.comm:.4f}", f"{row.delta_c:.4f}",
              f"{row.execution_time:.4f}")],
        )
    )
    if app_name in ("sssp", "bfs"):
        reached = int(np.isfinite(run.values).sum())
        print(f"reached {reached}/{g.num_vertices} vertices from source "
              f"{args.source if args.source is not None else default_source(g)}")
    if result.trace_path is not None:
        print(f"trace written to {result.trace_path} "
              f"(inspect with: python -m repro trace {result.trace_path})")
    return 0


def _cmd_mutate(args) -> int:
    from .mutate import MutationBatch, apply_mutations

    try:
        g = read_edge_list(args.input)
        batch = MutationBatch.from_file(args.mutations)
        partitioner = registries.PARTITIONERS.create(args.method)
        base = partitioner.partition(g, args.parts)
        extra = {} if args.repartition_threshold is None else {
            "repartition_threshold": args.repartition_threshold
        }
        mutation = apply_mutations(
            base, batch, partitioner, compare_full=True, **extra
        )
    except (SpecError, RegistryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "input": args.input,
        "mutations": args.mutations,
        "method": registries.PARTITIONERS.canonical(parse_spec(args.method)[0]),
        "parts": args.parts,
        "mutation": mutation.report(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rep = payload["mutation"]
    print(
        render_table(
            ["Mode", "Ins", "Del", "Touched", "Reassigned",
             "RF before", "RF after", "RF full", "Drift"],
            [(
                rep["mode"], rep["num_inserted"], rep["num_deleted"],
                f"{rep['touched_fraction']:.4f}", rep["reassigned_edges"],
                f"{rep['rf_before']:.3f}", f"{rep['rf_after']:.3f}",
                f"{rep['rf_full']:.3f}" if "rf_full" in rep else "?",
                f"{rep['drift']:.4f}" if "drift" in rep else "?",
            )],
        )
    )
    return 0


def _cmd_trace(args) -> int:
    import dataclasses as _dc

    from .obs import load_trace, render_trace_summary, summarize_trace

    try:
        trace = load_trace(args.input)
        summary = summarize_trace(trace)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dropped = trace.get("meta", {}).get("dropped_events", 0)
    if dropped:
        print(
            f"warning: {args.input}: {dropped} torn record(s) dropped "
            "(trace from a crashed run?); tables below cover the surviving spans",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(_dc.asdict(summary), indent=2, sort_keys=True))
    else:
        print(render_trace_summary(summary))
    return 0


def _print_pipeline_result(result, as_json: bool) -> None:
    """Shared reporting for the ``pipeline`` and ``resume`` commands."""
    if as_json:
        print(result.to_json())
        return
    g, m = result.graph, result.metrics
    print(f"graph: {g.name} |V|={g.num_vertices} |E|={g.num_edges}")
    print(
        render_table(
            ["Method", "Parts", "EdgeImb", "VertImb", "RF"],
            [(m.method, result.partition.num_parts, f"{m.edge_imbalance:.3f}",
              f"{m.vertex_imbalance:.3f}", f"{m.replication:.3f}")],
        )
    )
    if result.run is not None:
        run = result.run
        row = breakdown_row(run)
        print(
            render_table(
                ["App", "Method", "Workers", "Supersteps", "Messages",
                 "comp", "comm", "dC", "time"],
                [(run.program, row.method, run.num_workers, run.num_supersteps,
                  run.total_messages, f"{row.comp:.4f}", f"{row.comm:.4f}",
                  f"{row.delta_c:.4f}", f"{row.execution_time:.4f}")],
            )
        )
        if run.resumed_from is not None:
            replayed = run.num_supersteps - run.resumed_from
            print(
                f"resumed from superstep {run.resumed_from} "
                f"({replayed} superstep{'s' if replayed != 1 else ''} executed "
                "after resume)"
            )
    if result.checkpoint_dir is not None:
        print(f"checkpoints in {result.checkpoint_dir}")
    print(
        render_table(
            ["Stage", "Seconds"],
            [(stage, f"{seconds:.4f}") for stage, seconds in result.timings.items()],
        )
    )


def _cmd_pipeline(args) -> int:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read spec file: {exc}", file=sys.stderr)
            return 2
    try:
        spec = PipelineSpec.from_json(text)
        result = run_spec(spec)
    except (SpecError, RegistryError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_pipeline_result(result, args.json)
    return 0


def _cmd_resume(args) -> int:
    try:
        result = resume_pipeline(args.dir)
    except (SpecError, RegistryError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_pipeline_result(result, args.json)
    return 0


def _cmd_experiment(args) -> int:
    config = default_config()
    if args.scale is not None:
        config.scale = args.scale
    print(registries.EXPERIMENTS.get(args.name)(config))
    return 0


def _cmd_lint(args) -> int:
    from .lint import render_json, render_text, run_lint

    report = run_lint(args.root)
    print(render_json(report) if args.json else render_text(report))
    return report.exit_code


def _cmd_worker(args) -> int:
    from .runtime.socket import serve_worker
    from .runtime.wire import parse_hostport

    if args.sessions < 0:
        print("error: --sessions must be >= 0", file=sys.stderr)
        return 2
    try:
        parse_hostport(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return serve_worker(args.listen, sessions=args.sessions)
    except OSError as exc:  # bind failure: port busy, bad interface, ...
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "partition": _cmd_partition,
        "stream-partition": _cmd_stream_partition,
        "run": _cmd_run,
        "pipeline": _cmd_pipeline,
        "resume": _cmd_resume,
        "experiment": _cmd_experiment,
        "mutate": _cmd_mutate,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
        "worker": _cmd_worker,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
