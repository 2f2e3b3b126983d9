"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``         write a synthetic graph to an edge-list file
``stats``            print the Table I statistics row for an edge list
``partition``        partition an edge list and print Section III-C metrics
``stream-partition`` partition an on-disk edge stream *out of core*
``run``              execute any registered app on a partitioned graph
``mutate``           apply an edge mutation batch to a partitioned graph
                     and report the replication-factor drift
``trace``            summarize a recorded execution trace (per-worker /
                     per-stage walls, straggler and imbalance ratios)
``pipeline``         execute a full JSON pipeline spec (see below)
``resume``           continue a crashed checkpointed pipeline run
``experiment``       regenerate one of the paper's tables/figures
``worker``           serve one standalone socket-backend worker
``lint``             run the domain-aware static-analysis pass (exit 1
                     on any finding; see :mod:`repro.lint`)

Every verb is one row of :data:`_VERBS` — name, help, handler and
arguments — and :func:`main` is the one error boundary: bad input (a
missing or malformed file, an invalid spec, a damaged checkpoint) prints
``error: …`` to stderr and exits 2, never a traceback.

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
the ``--method``/``--app``/``--backend``/``experiment`` choices can never
drift from the implementations that actually exist.  Components accept
full spec strings with constructor kwargs, e.g.::

    python -m repro partition graph.txt --method "ebv?alpha=2,sort_order=input"
    python -m repro run graph.txt --app "pr?pagerank_iters=10"

``run`` executes on a :mod:`repro.runtime` backend selected with
``--backend`` (``serial``, ``thread``, ``process`` — a persistent
worker pool over shared memory — or ``socket`` — TCP workers, forked
locally or listed with ``socket?workers=host:port+...``); results are
identical on every backend, only real wall-clock changes::

    python -m repro run graph.txt --app pagerank --backend process

Tracing
-------
``run --trace out.trace.json`` (and a pipeline spec's ``"trace"``
entry) records a structured execution trace: per-worker compute /
exchange / barrier spans, coordinator stage spans and a metrics
snapshot (see :mod:`repro.obs`) as Chrome trace-event JSON — load it
at https://ui.perfetto.dev for the per-worker timeline.
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

from .apps import default_source
from .checkpoint import CheckpointError
from .graph import generate_graph, graph_stats, read_edge_list, write_edge_list
from .partition import KernelBuildError, save_partition
from .pipeline import Pipeline, PipelineSpec, RegistryError, SpecError, parse_spec, registries
from .pipeline import resume_pipeline, run_spec, stage_errors
from .runtime import BackendError
from .tables import render_table

__all__ = ["main", "build_parser"]


def _cmd_generate(args) -> int:
    opts = {"vertices": args.vertices, "seed": args.seed, "directed": args.directed}
    if args.kind == "powerlaw":
        opts.update(eta=args.eta, min_degree=args.min_degree)
    g = generate_graph(args.kind, **opts)
    write_edge_list(g, args.output)
    print(f"wrote {g.num_edges} edges over {g.num_vertices} vertices to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    s = graph_stats(read_edge_list(args.input))
    print(
        render_table(
            ["Graph", "Type", "V", "E", "AvgDeg", "eta"],
            [(s.name, s.kind, s.num_vertices, s.num_edges,
              f"{s.average_degree:.2f}", f"{s.eta:.2f}")],
        )
    )
    return 0


def _partition_table(result) -> str:
    """The Section III-C metrics row of a :class:`PipelineResult`."""
    m = result.metrics
    return render_table(
        ["Method", "Parts", "EdgeImb", "VertImb", "RF"],
        [(m.method, result.partition.num_parts, f"{m.edge_imbalance:.3f}",
          f"{m.vertex_imbalance:.3f}", f"{m.replication:.3f}")],
    )


def _run_table(run) -> str:
    """The Fig. 4 breakdown row of a BSP run."""
    return render_table(
        ["App", "Method", "Backend", "Workers", "Supersteps", "Messages",
         "comp", "comm", "dC", "time"],
        [(run.program.upper(), run.partition_method, run.backend, run.num_workers,
          run.num_supersteps, run.total_messages, f"{run.comp:.4f}",
          f"{run.comm:.4f}", f"{run.delta_c:.4f}", f"{run.execution_time:.4f}")],
    )


def _cmd_partition(args) -> int:
    result = (
        Pipeline()
        .source(read_edge_list(args.input))
        .partition(args.method, parts=args.parts)
        .refine(args.refine)
        .execute()
    )
    print(_partition_table(result))
    if args.output:
        save_partition(result.partition, args.output)
        print(f"partition written to {args.output}")
    return 0


def _cmd_stream_partition(args) -> int:
    from time import perf_counter

    from .obs import sample_peak_rss_kb
    from .stream import stream_partition

    fmt = args.format
    if fmt == "auto":
        fmt = "npy" if args.input.endswith(".npy") else "edgelist"
    with stage_errors("partition"):
        partitioner = registries.PARTITIONERS.create(args.method)
    t0 = perf_counter()
    spilled = stream_partition(
        registries.STREAMS.create(fmt, path=args.input, chunk_size=args.chunk_size),
        partitioner,
        args.parts,
        args.spill_dir or args.input + ".spill",
        overwrite=args.overwrite,
    )
    seconds = perf_counter() - t0
    peak_rss = sample_peak_rss_kb()
    peak_rss_kb = None if peak_rss is None else int(peak_rss)
    manifest = spilled.manifest
    if args.json:
        payload = dict(manifest, seconds=seconds, peak_rss_kb=peak_rss_kb,
                       spill_dir=spilled.directory)
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
    overrides = {} if args.source is None else {"source": args.source}
    result = (
        Pipeline()
        .source(g)
        .partition(args.method, parts=args.workers)
        .run(args.app, **overrides)
        .backend(args.backend)
        .trace(args.trace)
        .execute()
    )
    run = result.run
    print(_run_table(run))
    if run.program in ("SSSP", "BFS"):
        source = args.source
        if source is None:
            source = parse_spec(args.app)[1].get("source", default_source(g))
        reached = int(np.isfinite(run.values).sum())
        print(f"reached {reached}/{g.num_vertices} vertices from source {source}")
    if result.trace_path is not None:
        print(f"trace written to {result.trace_path} "
              f"(inspect with: python -m repro trace {result.trace_path})")
    return 0


def _cmd_mutate(args) -> int:
    from .mutate import MutationBatch, apply_mutations

    g = read_edge_list(args.input)
    batch = MutationBatch.from_file(args.mutations)
    with stage_errors("partition"):
        partitioner = registries.PARTITIONERS.create(args.method)
    extra = {} if args.repartition_threshold is None else {
        "repartition_threshold": args.repartition_threshold}
    mutation = apply_mutations(
        partitioner.partition(g, args.parts), batch, partitioner, compare_full=True, **extra
    )
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
    except (KeyError, TypeError) as exc:  # JSON, but not shaped like a trace
        raise ValueError(f"{args.input}: malformed trace: {exc!r}") from exc
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


def _print_result(result, as_json: bool) -> int:
    """The ``pipeline`` / ``resume`` report of a :class:`PipelineResult`."""
    if as_json:
        print(result.to_json())
        return 0
    g, run = result.graph, result.run
    print(f"graph: {g.name} |V|={g.num_vertices} |E|={g.num_edges}")
    print(_partition_table(result))
    if run is not None:
        print(_run_table(run))
        if run.resumed_from is not None:
            replayed = run.num_supersteps - run.resumed_from
            print(f"resumed from superstep {run.resumed_from} ({replayed} "
                  f"superstep{'s' if replayed != 1 else ''} executed after resume)")
    if result.checkpoint_dir is not None:
        print(f"checkpoints in {result.checkpoint_dir}")
    print(render_table(["Stage", "Seconds"],
                       [(stage, f"{sec:.4f}") for stage, sec in result.timings.items()]))
    return 0


def _cmd_pipeline(args) -> int:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
    return _print_result(run_spec(PipelineSpec.from_json(text)), args.json)


def _cmd_resume(args) -> int:
    return _print_result(resume_pipeline(args.dir), args.json)


def _cmd_experiment(args) -> int:
    from .experiments import default_config

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
        raise ValueError("--sessions must be >= 0")
    parse_hostport(args.listen)
    try:
        return serve_worker(args.listen, sessions=args.sessions)
    except OSError as exc:  # bind failure: port busy, bad interface, ...
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


# ----------------------------------------------------------------------
# The verb table
# ----------------------------------------------------------------------


def _arg(*names, **kwargs):
    """One ``add_argument`` call, as data."""
    return names, kwargs


def _input(text: str = "edge-list file"):
    return _arg("input", help=text)


def _component(flag: str, registry, default: str, note: str = ""):
    """A component spec option (``--method`` / ``--app`` / ``--backend``).

    Accepts full spec strings (``"ebv?alpha=2"``); an unknown name is an
    argparse error at parse time, with the registry's list of what exists.
    """

    def validate(value: str) -> str:
        try:
            registry.canonical(parse_spec(value)[0])
        except RegistryError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    validate.__name__ = f"{registry.kind}-spec"
    return _arg(
        flag, type=validate, default=default,
        help=f"{registry.kind} spec: a name plus optional kwargs "
        f"('name?key=value,...'); available: {', '.join(registry.names())}{note}",
    )


_PARTS = _arg("--parts", type=int, default=8, help="number of parts")
_JSON = _arg("--json", action="store_true", help="print machine-readable JSON")

#: ``(name, help, handler, arguments)``, one row per verb.
_VERBS = (
    ("generate", "generate a synthetic graph", _cmd_generate, (
        _arg("output", help="edge-list file to write"),
        _arg("--kind", default="powerlaw", choices=tuple(
            k for k in registries.GENERATORS.names() if k != "file"
        )),
        _arg("--vertices", type=int, default=10_000),
        _arg("--eta", type=float, default=2.2),
        _arg("--min-degree", type=int, default=3),
        _arg("--directed", action="store_true"),
        _arg("--seed", type=int, default=0),
    )),
    ("stats", "print Table I statistics", _cmd_stats, (_input(),)),
    ("partition", "partition a graph", _cmd_partition, (
        _input(),
        _component("--method", registries.PARTITIONERS, "ebv"),
        _PARTS,
        _arg("--refine", action="store_true", help="apply the post-pass"),
        _arg("--output", help="write per-edge part ids here"),
    )),
    ("stream-partition",
     "partition an on-disk edge stream out of core (O(chunk) memory)",
     _cmd_stream_partition, (
        _input("edge-list text file or (m, 2) .npy edge array"),
        _arg("--format", choices=("auto",) + registries.STREAMS.names(),
             default="auto",
             help="stream reader (auto: .npy extension selects npy, else edgelist)"),
        _component("--method", registries.PARTITIONERS, "ebv-stream"),
        _PARTS,
        _arg("--chunk-size", type=int, default=65536,
             help="reader chunk in edges (results never depend on it; the "
             "driver re-buffers into the partitioner's window)"),
        _arg("--spill-dir",
             help="directory for the per-partition shards (default: <input>.spill)"),
        _arg("--overwrite", action="store_true", help="replace an existing spill dir"),
        _JSON,
    )),
    ("run", "run an application on a partitioned graph", _cmd_run, (
        _input(),
        _component("--app", registries.APPS, "CC"),
        _component("--method", registries.PARTITIONERS, "ebv"),
        _arg("--workers", type=int, default=8),
        _arg("--source", type=int, help="SSSP/BFS source"),
        _component("--backend", registries.BACKENDS, "serial"),
        _arg("--trace", metavar="PATH",
             help="record an execution trace here as Perfetto-loadable Chrome "
             "trace JSON; tracing never changes results"),
    )),
    ("mutate",
     "apply an edge mutation batch to a partitioned graph and report the "
     "replication-factor drift against a full repartition",
     _cmd_mutate, (
        _input("edge-list file (the pre-mutation graph)"),
        _arg("--mutations", required=True, metavar="FILE",
             help="mutation file: one op per line, '+ u v [w]' inserts and "
             "'- u v' deletes; '#' starts a comment"),
        _component("--method", registries.PARTITIONERS, "ebv-stream", note="; "
                   "any vertex-cut method; one that cannot warm-start (all but "
                   "ebv-stream) is maintained, and its drift measured, by ebv-stream"),
        _PARTS,
        _arg("--repartition-threshold", type=float, metavar="FRAC",
             help="touched-edge fraction above which the escape hatch does a "
             "full repartition instead of incremental maintenance (default 0.25)"),
        _JSON,
    )),
    ("trace",
     "summarize a recorded execution trace (per-worker/per-stage walls, "
     "straggler + imbalance ratios)",
     _cmd_trace, (
        _input("trace file written by --trace or a spec's 'trace' entry"),
        _JSON,
    )),
    ("pipeline", "execute a JSON pipeline spec", _cmd_pipeline, (
        _arg("spec", help="path to a JSON spec file, or '-' for stdin"),
        _JSON,
    )),
    ("resume",
     "resume a crashed checkpointed pipeline run from its newest snapshot",
     _cmd_resume, (
        _arg("dir", help="checkpoint directory written by a pipeline spec with a "
             "'checkpoint' entry (holds pipeline.json + step-NNNNNN snapshots)"),
        _JSON,
    )),
    ("experiment", "regenerate a paper artifact", _cmd_experiment, (
        _arg("name", choices=registries.EXPERIMENTS.names()),
        _arg("--scale", type=float),
    )),
    ("worker",
     "serve one standalone socket-backend worker "
     "(pair with --backend 'socket?workers=...' on the coordinator)",
     _cmd_worker, (
        _arg("--listen", required=True, metavar="HOST:PORT",
             help="address to bind (port 0 picks a free port; the bound "
             "address is announced on stdout)"),
        _arg("--sessions", type=int, default=1, metavar="N",
             help="number of coordinator sessions to serve before exiting "
             "(0 = serve forever; default 1)"),
    )),
    ("lint", "run the domain-aware static-analysis pass over src/repro", _cmd_lint, (
        _arg("root", nargs="?",
             help="file or directory to lint (default: the installed repro package)"),
        _JSON,
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser from :data:`_VERBS`."""
    parser = argparse.ArgumentParser(
        prog="repro", description="EBV graph partitioning reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, arguments in _VERBS:
        verb = sub.add_parser(name, help=summary)
        for names, kwargs in arguments:
            verb.add_argument(*names, **kwargs)
        verb.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary: a bad input file, spec or checkpoint
    (``ValueError`` — which covers ``SpecError``, ``RegistryError`` and
    ``StreamError`` — ``OSError`` or ``CheckpointError``), a backend
    that cannot run (``BackendError``: an unreachable worker, a lost
    one) or an EBV kernel the C compiler cannot build
    (``KernelBuildError``) prints ``error: …`` and exits 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, CheckpointError, BackendError, KernelBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
