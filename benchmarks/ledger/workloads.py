"""The five ledger workloads: inputs, the timed run, the traced pass, checks.

``run.py`` imports this module to generate inputs and reference answers,
and starts it as a script — ``python3 workloads.py JOB.json`` — once per
run, so every repeat executes in a fresh process and ``ru_maxrss`` is the
run's own.

Two passes exist per workload:

* the *front door* (:func:`front_door`): what a user calls, timed as one
  region with nothing attached — ``repro.pipeline.run_spec`` for the four
  spec-driven workloads, the library sequence for ``mutate-ckpt`` (a spec
  cannot express a sequence of mutation batches);
* the *layered* pass (:func:`layered`): the benchmark calls each layer's
  public function itself, in pipeline order, inside spans, and must end
  with bit-identical results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.apps.reference import cc_reference, pagerank_reference  # noqa: E402
from repro.bsp import BSPEngine, build_distributed_graph  # noqa: E402
from repro.checkpoint import list_snapshots, load_snapshot  # noqa: E402
from repro.graph import Graph, generate_graph, read_edge_list, write_edge_list  # noqa: E402
from repro.mutate import MutationBatch, apply_mutations, mutated_graph  # noqa: E402
from repro.partition import (  # noqa: E402
    EBVPartitioner,
    edge_processing_order,
    load_partition,
    partition_metrics,
    replication_factor,
    save_partition,
)
from repro.pipeline import (  # noqa: E402
    APPS,
    BACKENDS,
    PARTITIONERS,
    STREAMS,
    PipelineSpec,
    parse_spec,
    run_spec,
)
from repro.stream import stream_partition  # noqa: E402

from tracing import TimingBackend, Tracer  # noqa: E402

QUICK_VERTICES = 2000

GRAPH_FILE = "graph.txt"
BASE_PARTITION_FILE = "base.part"
REFERENCE_FILE = "reference.npz"
CHECKPOINT_DIR = "ckpt"

MUTATE_BATCHES = 16
MUTATE_CHURN = 0.025
#: the run is checkpointed every 2nd superstep and resumed from this one.
RESUME_STEP = 50
MAX_RF_DRIFT = 1.15
PAGERANK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class Workload:
    """One named input + configuration; sizes are for the 2-CPU reference host."""

    name: str
    graph: Dict[str, Any]
    vertices: int
    parts: int
    partition: str
    app: str
    backend: str = "serial"
    source: str = f"file?path={GRAPH_FILE}"

    def spec(self) -> PipelineSpec:
        return PipelineSpec(
            source=self.source, partition=self.partition, parts=self.parts,
            app=self.app, backend=self.backend,
        )


# Why each workload exists is recorded in BENCHMARK.json (one line each)
# and at length in README.md.  Sizes put the timed region near one second
# so that a run of BENCHMARK.json's `run_seconds` holds five or more
# repeats.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ebv-powerlaw", dict(kind="powerlaw"), vertices=10_000, parts=8,
            partition="ebv", app="pr?pagerank_iters=10",
        ),
        Workload(
            "pr-process", dict(kind="powerlaw"), vertices=30_000, parts=2,
            partition="dbh", app="pr?pagerank_iters=200,pagerank_tol=0",
            backend="process",
        ),
        Workload(
            "road-cc-socket", dict(kind="road"), vertices=25_000, parts=4,
            partition="dbh", app="cc", backend="socket",
        ),
        Workload(
            "stream-ebv-spill", dict(kind="powerlaw"), vertices=6_000, parts=8,
            partition="ebv-stream", app="pr?pagerank_iters=10",
            source=f"edgelist?path={GRAPH_FILE},chunk_size=4096",
        ),
        Workload(
            "mutate-ckpt", dict(kind="powerlaw", directed=True), vertices=8_000,
            parts=8, partition="ebv-stream",
            app="pr?pagerank_iters=100,pagerank_tol=0",
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs and reference answers (run.py, in the parent process)
# ----------------------------------------------------------------------


def setup(wl: Workload, seed: int, vertices: int, workdir: Path) -> Graph:
    """Generate the workload's input files; the same seed gives the same files.

    Returns the graph the application's answer must be correct on.
    """
    graph = generate_graph(**wl.graph, vertices=vertices, seed=seed)
    write_edge_list(graph, str(workdir / GRAPH_FILE))
    if wl.name != "mutate-ckpt":
        return graph
    base = PARTITIONERS.create(wl.partition).partition(graph, wl.parts)
    save_partition(base, str(workdir / BASE_PARTITION_FILE))
    rng = np.random.default_rng(seed)
    for k in range(MUTATE_BATCHES):
        batch = _churn_batch(graph, rng)
        with open(workdir / _batch_file(k), "w", encoding="ascii") as fh:
            fh.writelines(f"{'+' if op == 'insert' else '-'} {u} {v}\n" for op, u, v, _ in batch.ops)
        # Each batch is drawn against the graph the previous ones left.
        graph = mutated_graph(graph, batch.resolve_against(graph))
    return graph


def _batch_file(k: int) -> str:
    return f"batch-{k:02d}.txt"


def _churn_batch(graph: Graph, rng) -> MutationBatch:
    """Ops touching ``MUTATE_CHURN`` of the edges: half deletes, half inserts.

    Deletes name distinct existing edge ids, so they always resolve; a
    tenth of the inserts grow the vertex set, as real dynamic graphs do.
    """
    n_ops = max(2, int(graph.num_edges * MUTATE_CHURN))
    n_delete = n_ops // 2
    batch = MutationBatch()
    for eid in np.sort(rng.choice(graph.num_edges, size=n_delete, replace=False)).tolist():
        batch.delete(int(graph.src[eid]), int(graph.dst[eid]))
    n = graph.num_vertices
    grown = 0
    for k in range(n_ops - n_delete):
        u = int(rng.integers(0, n))
        if k % 10 == 0:
            v = n + grown
            grown += 1
        else:
            v = int(rng.integers(0, n))
            if v == u:
                v = (v + 1) % n
        batch.insert(u, v)
    return batch


def write_reference(wl: Workload, graph: Graph, workdir: Path) -> None:
    """Answers every run of this input is checked against, computed once.

    ``graph`` is what :func:`setup` returned.  Not part of ``setup_s``:
    this is the benchmark's verification, not the program's input.
    """
    app, options = parse_spec(wl.app)
    if app == "cc":
        reference = {"values": cc_reference(graph)}
    else:
        reference = {
            "values": pagerank_reference(
                graph,
                max_iters=options.get("pagerank_iters", 20),
                tol=options.get("pagerank_tol", 1e-10),
            )
        }
    if wl.name in ("stream-ebv-spill", "mutate-ckpt"):
        # The in-memory partition of the same edges: what the spilled
        # assignment must equal, and the denominator of the rf drift.
        full = PARTITIONERS.create(wl.partition).partition(graph, wl.parts)
        reference["edge_parts"] = full.edge_parts
        reference["rf_full"] = np.float64(replication_factor(full))
    np.savez(workdir / REFERENCE_FILE, **reference)


# ----------------------------------------------------------------------
# The two passes (child process, cwd = the workload's input directory)
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    e2e_s: float
    partition: Any
    run: Any
    layers: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: traced pass only: the spans directly under the timed region, summed.
    top_level_s: float = 0.0


def front_door(wl: Workload) -> Outcome:
    if wl.name == "mutate-ckpt":
        return _mutate_ckpt(wl, None)
    t0 = perf_counter()
    result = run_spec(wl.spec())
    return Outcome(perf_counter() - t0, result.partition, result.run)


def layered(wl: Workload, tracer: Tracer) -> Outcome:
    if wl.name == "mutate-ckpt":
        return _mutate_ckpt(wl, tracer)
    spec = wl.spec()
    span = tracer.span
    layers: Dict[str, float] = {}
    with span("e2e") as root:
        partitioner = PARTITIONERS.create(spec.partition)
        if spec.source_is_stream:
            stream = STREAMS.create(spec.source)
            with tempfile.TemporaryDirectory(prefix="ledger-spill-") as spill_dir:
                with span("stream.spill"):
                    spilled = stream_partition(stream, partitioner, spec.parts, spill_dir)
                with span("stream.assemble"):
                    partition = spilled.assemble()
                layers["stream.spill_bytes"] = spilled.manifest["bytes_spilled"]
            graph = partition.graph
        else:
            with span("graph.read"):
                graph = read_edge_list(GRAPH_FILE)
            with span("partition.assign"):
                partition = partitioner.partition(graph, spec.parts)
        with span("partition.metrics"):
            partition_metrics(partition)
        with span("bsp.build"):
            dgraph = build_distributed_graph(partition)
        backend = TimingBackend(BACKENDS.create(spec.backend), tracer)
        # The socket backend has `wire.*` spans of its own; handing the
        # engine our recorder is the only way to see them from outside.
        recorder = tracer.rec if backend.name == "socket" else None
        with span("bsp.run"):
            run = BSPEngine(backend=backend, recorder=recorder).run(
                dgraph, APPS.create(spec.app, graph)
            )
    outcome = Outcome(root.span.seconds, partition, run, layers)
    m = graph.num_edges

    # Extra measurements, outside the region that mirrors the front door.
    if spec.source_is_stream:
        with span("stream.source_read"):
            for _ in STREAMS.create(spec.source).chunks():
                pass
    elif isinstance(partitioner, EBVPartitioner):
        with span("partition.order"):
            edge_processing_order(graph, partitioner.sort_order, partitioner.seed)
    if spec.backend == "process":
        # The single-threaded baseline, and the evidence for the thread
        # backend's fate: the same supersteps on each in-process backend.
        for name in ("serial", "thread"):
            with span(f"extra.{name}_run") as timed:
                other = BSPEngine(backend=name).run(dgraph, APPS.create(spec.app, graph))
            if not np.array_equal(other.values, run.values):
                outcome.failures.append(f"{name} backend values differ from {spec.backend}")
            layers[f"runtime.{name}_run_s"] = timed.span.seconds
        serial = layers["runtime.serial_run_s"]
        layers["runtime.process_speedup_vs_serial"] = serial / tracer.total("bsp.run")
        layers["runtime.thread_speedup_vs_serial"] = serial / layers["runtime.thread_run_s"]

    total = tracer.total
    layers.update({
        "graph.read_s": total("graph.read"),
        "graph.read_edges_per_s": _rate(m, total("graph.read")),
        "stream.source_read_s": total("stream.source_read"),
        "stream.spill_s": total("stream.spill"),
        "stream.edges_per_s": _rate(m, total("stream.spill")),
        "stream.assemble_s": total("stream.assemble"),
        "partition.order_s": total("partition.order"),
        "partition.assign_s": total("partition.assign"),
        "partition.edges_per_s": _rate(m, total("partition.assign")),
        "partition.metrics_s": total("partition.metrics"),
    })
    _account_run(outcome, tracer, backend, root.span)
    return outcome


@contextmanager
def _no_span(name: str, **counts: Any):
    yield None


def _mutate_ckpt(wl: Workload, tracer: Optional[Tracer]) -> Outcome:
    """Mutation batches, build, a checkpointed run, and a resume from mid-run.

    One function serves both passes so their order cannot diverge: with
    a tracer every step is a span and the backend is the timing proxy;
    without one nothing is attached.
    """
    span = tracer.span if tracer else _no_span
    partition = load_partition(BASE_PARTITION_FILE, read_edge_list(GRAPH_FILE))
    batches = [MutationBatch.from_file(_batch_file(k)) for k in range(MUTATE_BATCHES)]
    backend = TimingBackend(BACKENDS.create(wl.backend), tracer) if tracer else wl.backend
    resume_from = os.path.join(CHECKPOINT_DIR, f"step-{RESUME_STEP:06d}")
    reassigned = 0

    def checkpointing(backend):
        return BSPEngine(
            backend=backend, checkpoint_dir=CHECKPOINT_DIR, checkpoint_every=2,
            checkpoint_keep=None,
        )

    t0 = perf_counter()
    with span("e2e") as root:
        for batch in batches:
            with span("mutate.apply", ops=len(batch)):
                result = apply_mutations(partition, batch, repartition_threshold=1.0)
            partition = result.partition
            reassigned += result.reassigned_edges
        graph = partition.graph
        with span("bsp.build"):
            dgraph = build_distributed_graph(partition)
        with span("bsp.run"):
            run = checkpointing(backend).run(dgraph, APPS.create(wl.app, graph))
        with span("checkpoint.resume"):
            resumed = checkpointing(wl.backend).run(
                dgraph, APPS.create(wl.app, graph), resume_from=resume_from
            )
    outcome = Outcome(perf_counter() - t0, partition, run)

    if resumed.resumed_from != RESUME_STEP:
        outcome.failures.append(f"resumed from superstep {resumed.resumed_from}, not {RESUME_STEP}")
    if not (
        np.array_equal(resumed.values, run.values)
        and resumed.num_supersteps == run.num_supersteps
        and np.array_equal(resumed.messages_per_worker(), run.messages_per_worker())
    ):
        outcome.failures.append("resumed run differs from the uninterrupted run")
    if tracer is None:
        return outcome

    with span("extra.plain_run"):
        plain = BSPEngine(backend=wl.backend).run(dgraph, APPS.create(wl.app, graph))
    if not np.array_equal(plain.values, run.values):
        outcome.failures.append("checkpointed run differs from the plain run")
    with span("checkpoint.load"):
        load_snapshot(resume_from)
    snapshots = list_snapshots(CHECKPOINT_DIR)
    applies = [s.seconds for s in tracer.named("mutate.apply")]
    ops = sum(len(b) for b in batches)
    total = tracer.total
    outcome.layers.update({
        "mutate.apply_s": sum(applies),
        "mutate.apply_p50_ms": float(np.percentile(applies, 50)) * 1e3,
        "mutate.ops_per_s": _rate(ops, sum(applies)),
        "mutate.reassigned_edges": reassigned,
        "checkpoint.write_s": total("bsp.run") - total("extra.plain_run"),
        "checkpoint.bytes": sum(
            f.stat().st_size for s in snapshots for f in Path(s).iterdir() if f.is_file()
        ),
        "checkpoint.snapshots": len(snapshots),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.resume_s": total("checkpoint.resume"),
    })
    _account_run(outcome, tracer, backend, root.span)
    return outcome


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _account_run(outcome: Outcome, tracer: Tracer, backend: TimingBackend, root) -> None:
    """Add the `bsp.*` and `runtime.*` metrics and the span accounting."""
    total = tracer.total
    num_edges = outcome.partition.graph.num_edges
    (run_span,) = tracer.named("bsp.run")
    compute = [s.seconds * 1e3 for s in tracer.named("runtime.compute_stage")]
    exchange = [s.seconds * 1e3 for s in tracer.named("runtime.exchange_stage")]
    busy = backend.stats.busy
    outcome.top_level_s = sum(s.seconds for s in tracer.children(root))
    outcome.layers.update({
        "bsp.build_s": total("bsp.build"),
        "bsp.build_edges_per_s": _rate(num_edges, total("bsp.build")),
        "bsp.run_s": run_span.seconds,
        # Sequencing, accounting, convergence checks, the final gather.
        "bsp.engine_self_s": tracer.self_seconds(run_span),
        "runtime.session_open_s": total("runtime.session_open"),
        "runtime.compute_stage_s": sum(compute) * 1e-3,
        "runtime.compute_stage_p50_ms": float(np.percentile(compute, 50)),
        "runtime.compute_stage_p90_ms": float(np.percentile(compute, 90)),
        "runtime.exchange_stage_s": sum(exchange) * 1e-3,
        "runtime.exchange_stage_p50_ms": float(np.percentile(exchange, 50)),
        "runtime.exchange_stage_p90_ms": float(np.percentile(exchange, 90)),
        "runtime.dispatch_s": backend.stats.dispatch_s,
        "runtime.state_s": total("runtime.state"),
        "runtime.close_s": total("runtime.close"),
        "runtime.worker_busy_s": float(busy.sum()),
        "runtime.straggler_ratio": float(busy.max() / busy.mean()),
        "runtime.wire_s": sum(
            s.duration_seconds for s in tracer.rec.spans()
            if s.cat == "wire" and s.worker is None
        ),
        "bench.span_coverage_pct": 100.0 * outcome.top_level_s / root.seconds,
    })


# ----------------------------------------------------------------------
# Verification and the child entry point
# ----------------------------------------------------------------------


def verify(wl: Workload, outcome: Outcome) -> None:
    """Check the run's answer and partition against the reference file."""
    reference = np.load(REFERENCE_FILE)
    values, expected = outcome.run.values, reference["values"]
    if values.shape != expected.shape:
        outcome.failures.append(f"{values.shape[0]} values, reference has {expected.shape[0]}")
    elif parse_spec(wl.app)[0] == "cc":
        if not np.array_equal(values, expected):
            outcome.failures.append("connected-component labels differ from the reference")
    else:
        error = float(np.max(np.abs(values - expected)))
        if not error <= PAGERANK_TOLERANCE:
            outcome.failures.append(f"pagerank differs from the reference by {error:g}")
    if wl.name == "stream-ebv-spill" and not np.array_equal(
        outcome.partition.edge_parts, reference["edge_parts"]
    ):
        outcome.failures.append("spilled assignment differs from the in-memory partition")
    if wl.name == "mutate-ckpt":
        drift = replication_factor(outcome.partition) / float(reference["rf_full"])
        outcome.layers["mutate.rf_drift"] = drift
        if not drift <= MAX_RF_DRIFT:
            outcome.failures.append(f"rf drift {drift:.4f} exceeds {MAX_RF_DRIFT}")


def _crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def _own_peak_rss_mb() -> float:
    """This process's resident high-water mark.

    Read from ``VmHWM`` and not from ``ru_maxrss``, which across
    fork+exec starts at the *parent's* resident size and so would report
    ``run.py``'s footprint for every job smaller than it.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def child_main(job_path: str) -> int:
    """Execute one run described by ``JOB.json`` and write its result file."""
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    wl = WORKLOADS[job["workload"]]
    os.chdir(job["workdir"])
    tracer = Tracer(job["run_id"]) if job["traced"] else None
    outcome = layered(wl, tracer) if tracer else front_door(wl)
    # Sampled before verification, which loads reference arrays of its own.
    peak_rss_mb = _own_peak_rss_mb()
    if tracer:
        # The largest worker, as the kernel accounts it to us once reaped;
        # a forked worker starts at the size this process had at the fork.
        outcome.layers["runtime.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        tracer.write(job["trace_path"])
    verify(wl, outcome)
    metrics = partition_metrics(outcome.partition)
    run = outcome.run
    result = {
        "e2e_s": outcome.e2e_s,
        "peak_rss_mb": peak_rss_mb,
        "size": {
            "vertices": outcome.partition.graph.num_vertices,
            "edges": outcome.partition.graph.num_edges,
            "parts": wl.parts,
        },
        # Deterministic: every run of the same input must repeat these exactly.
        "quality": {
            "replication_factor": metrics.replication,
            "edge_imbalance": metrics.edge_imbalance,
            "vertex_imbalance": metrics.vertex_imbalance,
            "messages_total": run.total_messages,
            "message_max_mean_ratio": run.message_max_mean_ratio,
            "supersteps": run.num_supersteps,
            "edge_parts_crc": _crc(outcome.partition.edge_parts),
            "values_crc": _crc(run.values),
            "sent_crc": _crc(run.messages_per_worker()),
        },
        "layers": outcome.layers,
        "top_level_s": outcome.top_level_s,
        "failures": outcome.failures,
    }
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(child_main(sys.argv[1]))
