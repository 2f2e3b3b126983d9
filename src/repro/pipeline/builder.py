"""The fluent pipeline builder and its machine-consumable result.

One front door for every scenario::

    from repro.pipeline import Pipeline

    result = (
        Pipeline()
        .source("powerlaw?vertices=10000")
        .partition("ebv", parts=8)
        .refine()
        .run("pagerank")
        .with_cost_model(seconds_per_message=2e-7)
        .execute()
    )
    print(result.to_json())

The same run as data::

    from repro.pipeline import PipelineSpec, run_spec

    spec = PipelineSpec(source="powerlaw?vertices=10000", parts=8,
                        refine=True, app="pr")
    result = run_spec(spec)

Both paths execute identically — a fluent chain is serialized through
:meth:`Pipeline.spec` whenever its source is spec-able — so CLI calls,
experiment sweeps and JSON-driven batch runs cannot diverge.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from time import monotonic_ns
from typing import Any, Dict, Optional, Union

from ..bsp import (
    BSPEngine,
    BSPRun,
    CostModel,
    DistributedGraph,
    build_distributed_graph,
)
from ..graph import Graph
from ..obs import NULL_RECORDER, TraceRecorder, write_trace
from ..partition import PartitionMetrics, PartitionResult, partition_metrics, refine_vertex_cut
from ..stream import EdgeChunkStream, SpilledPartition, StreamError, stream_partition
from .registries import APPS, BACKENDS, GENERATORS, PARTITIONERS, STREAMS
from .registry import RegistryError, format_spec, parse_spec
from .spec import PipelineSpec, SpecError

__all__ = ["Pipeline", "PipelineResult", "run_spec", "resume_pipeline"]

#: the serialized spec a checkpointing pipeline drops into its root so
#: ``repro resume <dir>`` can rebuild the exact run.
PIPELINE_SPEC_FILENAME = "pipeline.json"
#: subdirectory of the checkpoint root holding the persistent stream
#: spill (reused on resume — no re-partitioning).
SPILL_SUBDIR = "spill"


def _stage(label: str, thunk):
    """Run one pipeline stage, converting configuration errors to SpecError.

    Bad constructor kwargs surface as TypeError/ValueError deep inside a
    component; re-raising them as :class:`SpecError` tagged with the
    stage keeps ``python -m repro pipeline`` errors clean and precise.
    """
    try:
        return thunk()
    except (SpecError, RegistryError):
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise SpecError(f"{label} stage failed: {exc}") from exc


_SCALAR_TYPES = (bool, int, float, str, type(None))


def _split_kwargs(kwargs: Dict[str, Any]):
    """Separate spec-string-safe scalars from in-memory objects.

    Scalars fold into the canonical spec string (serializable); objects
    (e.g. a FEATPROP ``features`` array) are kept as real constructor
    overrides — usable fluently, but not representable in a JSON spec.
    """
    scalars: Dict[str, Any] = {}
    objects: Dict[str, Any] = {}
    for key, value in kwargs.items():
        (scalars if isinstance(value, _SCALAR_TYPES) else objects)[key] = value
    return scalars, objects


def _merge_spec(spec: str, kwargs: Dict[str, Any]) -> str:
    """Fold direct kwargs into a spec string, kwargs winning on clashes."""
    name, base = parse_spec(spec)
    base.update(kwargs)
    return format_spec(name, base)


@dataclass
class PipelineResult:
    """Everything a finished pipeline produced, in one bundle.

    ``to_dict``/``to_json`` expose the machine-readable summary (the
    heavyweight ``graph``/``partition``/``run`` objects stay available
    as attributes for further in-process analysis).  ``timings`` holds
    per-stage wall-clock seconds.
    """

    graph: Graph
    partition: PartitionResult
    metrics: PartitionMetrics
    run: Optional[BSPRun]
    timings: Dict[str, float]
    spec: Optional[PipelineSpec] = None
    #: the routed distributed graph (built only when an app ran); kept
    #: so callers can execute further programs without re-partitioning.
    distributed: Optional[DistributedGraph] = None
    #: checkpoint root the run wrote snapshots to (``None`` when the
    #: pipeline ran without checkpointing).
    checkpoint_dir: Optional[str] = None
    #: the spilled-partition manifest when the source was an out-of-core
    #: stream (``None`` for in-memory sources); records |E|, |V|, the
    #: per-part edge counts and the replication factor as observed by
    #: the streaming assigner, plus the spill volume.
    stream: Optional[Dict[str, Any]] = None
    #: path the execution trace was written to (``None`` when tracing
    #: was off); load it with :func:`repro.obs.load_trace` or inspect
    #: it with ``repro trace <path>``.
    trace_path: Optional[str] = None
    #: drift report of the edge-mutation stage (``None`` when the
    #: pipeline ran without mutations): the
    #: :meth:`repro.mutate.MutationResult.report` dict.
    mutation: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary of the whole run."""
        run_summary = None
        if self.run is not None:
            run_summary = {
                "program": self.run.program,
                "backend": self.run.backend,
                "partition_method": self.run.partition_method,
                "num_workers": self.run.num_workers,
                "num_supersteps": self.run.num_supersteps,
                "total_messages": self.run.total_messages,
                "message_max_mean_ratio": self.run.message_max_mean_ratio,
                "comp": self.run.comp,
                "comm": self.run.comm,
                "delta_c": self.run.delta_c,
                "execution_time": self.run.execution_time,
                "resumed_from": self.run.resumed_from,
            }
        payload: Dict[str, Any] = {
            "spec": None if self.spec is None else self.spec.to_dict(),
            "graph": {
                "name": self.graph.name,
                "num_vertices": self.graph.num_vertices,
                "num_edges": self.graph.num_edges,
                "directed": self.graph.directed,
            },
            "partition": {
                "method": self.partition.method,
                "kind": self.partition.kind,
                "num_parts": self.partition.num_parts,
                "edge_imbalance": self.metrics.edge_imbalance,
                "vertex_imbalance": self.metrics.vertex_imbalance,
                "replication": self.metrics.replication,
            },
            "run": run_summary,
            "timings": dict(self.timings),
        }
        if self.stream is not None:
            payload["stream"] = dict(self.stream)
        # Present only for traced/mutated runs: other summaries keep
        # their historical byte-identical serialization (goldens).
        if self.trace_path is not None:
            payload["trace"] = self.trace_path
        if self.mutation is not None:
            payload["mutation"] = dict(self.mutation)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class Pipeline:
    """Fluent builder: ``source -> partition [-> refine] [-> run]``.

    Every stage setter returns ``self``; :meth:`execute` materializes a
    :class:`PipelineResult`.  Stages accept either full spec strings
    (``"ebv?alpha=2"``) or a bare name plus kwargs (``"ebv", alpha=2``);
    both normalize to the same canonical spec.
    """

    def __init__(self) -> None:
        self._source: Union[str, Graph, EdgeChunkStream, None] = None
        self._source_overrides: Dict[str, Any] = {}
        self._partition_spec: str = "ebv"
        self._partition_overrides: Dict[str, Any] = {}
        self._parts: int = 8
        self._refine: bool = False
        self._refine_options: Dict[str, Any] = {}
        self._app_spec: Optional[str] = None
        self._app_overrides: Dict[str, Any] = {}
        self._backend_spec: str = "serial"
        self._cost_model: Optional[CostModel] = None
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._trace: Optional[str] = None
        self._mutations: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Stage setters
    # ------------------------------------------------------------------

    def source(
        self, source: Union[str, Graph, EdgeChunkStream], **kwargs: Any
    ) -> "Pipeline":
        """Set the graph source: a generator/file/stream spec, a live
        Graph, or a live :class:`~repro.stream.EdgeChunkStream`."""
        if isinstance(source, (Graph, EdgeChunkStream)):
            if kwargs:
                raise SpecError(
                    "kwargs are not accepted with an in-memory source object"
                )
            self._source = source
        else:
            scalars, self._source_overrides = _split_kwargs(kwargs)
            self._source = _merge_spec(source, scalars)
        return self

    @classmethod
    def from_stream(
        cls, stream: Union[str, EdgeChunkStream], **kwargs: Any
    ) -> "Pipeline":
        """Start a pipeline on an out-of-core edge stream.

        ``stream`` is either a live :class:`~repro.stream.EdgeChunkStream`
        or a :data:`~repro.pipeline.STREAMS` spec string
        (``"edgelist?path=huge.txt,chunk_size=65536"``).  The partition
        stage then runs through :func:`repro.stream.stream_partition`
        without materializing the graph; downstream stages (refine, app)
        operate on the partition assembled from the spill shards.
        """
        return cls().source(stream, **kwargs)

    def partition(self, method: str = "ebv", parts: Optional[int] = None, **kwargs: Any) -> "Pipeline":
        """Choose the partition algorithm and the number of subgraphs."""
        scalars, self._partition_overrides = _split_kwargs(kwargs)
        self._partition_spec = _merge_spec(method, scalars)
        if parts is not None:
            if isinstance(parts, bool) or not isinstance(parts, int) or parts < 1:
                raise SpecError(f"parts must be a positive integer, got {parts!r}")
            self._parts = parts
        return self

    def refine(self, enabled: bool = True, **kwargs: Any) -> "Pipeline":
        """Toggle the vertex-cut refinement post-pass (with its kwargs)."""
        self._refine = bool(enabled)
        self._refine_options = dict(kwargs)
        return self

    def run(self, app: str, **kwargs: Any) -> "Pipeline":
        """Choose the application to execute on the partitioned graph.

        Scalar kwargs fold into the serializable spec; object kwargs
        (e.g. a FEATPROP ``features`` matrix) are passed through to the
        program factory directly.
        """
        scalars, self._app_overrides = _split_kwargs(kwargs)
        self._app_spec = _merge_spec(app, scalars)
        return self

    def backend(self, backend: str = "serial", **kwargs: Any) -> "Pipeline":
        """Choose the runtime backend executing the BSP computation stage.

        Accepts full spec strings (``"process?start_method=spawn"``) or
        a bare name plus kwargs; results are identical on every backend
        (see :mod:`repro.runtime`), only wall-clock time changes.
        """
        scalars, objects = _split_kwargs(kwargs)
        if objects:
            raise SpecError(
                f"backend options must be scalars, got objects for {sorted(objects)}"
            )
        self._backend_spec = _merge_spec(backend, scalars)
        return self

    def checkpoint(
        self,
        directory: Optional[str],
        every: int = 1,
        keep: Optional[int] = 2,
    ) -> "Pipeline":
        """Checkpoint the BSP run every ``every`` supersteps into ``directory``.

        Snapshots are atomic and checksummed (see :mod:`repro.checkpoint`);
        the serialized pipeline spec is written alongside them so the run
        can be continued with ``repro resume <directory>`` or
        :func:`resume_pipeline`.  ``keep`` bounds the snapshots retained
        (``None`` keeps all).  Pass ``directory=None`` to disable.
        """
        if directory is None:
            self._checkpoint = None
            return self
        from .spec import _canonical_checkpoint

        self._checkpoint = _canonical_checkpoint(
            {"dir": directory, "every": every, "keep": keep}
        )
        return self

    def trace(self, path: Optional[str]) -> "Pipeline":
        """Record a structured execution trace into ``path``.

        A ``.jsonl`` path selects line-delimited JSON; anything else
        writes Chrome trace-event JSON, loadable in Perfetto — per-worker
        compute/exchange/barrier spans on one timeline row per worker
        (see :mod:`repro.obs`).  Tracing is strictly observational:
        results, deterministic stats and checkpoint fingerprints are
        bit-identical with and without it.  Pass ``None`` to disable
        (the default; a disabled run does no recording work at all).
        """
        if path is not None and (not isinstance(path, str) or not path):
            raise SpecError(
                f"trace path must be None or a non-empty string, got {path!r}"
            )
        self._trace = path
        return self

    def mutate(
        self,
        mutations: Any,
        repartition_threshold: Optional[float] = None,
    ) -> "Pipeline":
        """Apply an edge mutation batch after the partition/refine stages.

        ``mutations`` is a :class:`repro.mutate.MutationBatch`, a
        mutations-file path, an inline op list, or the spec's dict form;
        downstream stages run against the mutated graph and partition
        (see :mod:`repro.mutate`), and the app runs on the maintained
        partition.  ``repartition_threshold`` tunes the escape hatch
        (touched-edge fraction above which the whole graph is
        repartitioned).  Pass ``mutations=None`` to disable.
        """
        if mutations is None:
            self._mutations = None
            return self
        from ..mutate import MutationBatch
        from .spec import _canonical_mutations

        if isinstance(mutations, MutationBatch):
            mutations = mutations.to_ops()
        normalized = _canonical_mutations(mutations)
        if repartition_threshold is not None:
            normalized = _canonical_mutations(
                {**normalized, "repartition_threshold": repartition_threshold}
            )
        self._mutations = normalized
        return self

    def with_cost_model(self, cost_model: Optional[CostModel] = None, **kwargs: Any) -> "Pipeline":
        """Override the BSP cost model (instance or field overrides)."""
        if cost_model is not None and kwargs:
            raise SpecError("pass either a CostModel instance or field overrides, not both")
        self._cost_model = cost_model if cost_model is not None else CostModel(**kwargs)
        return self

    # ------------------------------------------------------------------
    # Spec round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: PipelineSpec) -> "Pipeline":
        """Hydrate a builder from a validated :class:`PipelineSpec`."""
        pipe = cls()
        pipe._source = spec.source
        pipe._partition_spec = spec.partition
        pipe._parts = spec.parts
        pipe._refine = spec.refine
        pipe._refine_options = dict(spec.refine_options)
        pipe._app_spec = spec.app
        pipe._backend_spec = spec.backend
        pipe._cost_model = spec.build_cost_model()
        pipe._checkpoint = None if spec.checkpoint is None else dict(spec.checkpoint)
        pipe._trace = spec.trace
        pipe._mutations = None if spec.mutations is None else dict(spec.mutations)
        return pipe

    def spec(self) -> PipelineSpec:
        """Serialize the chain to a :class:`PipelineSpec`.

        Raises :class:`SpecError` when the source is an in-memory Graph,
        which has no spec-string representation.
        """
        if self._source is None:
            raise SpecError("pipeline has no source; call .source(...) first")
        if isinstance(self._source, (Graph, EdgeChunkStream)):
            raise SpecError(
                "an in-memory Graph/EdgeChunkStream source cannot be "
                "serialized; use a generator spec, 'file?path=...' or a "
                "stream spec like 'edgelist?path=...'"
            )
        objects = {
            **self._source_overrides,
            **self._partition_overrides,
            **self._app_overrides,
        }
        if objects:
            raise SpecError(
                f"in-memory stage arguments {sorted(objects)} cannot be serialized"
            )
        return PipelineSpec(
            source=self._source,
            partition=self._partition_spec,
            parts=self._parts,
            refine=self._refine,
            refine_options=dict(self._refine_options),
            app=self._app_spec,
            backend=self._backend_spec,
            cost_model=(
                None if self._cost_model is None else dataclasses.asdict(self._cost_model)
            ),
            checkpoint=None if self._checkpoint is None else dict(self._checkpoint),
            trace=self._trace,
            mutations=None if self._mutations is None else dict(self._mutations),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _stream_source(self) -> Optional[Union[str, EdgeChunkStream]]:
        """The stream behind ``source``, or ``None`` for in-memory sources."""
        if isinstance(self._source, EdgeChunkStream):
            return self._source
        if isinstance(self._source, str):
            try:
                if parse_spec(self._source)[0] in STREAMS:
                    return self._source
            except RegistryError:
                pass  # malformed specs fail in the source stage proper
        return None

    def execute(self, resume_from: Optional[str] = None) -> PipelineResult:
        """Run every configured stage and bundle the results.

        ``resume_from`` names a checkpoint root written by a previous
        checkpointed execution of the *same* pipeline: the BSP run
        continues from its newest snapshot (bit-identical to an
        uninterrupted run — a mismatched checkpoint is rejected by its
        fingerprint), and a stream source reuses the already-on-disk
        spill shards instead of re-partitioning.
        """
        timings: Dict[str, float] = {}
        substage_walls: Dict[str, float] = {}
        # One recorder for the whole execution; the null singleton when
        # tracing is off, so the untraced path allocates nothing.
        rec = TraceRecorder(label="pipeline") if self._trace else NULL_RECORDER
        if isinstance(self._source, (Graph, EdgeChunkStream)) or any(
            (self._source_overrides, self._partition_overrides, self._app_overrides)
        ):
            spec = None  # not serializable, still runnable
        else:
            # Eager whole-chain validation: a bad app/partitioner name
            # fails here, before any generation or partitioning work.
            spec = self.spec()

        ckpt = self._checkpoint
        if resume_from is not None:
            if ckpt is None:
                raise SpecError(
                    "resume_from requires a checkpointed pipeline; call "
                    ".checkpoint(...) or set the spec's 'checkpoint' entry"
                )
            if self._app_spec is None:
                raise SpecError("resume_from requires an app stage to resume")
        if ckpt is not None:
            if spec is not None:
                _write_pipeline_spec(ckpt["dir"], spec)
            else:
                # In-memory sources / object overrides cannot be
                # serialized, so no pipeline.json is written and
                # ``repro resume`` will not work for this run.  Engine
                # snapshots are still written — an in-process
                # ``execute(resume_from=...)`` on the same objects
                # resumes fine — but say so up front rather than after
                # the crash.
                warnings.warn(
                    "checkpointing a pipeline whose spec cannot be "
                    "serialized (in-memory source or object stage "
                    "arguments): snapshots will be written but 'repro "
                    "resume' needs pipeline.json; keep the Python "
                    "objects alive and call execute(resume_from=...) "
                    "to resume this run",
                    UserWarning,
                    stacklevel=2,
                )

        def close_stage(name: str, t0: int) -> None:
            """One wall-clock bracket feeds both ``timings`` and the trace:
            every ``timings`` stage becomes a ``pipeline.*`` span."""
            t1 = monotonic_ns()
            timings[name] = (t1 - t0) * 1e-9
            if rec.enabled:
                rec.add(f"pipeline.{name}", t0, t1, cat="pipeline")

        stream_source = self._stream_source()
        stream_info: Optional[Dict[str, Any]] = None
        t0 = monotonic_ns()
        if isinstance(self._source, Graph):
            graph = self._source
        elif stream_source is not None:
            if isinstance(stream_source, EdgeChunkStream):
                stream = stream_source
            else:
                stream = _stage(
                    "source",
                    lambda: STREAMS.create(stream_source, **self._source_overrides),
                )
        else:
            graph = _stage(
                "source",
                lambda: GENERATORS.create(self._source, **self._source_overrides),
            )
        close_stage("source", t0)

        t0 = monotonic_ns()
        partitioner = _stage(
            "partition",
            lambda: PARTITIONERS.create(
                self._partition_spec, **self._partition_overrides
            ),
        )
        if stream_source is not None:

            def spill_and_assemble(spill_dir: str, reuse: bool, overwrite: bool):
                """Shared out-of-core sequence for both spill locations."""
                spilled = None
                if reuse and os.path.isfile(
                    os.path.join(spill_dir, "manifest.json")
                ):
                    try:
                        spilled = SpilledPartition(spill_dir)
                    except StreamError:
                        # A spill damaged by the crash must not block
                        # resume: re-spilling is deterministic, so fall
                        # through to the overwrite path below.
                        spilled = None
                if spilled is None:
                    t1 = monotonic_ns()
                    spilled = _stage(
                        "partition",
                        lambda: stream_partition(
                            stream, partitioner, self._parts, spill_dir,
                            overwrite=overwrite, recorder=rec,
                        ),
                    )
                    substage_walls["partition.spill"] = (monotonic_ns() - t1) * 1e-9
                t1 = monotonic_ns()
                assembled = _stage("partition", spilled.assemble)
                substage_walls["partition.assemble"] = (monotonic_ns() - t1) * 1e-9
                return assembled, dict(spilled.manifest)

            if ckpt is not None:
                # Checkpointed out-of-core path: the spill is persistent
                # (it lives with the snapshots) so a resumed run reuses
                # the already-on-disk shards and skips re-partitioning.
                result, stream_info = spill_and_assemble(
                    os.path.join(ckpt["dir"], SPILL_SUBDIR),
                    reuse=resume_from is not None,
                    overwrite=True,
                )
                stream_info["spill_reused"] = "partition.spill" not in substage_walls
            else:
                # Plain out-of-core path: spill per-part shards to a
                # scratch dir that lives only for this execution.
                with tempfile.TemporaryDirectory(prefix="repro-spill-") as tmp_spill:
                    result, stream_info = spill_and_assemble(
                        tmp_spill, reuse=False, overwrite=False
                    )
            graph = result.graph
        else:
            result = partitioner.partition(graph, self._parts)
        close_stage("partition", t0)

        if self._refine:
            t0 = monotonic_ns()
            result = _stage(
                "refine", lambda: refine_vertex_cut(result, **self._refine_options)
            )
            close_stage("refine", t0)

        mutation_payload: Optional[Dict[str, Any]] = None
        if self._mutations is not None:
            t0 = monotonic_ns()
            from ..mutate import MutationBatch, apply_mutations

            mut_cfg = self._mutations

            def _apply_mutations():
                if "file" in mut_cfg:
                    batch = MutationBatch.from_file(mut_cfg["file"])
                else:
                    batch = MutationBatch.from_ops(mut_cfg["ops"])
                extra: Dict[str, Any] = {}
                if mut_cfg.get("repartition_threshold") is not None:
                    extra["repartition_threshold"] = mut_cfg["repartition_threshold"]
                # The configured partitioner maintains the assignment
                # only when it exposes the warm-seedable streaming core;
                # otherwise apply_mutations falls back to its default
                # (a fresh ebv-stream scorer over the same assignment).
                maintainer = partitioner if hasattr(partitioner, "streamer") else None
                return apply_mutations(result, batch, maintainer, **extra)

            mutation_result = _stage("mutate", _apply_mutations)
            result, graph = mutation_result.partition, mutation_result.graph
            mutation_payload = mutation_result.report()
            close_stage("mutate", t0)

        metrics = partition_metrics(result)

        run = None
        dgraph = None
        if self._app_spec is not None:
            t0 = monotonic_ns()
            dgraph = build_distributed_graph(result)
            close_stage("distribute", t0)
            t0 = monotonic_ns()
            backend = _stage("run", lambda: BACKENDS.create(self._backend_spec))
            program = _stage(
                "run",
                lambda: APPS.create(self._app_spec, graph, **self._app_overrides),
            )
            engine = BSPEngine(
                cost_model=self._cost_model,
                backend=backend,
                checkpoint_dir=None if ckpt is None else ckpt["dir"],
                checkpoint_every=1 if ckpt is None else ckpt["every"],
                checkpoint_keep=2 if ckpt is None else ckpt["keep"],
                recorder=rec,
            )
            run = engine.run(dgraph, program, resume_from=resume_from)
            close_stage("run", t0)

        timings["total"] = sum(timings.values())
        # Sub-stage walls; dotted keys so they read as components of
        # their parent stage, not extra stages (they are intentionally
        # excluded from "total").
        timings.update(substage_walls)
        if run is not None:
            for stage, seconds in run.real_stage_seconds().items():
                timings[f"run.{stage}"] = seconds
        trace_path = None
        if self._trace:
            trace_path = write_trace(rec, self._trace)
        return PipelineResult(
            graph=graph,
            partition=result,
            metrics=metrics,
            run=run,
            timings=timings,
            spec=spec,
            distributed=dgraph,
            stream=stream_info,
            checkpoint_dir=None if ckpt is None else ckpt["dir"],
            trace_path=trace_path,
            mutation=mutation_payload,
        )


def _write_pipeline_spec(root: str, spec: PipelineSpec) -> None:
    """Persist the spec into the checkpoint root (atomic tmp + rename)."""
    os.makedirs(root, exist_ok=True)
    final_path = os.path.join(root, PIPELINE_SPEC_FILENAME)
    tmp_path = f"{final_path}.tmp-{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())
        fh.write("\n")
    os.replace(tmp_path, final_path)


def run_spec(spec: Union[PipelineSpec, Dict[str, Any]]) -> PipelineResult:
    """Execute a whole pipeline from a spec (or its plain-dict form)."""
    if isinstance(spec, dict):
        spec = PipelineSpec.from_dict(spec)
    if not isinstance(spec, PipelineSpec):
        raise SpecError(f"expected a PipelineSpec or dict, got {type(spec).__name__}")
    return Pipeline.from_spec(spec).execute()


def resume_pipeline(root: str) -> PipelineResult:
    """Continue a crashed (or finished) checkpointed pipeline run.

    ``root`` is the checkpoint directory a previous execution wrote:
    ``pipeline.json`` (the serialized spec), ``step-NNNNNN`` snapshots,
    and — for stream sources — the persistent ``spill/`` shards, which
    are reused so resume never re-partitions.  The continued run is
    bit-identical to an uninterrupted one; resuming a run that already
    finished replays nothing and reproduces the recorded result.
    """
    spec_path = os.path.join(root, PIPELINE_SPEC_FILENAME)
    if not os.path.isfile(spec_path):
        raise SpecError(
            f"{root!r} is not a resumable pipeline checkpoint (no "
            f"{PIPELINE_SPEC_FILENAME}); engine-level checkpoints resume via "
            "BSPEngine.run(..., resume_from=...)"
        )
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = PipelineSpec.from_json(fh.read())
    if spec.app is None:
        raise SpecError(f"{spec_path} configures no app stage; nothing to resume")
    pipe = Pipeline.from_spec(spec)
    # The root may have been renamed/relocated since the spec was
    # written; the directory being resumed always wins.
    ckpt = dict(spec.checkpoint) if spec.checkpoint is not None else {"every": 1, "keep": 2}
    ckpt["dir"] = root
    pipe._checkpoint = ckpt
    return pipe.execute(resume_from=root)
