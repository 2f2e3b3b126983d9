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

Both paths execute identically: the builder's state *is* the
:class:`PipelineSpec` field dict (plus the live objects a spec cannot
hold), so CLI calls, experiment sweeps and JSON-driven batch runs cannot
diverge.

:meth:`Pipeline.execute` validates the chain, then walks the stage table
:data:`_STAGES` — ``source, partition, refine, mutate, distribute, run``
— running each stage the spec asks for.  A stage is a function that
takes the one run context and extends it (the source stage adds the
graph or stream, the partition stage the partition, ...).  The loop is
the only place that times a stage: each run stage gets one ``timings``
entry and one ``pipeline.<name>`` trace span, and a configuration error
inside it becomes a :class:`SpecError` saying ``"<name> stage failed"``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic_ns
from types import SimpleNamespace
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..bsp import (
    BSPEngine,
    BSPRun,
    CostModel,
    DistributedGraph,
    build_distributed_graph,
)
from ..graph import Graph
from ..obs import NULL_RECORDER, TraceRecorder, write_chrome_trace
from ..partition import PartitionMetrics, PartitionResult, partition_metrics, refine_vertex_cut
from ..stream import EdgeChunkStream, SpilledPartition, StreamError, stream_partition
from .registries import APPS, BACKENDS, GENERATORS, PARTITIONERS, STREAMS
from .registry import RegistryError, format_spec, parse_spec
from .spec import PipelineSpec, SpecError, _canonical_checkpoint, _canonical_mutations

__all__ = ["Pipeline", "PipelineResult", "run_spec", "resume_pipeline"]

#: the serialized spec a checkpointing pipeline drops into its root so
#: ``repro resume <dir>`` can rebuild the exact run.
PIPELINE_SPEC_FILENAME = "pipeline.json"
#: subdirectory of the checkpoint root holding the persistent stream
#: spill (reused on resume — no re-partitioning).
SPILL_SUBDIR = "spill"

_SCALAR_TYPES = (bool, int, float, str, type(None))


def _fold(spec: str, kwargs: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Fold the scalar ``kwargs`` into ``spec``, kwargs winning on clashes.

    Returns the canonical spec string and the remaining object kwargs
    (e.g. a FEATPROP ``features`` array): real constructor overrides,
    usable fluently but not representable in a JSON spec.
    """
    name, options = parse_spec(spec)
    objects: Dict[str, Any] = {}
    for key, value in kwargs.items():
        (options if isinstance(value, _SCALAR_TYPES) else objects)[key] = value
    return format_spec(name, options), objects


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
            run_summary = dict(
                program=self.run.program,
                backend=self.run.backend,
                partition_method=self.run.partition_method,
                num_workers=self.run.num_workers,
                num_supersteps=self.run.num_supersteps,
                total_messages=self.run.total_messages,
                message_max_mean_ratio=self.run.message_max_mean_ratio,
                comp=self.run.comp,
                comm=self.run.comm,
                delta_c=self.run.delta_c,
                execution_time=self.run.execution_time,
                resumed_from=self.run.resumed_from,
            )
        payload: Dict[str, Any] = dict(
            spec=None if self.spec is None else self.spec.to_dict(),
            graph=dict(
                name=self.graph.name,
                num_vertices=self.graph.num_vertices,
                num_edges=self.graph.num_edges,
                directed=self.graph.directed,
            ),
            partition=dict(
                method=self.partition.method,
                kind=self.partition.kind,
                num_parts=self.partition.num_parts,
                edge_imbalance=self.metrics.edge_imbalance,
                vertex_imbalance=self.metrics.vertex_imbalance,
                replication=self.metrics.replication,
            ),
            run=run_summary,
            timings=dict(self.timings),
        )
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


# ----------------------------------------------------------------------
# Stages: each takes the run context and extends it
# ----------------------------------------------------------------------


def _source(ctx) -> None:
    """Decide stream vs graph once: a live object is used as given, a
    spec string naming a :data:`STREAMS` reader opens a stream, and
    anything else is generated (or read) into a Graph."""
    ctx.graph = ctx.stream = None
    if isinstance(ctx.live, Graph):
        ctx.graph = ctx.live
    elif ctx.live is not None:
        ctx.stream = ctx.live
    elif parse_spec(ctx.source)[0] in STREAMS:
        ctx.stream = STREAMS.create(ctx.source, **ctx.objects.source)
    else:
        ctx.graph = GENERATORS.create(ctx.source, **ctx.objects.source)


def _partition(ctx) -> None:
    ctx.partitioner = PARTITIONERS.create(ctx.partition, **ctx.objects.partition)
    if ctx.stream is None:
        ctx.result = ctx.partitioner.partition(ctx.graph, ctx.parts)
        return
    if ctx.checkpoint is None:
        # Plain out-of-core path: spill per-part shards to a scratch
        # dir that lives only for this execution.
        with tempfile.TemporaryDirectory(prefix="repro-spill-") as spill_dir:
            _spill_and_assemble(ctx, spill_dir, reuse=False, overwrite=False)
    else:
        # Checkpointed out-of-core path: the spill is persistent (it
        # lives with the snapshots) so a resumed run reuses the
        # already-on-disk shards and skips re-partitioning.
        spill_dir = os.path.join(ctx.checkpoint["dir"], SPILL_SUBDIR)
        _spill_and_assemble(
            ctx, spill_dir, reuse=ctx.resume_from is not None, overwrite=True
        )
        ctx.stream_info["spill_reused"] = "partition.spill" not in ctx.walls
    ctx.graph = ctx.result.graph


def _spill_and_assemble(ctx, spill_dir: str, reuse: bool, overwrite: bool) -> None:
    """The out-of-core partition sequence, shared by both spill locations."""
    if reuse and os.path.isfile(os.path.join(spill_dir, "manifest.json")):
        try:
            _assemble(ctx, SpilledPartition(spill_dir))
            return
        except StreamError:
            pass  # damaged by the crash (manifest or shards): re-spill, deterministically
    t0 = monotonic_ns()
    spilled = stream_partition(
        ctx.stream, ctx.partitioner, ctx.parts, spill_dir,
        overwrite=overwrite, recorder=ctx.rec,
    )
    ctx.walls["partition.spill"] = (monotonic_ns() - t0) * 1e-9
    _assemble(ctx, spilled)


def _assemble(ctx, spilled: SpilledPartition) -> None:
    t0 = monotonic_ns()
    ctx.result = spilled.assemble()
    ctx.walls["partition.assemble"] = (monotonic_ns() - t0) * 1e-9
    ctx.stream_info = dict(spilled.manifest)


def _refine(ctx) -> None:
    ctx.result = refine_vertex_cut(ctx.result, **ctx.refine_options)


def _mutate(ctx) -> None:
    from ..mutate import MutationBatch, apply_mutations

    cfg = ctx.mutations
    if "file" in cfg:
        batch = MutationBatch.from_file(cfg["file"])
    else:
        batch = MutationBatch.from_ops(cfg["ops"])
    extra: Dict[str, Any] = {}
    if cfg.get("repartition_threshold") is not None:
        extra["repartition_threshold"] = cfg["repartition_threshold"]
    mutation = apply_mutations(ctx.result, batch, ctx.partitioner, **extra)
    ctx.result, ctx.graph = mutation.partition, mutation.graph
    ctx.mutation = mutation.report()


def _distribute(ctx) -> None:
    ctx.dgraph = build_distributed_graph(ctx.result)


def _run(ctx) -> None:
    backend = BACKENDS.create(ctx.backend)
    program = APPS.create(ctx.app, ctx.graph, **ctx.objects.app)
    ckpt = ctx.checkpoint or {}
    engine = BSPEngine(
        cost_model=None if ctx.cost_model is None else CostModel(**ctx.cost_model),
        backend=backend,
        checkpoint_dir=ckpt.get("dir"),
        checkpoint_every=ckpt.get("every", 1),
        checkpoint_keep=ckpt.get("keep", 2),
        recorder=ctx.rec,
    )
    ctx.run = engine.run(ctx.dgraph, program, resume_from=ctx.resume_from)


@contextmanager
def stage_errors(name: str) -> Iterator[None]:
    """Re-raise a ``TypeError`` / ``ValueError`` / ``OSError`` from the
    ``name`` stage as ``SpecError("<name> stage failed: ...")``."""
    try:
        yield
    except (SpecError, RegistryError):
        raise
    except (TypeError, ValueError, OSError) as exc:
        # Bad constructor kwargs surface deep inside a component;
        # tagging them with the stage keeps CLI errors precise.
        raise SpecError(f"{name} stage failed: {exc}") from exc


#: ``(name, stage, wanted)`` in execution order: ``stage(ctx)`` runs when
#: ``wanted(ctx)`` holds, and its name keys ``timings``, the
#: ``pipeline.<name>`` span and the "<name> stage failed" error.
_STAGES = (
    ("source", _source, lambda ctx: True),
    ("partition", _partition, lambda ctx: True),
    ("refine", _refine, lambda ctx: ctx.refine),
    ("mutate", _mutate, lambda ctx: ctx.mutations is not None),
    ("distribute", _distribute, lambda ctx: ctx.app is not None),
    ("run", _run, lambda ctx: ctx.app is not None),
)


def _spec_defaults() -> Dict[str, Any]:
    """Every :class:`PipelineSpec` field at its default (``source`` unset)."""
    return {
        f.name: f.default_factory() if f.default_factory is not dataclasses.MISSING
        else None if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(PipelineSpec)
    }


class Pipeline:
    """Fluent builder: ``source -> partition [-> refine] [-> run]``.

    Every stage setter returns ``self``; :meth:`execute` materializes a
    :class:`PipelineResult`.  Stages accept either full spec strings
    (``"ebv?alpha=2"``) or a bare name plus kwargs (``"ebv", alpha=2``);
    both normalize to the same canonical spec.
    """

    def __init__(self) -> None:
        #: the :class:`PipelineSpec` fields, by name.
        self._fields = SimpleNamespace(**_spec_defaults())
        #: what a spec cannot hold: a live Graph / EdgeChunkStream source
        #: and the object-valued kwargs of the source, partition and app.
        self._live: Union[Graph, EdgeChunkStream, None] = None
        self._objects = SimpleNamespace(source={}, partition={}, app={})

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
            self._live, self._fields.source, self._objects.source = source, None, {}
        else:
            self._live = None
            self._fields.source, self._objects.source = _fold(source, kwargs)
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
        self._fields.partition, self._objects.partition = _fold(method, kwargs)
        if parts is not None:
            if isinstance(parts, bool) or not isinstance(parts, int) or parts < 1:
                raise SpecError(f"parts must be a positive integer, got {parts!r}")
            self._fields.parts = parts
        return self

    def refine(self, enabled: bool = True, **kwargs: Any) -> "Pipeline":
        """Toggle the vertex-cut refinement post-pass (with its kwargs)."""
        self._fields.refine = bool(enabled)
        self._fields.refine_options = dict(kwargs)
        return self

    def run(self, app: str, **kwargs: Any) -> "Pipeline":
        """Choose the application to execute on the partitioned graph.

        Scalar kwargs fold into the serializable spec; object kwargs
        (e.g. a FEATPROP ``features`` matrix) are passed through to the
        program factory directly.
        """
        self._fields.app, self._objects.app = _fold(app, kwargs)
        return self

    def backend(self, backend: str = "serial", **kwargs: Any) -> "Pipeline":
        """Choose the runtime backend executing the BSP computation stage.

        Accepts full spec strings (``"process?stage_timeout=120"``) or
        a bare name plus kwargs; results are identical on every backend
        (see :mod:`repro.runtime`), only wall-clock time changes.
        """
        spec, objects = _fold(backend, kwargs)
        if objects:
            raise SpecError(
                f"backend options must be scalars, got objects for {sorted(objects)}"
            )
        self._fields.backend = spec
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
        self._fields.checkpoint = None if directory is None else _canonical_checkpoint(
            {"dir": directory, "every": every, "keep": keep}
        )
        return self

    def trace(self, path: Optional[str]) -> "Pipeline":
        """Record a structured execution trace into ``path``.

        The trace is Chrome trace-event JSON, loadable in Perfetto — per-worker
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
        self._fields.trace = path
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
            self._fields.mutations = None
            return self
        from ..mutate import MutationBatch

        if isinstance(mutations, MutationBatch):
            mutations = mutations.to_ops()
        normalized = _canonical_mutations(mutations)
        if repartition_threshold is not None:
            normalized = _canonical_mutations(
                {**normalized, "repartition_threshold": repartition_threshold}
            )
        self._fields.mutations = normalized
        return self

    def with_cost_model(self, cost_model: Optional[CostModel] = None, **kwargs: Any) -> "Pipeline":
        """Override the BSP cost model (instance or field overrides)."""
        if cost_model is not None and kwargs:
            raise SpecError("pass either a CostModel instance or field overrides, not both")
        self._fields.cost_model = dataclasses.asdict(
            cost_model if cost_model is not None else CostModel(**kwargs)
        )
        return self

    # ------------------------------------------------------------------
    # Spec round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: PipelineSpec) -> "Pipeline":
        """Hydrate a builder from a validated :class:`PipelineSpec`."""
        pipe = cls()
        vars(pipe._fields).update(spec.to_dict())
        return pipe

    def spec(self) -> PipelineSpec:
        """Serialize the chain to a :class:`PipelineSpec`.

        Raises :class:`SpecError` when the source is an in-memory Graph,
        which has no spec-string representation.
        """
        if self._live is not None:
            raise SpecError(
                "an in-memory Graph/EdgeChunkStream source cannot be "
                "serialized; use a generator spec, 'file?path=...' or a "
                "stream spec like 'edgelist?path=...'"
            )
        if self._fields.source is None:
            raise SpecError("pipeline has no source; call .source(...) first")
        objects = sorted(key for kw in vars(self._objects).values() for key in kw)
        if objects:
            raise SpecError(
                f"in-memory stage arguments {objects} cannot be serialized"
            )
        return PipelineSpec(**vars(self._fields))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, resume_from: Optional[str] = None) -> PipelineResult:
        """Run every configured stage and bundle the results.

        ``resume_from`` names a checkpoint root written by a previous
        checkpointed execution of the *same* pipeline: the BSP run
        continues from its newest snapshot (bit-identical to an
        uninterrupted run — a mismatched checkpoint is rejected by its
        fingerprint), and a stream source reuses the already-on-disk
        spill shards instead of re-partitioning.
        """
        fields = self._fields
        if self._live is not None or any(vars(self._objects).values()):
            spec = None  # not serializable, still runnable
        else:
            # Eager whole-chain validation: a bad app/partitioner name
            # fails here, before any generation or partitioning work.
            spec = self.spec()

        ckpt = fields.checkpoint
        if resume_from is not None:
            if ckpt is None:
                raise SpecError(
                    "resume_from requires a checkpointed pipeline; call "
                    ".checkpoint(...) or set the spec's 'checkpoint' entry"
                )
            if fields.app is None:
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

        ctx = SimpleNamespace(
            **vars(fields),
            live=self._live,
            objects=self._objects,
            resume_from=resume_from,
            # The null singleton when tracing is off, so the untraced
            # path allocates nothing.
            rec=TraceRecorder(label="pipeline") if fields.trace else NULL_RECORDER,
            walls={},
            stream_info=None,
            mutation=None,
            dgraph=None,
            run=None,
        )
        timings: Dict[str, float] = {}
        for name, stage, wanted in _STAGES:
            if not wanted(ctx):
                continue
            t0 = monotonic_ns()
            with stage_errors(name):
                stage(ctx)
            t1 = monotonic_ns()
            timings[name] = (t1 - t0) * 1e-9
            if ctx.rec.enabled:
                ctx.rec.add(f"pipeline.{name}", t0, t1, cat="pipeline")

        timings["total"] = sum(timings.values())
        # Sub-stage walls; dotted keys so they read as components of
        # their parent stage, not extra stages (they are intentionally
        # excluded from "total").
        timings.update(ctx.walls)
        if ctx.run is not None:
            for stage_name, seconds in ctx.run.real_stage_seconds().items():
                timings[f"run.{stage_name}"] = seconds
        return PipelineResult(
            graph=ctx.graph,
            partition=ctx.result,
            metrics=partition_metrics(ctx.result),
            run=ctx.run,
            timings=timings,
            spec=spec,
            distributed=ctx.dgraph,
            stream=ctx.stream_info,
            checkpoint_dir=None if ckpt is None else ckpt["dir"],
            trace_path=write_chrome_trace(ctx.rec, fields.trace) if fields.trace else None,
            mutation=ctx.mutation,
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
    # The root may have been renamed/relocated since the spec was
    # written; the directory being resumed always wins.
    ckpt = spec.checkpoint or {}
    return (
        Pipeline.from_spec(spec)
        .checkpoint(root, every=ckpt.get("every", 1), keep=ckpt.get("keep", 2))
        .execute(resume_from=root)
    )
