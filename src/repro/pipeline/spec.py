"""Serializable pipeline run specifications.

A :class:`PipelineSpec` is one JSON document describing a complete run —
graph source, partitioner, refinement, application and cost model — the
substrate for batch sweeps, the ``python -m repro pipeline`` subcommand
and any future serving layer.  Construction validates eagerly: every
component spec must parse and resolve against its registry, and its
option names must be parameters of the component's factory, so a
malformed document fails with a precise message instead of halfway
through a run.  Generators take ``**kwargs`` and forward them, so
their option names are checked only when the source stage runs.

Component spec strings are normalized to canonical form (sorted options,
lower-cased names) on construction, which makes
``PipelineSpec.from_dict(spec.to_dict())`` byte-stable and lets a spec
built through the fluent :class:`~repro.pipeline.builder.Pipeline`
compare equal to one loaded from JSON.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..bsp import CostModel
from ..partition.streaming import STREAMING_PARTITIONERS
from .registries import APPS, BACKENDS, GENERATORS, PARTITIONERS, STREAMS
from .registry import RegistryError, format_spec, parse_spec

__all__ = ["PipelineSpec", "SpecError"]


class SpecError(ValueError):
    """A pipeline spec document is malformed or references unknown parts."""


_COST_MODEL_FIELDS = tuple(f.name for f in dataclasses.fields(CostModel))


def _check_options(factory, kwargs: Dict[str, Any], label: str, spec: str) -> None:
    """Refuse an option ``factory`` has no parameter for.

    A bare name has nothing to check, and building a signature can take
    milliseconds (a class without its own ``__init__``), so it is skipped.
    """
    if not kwargs:
        return
    try:
        inspect.signature(factory).bind_partial(**kwargs)
    except TypeError as exc:
        raise SpecError(f"invalid {label!r} spec {spec!r}: {exc}") from exc


def _canonical_component(value: Any, registry, label: str) -> str:
    """Validate one component spec string and its option names against
    ``registry``."""
    if not isinstance(value, str):
        raise SpecError(f"{label!r} must be a spec string, got {type(value).__name__}")
    try:
        name, kwargs = parse_spec(value)
        name = registry.canonical(name)
    except RegistryError as exc:
        raise SpecError(f"invalid {label!r} spec: {exc}") from exc
    _check_options(registry.get(name), kwargs, label, value)
    return format_spec(name, kwargs)


def _canonical_source(value: Any) -> tuple:
    """Validate a source spec against GENERATORS, then STREAMS.

    Returns ``(canonical_spec, is_stream)``.  The two registries share
    no names, so the first registry that answers wins; an unknown name
    reports the names of both families.  A stream's option names are
    checked against its reader; a generator's are not (it takes
    ``**kwargs``).
    """
    if not isinstance(value, str):
        raise SpecError(f"'source' must be a spec string, got {type(value).__name__}")
    try:
        name, kwargs = parse_spec(value)
    except RegistryError as exc:
        raise SpecError(f"invalid 'source' spec: {exc}") from exc
    for registry, is_stream in ((GENERATORS, False), (STREAMS, True)):
        if name in registry:
            if is_stream:
                _check_options(registry.get(name), kwargs, "source", value)
            return format_spec(registry.canonical(name), kwargs), is_stream
    raise SpecError(
        f"invalid 'source' spec: unknown source {name!r}; available "
        f"generators: {', '.join(GENERATORS.names())}; available streams: "
        f"{', '.join(STREAMS.names())}"
    )


#: checkpoint-config keys and their (default, validator) pairs.
_CHECKPOINT_DEFAULTS = {"every": 1, "keep": 2}


def _canonical_checkpoint(value: Any) -> Optional[Dict[str, Any]]:
    """Validate/normalize the ``checkpoint`` entry.

    Accepts ``None``, a bare directory string, or a dict with ``dir``
    (required) plus optional ``every``/``keep``; always returns the
    fully-populated dict form so ``to_dict`` round-trips byte-stably.
    """
    if value is None:
        return None
    if isinstance(value, str):
        value = {"dir": value}
    if not isinstance(value, dict):
        raise SpecError(
            f"'checkpoint' must be null, a directory string, or an options "
            f"dict, got {type(value).__name__}"
        )
    unknown = sorted(set(value) - ({"dir"} | set(_CHECKPOINT_DEFAULTS)))
    if unknown:
        raise SpecError(
            f"unknown checkpoint keys {unknown}; expected a subset of "
            f"['dir', 'every', 'keep']"
        )
    directory = value.get("dir")
    if not isinstance(directory, str) or not directory:
        raise SpecError("'checkpoint' requires a non-empty 'dir' string")
    normalized: Dict[str, Any] = {"dir": directory}
    for key, default in _CHECKPOINT_DEFAULTS.items():
        item = value.get(key, default)
        if key == "keep" and item is None:
            normalized[key] = None  # retain every snapshot
            continue
        if isinstance(item, bool) or not isinstance(item, int) or item < 1:
            raise SpecError(
                f"checkpoint {key!r} must be an integer >= 1"
                f"{' or null (keep all)' if key == 'keep' else ''}, got {item!r}"
            )
        normalized[key] = item
    return normalized


def _canonical_mutations(value: Any) -> Optional[Dict[str, Any]]:
    """Validate/normalize the ``mutations`` entry.

    Accepts ``None``, a mutations-file path string, a bare op list
    (``[["insert", u, v], ["delete", u, v], ...]``), or a dict with
    exactly one of ``file``/``ops`` plus an optional
    ``repartition_threshold``.  Inline ops are validated by actually
    building the :class:`repro.mutate.MutationBatch` and re-serialized
    in its canonical op form; a file path is resolved lazily at
    execution time (the spec stays portable across machines).
    """
    if value is None:
        return None
    from ..mutate import MutationBatch, MutationError

    if isinstance(value, str):
        value = {"file": value}
    elif isinstance(value, (list, tuple)):
        value = {"ops": list(value)}
    if not isinstance(value, dict):
        raise SpecError(
            f"'mutations' must be null, a file path, an op list, or an "
            f"options dict, got {type(value).__name__}"
        )
    unknown = sorted(set(value) - {"file", "ops", "repartition_threshold"})
    if unknown:
        raise SpecError(
            f"unknown mutations keys {unknown}; expected a subset of "
            f"['file', 'ops', 'repartition_threshold']"
        )
    has_file, has_ops = "file" in value, "ops" in value
    if has_file == has_ops:
        raise SpecError("'mutations' requires exactly one of 'file' or 'ops'")
    normalized: Dict[str, Any] = {}
    if has_file:
        path = value["file"]
        if not isinstance(path, str) or not path:
            raise SpecError("mutations 'file' must be a non-empty path string")
        normalized["file"] = path
    else:
        try:
            normalized["ops"] = MutationBatch.from_ops(value["ops"]).to_ops()
        except (MutationError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid 'mutations' ops: {exc}") from exc
    threshold = value.get("repartition_threshold")
    if threshold is not None:
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, (int, float))
            or not 0.0 <= threshold <= 1.0
        ):
            raise SpecError(
                f"mutations 'repartition_threshold' must be a number in "
                f"[0, 1], got {threshold!r}"
            )
        normalized["repartition_threshold"] = float(threshold)
    return normalized


def _check_stream_partitioner(partition_spec: str) -> None:
    """Eagerly reject stream sources with non-streaming partitioners."""
    try:
        streams = PARTITIONERS.create(partition_spec).streams
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid 'partition' spec {partition_spec!r}: {exc}") from exc
    if not streams:
        raise SpecError(
            f"partitioner spec {partition_spec!r} cannot consume a stream "
            f"source; {STREAMING_PARTITIONERS}"
        )


@dataclass
class PipelineSpec:
    """One pipeline run as data: ``source -> partition [-> refine] [-> app]``.

    Attributes
    ----------
    source:
        Generator spec (``"powerlaw?vertices=20000,eta=2.2"``), file
        source (``"file?path=graph.txt"``), or an out-of-core stream
        source (``"edgelist?path=huge.txt,chunk_size=65536"``,
        ``"npy?path=huge.npy"``; see :data:`repro.pipeline.STREAMS`).
        A stream source runs the partition stage out of core through
        :func:`repro.stream.stream_partition` and therefore requires a
        streaming-capable partitioner (``ebv-stream``, or
        ``ebv-sharded?sort_edges=false``).
    partition:
        Partitioner spec (``"ebv?alpha=2,sort_order=input"``).
    parts:
        Number of subgraphs / BSP workers.
    refine:
        Whether to apply the vertex-cut refinement post-pass.
    refine_options:
        Keyword arguments for :func:`repro.partition.refine_vertex_cut`
        (``alpha``, ``beta``, ``max_passes``, ``seed``).  A dict passed
        as ``refine`` is accepted and normalized to ``refine=True`` plus
        options.
    app:
        Optional application spec (``"pr?pagerank_iters=10"``); when
        ``None`` the pipeline stops after partition metrics.
    backend:
        Runtime backend spec for the BSP computation stage
        (``"serial"``, ``"thread"``, ``"process?stage_timeout=120"``;
        see :mod:`repro.runtime`).  Backends change wall-clock time
        only — results are identical across all of them.
    cost_model:
        Optional :class:`~repro.bsp.CostModel` overrides by field name.
    checkpoint:
        Optional superstep-granular checkpointing of the BSP run (see
        :mod:`repro.checkpoint`): a directory string or a dict with
        ``dir`` (required), ``every`` (snapshot cadence in supersteps,
        default 1) and ``keep`` (snapshots retained, default 2).  The
        executed pipeline writes its own spec to ``<dir>/pipeline.json``
        so ``repro resume <dir>`` can rebuild and continue the run; a
        stream source spills its shards under ``<dir>/spill`` and resume
        reuses them, skipping the re-partition entirely.
    trace:
        Optional output path for a structured execution trace (see
        :mod:`repro.obs`), written as Chrome trace-event JSON
        (Perfetto-loadable).
        Tracing is strictly observational — results, deterministic
        stats and checkpoint fingerprints are bit-identical with and
        without it.
    mutations:
        Optional edge mutation batch (see :mod:`repro.mutate`) applied
        to the partition after the partition/refine stages: a mutations
        file path, an inline op list (``[["insert", u, v], ["delete",
        u, v]]``), or a dict with one of ``file``/``ops`` plus an
        optional ``repartition_threshold``.  Downstream stages (metrics
        and the app) run against the *mutated* graph and partition.
    """

    source: str
    partition: str = "ebv"
    parts: int = 8
    refine: bool = False
    refine_options: Dict[str, Any] = field(default_factory=dict)
    app: Optional[str] = None
    backend: str = "serial"
    cost_model: Optional[Dict[str, float]] = None
    checkpoint: Optional[Dict[str, Any]] = None
    trace: Optional[str] = None
    mutations: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.source, self._source_is_stream = _canonical_source(self.source)
        self.partition = _canonical_component(self.partition, PARTITIONERS, "partition")
        if self._source_is_stream:
            _check_stream_partitioner(self.partition)
        if isinstance(self.refine, dict):
            self.refine_options = dict(self.refine)
            self.refine = True
        if not isinstance(self.refine, bool):
            raise SpecError(
                f"'refine' must be a bool or an options dict, got {self.refine!r}"
            )
        if not isinstance(self.refine_options, dict):
            raise SpecError("'refine_options' must be a dict")
        if isinstance(self.parts, bool) or not isinstance(self.parts, int):
            raise SpecError(f"'parts' must be an integer, got {self.parts!r}")
        if self.parts < 1:
            raise SpecError(f"'parts' must be >= 1, got {self.parts}")
        if self.app is not None:
            self.app = _canonical_component(self.app, APPS, "app")
        self.backend = _canonical_component(self.backend, BACKENDS, "backend")
        self.checkpoint = _canonical_checkpoint(self.checkpoint)
        self.mutations = _canonical_mutations(self.mutations)
        if self.trace is not None and (
            not isinstance(self.trace, str) or not self.trace
        ):
            raise SpecError(
                f"'trace' must be null or a non-empty output path, got {self.trace!r}"
            )
        if self.cost_model is not None:
            if not isinstance(self.cost_model, dict):
                raise SpecError("'cost_model' must be a dict of CostModel fields")
            unknown = sorted(set(self.cost_model) - set(_COST_MODEL_FIELDS))
            if unknown:
                raise SpecError(
                    f"unknown cost_model fields {unknown}; "
                    f"expected a subset of {list(_COST_MODEL_FIELDS)}"
                )

    @property
    def source_is_stream(self) -> bool:
        """True when ``source`` names an out-of-core stream reader."""
        return self._source_is_stream

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelineSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise SpecError(f"pipeline spec must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown pipeline spec keys {unknown}; expected a subset of {sorted(known)}")
        if "source" not in data:
            raise SpecError("pipeline spec requires a 'source' entry")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Parse a JSON document into a validated spec."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"pipeline spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical plain-dict form (inverse of :meth:`from_dict`)."""
        out = {
            "source": self.source,
            "partition": self.partition,
            "parts": self.parts,
            "refine": self.refine,
            "refine_options": dict(self.refine_options),
            "app": self.app,
            "backend": self.backend,
            "cost_model": None if self.cost_model is None else dict(self.cost_model),
            "checkpoint": None if self.checkpoint is None else dict(self.checkpoint),
        }
        # Emitted only when set: untraced/unmutated specs keep their
        # historical byte-identical serialization (committed goldens).
        if self.trace is not None:
            out["trace"] = self.trace
        if self.mutations is not None:
            out["mutations"] = dict(self.mutations)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def build_cost_model(self) -> Optional[CostModel]:
        """Materialize the cost-model overrides (``None`` when unset)."""
        if self.cost_model is None:
            return None
        return CostModel(**self.cost_model)
