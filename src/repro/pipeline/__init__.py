"""Unified pipeline API: registries, fluent builder, serializable specs.

This package is the single front door for composing a complete run —
load/generate a graph, partition it, optionally refine, execute an app,
collect metrics — from any scenario (CLI, experiments, benchmarks, a
future server):

* :mod:`repro.pipeline.registry` — the generic :class:`Registry` and the
  ``"name?key=val,..."`` spec grammar;
* :mod:`repro.pipeline.registries` — the concrete component registries
  (:data:`PARTITIONERS`, :data:`APPS`, :data:`GENERATORS`,
  :data:`STREAMS`, :data:`BACKENDS`, :data:`EXPERIMENTS`);
* :mod:`repro.pipeline.spec` — :class:`PipelineSpec`, a whole run as one
  JSON document;
* :mod:`repro.pipeline.builder` — the fluent :class:`Pipeline` builder,
  :class:`PipelineResult`, :func:`run_spec`, :func:`stage_errors`, and
  :func:`resume_pipeline`, which continues a crashed checkpointed run
  from its newest :mod:`repro.checkpoint` snapshot (``repro resume``).
"""

from .builder import Pipeline, PipelineResult, resume_pipeline, run_spec, stage_errors
from .registries import APPS, BACKENDS, EXPERIMENTS, GENERATORS, PARTITIONERS, STREAMS
from .registry import (
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
    format_spec,
    parse_spec,
)
from .spec import PipelineSpec, SpecError

__all__ = [
    "Pipeline",
    "PipelineResult",
    "run_spec",
    "resume_pipeline",
    "stage_errors",
    "APPS",
    "BACKENDS",
    "EXPERIMENTS",
    "GENERATORS",
    "STREAMS",
    "PARTITIONERS",
    "Registry",
    "RegistryError",
    "DuplicateComponentError",
    "UnknownComponentError",
    "parse_spec",
    "format_spec",
    "PipelineSpec",
    "SpecError",
]
