"""The five concrete registries every entry point routes through.

* :data:`PARTITIONERS` — every partition algorithm in the code base,
  including the streaming/sharded EBV variants and the two random
  baselines.  Factories take constructor kwargs only.
* :data:`APPS` — the BSP applications; factories take ``(graph, **kw)``
  and delegate to :func:`repro.frameworks.make_program` so the CLI, the
  fluent builder and the experiment drivers build programs identically.
* :data:`GENERATORS` — graph sources: the synthetic generators (uniform
  ``vertices=`` sizing via :func:`repro.graph.generate_graph`) plus a
  ``file`` source that reads an edge list from disk.
* :data:`STREAMS` — out-of-core graph sources: chunked
  :class:`~repro.stream.EdgeChunkStream` readers (``edgelist`` text,
  binary ``npy``) that feed :func:`repro.stream.stream_partition`
  without ever materializing a :class:`~repro.graph.Graph`; a
  ``source`` spec naming one of these makes the pipeline run the
  out-of-core partition path.
* :data:`BACKENDS` — the :mod:`repro.runtime` execution backends for
  the BSP computation stage (``serial``, ``thread``, ``process``);
  factories take constructor kwargs only.
* :data:`EXPERIMENTS` — the paper-artifact drivers; factories take an
  :class:`~repro.experiments.ExperimentConfig` and return report text.

These registries are the single source of truth for what exists: CLI
``choices`` and spec validation are views over them, so the available
components can never drift from what the help text and error messages
advertise.
"""

from __future__ import annotations

from functools import partial

from ..experiments import (
    generate_report,
    run_breakdown,
    run_fig2,
    run_fig3,
    run_fig5,
    run_table1,
    run_tables345,
)
from ..frameworks import make_program
from ..graph import GENERATOR_KINDS, generate_graph, read_edge_list
from ..partition import (
    CVCPartitioner,
    DBHPartitioner,
    EBVPartitioner,
    GingerPartitioner,
    HDRFPartitioner,
    MetisLikePartitioner,
    NEPartitioner,
    RandomEdgeHashPartitioner,
    RandomVertexHashPartitioner,
    ShardedEBVPartitioner,
    StreamingEBVPartitioner,
)
from ..runtime import BACKEND_ALIASES, BACKEND_TYPES
from ..stream import NpyEdgeStream, TextEdgeListStream
from .registry import Registry

__all__ = [
    "PARTITIONERS",
    "APPS",
    "GENERATORS",
    "STREAMS",
    "BACKENDS",
    "EXPERIMENTS",
]


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------

PARTITIONERS = Registry("partitioner")

PARTITIONERS.register("ebv", EBVPartitioner, aliases=("ebv-sort",))
PARTITIONERS.register("ebv-stream", StreamingEBVPartitioner)
PARTITIONERS.register("ebv-sharded", ShardedEBVPartitioner)
PARTITIONERS.register("ginger", GingerPartitioner)
PARTITIONERS.register("dbh", DBHPartitioner)
PARTITIONERS.register("cvc", CVCPartitioner)
PARTITIONERS.register("ne", NEPartitioner)
PARTITIONERS.register("metis", MetisLikePartitioner)
PARTITIONERS.register("hdrf", HDRFPartitioner)
PARTITIONERS.register("random-edge", RandomEdgeHashPartitioner)
PARTITIONERS.register("random-vertex", RandomVertexHashPartitioner)


@PARTITIONERS.register("ebv-unsort")
def _ebv_unsort(**kwargs) -> EBVPartitioner:
    """EBV without the degree sort (the paper's EBV-unsort ablation)."""
    return EBVPartitioner(sort_order="input", **kwargs)


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------

APPS = Registry("app")


def _app_factory(canonical: str):
    def factory(graph, **kwargs):
        return make_program(canonical, graph, **kwargs)

    factory.__name__ = f"make_{canonical.lower()}"
    factory.__doc__ = f"Build the {canonical} program via make_program."
    return factory


APPS.register("cc", _app_factory("CC"), aliases=("connected-components",))
APPS.register("pr", _app_factory("PR"), aliases=("pagerank",))
APPS.register("sssp", _app_factory("SSSP"), aliases=("shortest-paths",))
APPS.register("bfs", _app_factory("BFS"))
APPS.register("kcore", _app_factory("KCORE"), aliases=("k-core",))
APPS.register("featprop", _app_factory("FEATPROP"), aliases=("feature-propagation",))


# ----------------------------------------------------------------------
# Graph sources
# ----------------------------------------------------------------------

GENERATORS = Registry("generator")

for _kind in GENERATOR_KINDS:
    GENERATORS.register(_kind, partial(generate_graph, _kind))


@GENERATORS.register("file")
def _file_source(path: str, **kwargs):
    """Read an edge list from disk (``"file?path=graph.txt"``)."""
    return read_edge_list(path, **kwargs)


# ----------------------------------------------------------------------
# Out-of-core stream sources
# ----------------------------------------------------------------------

STREAMS = Registry("stream")

STREAMS.register("edgelist", TextEdgeListStream, aliases=("text",))
STREAMS.register("npy", NpyEdgeStream)


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------

BACKENDS = Registry("backend")

for _name, _backend_cls in BACKEND_TYPES.items():
    BACKENDS.register(
        _name, _backend_cls,
        aliases=tuple(a for a, canonical in BACKEND_ALIASES.items() if canonical == _name),
    )


# ----------------------------------------------------------------------
# Experiment drivers
# ----------------------------------------------------------------------

EXPERIMENTS = Registry("experiment")

EXPERIMENTS.register("table1", lambda config: run_table1(config)[1])
EXPERIMENTS.register("table2", lambda config: run_breakdown(config)[2])
EXPERIMENTS.register("fig4", lambda config: run_breakdown(config)[3])
EXPERIMENTS.register("table3", lambda config: run_tables345(config)[1])
EXPERIMENTS.register("table4", lambda config: run_tables345(config)[2])
EXPERIMENTS.register("table5", lambda config: run_tables345(config)[3])
EXPERIMENTS.register("fig2", lambda config: run_fig2(config)[1])
EXPERIMENTS.register("fig3", lambda config: run_fig3(config)[1])
EXPERIMENTS.register("fig5", lambda config: run_fig5(config)[1])
EXPERIMENTS.register(
    "all", lambda config: generate_report(config, include_figures=False)
)
