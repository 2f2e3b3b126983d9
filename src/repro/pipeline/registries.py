"""The five concrete registries every entry point routes through.

* :data:`PARTITIONERS` — every partition algorithm in the code base,
  including the streaming/sharded EBV variants and the two random
  baselines.  Factories take constructor kwargs only.
* :data:`APPS` — the BSP applications; factories take ``(graph, **kw)``
  and are :func:`repro.apps.make_program` bound to one app name, so the
  CLI, the fluent builder and the experiment drivers build programs
  identically.
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
  the BSP computation stage (``serial``, ``thread``, ``process``,
  ``socket``); factories take constructor kwargs only.
* :data:`EXPERIMENTS` — the paper-artifact drivers; factories take an
  :class:`~repro.experiments.ExperimentConfig` and return report text.
  Each factory imports its driver when called: production code never
  imports :mod:`repro.experiments` or :mod:`repro.frameworks`.

These registries are the single source of truth for what exists: CLI
``choices`` and spec validation are views over them, so the available
components can never drift from what the help text and error messages
advertise.
"""

from __future__ import annotations

from functools import partial

from ..apps import make_program
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


# EBV without the degree sort (the paper's EBV-unsort ablation); a
# partial keeps EBVPartitioner's signature, so specs bind against it.
PARTITIONERS.register("ebv-unsort", partial(EBVPartitioner, sort_order="input"))


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------

APPS = Registry("app")

APPS.register("cc", partial(make_program, "CC"), aliases=("connected-components",))
APPS.register("pr", partial(make_program, "PR"), aliases=("pagerank",))
APPS.register("sssp", partial(make_program, "SSSP"), aliases=("shortest-paths",))
APPS.register("bfs", partial(make_program, "BFS"))
APPS.register("kcore", partial(make_program, "KCORE"), aliases=("k-core",))
APPS.register("featprop", partial(make_program, "FEATPROP"), aliases=("feature-propagation",))


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


def _experiment(driver: str, index: int):
    """Item ``index`` of ``repro.experiments.<driver>(config)``, imported
    when the factory is called."""

    def factory(config):
        from .. import experiments

        return getattr(experiments, driver)(config)[index]

    return factory


EXPERIMENTS.register("table1", _experiment("run_table1", 1))
EXPERIMENTS.register("table2", _experiment("run_breakdown", 2))
EXPERIMENTS.register("fig4", _experiment("run_breakdown", 3))
EXPERIMENTS.register("table3", _experiment("run_tables345", 1))
EXPERIMENTS.register("table4", _experiment("run_tables345", 2))
EXPERIMENTS.register("table5", _experiment("run_tables345", 3))
EXPERIMENTS.register("fig2", _experiment("run_fig2", 1))
EXPERIMENTS.register("fig3", _experiment("run_fig3", 1))
EXPERIMENTS.register("fig5", _experiment("run_fig5", 1))


@EXPERIMENTS.register("all")
def _report(config):
    """The whole report, figures excluded."""
    from .. import experiments

    return experiments.generate_report(config, include_figures=False)
