"""repro — reproduction of "An Efficient and Balanced Graph Partition
Algorithm for the Subgraph-Centric Programming Model on Large-scale
Power-law Graphs" (EBV, ICDCS 2021).

Public API tour
---------------

The pipeline front door (:mod:`repro.pipeline`) — compose a whole run
fluently, or run it from one JSON document::

    from repro.pipeline import Pipeline, PipelineSpec, run_spec

    result = (
        Pipeline()
        .source("powerlaw?vertices=10000,eta=2.2")
        .partition("ebv", parts=8)
        .refine()
        .run("pagerank")
        .execute()
    )
    print(result.to_json())          # graph + partition + run + timings

    spec = PipelineSpec.from_dict({"source": "powerlaw?vertices=10000",
                                   "partition": "ebv", "parts": 8,
                                   "app": "cc"})
    same = run_spec(spec)            # identical result, spec-driven

Every pluggable component is addressable by spec string through the
registries (:mod:`repro.pipeline.registries`)::

    from repro.pipeline import PARTITIONERS, APPS, GENERATORS
    PARTITIONERS.create("ebv?alpha=2,sort_order=input")
    APPS.names()     # ('bfs', 'cc', 'featprop', 'kcore', 'pr', 'sssp')

Graphs (:mod:`repro.graph`)::

    from repro.graph import Graph, generate_graph, powerlaw_graph

Partitioning (:mod:`repro.partition`) — EBV plus the baselines::

    from repro.partition import EBVPartitioner, partition_metrics
    result = EBVPartitioner().partition(graph, num_parts=8)

Execution (:mod:`repro.bsp` + :mod:`repro.apps`)::

    from repro.bsp import build_distributed_graph, BSPEngine
    from repro.apps import ConnectedComponents
    run = BSPEngine().run(build_distributed_graph(result), ConnectedComponents())
    # run.partition_method is inherited from the partition result

Parallel runtimes (:mod:`repro.runtime`) — the computation stage on a
thread pool or a persistent shared-memory process pool, bit-identical
to the serial reference::

    run = BSPEngine(backend="process").run(dgraph, ConnectedComponents())
    run.real_stage_seconds()   # measured {"compute", "exchange"} walls

Out-of-core ingestion (:mod:`repro.stream`) — partition graphs that
never fit in memory, chunk by chunk from disk, byte-identical to the
in-memory path::

    from repro.stream import TextEdgeListStream, stream_partition
    from repro.partition import StreamingEBVPartitioner

    spilled = stream_partition(TextEdgeListStream("huge.txt"),
                               StreamingEBVPartitioner(), 8, "huge.spill")
    dgraph = spilled.to_distributed()   # O(|E|) assembly, done last

Paper artifacts — every table and figure (:mod:`repro.experiments`),
the modelled comparison systems (:mod:`repro.frameworks`) and the
breakdown/message analysis (:mod:`repro.analysis`).  They import the
production packages above, never the reverse, so importing the CLI, the
pipeline or a runtime worker loads none of them::

    from repro.experiments import run_table1, run_fig2, run_tables345

Importing :mod:`repro` itself loads nothing: import the subpackage you
need (``import repro.pipeline`` or ``from repro import pipeline``).
"""

__version__ = "1.3.0"

__all__ = [
    "analysis",
    "apps",
    "bsp",
    "experiments",
    "frameworks",
    "graph",
    "partition",
    "pipeline",
    "runtime",
    "stream",
    "tables",
    "__version__",
]
