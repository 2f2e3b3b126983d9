"""The app-name -> program dispatcher behind the ``APPS`` registry."""

import re

import pytest

from repro.apps import make_program
from repro.bsp import BSPEngine, build_distributed_graph
from repro.cli import main
from repro.graph import Graph, write_edge_list
from repro.partition import DBHPartitioner
from repro.pipeline.registries import APPS


class TestMakeProgram:
    def test_cc(self, small_powerlaw):
        prog = make_program("CC", small_powerlaw)
        assert prog.name == "CC"
        assert prog.local_convergence

    def test_sssp_default_source(self, small_powerlaw):
        prog = make_program("SSSP", small_powerlaw)
        deg = small_powerlaw.degrees()
        assert deg[prog.source] == deg.max()

    def test_sssp_explicit_source(self, small_powerlaw):
        assert make_program("SSSP", small_powerlaw, source=7).source == 7

    def test_pr(self, small_powerlaw):
        prog = make_program("PR", small_powerlaw, pagerank_iters=7)
        assert prog.max_iters == 7

    def test_vertex_centric_flag(self, small_powerlaw):
        prog = make_program("CC", small_powerlaw, local_convergence=False)
        assert not prog.local_convergence

    def test_unknown_app(self, small_powerlaw):
        with pytest.raises(ValueError):
            make_program("Triangles", small_powerlaw)


_OUT_OF_RANGE = (
    "sssp?source=-1",
    "sssp?source={n}",
    "bfs?source={n}",
    "pr?pagerank_iters=0",
    "pr?pagerank_iters=-3",
)


@pytest.mark.parametrize("spec", _OUT_OF_RANGE)
def test_out_of_range_parameters_rejected(spec, small_powerlaw, tmp_path, capsys):
    """A source that is no vertex id, or fewer than one PageRank
    iteration, is an error rather than a silent empty run."""
    spec = spec.format(n=small_powerlaw.num_vertices)
    if spec == _OUT_OF_RANGE[0]:  # once through the CLI's error boundary
        path = str(tmp_path / "g.txt")
        write_edge_list(small_powerlaw, path)
        assert main(["run", path, "--app", "sssp", "--source", "99999",
                     "--workers", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(ValueError, match="source|pagerank_iters"):
        APPS.create(spec, small_powerlaw)


def _cycle(weights):
    return Graph(3, [0, 1, 2], [1, 2, 0], weights=weights)


@pytest.mark.parametrize(
    "weights,bad",
    [([1.0, -5.0, 1.0], "edge 1 (1 -> 2) has weight -5.0"),
     ([1.0, 2.0, float("nan")], "edge 2 (2 -> 0) has weight nan")],
    ids=["negative-cycle", "nan"],
)
def test_sssp_rejects_lengths_dijkstra_cannot_take(weights, bad, tmp_path, capsys):
    """A negative cycle kept the local fixpoint loop relaxing forever, and
    a NaN length fails every ``<`` so its edge silently dropped out."""
    graph = _cycle(weights)
    with pytest.raises(ValueError, match=re.escape(bad)):
        make_program("SSSP", graph)
    path = str(tmp_path / "g.txt")
    write_edge_list(graph, path)
    assert main(["run", path, "--app", "sssp", "--method", "dbh", "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad in err


def test_bfs_ignores_weights():
    run = BSPEngine().run(
        build_distributed_graph(DBHPartitioner().partition(_cycle([1.0, -5.0, 1.0]), 2)),
        make_program("BFS", _cycle([1.0, -5.0, 1.0]), source=0),
    )
    assert run.values.tolist() == [0.0, 1.0, 2.0]
