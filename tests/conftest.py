"""Shared fixtures: small deterministic graphs reused across the suite."""

import re
import threading
import time

import numpy as np
import pytest

from repro.graph import Graph, powerlaw_graph, road_network
from repro.runtime import serve_worker


@pytest.fixture(scope="session")
def tiny_graph():
    """The 6-vertex graph of the paper's Figure 1 (A..F -> 0..5).

    Undirected edges: A-B, A-C, B-C, A-D, A-E, D-E (relabeled so that the
    alphabetical edge order of the figure is the input order).
    """
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
    return Graph.from_undirected_edges(edges, num_vertices=6, name="fig1")


@pytest.fixture(scope="session")
def path_graph():
    """A 10-vertex directed path 0 -> 1 -> ... -> 9."""
    return Graph.from_edges(
        [(i, i + 1) for i in range(9)], num_vertices=10, directed=True, name="path"
    )


@pytest.fixture(scope="session")
def two_triangles():
    """Two disjoint triangles: {0,1,2} and {3,4,5} (undirected)."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return Graph.from_undirected_edges(edges, num_vertices=6, name="triangles")


@pytest.fixture(scope="session")
def small_powerlaw():
    """A ~1k-vertex power-law graph (undirected, eta ~ 2.2)."""
    return powerlaw_graph(1000, eta=2.2, min_degree=2, seed=3, name="pl-small")


@pytest.fixture(scope="session")
def small_directed_powerlaw():
    """A ~800-vertex directed power-law graph."""
    return powerlaw_graph(
        800, eta=2.0, min_degree=3, directed=True, seed=5, name="pl-dir"
    )


@pytest.fixture(scope="session")
def small_road():
    """A 12x12 road grid with weights."""
    return road_network(12, 12, seed=2, name="road-small")


@pytest.fixture(scope="session")
def graph_zoo(tiny_graph, path_graph, two_triangles, small_powerlaw,
              small_directed_powerlaw, small_road):
    """All the small graphs, for parametrized sweeps."""
    return {
        g.name: g
        for g in (
            tiny_graph,
            path_graph,
            two_triangles,
            small_powerlaw,
            small_directed_powerlaw,
            small_road,
        )
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def external_workers(capsys):
    """Start ``n`` real ``serve_worker`` threads the test did not "spawn".

    ``external_workers(n)`` returns their ``host:port+host:port`` spec —
    read off the same stdout announce line a spawning coordinator parses
    — for ``SocketBackend(workers=...)``.  Each worker serves exactly one
    session, so the test must open one; teardown checks they all exited.
    """
    threads = []

    def start(n: int) -> str:
        for _ in range(n):
            thread = threading.Thread(
                target=serve_worker, args=("127.0.0.1:0", 1), daemon=True
            )
            thread.start()
            threads.append(thread)
        announced, deadline = [], time.monotonic() + 30
        while len(announced) < n:
            assert time.monotonic() < deadline, "workers never announced a port"
            announced += re.findall(r"REPRO-WORKER listening (\S+)", capsys.readouterr().out)
            time.sleep(0.005)
        return "+".join(announced)

    yield start
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "an external worker outlived its session"
