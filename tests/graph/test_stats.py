"""Unit tests for graph statistics and eta estimation."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    degree_histogram,
    estimate_eta_fit,
    estimate_eta_mle,
    graph_stats,
    powerlaw_graph,
    road_network,
)


class TestDegreeHistogram:
    def test_simple(self, path_graph):
        values, counts = degree_histogram(path_graph)
        # Path: two endpoints of degree 1, eight of degree 2.
        assert values.tolist() == [1, 2]
        assert counts.tolist() == [2, 8]

    def test_excludes_isolated(self):
        g = Graph.from_edges([(0, 1)], num_vertices=5)
        values, counts = degree_histogram(g)
        assert counts.sum() == 2  # only the two endpoints

    def test_empty_graph(self):
        g = Graph.from_edges([], num_vertices=3)
        values, counts = degree_histogram(g)
        assert values.size == 0 and counts.size == 0


class TestEtaMLE:
    def test_recovers_exponent_roughly(self):
        g = powerlaw_graph(20000, eta=2.5, min_degree=2, seed=11)
        est = estimate_eta_mle(g, d_min=4)
        assert 1.8 < est < 3.5

    def test_requires_enough_vertices(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(ValueError):
            estimate_eta_mle(g, d_min=100)


class TestEtaFit:
    def test_power_law_ordering(self):
        heavy = powerlaw_graph(5000, eta=1.8, min_degree=3, seed=1)
        light = powerlaw_graph(5000, eta=3.2, min_degree=3, seed=1)
        assert estimate_eta_fit(heavy) < estimate_eta_fit(light)

    def test_road_graph_is_steep(self):
        road = road_network(40, 40, seed=1)
        pl = powerlaw_graph(1600, eta=2.0, min_degree=3, seed=1)
        assert estimate_eta_fit(road) > estimate_eta_fit(pl)

    def test_degenerate_distribution_sentinel(self):
        # A perfect cycle: every vertex degree 2 -> single-point tail.
        g = Graph.from_undirected_edges(
            [(i, (i + 1) % 10) for i in range(10)], num_vertices=10
        )
        assert estimate_eta_fit(g) == 20.0

    def test_empty_graph_sentinel(self):
        g = Graph.from_edges([], num_vertices=3)
        assert estimate_eta_fit(g) == 20.0


class TestGraphStats:
    def test_fields(self, tiny_graph):
        s = graph_stats(tiny_graph)
        assert s.name == "fig1"
        assert s.kind == "Undirected"
        assert s.num_vertices == 6
        assert s.num_edges == 6  # undirected count
        assert s.average_degree == pytest.approx(2.0)

    def test_directed_kind(self, path_graph):
        s = graph_stats(path_graph)
        assert s.kind == "Directed"
        assert s.num_edges == 9

    def test_as_row_rounding(self, tiny_graph):
        row = graph_stats(tiny_graph).as_row()
        assert row[0] == "fig1"
        assert isinstance(row[4], float)
