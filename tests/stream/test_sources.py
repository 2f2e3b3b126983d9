"""Unit tests for the EdgeChunkStream sources."""

import numpy as np
import pytest

from repro.graph import Graph, powerlaw_graph, write_edge_list
from repro.stream import (
    ArrayEdgeStream,
    NpyEdgeStream,
    StreamError,
    TextEdgeListStream,
    save_edge_npy,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(80, eta=2.2, min_degree=2, seed=13, name="pl-src")


def _concat(stream):
    srcs, dsts, wts = [], [], []
    for s, d, w in stream.chunks():
        srcs.append(s)
        dsts.append(d)
        if w is not None:
            wts.append(w)
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    w = np.concatenate(wts) if wts else None
    return src, dst, w


class TestTextEdgeListStream:
    def test_matches_graph(self, graph, tmp_path):
        path = str(tmp_path / "g.txt")
        write_edge_list(graph, path)
        stream = TextEdgeListStream(path, chunk_size=13)
        src, dst, _ = _concat(stream)
        assert np.array_equal(src, graph.src)
        assert np.array_equal(dst, graph.dst)

    def test_header_hints(self, graph, tmp_path):
        path = str(tmp_path / "g.txt")
        write_edge_list(graph, path)
        stream = TextEdgeListStream(path)
        assert stream.directed_hint == graph.directed
        assert stream.num_vertices_hint == graph.num_vertices

    def test_no_header_no_hints(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 1\n1 2\n")
        stream = TextEdgeListStream(str(path))
        assert stream.directed_hint is None
        assert stream.num_vertices_hint is None

    def test_reiterable(self, graph, tmp_path):
        path = str(tmp_path / "g.txt")
        write_edge_list(graph, path)
        stream = TextEdgeListStream(path, chunk_size=17)
        first = _concat(stream)
        second = _concat(stream)
        assert np.array_equal(first[0], second[0])

    def test_invalid_chunk_size(self, tmp_path):
        with pytest.raises(StreamError):
            TextEdgeListStream(str(tmp_path / "x.txt"), chunk_size=0)


class TestNpyEdgeStream:
    def test_round_trip(self, graph, tmp_path):
        path = str(tmp_path / "g.npy")
        save_edge_npy(path, graph)
        src, dst, w = _concat(NpyEdgeStream(path, chunk_size=19))
        assert np.array_equal(src, graph.src)
        assert np.array_equal(dst, graph.dst)
        assert w is None

    def test_weighted_round_trip(self, graph, tmp_path):
        weighted = graph.with_weights(np.arange(graph.num_edges, dtype=float))
        path = str(tmp_path / "g.npy")
        wpath = str(tmp_path / "g.w.npy")
        save_edge_npy(path, weighted, weights_path=wpath)
        src, dst, w = _concat(
            NpyEdgeStream(path, weights_path=wpath, chunk_size=19)
        )
        assert np.array_equal(src, weighted.src)
        assert np.allclose(w, weighted.weights)

    def test_weights_need_explicit_path(self, graph, tmp_path):
        weighted = graph.with_weights(np.ones(graph.num_edges))
        with pytest.raises(StreamError, match="weights_path"):
            save_edge_npy(str(tmp_path / "g.npy"), weighted)

    def test_metadata_hints_are_explicit(self, tmp_path):
        """The bare array has no metadata; the kwargs supply it."""
        path = str(tmp_path / "g.npy")
        np.save(path, np.array([[0, 1]], dtype=np.int64))
        bare = NpyEdgeStream(path)
        assert bare.num_vertices_hint is None
        assert bare.directed_hint is None
        hinted = NpyEdgeStream(path, num_vertices=10, directed=False)
        assert hinted.num_vertices_hint == 10
        assert hinted.directed_hint is False

    def test_bad_shape_rejected(self, tmp_path):
        path = str(tmp_path / "bad.npy")
        np.save(path, np.arange(10))
        with pytest.raises(StreamError, match=r"\(m, 2\)"):
            list(NpyEdgeStream(path).chunks())

    def test_mismatched_weights_rejected(self, tmp_path):
        path = str(tmp_path / "g.npy")
        wpath = str(tmp_path / "w.npy")
        np.save(path, np.array([[0, 1], [1, 2]], dtype=np.int64))
        np.save(wpath, np.array([1.0]))
        with pytest.raises(StreamError, match="parallel"):
            list(NpyEdgeStream(path, weights_path=wpath).chunks())


class TestArrayEdgeStream:
    def test_from_graph_carries_hints(self, graph):
        stream = ArrayEdgeStream.from_graph(graph, chunk_size=9)
        assert stream.num_vertices_hint == graph.num_vertices
        assert stream.directed_hint == graph.directed
        src, dst, _ = _concat(stream)
        assert np.array_equal(src, graph.src)

    def test_shape_validation(self):
        with pytest.raises(StreamError):
            ArrayEdgeStream([1, 2], [3])
        with pytest.raises(StreamError):
            ArrayEdgeStream([1], [2], weights=[1.0, 2.0])
