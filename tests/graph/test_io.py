"""Unit tests for graph IO round-trips."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    iter_edge_chunks,
    read_edge_list,
    read_edge_list_header,
    read_metis,
    road_network,
    write_edge_list,
    write_metis,
)


class TestEdgeList:
    def test_roundtrip_directed(self, tmp_path, path_graph):
        p = str(tmp_path / "g.txt")
        write_edge_list(path_graph, p)
        g = read_edge_list(p)
        assert g.num_vertices == path_graph.num_vertices
        assert g.directed
        assert np.array_equal(g.src, path_graph.src)
        assert np.array_equal(g.dst, path_graph.dst)

    def test_roundtrip_undirected(self, tmp_path, tiny_graph):
        p = str(tmp_path / "g.txt")
        write_edge_list(tiny_graph, p)
        g = read_edge_list(p)
        assert not g.directed
        assert g.num_edges == tiny_graph.num_edges

    def test_roundtrip_weights(self, tmp_path):
        src = Graph(3, [0, 1], [1, 2], weights=[1.25, 3.5])
        p = str(tmp_path / "w.txt")
        write_edge_list(src, p)
        g = read_edge_list(p)
        assert np.allclose(g.weights, [1.25, 3.5])

    def test_snap_style_comments(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("# Nodes: 3 Edges: 2\n% another comment\n0 1\n1 2\n")
        g = read_edge_list(str(p))
        assert g.num_edges == 2
        assert g.directed  # SNAP default

    def test_explicit_overrides(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        g = read_edge_list(str(p), directed=False, num_vertices=10)
        assert g.num_vertices == 10
        assert not g.directed

    def test_no_header_mode(self, tmp_path, path_graph):
        p = str(tmp_path / "g.txt")
        write_edge_list(path_graph, p, header=False)
        text = open(p).read()
        assert not text.startswith("#")
        g = read_edge_list(p)
        assert g.num_edges == path_graph.num_edges

    def test_name_from_filename(self, tmp_path):
        p = tmp_path / "mygraph.txt"
        p.write_text("0 1\n")
        assert read_edge_list(str(p)).name == "mygraph"


def _concat_chunks(path, chunk_size):
    srcs, dsts, wts = [], [], []
    for src, dst, w in iter_edge_chunks(path, chunk_size):
        srcs.append(src)
        dsts.append(dst)
        if w is not None:
            wts.append(w)
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    w = np.concatenate(wts) if wts else None
    return src, dst, w


class TestIterEdgeChunks:
    """Property: concatenated chunks == the read_edge_list arrays."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 10_000])
    def test_roundtrip_matches_read_edge_list(
        self, tmp_path, path_graph, chunk_size
    ):
        p = str(tmp_path / "g.txt")
        write_edge_list(path_graph, p)
        full = read_edge_list(p)
        src, dst, w = _concat_chunks(p, chunk_size)
        assert np.array_equal(src, full.src)
        assert np.array_equal(dst, full.dst)
        assert w is None and full.weights is None

    @pytest.mark.parametrize("chunk_size", [1, 4, 9999])
    def test_roundtrip_weighted(self, tmp_path, chunk_size):
        g = Graph(4, [0, 1, 2], [1, 2, 3], weights=[1.25, -3.5, 0.0])
        p = str(tmp_path / "w.txt")
        write_edge_list(g, p)
        full = read_edge_list(p)
        src, dst, w = _concat_chunks(p, chunk_size)
        assert np.array_equal(src, full.src)
        assert np.array_equal(dst, full.dst)
        assert np.allclose(w, full.weights)

    def test_roundtrip_without_header(self, tmp_path, path_graph):
        p = str(tmp_path / "g.txt")
        write_edge_list(path_graph, p, header=False)
        src, dst, _ = _concat_chunks(p, 4)
        assert np.array_equal(src, path_graph.src)
        assert np.array_equal(dst, path_graph.dst)

    def test_chunk_sizes_are_respected(self, tmp_path, path_graph):
        p = str(tmp_path / "g.txt")
        write_edge_list(path_graph, p)  # 9 edges
        sizes = [s.shape[0] for s, _, _ in iter_edge_chunks(p, 4)]
        assert sizes == [4, 4, 1]

    def test_empty_file_yields_nothing(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert list(iter_edge_chunks(str(p), 4)) == []

    def test_comment_only_file_yields_nothing(self, tmp_path):
        p = tmp_path / "comments.txt"
        p.write_text("# just a comment\n% another\n\n   \n")
        assert list(iter_edge_chunks(str(p), 4)) == []

    def test_comments_and_blanks_skipped_mid_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n# interlude\n\n1 2\n% more\n2 3\n")
        src, dst, _ = _concat_chunks(str(p), 2)
        assert src.tolist() == [0, 1, 2]
        assert dst.tolist() == [1, 2, 3]

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n1 2\nnot-an-edge\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3"):
            list(iter_edge_chunks(str(p), 10))

    def test_single_token_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n42\n")
        with pytest.raises(ValueError, match="expected 'u v"):
            list(iter_edge_chunks(str(p), 10))

    def test_mixed_weight_columns_rejected(self, tmp_path):
        p = tmp_path / "mixed.txt"
        p.write_text("0 1 0.5\n1 2\n")
        with pytest.raises(ValueError, match="inconsistent column count"):
            list(iter_edge_chunks(str(p), 10))

    def test_invalid_chunk_size(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        with pytest.raises(ValueError):
            list(iter_edge_chunks(str(p), 0))


class TestReadEdgeListHeader:
    def test_reads_repro_header(self, tmp_path, path_graph):
        p = str(tmp_path / "g.txt")
        write_edge_list(path_graph, p)
        directed, vertices = read_edge_list_header(p)
        assert directed is True
        assert vertices == path_graph.num_vertices

    def test_plain_snap_file_has_no_hints(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("# Nodes: 3 Edges: 2\n0 1\n1 2\n")
        assert read_edge_list_header(str(p)) == (None, None)

    def test_header_after_first_edge_ignored(self, tmp_path):
        p = tmp_path / "late.txt"
        p.write_text("0 1\n# repro-graph directed 99 1\n")
        assert read_edge_list_header(str(p)) == (None, None)


class TestMetisFormat:
    def test_roundtrip_structure(self, tmp_path, tiny_graph):
        p = str(tmp_path / "g.metis")
        write_metis(tiny_graph, p)
        g = read_metis(p)
        assert g.num_vertices == tiny_graph.num_vertices
        assert g.num_undirected_edges == tiny_graph.num_undirected_edges

    def test_header_counts(self, tmp_path, two_triangles):
        p = str(tmp_path / "g.metis")
        write_metis(two_triangles, p)
        header = open(p).readline().split()
        assert header == ["6", "6"]

    def test_directed_is_symmetrized(self, tmp_path, path_graph):
        p = str(tmp_path / "g.metis")
        write_metis(path_graph, p)
        g = read_metis(p)
        # The path has 9 undirected edges after symmetrization.
        assert g.num_undirected_edges == 9

    def test_self_loops_dropped(self, tmp_path):
        g = Graph.from_edges([(0, 0), (0, 1)], num_vertices=2)
        p = str(tmp_path / "g.metis")
        write_metis(g, p)
        assert read_metis(p).num_undirected_edges == 1

    def test_roundtrip_road(self, tmp_path):
        g = road_network(5, 5, seed=1)
        p = str(tmp_path / "road.metis")
        write_metis(g, p)
        r = read_metis(p)
        assert r.num_undirected_edges == g.num_undirected_edges

    def test_indented_comment_is_a_comment(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("  % header next\n3 2\n2\n  % between rows\n1 3\n2\n")
        g = read_metis(str(p))
        assert g.num_vertices == 3
        assert g.num_undirected_edges == 2

    @pytest.mark.parametrize("text", ["", "\n  \n", "% only\n  % comments\n"])
    def test_file_without_header_names_the_path(self, tmp_path, text):
        p = tmp_path / "empty.metis"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"empty\.metis: no METIS header"):
            read_metis(str(p))
