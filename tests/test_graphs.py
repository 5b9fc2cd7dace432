import numpy as np
import pytest

from topoinf import (
    Graph,
    GraphFormatError,
    khop_set,
    load_edge_list,
    load_labels,
    node_set,
    normalized_adjacency,
    write_edge_list,
    write_labels,
)
from topoinf.cli import _features
from topoinf.graphs import LabelData, load_target
from topoinf.pseudo import load_soft_tsv

from conftest import edge_id
from dense_oracle import dense_norm_adj


class TestLoadEdgeList:
    def test_basic(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_reversed_duplicate_collapses(self):
        g = load_edge_list("0 1\n1 0")
        assert g.n == 2
        assert g.edges.tolist() == [[0, 1]]

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_edge_list("0 0")

    def test_malformed_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list("0 1\n0 1 2")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_edge_list("a b")

    def test_node_count_header_and_comments(self):
        g = load_edge_list("# a comment\n# nodes=5\n0 1\n")
        assert g.n == 5
        assert g.edge_count == 1

    def test_header_too_small(self):
        with pytest.raises(GraphFormatError):
            load_edge_list("# nodes=2\n0 5")

    @pytest.mark.parametrize("text, message", [
        pytest.param("# nodes=0\n", "line 1: nodes=0 must be at least 1", id="zero"),
        pytest.param("0 1\n# nodes=-3\n1 2\n", "line 2: nodes=-3 must be at least 1",
                     id="negative"),
    ])
    def test_node_header_below_one(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            load_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        pytest.param("0 1\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'$",
                     id="three-fields"),
        pytest.param("a b\n", "line 1: non-integer node id in 'a b'$", id="non-integer-id"),
        pytest.param("0 1\n-1 2\n", "line 2: negative node id", id="negative-id"),
        pytest.param("# nodes=x\n0 1\n", "line 1: bad nodes header", id="non-integer-header"),
    ])
    def test_bad_line_named(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}"):
            load_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        pytest.param("# nodes=9\n0 1\n# nodes=3\n1 2\n", "line 3: repeated nodes header",
                     id="different"),
        pytest.param("# nodes=3\n# nodes=3\n0 1\n", "line 2: repeated nodes header",
                     id="same"),
    ])
    def test_repeated_header_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            load_edge_list(text)

    def test_crlf(self):
        g = load_edge_list("0 1\r\n1 2\r\n")
        assert g.edge_count == 2

    def test_empty_input(self):
        with pytest.raises(GraphFormatError):
            load_edge_list("")

    def test_roundtrip_through_writer(self):
        g = load_edge_list("# nodes=4\n0 1\n2 3")
        g2 = load_edge_list(write_edge_list(g))
        assert g2.n == g.n
        assert g2.edges.tolist() == g.edges.tolist()


class TestLoadLabels:
    def test_basic(self):
        lab = load_labels("0 0\n1 0\n2 1", n=3)
        assert lab.c == 2
        assert lab.labels.tolist() == [0, 0, 1]
        assert lab.mask.all()

    def test_empty_with_header(self):
        lab = load_labels("# classes=4\n", n=3)
        assert lab.c == 4
        assert not lab.mask.any()

    def test_empty_without_header_is_error(self):
        with pytest.raises(GraphFormatError):
            load_labels("", n=3)

    def test_class_over_declared(self):
        with pytest.raises(GraphFormatError):
            load_labels("# classes=2\n0 5", n=3)

    @pytest.mark.parametrize("text, message", [
        pytest.param("# classes=0\n", "line 1: classes=0 must be at least 1", id="zero"),
        pytest.param("# classes=-2\n0 0\n", "line 1: classes=-2 must be at least 1",
                     id="negative"),
        pytest.param("0 0\n# classes=-1\n", "line 2: classes=-1 must be at least 1",
                     id="after-labels"),
    ])
    def test_class_header_below_one(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            load_labels(text, n=3)

    @pytest.mark.parametrize("text, message", [
        pytest.param("0 0\n1 0 1\n", "line 2: expected 'node class'", id="three-fields"),
        pytest.param("0 a\n", "line 1: non-integer field", id="non-integer-field"),
        pytest.param("0 0\n3 1\n", r"line 2: node 3 outside \[0, 3\)", id="node-out-of-range"),
        pytest.param("0 -1\n", "line 1: negative class id", id="negative-class"),
        pytest.param("0 0\n# classes=two\n", "line 2: bad classes header",
                     id="non-integer-header"),
    ])
    def test_bad_line_named(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}"):
            load_labels(text, n=3)

    def test_unlisted_nodes_unmasked(self):
        lab = load_labels("1 0", n=3)
        assert lab.mask.tolist() == [False, True, False]

    def test_duplicate_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_labels("0 0\n0 1", n=2)

    @pytest.mark.parametrize("text, message", [
        pytest.param("# classes=5\n0 4\n# classes=2\n", "line 3: repeated classes header",
                     id="different"),
        pytest.param("# classes=2\n0 0\n# classes=2\n", "line 3: repeated classes header",
                     id="same"),
    ])
    def test_repeated_header_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            load_labels(text, n=3)


class TestGraph:
    def test_from_edges_dedup_and_canonical(self):
        g = Graph.from_edges(4, [(2, 1), (1, 2), (3, 0)])
        assert g.edges.tolist() == [[0, 3], [1, 2]]
        assert edge_id(g, 2, 1) == 1

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 30
            pairs = rng.integers(0, n, size=(60, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            g = Graph.from_edges(n, pairs)
            assert g.degrees.sum() == 2 * g.edge_count

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    @pytest.mark.parametrize("n, edges, message", [
        pytest.param(0, [], "node count must be positive", id="zero-nodes"),
        pytest.param(-2, [(0, 1)], "node count must be positive", id="negative-nodes"),
        pytest.param(3, [(0, 1, 2)], r"\(u, v\) pairs", id="triple"),
        pytest.param(3, np.array([0, 1]), r"\(u, v\) pairs", id="flat"),
    ])
    def test_bad_shape_or_count(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(n, edges)

    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [(4, 0), (0, 2), (0, 1)])
        assert g.neighbors(0).tolist() == [1, 2, 4]

    def test_remove_edge_makes_path(self, triangle):
        g = triangle.remove_edge(edge_id(triangle, 0, 2))
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.degrees.tolist() == [1, 2, 1]
        # original untouched
        assert triangle.edge_count == 3
        assert triangle.degrees.tolist() == [2, 2, 2]

    def test_remove_edge_isolates(self):
        g = Graph.from_edges(2, [(0, 1)]).remove_edge(0)
        assert g.edge_count == 0
        assert g.degrees.tolist() == [0, 0]

    def test_remove_then_readd_is_isomorphic(self, triangle):
        e = 1
        removed = triangle.edges[e]
        g = triangle.remove_edge(e)
        back = Graph.from_edges(3, np.vstack([g.edges, removed[None, :]]))
        assert back.edges.tolist() == triangle.edges.tolist()
        assert back.indptr.tolist() == triangle.indptr.tolist()
        assert back.indices.tolist() == triangle.indices.tolist()

    def test_remove_edge_bad_index(self, triangle):
        with pytest.raises(IndexError):
            triangle.remove_edge(3)

    def test_remove_edge_matches_rebuild(self):
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 20, size=(50, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(20, pairs)
        for e in range(0, g.edge_count, 7):
            fast = g.remove_edge(e)
            slow = Graph.from_edges(20, np.delete(g.edges, e, axis=0))
            assert fast.indptr.tolist() == slow.indptr.tolist()
            assert fast.indices.tolist() == slow.indices.tolist()


def _dense(adj):
    """Â as a dense array, from its CSR arrays."""
    indptr, indices, data, shape = adj.csr
    out = np.zeros(shape)
    out[np.repeat(np.arange(shape[0]), np.diff(indptr)), indices] = data
    return out


class TestNormalizedAdjacency:
    def test_single_isolated_node(self):
        one = Graph.from_edges(1, np.empty((0, 2), dtype=np.int64))
        adj = normalized_adjacency(one)
        assert _dense(adj).tolist() == [[1.0]]

    def test_two_nodes(self):
        adj = normalized_adjacency(Graph.from_edges(2, [(0, 1)]))
        assert np.allclose(_dense(adj), 0.5)  # 1/sqrt(2*2)

    def test_triangle_all_one_third(self, triangle):
        adj = normalized_adjacency(triangle)
        assert np.allclose(_dense(adj), 1.0 / 3.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 15, size=(40, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(15, pairs)
        adj = normalized_adjacency(g)
        ref = dense_norm_adj(15, g.edges.tolist())
        assert np.allclose(_dense(adj), ref, atol=1e-15)

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 40, size=(150, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(40, pairs)
        dense = _dense(normalized_adjacency(g))
        assert np.array_equal(dense, dense.T)

    def test_entries_positive_pattern(self, triangle):
        indptr, _, data, _ = normalized_adjacency(triangle).csr
        assert (data > 0).all()
        assert indptr[-1] == data.size == 2 * triangle.edge_count + triangle.n


def _insert_self_loops(g):
    """Self-loop CSR arrays of Â built by splicing each row's diagonal in
    with `np.insert`."""
    diag = np.arange(g.n, dtype=np.int64)
    s = 1.0 / np.sqrt((g.degrees + 1).astype(np.float64))
    row_of_entry = np.repeat(diag, g.degrees)
    below = np.bincount(row_of_entry[g.indices < row_of_entry], minlength=g.n)
    indices = np.insert(g.indices, g.indptr[:-1] + below, diag)
    indptr = g.indptr + np.arange(g.n + 1, dtype=np.int64)
    vals = s[np.repeat(diag, g.degrees + 1)] * s[indices]
    return indptr, indices, vals


@pytest.mark.parametrize("n, m, seed", [
    (1, 0, 0), (2, 1, 0), (5, 0, 0), (30, 20, 1), (30, 20, 2), (80, 400, 3), (200, 150, 4),
])
def test_normalized_adjacency_matches_insert(n, m, seed):
    """Â's CSR arrays are byte for byte those of the `np.insert` splice, also
    with isolated nodes (30 nodes and 20 drawn pairs leave several) and n = 1."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(m, 2))
    g = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
    got, want = normalized_adjacency(g).csr, _insert_self_loops(g)
    assert got[3] == (n, n)
    for name, a, b in zip(("indptr", "indices", "data"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_writers_match_per_element_format():
    def edges_text(g, rows):
        return "\n".join([f"# nodes={g.n}"] + [f"{int(u)} {int(v)}" for u, v in rows]) + "\n"

    g = Graph.from_edges(9, [(0, 5), (8, 1), (2, 3), (3, 7), (1, 2)])
    assert write_edge_list(g) == edges_text(g, g.edges)
    ids = np.array([4, 0, 2])
    assert write_edge_list(g, drop=ids) == edges_text(g, g.edges[[1, 3]])
    assert write_edge_list(g, drop=[]) == write_edge_list(g)
    assert write_edge_list(g, drop=np.arange(5)) == "# nodes=9\n"
    with pytest.raises(TypeError):
        write_edge_list(g, ids)   # `drop` is keyword-only: ids to keep cannot pass for it
    empty = Graph.from_edges(4, [])
    assert write_edge_list(empty) == edges_text(empty, empty.edges) == "# nodes=4\n"

    labels = LabelData(5, [3, -1, 0, -1, 4, 4])
    want = "\n".join([f"# classes={labels.c}"] + [
        f"{int(v)} {int(labels.labels[v])}" for v in np.flatnonzero(labels.mask)]) + "\n"
    assert write_labels(labels) == want == "# classes=5\n0 3\n2 0\n4 4\n5 4\n"
    assert write_labels(LabelData(2, [-1, -1])) == "# classes=2\n"


class TestKhop:
    def test_k0(self, path4):
        assert khop_set(path4, [0], 0).tolist() == [0]

    def test_k2_on_path(self, path4):
        assert khop_set(path4, [0], 2).tolist() == [0, 1, 2]

    def test_saturation(self, triangle):
        assert khop_set(triangle, [0], 5).tolist() == [0, 1, 2]

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 25, size=(40, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(25, pairs)
        prev = set()
        for k in range(5):
            cur = set(khop_set(g, [3], k).tolist())
            assert prev <= cur
            prev = cur

    def test_negative_k(self, path4):
        with pytest.raises(ValueError):
            khop_set(path4, [0], -1)


class TestLabelData:
    def test_one_hot_exactly_one_per_row(self):
        lab = LabelData(3, [0, 2, 1])
        oh = lab.dense_rows()
        assert (oh.sum(axis=1) == 1.0).all()
        assert oh[1, 2] == 1.0

    def test_one_hot_requires_all_labeled(self):
        lab = LabelData(2, [0, -1])
        with pytest.raises(ValueError, match="pseudo"):
            lab.dense_rows()

    def test_soft_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LabelData(2, [0, 1], soft=np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_soft_entries_finite_and_non_negative(self, row):
        # each row would pass the sum-to-one check: it sums to 1 or to NaN
        with pytest.raises(ValueError, match="finite and non-negative"):
            LabelData(2, [0, 1], soft=np.array([row, [0.5, 0.5]]))

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            LabelData(2, [0, 5])

    @pytest.mark.parametrize("c, soft, message", [
        pytest.param(0, None, "class count must be positive", id="zero-classes"),
        pytest.param(-1, None, "class count must be positive", id="negative-classes"),
        pytest.param(2, np.full((2, 3), 1 / 3), "n x c", id="soft-too-wide"),
        pytest.param(2, np.full((3, 2), 0.5), "n x c", id="soft-too-tall"),
        pytest.param(2, np.full(2, 0.5), "n x c", id="soft-flat"),
    ])
    def test_count_and_soft_shape_checked(self, c, soft, message):
        with pytest.raises(ValueError, match=message):
            LabelData(c, [0, 1], soft=soft)

    def test_mask_follows_known_labels(self):
        lab = LabelData(3, [2, -1, 0, -1])
        assert lab.mask.tolist() == [True, False, True, False]


def _plain(parsed):
    if isinstance(parsed, Graph):
        return parsed.n, parsed.edges.tolist()
    if isinstance(parsed, LabelData):
        return parsed.c, parsed.labels.tolist()
    return parsed.tolist()


@pytest.mark.parametrize("parse, text, args", [
    pytest.param(load_edge_list, "0 1\n1 2\n", (), id="edge-list"),
    pytest.param(load_labels, "0 0\n2 1\n", (3,), id="labels"),
    pytest.param(load_target, "2\n0\n", (3,), id="target"),
    pytest.param(load_soft_tsv, "0 1 0\n1 0.5 0.5\n2 0 1\n", (3, 2), id="soft-labels"),
    pytest.param(_features, "1 0\n0 1\n1 1\n", (3,), id="features"),
])
def test_blank_and_comment_lines_skipped(parse, text, args):
    """Every text format skips blank lines, whitespace-only lines and '#'
    comments, before, between and after its records."""
    padded = "\n# a comment\n \t\n" + text.replace("\n", "\n\n  # note\n", 1) + "\n#\n"
    assert _plain(parse(padded, *args)) == _plain(parse(text, *args))


@pytest.mark.parametrize("text, message", [
    pytest.param("0\nx\n", "line 2: not a node id", id="non-integer"),
    pytest.param("0\n3\n", r"line 2: node 3 outside \[0, 3\)", id="out-of-range"),
    pytest.param("# only a comment\n", "no node ids", id="empty"),
])
def test_load_target_bad_line_named(text, message):
    with pytest.raises(GraphFormatError, match=f"^{message}"):
        load_target(text, 3)


def test_node_set_validation():
    assert node_set([3, 1, 1, 2], 5).tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        node_set([5], 5)


@pytest.mark.parametrize("ids, want", [
    ([1, 1, 2], [1, 2]),                  # sorted, with a repeat
    ([0, 2, 4], [0, 2, 4]),               # already canonical
    (np.array([4.0, 2.0]), [2, 4]),
    ([], []),
    (np.array([[0, 3]]), [0, 3]),
])
def test_node_set_canonical(ids, want):
    got = node_set(ids, 5)
    assert got.dtype == np.int64 and got.tolist() == want
    with pytest.raises(ValueError):
        node_set(np.asarray(ids, dtype=np.int64).ravel().tolist() + [-1, 7], 5)
