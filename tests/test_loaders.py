"""The bulk loaders and the sort-based dedup against what they replace.

`load_edge_list` and `load_labels` parse every line of a file at once; the
line-by-line loaders in `loader_reference` parse one line at a time and stop
at the first bad one. Hypothesis draws valid files, and files with one
defect, in the layouts a hand-made file may have (comments, blank lines,
CRLF and rarer line ends, padding, unsorted and repeated rows), and both loaders must
return equal arrays or raise the same error with the same text.
`Graph.from_edges` and `node_set` must return what `np.unique` returns on
the same input. Each test draws from the fixed `@seed(0)`.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from topoinf.graphs import Graph, LabelData, load_edge_list, load_labels, node_set

import loader_reference as reference

HUGE = str(2 ** 70)
# tokens that int() reads (sign, leading zero, digit separator, Arabic-Indic
# digits) and tokens it rejects
ODD_TOKENS = ["+2", "007", "1_0", "٣", "x", "1.5", "0x1", "1e3", "--1", "½", HUGE,
              "-" + HUGE]


def outcome(load, *args):
    """What a loader returns, as comparable values, or the error it raises."""
    try:
        got = load(*args)
    except Exception as exc:   # the type and text must match, whatever they are
        return type(exc).__name__, str(exc)
    if isinstance(got, Graph):
        arrays = (got.edges, got.indptr, got.indices, got.degrees)
        return got.n, [(a.dtype.str, a.shape, a.tobytes(), a.flags.writeable) for a in arrays]
    assert isinstance(got, LabelData)
    return got.c, got.labels.tobytes(), got.mask.tobytes(), got.soft


@st.composite
def layouts(draw, records, headers):
    """The text of the record lines and header lines, each header at a drawn
    position, with comment and blank lines, padding and line ends drawn
    around them."""
    lines = list(records)
    for line in [*headers, *draw(st.lists(st.sampled_from(
            ["", "   ", "# a comment", "  # nodes are 0-based", "#"]), max_size=3))]:
        lines.insert(draw(st.integers(0, len(lines))), line)
    pad = draw(st.sampled_from(["", " ", "\t", "\xa0"]))
    if pad and lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = pad + lines[i].replace(" ", pad + " ") + pad
    # every line break `str.splitlines` knows, some rarely written
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\x1c", "\x85", "\u2028"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def defective(draw, lines, key, value):
    """`lines` and their "# key=N" header (N = `value`, or none), with at most
    one drawn defect: a bad token, a line of 1 or 3 fields, or a repeated,
    bad or below-one header. Returns the record lines and the header lines."""
    lines = list(lines)
    headers = [f"# {key}={value}"] if value is not None else []
    kind = draw(st.sampled_from(["none", "token", "fields", "repeat", "bad-header",
                                 "low-header"]))
    if kind in ("token", "fields") and lines:
        i = draw(st.integers(0, len(lines) - 1))
        a, b = lines[i].split()
        if kind == "token":
            odd = draw(st.sampled_from(ODD_TOKENS))
            a, b = (odd, b) if draw(st.booleans()) else (a, odd)
            lines[i] = f"{a} {b}"
        else:
            lines[i] = draw(st.sampled_from([a, f"{a} {b} {b}"]))
    elif kind == "repeat":
        headers.append(f"# {key}={draw(st.integers(1, 12))}")
    elif kind == "bad-header":
        headers.append(draw(st.sampled_from([f"# {key}=x", f"# {key}=", f"#{key}=1.5",
                                             f"# {key}=2 3"])))
    elif kind == "low-header":
        headers.append(f"# {key}={draw(st.integers(-3, 0))}")
    return lines, headers


@st.composite
def edge_files(draw):
    """Edge lists, unsorted and with reversed duplicates, and at most one
    negative id or self-loop besides the defects of `defective`; the node
    count header may be too small or over the limit."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=12))
    lines = [f"{u} {v}" for u, v in edges]
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([f"-1 {edges[i][1]}", f"{edges[i][0]} -3",
                                         f"{edges[i][0]} {edges[i][0]}"]))
    declared = draw(st.sampled_from([None, n, n + 2, max(n - 3, 1), 10 ** 7 + 1]))
    return draw(layouts(*draw(defective(lines, "nodes", declared))))


@st.composite
def label_files(draw):
    """Label files of distinct nodes in [0, n), and at most one node out of
    range, repeated node, negative class or class over the header besides
    the defects of `defective`. Returns the text and n.

    No class lies past int64: without a header, the line-by-line loader
    raises OverflowError on such a line at once, the bulk loader only if no
    other line is bad (`test_class_past_int64`)."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    nodes = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    lines = [f"{v} {draw(st.integers(0, c - 1))}" for v in nodes]
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        v, k = lines[i].split()
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            [f"{n} {k}", f"-1 {k}", f"{HUGE} {k}", f"{v} {k}", f"{v} -1", f"{v} {c}"])))
        lines[i] = draw(st.sampled_from([lines[i], f"{v} {c + 1}"]))
    declared = draw(st.sampled_from([None, c]))
    return draw(layouts(*draw(defective(lines, "classes", declared)))), n


@seed(0)
@settings(max_examples=600, deadline=None)
@given(edge_files())
def test_edge_loader_matches_line_by_line(text):
    assert outcome(load_edge_list, text) == outcome(reference.load_edge_list, text)


@seed(0)
@settings(max_examples=600, deadline=None)
@given(label_files())
def test_label_loader_matches_line_by_line(case):
    text, n = case
    assert outcome(load_labels, text, n) == outcome(reference.load_labels, text, n)


def test_every_loader_message():
    """Each message either loader raises, on one small file each."""
    edges = ["line 3: expected 'u v', got '1'", "line 1: non-integer node id in 'x 1'",
             "line 2: negative node id in '-1 2'", "line 1: self-loop at node 4",
             "line 2: repeated nodes header", "line 1: bad nodes header: '# nodes=x'",
             "line 1: nodes=0 must be at least 1",
             "line 1: nodes=10000001 exceeds the limit of 10000000 nodes",
             "node id 5 exceeds declared nodes=3", "empty edge-list input",
             f"node id {HUGE} implies nodes={2 ** 70 + 1}, over the limit of 10000000 nodes"]
    for text, message in zip(["0 1\n\r\n1", "x 1", "0 1\n-1 2", "4 4", "# nodes=3\n# nodes=3",
                              "# nodes=x", "# nodes=0", "# nodes=10000001\n0 1",
                              "# nodes=3\n0 5", "# nodes\n", f"0 {HUGE}"], edges):
        assert outcome(load_edge_list, text) == ("GraphFormatError", message)
        assert outcome(reference.load_edge_list, text) == ("GraphFormatError", message)
    labels = ["line 2: node 3 outside [0, 3)", "line 1: negative class id",
              "line 2: class 2 outside declared classes=2", "line 2: duplicate label for node 0",
              "no labels and no '# classes=c' header"]
    for text, message in zip(["0 0\n3 1", "0 -1", "# classes=2\n0 2", "0 0\n0 1", "# c\n"],
                             labels):
        assert outcome(load_labels, text, 3) == ("GraphFormatError", message)
        assert outcome(reference.load_labels, text, 3) == ("GraphFormatError", message)


def test_class_past_int64():
    """A class id past int64 fails as a header bounds it, else as int64 does."""
    for load in (load_labels, reference.load_labels):
        assert outcome(load, f"# classes=2\n0 {HUGE}", 1) == \
            ("GraphFormatError", f"line 2: class {HUGE} outside declared classes=2")
        assert outcome(load, f"0 {HUGE}\n", 1) == \
            ("OverflowError", "Python int too large to convert to C long")


@st.composite
def unsorted_pairs(draw):
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=30))


@seed(0)
@settings(max_examples=300, deadline=None)
@given(unsorted_pairs())
def test_dedup_matches_np_unique(case):
    """Canonical rows and node sets equal `np.unique`'s: values, dtype and
    order; graph edges are read-only, node sets of unsorted ids writable like
    `np.unique`'s result, and strictly ascending ids come back as they are."""
    n, pairs = case
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    g = Graph.from_edges(n, arr)
    want = np.unique(np.sort(arr, axis=1), axis=0) if arr.size else arr
    assert (g.edges.dtype, g.edges.shape, g.edges.tobytes()) == \
        (want.dtype, want.shape, want.tobytes())
    assert g.edges.flags.c_contiguous and not g.edges.flags.writeable
    assert arr.flags.writeable   # the caller's array is not frozen or aliased

    ids = arr.ravel()
    got, want = node_set(ids, n), np.unique(ids)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    ascending = bool((ids[1:] > ids[:-1]).all())
    assert got.flags.writeable == want.flags.writeable
    assert np.shares_memory(got, ids) == (ascending and ids.size > 0)
