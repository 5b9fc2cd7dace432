"""Undirected simple graphs in compressed sparse row form.

Graphs are immutable after construction: rewiring returns new objects, so
one instance can back any number of workspaces, reports and rewired copies.
Each undirected edge is stored twice in the CSR arrays and once, as a
(min, max) pair, in the canonical edge list whose row number is the edge's
stable index.

Every sparse product runs through `csr_dense_product`, `csr_sparse_product`
or `csr_to_csc`: scipy's compiled CSR kernels on raw (indptr, indices, data,
shape) arrays, bitwise as scipy.sparse calls them, without importing it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Graph",
    "NormalizedAdjacency",
    "LabelData",
    "GraphFormatError",
    "node_set",
    "load_edge_list",
    "load_labels",
    "load_target",
    "normalized_adjacency",
    "khop_set",
    "write_edge_list",
    "write_labels",
]

SOFT_ROW_TOL = 1e-9

# Largest node count an edge-list file may declare or imply. A graph holds
# several int64 arrays per node and scoring allocates n x c blocks, so 10^7
# nodes (80 MB per array) is the most a file may ask for; larger counts are
# rejected before anything is allocated per node.
MAX_NODES = 10_000_000


class GraphFormatError(ValueError):
    """Malformed graph or label text; the message names the offending line."""


def node_set(ids, n: int) -> np.ndarray:
    """Canonicalize a node set: sorted, unique int64 ids, all in [0, n).

    Ids that are already strictly ascending are returned as they are (a
    view of an int64 input), after one O(len) check instead of a sort."""
    arr = np.asarray(ids, dtype=np.int64).ravel()
    if not (arr[1:] > arr[:-1]).all():
        arr = np.unique(arr)
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(f"node ids must lie in [0, {n})")
    return arr


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _build_csr(n: int, edges: np.ndarray):
    """CSR arrays (indptr, indices) from a canonical (m, 2) edge array."""
    if edges.size:
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


class Graph:
    """Immutable undirected simple graph.

    Attributes
    ----------
    n : int
        Number of nodes (dense 0-based ids).
    indptr, indices : ndarray
        CSR adjacency; neighbor lists are sorted, each edge appears in both
        directions, no self-loops, no duplicates.
    edges : (m, 2) int64 ndarray
        Canonical edge list with u < v, lexicographically sorted; the row
        index is the edge id used everywhere else.
    """

    __slots__ = ("n", "indptr", "indices", "edges", "degrees")

    def __init__(self, n, indptr, indices, edges):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.edges = edges
        self.degrees = np.diff(indptr)
        _freeze(indptr, indices, edges, self.degrees)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs.

        Reversed duplicates collapse; self-loops and out-of-range ids raise.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("node count must be positive")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError(f"edge endpoints must lie in [0, {n})")
            if np.any(arr[:, 0] == arr[:, 1]):
                bad = int(arr[np.flatnonzero(arr[:, 0] == arr[:, 1])[0], 0])
                raise ValueError(f"self-loop at node {bad} is not allowed")
            arr = np.sort(arr, axis=1)
            arr = np.unique(arr, axis=0)
        indptr, indices = _build_csr(n, arr)
        return cls(n, indptr, indices, arr)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def degree(self, v: int) -> int:
        """`degrees[v]` as an int; the benchmark's own tests read it."""
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def remove_edge(self, e: int) -> "Graph":
        """New graph without edge `e`; this graph is unchanged."""
        if not 0 <= e < self.edge_count:
            raise IndexError(f"edge index {e} out of range [0, {self.edge_count})")
        u, v = (int(x) for x in self.edges[e])
        # drop the two directed entries in place of a full rebuild
        pu = self.indptr[u] + int(np.searchsorted(self.neighbors(u), v))
        pv = self.indptr[v] + int(np.searchsorted(self.neighbors(v), u))
        indices = np.delete(self.indices, [pu, pv])
        indptr = self.indptr.copy()
        indptr[u + 1:] -= 1
        indptr[v + 1:] -= 1
        kept = np.delete(self.edges, e, axis=0)  # stays lexicographically sorted
        return Graph(self.n, indptr, indices, kept)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _neighbors_of_many(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of `nodes` (with repeats)."""
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # absolute positions: per-node start repeated, plus within-run offsets
    run_starts = np.cumsum(counts) - counts
    pos = np.repeat(starts - run_starts, counts) + np.arange(total)
    return g.indices[pos]


def khop_set(g: Graph, seeds, k: int) -> np.ndarray:
    """All nodes at shortest-path distance <= k from any seed, seeds included."""
    if k < 0:
        raise ValueError("k must be non-negative")
    seeds = node_set(seeds, g.n)
    reached = np.zeros(g.n, dtype=bool)
    reached[seeds] = True
    frontier = seeds
    for _ in range(k):
        if frontier.size == 0:
            break
        fresh = np.zeros(g.n, dtype=bool)
        fresh[_neighbors_of_many(g, frontier)] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(reached)


class NormalizedAdjacency:
    """Self-loop symmetric normalization of a graph's adjacency.

    Stored entries are 1/sqrt(dt_u * dt_v) with dt_v = degree(v) + 1, for
    u == v and for every edge {u, v}. The value of a stored entry is computed
    from the same expression in both directions, so the operator is symmetric
    to bit equality. Pattern: adjacency plus full diagonal, all entries > 0.
    `csr` holds its frozen CSR arrays (indptr, indices, data, shape), the only
    form the operator takes: the CSR products below read them as they are.
    """

    __slots__ = ("n", "csr", "inv_sqrt_deg")

    def __init__(self, n, csr, inv_sqrt_deg):
        self.n = n
        self.csr = csr
        self.inv_sqrt_deg = inv_sqrt_deg
        _freeze(*csr[:3], inv_sqrt_deg)


def normalized_adjacency(g: Graph) -> NormalizedAdjacency:
    n = g.n
    s = 1.0 / np.sqrt((g.degrees + 1).astype(np.float64))
    diag = np.arange(n, dtype=np.int64)
    # every stored entry starts as its row's diagonal; each neighbor then moves
    # past the diagonals of the rows before it, and past its own if above it
    src = np.repeat(diag, g.degrees + 1)
    indices = src.copy()
    row_of_entry = np.repeat(diag, g.degrees)
    shift = row_of_entry + (g.indices > row_of_entry)
    indices[np.arange(g.indices.size) + shift] = g.indices
    indptr = g.indptr + np.arange(n + 1, dtype=np.int64)
    vals = s[src] * s[indices]
    return NormalizedAdjacency(n, (indptr, indices, vals, (n, n)), s)


@functools.cache
def _kernels():
    """scipy.sparse._sparsetools, scipy's compiled CSR kernels, loaded once
    from its extension file, which `find_spec` locates without running any
    scipy package code; where that fails, imported along with scipy.sparse."""
    import importlib
    import os
    from importlib import machinery, util
    name = "scipy.sparse._sparsetools"
    try:
        path = next(p for root in util.find_spec("scipy").submodule_search_locations
                    for suffix in machinery.EXTENSION_SUFFIXES
                    if os.path.isfile(p := os.path.join(root, "sparse", "_sparsetools" + suffix)))
        spec = util.spec_from_file_location(name, path)
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (ImportError, AttributeError, StopIteration):   # no scipy directory or file
        return importlib.import_module(name)


def _checked(a):
    """Shape of the CSR operand a = (indptr, indices, data, shape), after the
    checks scipy's CSR constructor makes without `full_check` (the kernels
    check no bounds); raises ValueError."""
    indptr, indices, data, (rows, cols) = a
    if not all(isinstance(x, np.ndarray) and x.dtype == t and x.ndim == 1 and x.flags.c_contiguous
               for x, t in ((indptr, np.int64), (indices, np.int64), (data, np.float64))):
        raise ValueError("CSR indptr and indices must be C-contiguous 1-D int64 arrays, "
                         "and data float64")
    if indptr.size != rows + 1 or indptr[0] != 0 or not indptr[-1] <= indices.size == data.size:
        raise ValueError(f"CSR indptr of {indptr.size} entries must run from 0 for {rows} rows "
                         f"to at most its {indices.size} indices and {data.size} values")
    return int(rows), int(cols)


def csr_dense_product(a, x) -> np.ndarray:
    """A @ X for the CSR operand `a` and a dense 2-D X, summed as scipy sums
    `csr_matrix @ X`: `csr_matvecs` into zeros."""
    rows, cols = _checked(a)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != cols:
        raise ValueError(f"operand shapes disagree: ({rows}, {cols}) @ {x.shape}")
    out = np.zeros((rows, x.shape[1]))
    _kernels().csr_matvecs(rows, cols, x.shape[1], *a[:3], x.ravel(), out.ravel())
    return out


def csr_sparse_product(a, b):
    """A @ B for CSR operands, as CSR arrays (`csr_matmat_maxnnz`, `csr_matmat`)
    sized by the bound: the first indptr[-1] indices and values are the product's."""
    (rows, inner), (b_rows, cols) = _checked(a), _checked(b)
    if inner != b_rows:
        raise ValueError(f"operand shapes disagree: ({rows}, {inner}) @ ({b_rows}, {cols})")
    nnz = _kernels().csr_matmat_maxnnz(rows, cols, a[0], a[1], b[0], b[1])
    out = (np.empty(rows + 1, dtype=np.int64), np.empty(nnz, dtype=np.int64), np.empty(nnz))
    _kernels().csr_matmat(rows, cols, *a[:3], *b[:3], *out)
    return out + ((rows, cols),)


def csr_to_csc(a):
    """CSC arrays (indptr by column, row indices, data, shape) of the CSR operand
    `a`, rows ascending within each column (`csr_tocsc`)."""
    rows, cols = _checked(a)
    nnz = int(a[0][-1])
    out = (np.empty(cols + 1, dtype=np.int64), np.empty(nnz, dtype=np.int64), np.empty(nnz))
    _kernels().csr_tocsc(rows, cols, *a[:3], *out)
    return out + ((rows, cols),)


class LabelData:
    """Per-node class labels: hard ids, their known-mask, optional soft labels.

    `labels[v] == -1` marks an unknown label; `mask` is `labels >= 0`. The
    soft matrix, when present, is n x c with rows summing to one; it is how
    pseudo-label distributions enter the pipeline, and labels that carry it
    are scored by soft influence everywhere.
    """

    __slots__ = ("c", "labels", "mask", "soft")

    def __init__(self, c: int, labels, soft=None):
        self.c = int(c)
        if self.c < 1:
            raise ValueError("class count must be positive")
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        self.mask = self.labels >= 0
        if self.mask.any() and self.labels.max() >= self.c:
            raise ValueError(f"labels must lie in [0, {self.c})")
        if soft is not None:
            soft = np.asarray(soft, dtype=np.float64).copy()
            if soft.shape != (self.labels.shape[0], self.c):
                raise ValueError("soft label matrix must be n x c")
            if not (np.isfinite(soft).all() and (soft >= 0).all()):
                raise ValueError("soft label entries must be finite and non-negative")
            sums = soft.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > SOFT_ROW_TOL):
                raise ValueError("soft label rows must sum to 1")
            _freeze(soft)
        self.soft = soft
        _freeze(self.labels, self.mask)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def dense_rows(self) -> np.ndarray:
        """Row-stochastic n x c label matrix to propagate: a copy of the soft
        labels when present, else the one-hot hard labels (exactly one 1 per
        row), which needs every node labeled."""
        if self.soft is not None:
            return np.array(self.soft)
        if not self.mask.all():
            missing = np.flatnonzero(~self.mask)
            raise ValueError(
                f"{missing.size} nodes are unlabeled (first: {missing[:5].tolist()}); "
                "supply pseudo labels first (see topoinf.pseudo)"
            )
        out = np.zeros((self.n, self.c), dtype=np.float64)
        out[np.arange(self.n), self.labels] = 1.0
        return out


def _iter_lines(text: str, comments: bool = False):
    """(line number, stripped line) of each non-blank line of every text
    format; '#' comment lines only with `comments`, for formats whose
    headers live in them."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and (comments or not line.startswith("#")):
            yield ln, line


def _parse_header(ln: int, line: str, key: str, declared):
    """N of a "# key=N" comment header, which must be at least 1 and the
    first such header (`declared` is the N of an earlier one, else None);
    None for any other comment."""
    body = line.lstrip("#").strip()
    if not body.startswith(key + "="):
        return None
    if declared is not None:
        raise GraphFormatError(f"line {ln}: repeated {key} header")
    try:
        got = int(body[len(key) + 1:])
    except ValueError:
        raise GraphFormatError(f"line {ln}: bad {key} header: {line!r}") from None
    if got < 1:
        raise GraphFormatError(f"line {ln}: {key}={got} must be at least 1")
    return got


def _parse_pair(ln: int, line: str, fields: str, noun: str):
    """The two integers of a "{fields}" record line; `noun` names its fields
    in the error for a non-integer one."""
    parts = line.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {ln}: expected {fields!r}, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {ln}: non-integer {noun} in {line!r}") from None


def load_edge_list(text: str) -> Graph:
    """Parse "u v" pairs, one per line. '#' comments allowed; an optional
    "# nodes=N" header, given at most once, fixes the node count (otherwise
    max id + 1). Either count must not exceed MAX_NODES."""
    edges = []
    declared_n = None
    saw_content = False
    for ln, line in _iter_lines(text, comments=True):
        if line.startswith("#"):
            got = _parse_header(ln, line, "nodes", declared_n)
            if got is not None:
                if got > MAX_NODES:
                    raise GraphFormatError(
                        f"line {ln}: nodes={got} exceeds the limit of {MAX_NODES} nodes")
                declared_n = got
                saw_content = True
            continue
        u, v = _parse_pair(ln, line, "u v", "node id")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {ln}: negative node id in {line!r}")
        if u == v:
            raise GraphFormatError(f"line {ln}: self-loop at node {u}")
        edges.append((u, v))
        saw_content = True
    if not saw_content:
        raise GraphFormatError("empty edge-list input")
    max_id = max((max(u, v) for u, v in edges), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if declared_n is not None and max_id >= declared_n:
        raise GraphFormatError(f"node id {max_id} exceeds declared nodes={declared_n}")
    if n > MAX_NODES:
        raise GraphFormatError(
            f"node id {max_id} implies nodes={n}, over the limit of {MAX_NODES} nodes")
    return Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def load_labels(text: str, n: int) -> LabelData:
    """Parse "node class" lines; unlisted nodes get label -1 (unknown).

    An optional "# classes=c" header, given at most once, declares the class
    count; without it, c is inferred as max class + 1 (so at least one labeled
    node is required).
    """
    declared_c = None
    labels = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for ln, line in _iter_lines(text, comments=True):
        if line.startswith("#"):
            declared_c = _parse_header(ln, line, "classes", declared_c) or declared_c
            continue
        node, cls = _parse_pair(ln, line, "node class", "field")
        if not 0 <= node < n:
            raise GraphFormatError(f"line {ln}: node {node} outside [0, {n})")
        if cls < 0:
            raise GraphFormatError(f"line {ln}: negative class id")
        if declared_c is not None and cls >= declared_c:
            raise GraphFormatError(
                f"line {ln}: class {cls} outside declared classes={declared_c}")
        if seen[node]:
            raise GraphFormatError(f"line {ln}: duplicate label for node {node}")
        seen[node] = True
        labels[node] = cls
    if declared_c is None:
        if not seen.any():
            raise GraphFormatError("no labels and no '# classes=c' header")
        declared_c = int(labels.max()) + 1
    return LabelData(declared_c, labels)


def load_target(text: str, n: int) -> np.ndarray:
    """Parse a target node set: the first field of each line is a node id in
    [0, n). Returns the canonical node set."""
    ids = []
    for ln, line in _iter_lines(text):
        try:
            ids.append(int(line.split()[0]))
        except ValueError:
            raise GraphFormatError(f"line {ln}: not a node id") from None
        if not 0 <= ids[-1] < n:
            raise GraphFormatError(f"line {ln}: node {ids[-1]} outside [0, {n})")
    if not ids:
        raise GraphFormatError("no node ids")
    return node_set(ids, n)


def write_edge_list(g: Graph, *, drop=()) -> str:
    """Edge-list text in the ingestion format (with a node-count header) of
    `g` less the edge ids in `drop`."""
    rows = np.delete(g.edges, np.asarray(drop, dtype=np.int64), axis=0)
    lines = [f"# nodes={g.n}"]
    lines.extend(map("{} {}".format, rows[:, 0].tolist(), rows[:, 1].tolist()))
    return "\n".join(lines) + "\n"


def write_labels(labels: LabelData) -> str:
    known = np.flatnonzero(labels.mask)
    lines = [f"# classes={labels.c}"]
    lines.extend(map("{} {}".format, known.tolist(), labels.labels[known].tolist()))
    return "\n".join(lines) + "\n"
