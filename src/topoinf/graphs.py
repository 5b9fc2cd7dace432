"""Undirected simple graphs in compressed sparse row form.

Graphs are immutable after construction: rewiring returns new objects, so a
single instance can be shared safely by concurrent edge-scoring workers.
Each undirected edge is stored twice in the CSR arrays and once, as a
(min, max) pair, in the canonical edge list whose row number is the edge's
stable index.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "NormalizedAdjacency",
    "LabelData",
    "GraphFormatError",
    "node_set",
    "load_edge_list",
    "load_labels",
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
    """Canonicalize a node set: sorted, unique int64 ids, all in [0, n)."""
    arr = np.unique(np.asarray(ids, dtype=np.int64).ravel())
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

    __slots__ = ("n", "indptr", "indices", "edges", "degrees", "_edge_keys")

    def __init__(self, n, indptr, indices, edges):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.edges = edges
        self.degrees = np.diff(indptr)
        self._edge_keys = edges[:, 0] * self.n + edges[:, 1]  # ascending
        _freeze(indptr, indices, edges, self.degrees, self._edge_keys)

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
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        try:
            self.edge_id(u, v)
            return True
        except KeyError:
            return False

    def edge_id(self, u: int, v: int) -> int:
        """Canonical edge index of (u, v); KeyError if absent."""
        a, b = (u, v) if u < v else (v, u)
        key = a * self.n + b
        pos = int(np.searchsorted(self._edge_keys, key))
        if pos == self.edge_count or self._edge_keys[pos] != key:
            raise KeyError(f"no edge ({u}, {v})")
        return pos

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
        cand = np.unique(_neighbors_of_many(g, frontier))
        frontier = cand[~reached[cand]]
        reached[frontier] = True
    return np.flatnonzero(reached)


class NormalizedAdjacency:
    """Self-loop symmetric normalization of a graph's adjacency.

    Stored entries are 1/sqrt(dt_u * dt_v) with dt_v = degree(v) + 1, for
    u == v and for every edge {u, v}. The value of a stored entry is computed
    from the same expression in both directions, so the operator is symmetric
    to bit equality. Pattern: adjacency plus full diagonal, all entries > 0.
    """

    __slots__ = ("n", "matrix", "inv_sqrt_deg")

    def __init__(self, n, matrix, inv_sqrt_deg):
        self.n = n
        self.matrix = matrix
        self.inv_sqrt_deg = inv_sqrt_deg
        _freeze(matrix.data, matrix.indices, matrix.indptr, inv_sqrt_deg)


def normalized_adjacency(g: Graph) -> NormalizedAdjacency:
    n = g.n
    s = 1.0 / np.sqrt((g.degrees + 1).astype(np.float64))
    diag = np.arange(n, dtype=np.int64)
    # splice the diagonal into each (already sorted) neighbor row
    row_of_entry = np.repeat(diag, g.degrees)
    below = np.bincount(row_of_entry[g.indices < row_of_entry], minlength=n)
    insert_at = g.indptr[:-1] + below
    indices = np.insert(g.indices, insert_at, diag)
    indptr = g.indptr + np.arange(n + 1, dtype=np.int64)
    src = np.repeat(diag, g.degrees + 1)
    vals = s[src] * s[indices]
    matrix = sp.csr_matrix((vals, indices, indptr), shape=(n, n))
    return NormalizedAdjacency(n, matrix, s)


class LabelData:
    """Per-node class labels: hard ids, a known-mask, optional soft labels.

    `labels[v] == -1` marks an unknown label (mask False). The soft matrix,
    when present, is n x c with rows summing to one; it is how pseudo-label
    distributions enter the pipeline.
    """

    __slots__ = ("c", "labels", "mask", "soft")

    def __init__(self, c: int, labels, mask=None, soft=None):
        self.c = int(c)
        if self.c < 1:
            raise ValueError("class count must be positive")
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        if mask is None:
            self.mask = self.labels >= 0
        else:
            self.mask = np.asarray(mask, dtype=bool).copy()
            if self.mask.shape != self.labels.shape:
                raise ValueError("mask/labels shape mismatch")
        known = self.labels[self.mask]
        if known.size and (known.min() < 0 or known.max() >= self.c):
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

    @property
    def all_labeled(self) -> bool:
        return bool(self.mask.all())

    def one_hot(self) -> np.ndarray:
        """Dense n x c one-hot view of the hard labels (exactly one 1 per row)."""
        if not self.all_labeled:
            missing = np.flatnonzero(~self.mask)
            raise ValueError(
                f"{missing.size} nodes are unlabeled (first: {missing[:5].tolist()}); "
                "supply pseudo labels first (see topoinf.pseudo)"
            )
        out = np.zeros((self.n, self.c), dtype=np.float64)
        out[np.arange(self.n), self.labels] = 1.0
        return out

    def dense_rows(self, use_soft: bool = False) -> np.ndarray:
        """Row-stochastic label matrix to propagate: soft if requested, else one-hot."""
        if use_soft:
            if self.soft is None:
                raise ValueError("no soft labels available")
            return np.array(self.soft)
        return self.one_hot()


def _iter_lines(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        yield ln, line


def _parse_header(line: str, key: str):
    # comment header of the form "# key=value"
    body = line.lstrip("#").strip()
    if body.startswith(key + "="):
        try:
            return int(body[len(key) + 1:])
        except ValueError:
            raise GraphFormatError(f"bad {key} header: {line!r}") from None
    return None


def load_edge_list(text: str) -> Graph:
    """Parse "u v" pairs, one per line. '#' comments allowed; an optional
    "# nodes=N" header fixes the node count (otherwise max id + 1). Either
    count must not exceed MAX_NODES."""
    edges = []
    declared_n = None
    saw_content = False
    for ln, line in _iter_lines(text):
        if line.startswith("#"):
            got = _parse_header(line, "nodes")
            if got is not None:
                if got > MAX_NODES:
                    raise GraphFormatError(
                        f"line {ln}: nodes={got} exceeds the limit of {MAX_NODES} nodes")
                declared_n = got
                saw_content = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {ln}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer node id in {line!r}") from None
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
    """Parse "node class" lines; unlisted nodes get mask False.

    An optional "# classes=c" header declares the class count; without it, c
    is inferred as max class + 1 (so at least one labeled node is required).
    """
    declared_c = None
    labels = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for ln, line in _iter_lines(text):
        if line.startswith("#"):
            got = _parse_header(line, "classes")
            if got is not None:
                declared_c = got
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {ln}: expected 'node class', got {line!r}")
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer field in {line!r}") from None
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
    return LabelData(declared_c, labels, mask=seen)


def write_edge_list(g: Graph, edge_ids=None) -> str:
    """Edge-list text in the ingestion format (with a node-count header)."""
    rows = g.edges if edge_ids is None else g.edges[np.asarray(edge_ids, dtype=np.int64)]
    lines = [f"# nodes={g.n}"]
    lines.extend(f"{int(u)} {int(v)}" for u, v in rows)
    return "\n".join(lines) + "\n"


def write_labels(labels: LabelData) -> str:
    lines = [f"# classes={labels.c}"]
    for v in np.flatnonzero(labels.mask):
        lines.append(f"{int(v)} {int(labels.labels[v])}")
    return "\n".join(lines) + "\n"
