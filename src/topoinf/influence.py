"""Per-edge influence scores: compatibility change from single-edge removal.

Two independent routes compute the same number:

* `topoinf_oracle` (and `removal_step`, which it calls) removes the edge and
  recomputes `compatibility()` from scratch on the modified graph.
* `DeltaWorkspace.score` propagates only what each removal changes, for a
  list of edges at a time. Removing edge (i, j) drops both self-loop
  degrees by one, so D = A_hat' - A_hat is nonzero only on rows and columns
  i and j, and it has rank at most four:

      D = Z S Z^T,   Z = [e_i, e_j, r_i, r_j],

  where r_v = (rho_v - 1) A_hat e_v with rows i and j zeroed,
  rho_v = sqrt((d_v + 1) / d_v), and S holds the 2x2 block D[{i,j},{i,j}]
  plus identity couplings between e_v and r_v. With P_k = A_hat^k [L | 1],
  the exact perturbation E_k = P'_k - P_k obeys

      E_k = sum_{s<k} A_hat^s Z c_{k-1-s},
      c_r = S (Z^T P_r + sum_{s<r} T_s c_{r-1-s}),   T_s = Z^T A_hat^s Z,

  and the filtered change is sum_{s<K} A_hat^s Z G_s with
  G_s = sum_{k>s} gamma_k c_{k-1-s}. Since A_hat^s r_v combines
  A_hat^{s+1} e_v, A_hat^s e_i and A_hat^s e_j, an edge needs only the
  levels A_hat^t e_i and A_hat^t e_j for t <= K: two propagated columns
  instead of the c + 1 columns of [L | 1], plus 4x4 recurrences. These
  levels are exactly zero outside the K-hop ball of the endpoint, so no
  influence term outside the K-hop neighborhood of {i, j} changes.

Edges are scored in batches; one product per level serves the distinct
endpoints of a batch. While the balls are small the levels are sparse
columns (sparse x sparse products), so a batch stores only its balls. A
sparse batch keeps every level in the key order of level K, whose support
holds each lower level's, as A_hat has a positive diagonal and no negative
entries. Each batch checks that, since an entry that underflows to 0 is
dropped, and takes the union of the levels' keys where it fails (see
`_SparseLevels`). So each (column, row) pair is looked up once for every
level, and a stable sort finds the ball pairs. Once
a batch's level-K columns are more than DENSE_FILL full, the next batch
propagates dense columns, and the edges left are taken in walk order
(`_walk_order`), where consecutive edges share an endpoint, so that a batch
holds about one full-height column per edge rather than two. On sparse
batches the walk did not pay for itself. Each batch holds the columns
that BATCH_BYTES buys at the bytes the previous batch stored per column
(levels, recurrence arrays and assembly temporaries), and at most twice the
edges of the one before. An edge whose ball holds more than
half the targets is assembled alone, over all target rows, and its ball's
rows are summed on their own. Every level is non-negative and `csr_matmat`
sums a row's terms in the order `csr_matvecs` does, so both formats give
bitwise the same levels, and a score is bitwise the same whatever batch, in
whatever order, computes it; scores come back in the caller's order.
Batch scoring treats every edge as a removal from the *original* graph;
`greedy_refine` is the sequential variant that re-scores as it removes.
Scores are arrays of values and affected counts; `signs` classifies values by
one rule at ZERO_TOL, and `score_all_edges` ranks them (see `ScoreReport`).

So dense batches are also scored on every CPU in the process's affinity
mask (`os.sched_getaffinity`; `taskset` limits it): the walked edges are cut
into contiguous shares, one per CPU, and all but the first are scored in
forked child processes that write their values straight into a result
buffer shared with the caller. A share whose child cannot be forked or does
not finish is scored in the caller, so errors are raised as a serial call
raises them and scores are bitwise those of one process. The split is made
only when the edges left fill two batches per share, so sparse-regime
scoring stays in one process, as it does where the platform has no
`os.fork` or `os.sched_getaffinity`.

The same locality makes greedy rescoring local. Removing (i, j) changes
A_hat only in rows and columns i and j, so the levels A_hat^t e_a and the
rows P_k[a] change only for a within K hops of {i, j}, and the base terms
only on those rows; distances to {i, j} are the same before and after the
removal. An edge's score reads its endpoints' degrees, levels and P rows and
the base terms of the target rows in its K-hop ball, so after a removal only
edges with an endpoint within K hops of {i, j} or of a target node within K
hops of {i, j} can change score. `greedy_refine` rescores just those and
keeps the rest, which are bitwise what a full rescore would give. Like every
removal strategy, it returns removed edge ids of its input graph.
"""

from __future__ import annotations

import heapq
import mmap
import os
import signal
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compat import INF, CompatReport, check_scoring_inputs, compatibility
from .filters import ROW_SUM_TOL, check_finite_rows
from .graphs import (
    Graph,
    LabelData,
    csr_dense_product,
    csr_sparse_product,
    csr_to_csc,
    khop_set,
    node_set,
    normalized_adjacency,
)

__all__ = [
    "ZERO_TOL",
    "TopoInfScore",
    "signs",
    "DeltaWorkspace",
    "topoinf_oracle",
    "removal_step",
    "score_all_edges",
    "ScoreReport",
    "greedy_refine",
]

ZERO_TOL = 1e-12
# A target node is affected when its influence term changes by more than this:
# rounding leaves a few ulps where the exact change is zero, which vary with the
# assembly path (real changes on the cora-like input at appnp K=10 reach 4e-13)
AFFECTED_TOL = 64 * np.finfo(np.float64).eps


class TopoInfScore(NamedTuple):
    """Score of a single edge removal by full recompute (`topoinf_oracle`,
    `removal_step`).

    value is C(A') - C(A); -inf marks an excluded edge (removing it would
    isolate a target node while lambda > 0). affected_nodes counts target
    nodes whose influence term changed by more than AFFECTED_TOL.
    """

    value: float
    affected_nodes: int


def signs(values) -> np.ndarray:
    """Sign class of each score: "excluded" for -inf, "zero" below ZERO_TOL
    in magnitude, else "positive" or "negative". A NaN score has none."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("score is NaN")
    return np.select([values == -INF, np.abs(values) < ZERO_TOL, values > 0],
                     ["excluded", "zero", "positive"], "negative")


def _with_regularizer(totals, lam: float, degrees: np.ndarray, target_mask: np.ndarray,
                      ends: np.ndarray) -> np.ndarray:
    """Scores of removing the edges `ends` ((i, j) rows) from their influence
    changes `totals`: less lambda times the endpoints' regularizer change,
    and -inf where a removal isolates a target node."""
    if lam == 0.0:
        return totals
    d, on = degrees[ends], target_mask[ends]
    t = np.where(on & (d > 1), 1.0 / np.maximum(d - 1, 1) - 1.0 / d, 0.0)
    values = totals - lam * (t[:, 0] + t[:, 1])
    values[(on & (d == 1)).any(axis=1)] = -INF
    return values


def topoinf_oracle(g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
                   e: int = 0) -> TopoInfScore:
    """Full-recompute score of removing edge `e`; IndexError for an `e`
    outside [0, |E|)."""
    base = compatibility(g, spec, labels, target, lam)
    return removal_step(g, spec, labels, base, e)[0]


def removal_step(g: Graph, spec, labels: LabelData, base: CompatReport, e: int):
    """Score of removing edge `e` from `g`, whose report is `base`, by a full
    `compatibility()` recompute; returns the score and the new report."""
    new = compatibility(g.remove_edge(e), spec, labels, base.target, base.lam)
    diffs = new.per_node_I - base.per_node_I
    value = _with_regularizer(np.array([np.sum(diffs)]), base.lam, g.degrees,
                              _mask_of(base.target, g.n), g.edges[[e]])
    return TopoInfScore(value.item(), int(np.count_nonzero(np.abs(diffs) > AFFECTED_TOL))), new


def _mask_of(target: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[target] = True
    return mask


# Budget of one scoring batch on the values it stores, in bytes: its endpoint
# levels (the stored entries of sparse columns, or dense columns at full
# height), its recurrence arrays and its assembly temporaries. `score` sizes
# each batch from what the previous one stored per endpoint column, the
# first as a sparse batch whose balls hold every node.
BATCH_BYTES = 4 << 20
# A batch whose level-K endpoint columns were filled above this fraction is
# followed by one propagated as dense columns. Either format gives bitwise the
# same levels, so this only trades costs: on the cora-like graph and on random
# graphs, sparse products were the faster below about 5% fill.
DENSE_FILL = 0.05


class DeltaWorkspace:
    """Precomputed state for scoring single-edge removals on one graph.

    Holds P_k = A_hat^k [L | 1] for k <= K and, on the target rows, the
    filtered baseline's row sums, label mass and per-node influences.
    `score` scores any list of edges in batches sized by BATCH_BYTES; a score
    is bitwise the same whichever batch, and whichever level format, computes
    it, so a list of one edge scores it as a longer list does.
    """

    __slots__ = ("g", "adj", "spec", "labels", "lam", "target", "target_mask",
                 "target_pos", "cls", "entry", "soft", "P", "base_sums", "base_num",
                 "base_I")

    def __init__(self, g, adj, spec, labels, lam, target, P, U):
        self.g = g
        self.adj = adj
        self.spec = spec
        self.labels = labels
        self.lam = lam
        self.target = target
        self.target_mask = _mask_of(target, g.n)
        self.target_pos = np.cumsum(self.target_mask) - 1  # row -> target index
        # the fixed arrays of the target rows: hard labels gather the class
        # entry (bitwise the one-hot inner product, and faster than it), at
        # `entry` in a flattened (class, target row) array
        self.cls = labels.labels[target]
        self.entry = self.cls * target.size + np.arange(target.size)
        rows = P[0, target, :-1]
        self.soft = None if labels.soft is None else rows
        self.P = P
        U = U[target]
        self.base_sums = U[:, -1].copy()
        self.base_num = np.einsum("ij,ij->i", rows, U[:, :-1])
        bad = target[self.base_sums <= ROW_SUM_TOL]
        if bad.size:
            raise ValueError(f"non-normalizable filter rows for nodes {bad[:5].tolist()}")
        self.base_I = self.base_num / self.base_sums

    @classmethod
    def build(cls, g: Graph, spec, labels: LabelData, target=None,
              lam: float = 0.0) -> "DeltaWorkspace":
        target = check_scoring_inputs(g, labels, target, lam)
        adj = normalized_adjacency(g)
        stacked = np.hstack([labels.dense_rows(), np.ones((g.n, 1))])
        gamma = spec.coefficients
        P = np.empty((spec.k + 1,) + stacked.shape)
        P[0] = stacked
        U = gamma[0] * stacked
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            for k in range(1, spec.k + 1):
                P[k] = csr_dense_product(adj.csr, P[k - 1])
                U += gamma[k] * P[k]
        check_finite_rows(U)
        return cls(g, adj, spec, labels, lam, target, P, U)

    def score(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """Exact scores of removing each of `edges` alone, in the given order:
        the values (float64, -inf for an excluded edge) and the counts of
        target nodes whose influence term changed (int64).

        Once batches propagate dense columns, the edges left are scored in
        walk order (`_walk_order`): consecutive edges share an endpoint, so a
        batch of the same bytes holds fewer endpoint columns per edge and more
        edges. The walk is cut into one contiguous share per CPU the process
        may run on (`_in_shares`), when it fills two batches per share. A wide
        edge's changes are reduced alone, one edge at a time. The scores come
        back in the given order, and an id given twice gets its score twice."""
        edges = np.asarray(edges, dtype=np.int64).ravel()
        m = self.g.edge_count
        out_of_range = (edges < 0) | (edges >= m)
        if out_of_range.any():
            raise IndexError(f"edge index {edges[out_of_range][0]} out of range [0, {m})")
        # the results live in one shared mapping, so forked shares write them
        # in place (a zero-length mapping is invalid); the caller gets copies
        buf = mmap.mmap(-1, 16 * max(1, edges.size))
        values = np.frombuffer(buf, count=edges.size)
        affected = np.frombuffer(buf, dtype=np.int64, count=edges.size, offset=8 * edges.size)
        # the first batch is sized as a sparse one whose balls hold every node
        # (six values per entry of two full columns)
        full = self._stored_bytes(1, 12 * (self.spec.k + 1) * self.g.n, 0, 1)
        lo, cap, budget = self._score_run(edges, np.arange(edges.size), values, affected,
                                          max(1, BATCH_BYTES // full), None, False)
        if lo < edges.size:
            # a dense column costs the full height: take the rest of the edges
            # in walk order, so that they share columns
            rest = lo + _walk_order(self.g.edges[edges[lo:]])
            columns = _columns_after(self.g.edges[edges[rest]])
            per_batch = max(1, int(np.searchsorted(columns, budget, side="right")))
            shares = np.array_split(rest, max(1, min(_workers(), rest.size // (2 * per_batch))))
            _in_shares(lambda share: self._score_run(edges, share, values, affected,
                                                     cap, budget, True),
                       shares)
        return values.copy(), affected.copy()

    def _score_run(self, edges, order, values, affected, cap, budget, walked):
        """Score edges[order] in batches, in that order, into values[order] and
        affected[order]; return the positions scored and the next batch's
        edge cap and byte budget.

        Each batch holds the endpoint columns that BATCH_BYTES buys at the
        bytes the previous batch stored per column, and at most twice its
        edges, so that a batch of small balls cannot size a much larger one.
        Unless `walked`, the batches start sparse and the run stops after the
        first whose level-K columns are more than DENSE_FILL full; a `walked`
        run starts dense and takes all of `order`."""
        dense, lo = walked, 0
        while lo < order.size and (walked or not dense):
            ahead = order[lo:lo + cap]
            columns = _columns_after(self.g.edges[edges[ahead]])
            nb = ahead.size if budget is None else \
                max(1, int(np.searchsorted(columns, budget, side="right")))
            batch = ahead[:nb]
            values[batch], affected[batch], stored, fill = \
                self._score_batch(edges[batch], dense)
            cap, budget = 2 * nb, BATCH_BYTES * int(columns[nb - 1]) // stored
            dense = bool(fill > DENSE_FILL)
            lo += nb
        return lo, cap, budget

    def _stored_bytes(self, nb, level_values, pairs, wide) -> int:
        """Bytes a batch of `nb` edges stores: its levels; per edge its
        recurrence arrays, its filtered change F and its score; per narrow
        pair its gathered levels and weights, their products, the running
        sums and its change; and, when the batch has wide edges, one D with
        its two products and one ball's changes.

        The recurrence arrays are released before the assembly, yet they are
        still charged: sized by the larger of the two phases alone, sgc K=2
        batches on the cora-like input grew by a third and the process's
        peak RSS grew with them, with no gain in time."""
        K, C, nt = self.spec.k, self.labels.c, self.target.size
        values = level_values + 12 * (K + 2) * (C + 1) * nb + 16 * pairs
        if wide:
            values += (3 * (C + 1) + 8) * nt
        return 8 * int(values)

    def _filtered_change(self, ends, H):
        """F with Delta U = sum_{t<=K} Y_t F_t for each edge of `ends`, where
        Y_t = A_hat^t [e_i e_j] and H[t] = Y_t^T Y_t. The recurrence arrays
        are released on return, before the assembly."""
        g, K, gamma = self.g, self.spec.k, np.asarray(self.spec.coefficients)
        i, j = ends[:, 0], ends[:, 1]
        nb = ends.shape[0]
        # D_e = Z S Z^T with Z = [e_i, e_j, r_i, r_j] = Y_0 A0 + Y_1 A1, where
        # r_v = (rho_v - 1) A_hat e_v off rows i, j
        s = self.adj.inv_sqrt_deg
        d_i, d_j = g.degrees[i].astype(np.float64), g.degrees[j].astype(np.float64)
        a_ii, a_jj, a_ij = s[i] * s[i], s[j] * s[j], s[i] * s[j]
        m_i = 1.0 / (d_i * (np.sqrt((d_i + 1.0) / d_i) + 1.0))   # rho_i - 1
        m_j = 1.0 / (d_j * (np.sqrt((d_j + 1.0) / d_j) + 1.0))
        A0 = np.zeros((nb, 2, 4))
        A1 = np.zeros((nb, 2, 4))
        A0[:, 0, 0] = A0[:, 1, 1] = 1.0
        A0[:, 0, 2], A0[:, 1, 2] = -m_i * a_ii, -m_i * a_ij
        A0[:, 0, 3], A0[:, 1, 3] = -m_j * a_ij, -m_j * a_jj
        A1[:, 0, 2], A1[:, 1, 3] = m_i, m_j
        S = np.zeros((nb, 4, 4))
        S[:, 0, 0], S[:, 1, 1] = a_ii / d_i, a_jj / d_j
        S[:, 0, 1] = S[:, 1, 0] = -a_ij
        S[:, 0, 2] = S[:, 1, 3] = S[:, 2, 0] = S[:, 3, 1] = 1.0

        # c_r = S (Z^T P_r + sum_{s<r} T_s c_{r-1-s}) with T_s = Z^T A_hat^s Z;
        # PZ[r] collects the bracket as the c's become known
        A0T, A1T = A0.transpose(0, 2, 1), A1.transpose(0, 2, 1)
        Pe = self.P[:, ends]
        PZ = A0T @ Pe[:-1] + A1T @ Pe[1:]
        T = (A0T @ H[:-2] @ A0 + A0T @ H[1:-1] @ A1
             + A1T @ H[1:-1] @ A0 + A1T @ H[2:] @ A1)
        c = np.empty_like(PZ)
        for r in range(K):
            c[r] = S @ PZ[r]
            PZ[r + 1:] += T[:K - 1 - r] @ c[r]
        # F_t = A0 G_t + A1 G_{t-1}, where G_s = sum_{k>s} gamma_k c_{k-1-s}
        # (G_{-1} = G_K = 0)
        G = np.zeros((K + 2,) + PZ.shape[1:])
        for r in range(K):
            G[1:K + 1 - r] += gamma[r + 1:, None, None, None] * c[r]
        return A0 @ G[1:] + A1 @ G[:-1]

    def _score_batch(self, edges, dense: bool):
        """Score values and affected-node counts of `edges`, the bytes the
        batch stored and the filled fraction of its level-K endpoint columns."""
        g, K = self.g, self.spec.k
        nb, nt, C = edges.size, self.target.size, self.labels.c
        ends = g.edges[edges]

        # levels A_hat^t e_v, t <= K, of the batch's distinct endpoints v, with
        # H[t] = [e_i e_j]^T A_hat^t [e_i e_j] and the ball pairs of each edge
        nodes, col = np.unique(ends, return_inverse=True)
        col = col.reshape(nb, 2)
        levels = (_DenseLevels if dense else _SparseLevels)(self, ends, nodes, col)
        F = self._filtered_change(ends, levels.H)

        # Delta U on the (edge, target row) pairs inside each edge's K-hop
        # ball; outside it the levels, and so the changes, are exactly zero. An
        # edge whose ball holds at most half the targets is assembled
        # elementwise on its pairs, any other by one product per endpoint over
        # all target rows: either way its score depends on the edge alone
        size = levels.size
        soft, cls = self.soft, self.cls

        def soft_weight(vals, er):
            """Inner products of vals[:, k] with the soft label of target row er[k]."""
            out = 0.0
            for q in range(C):
                out = out + vals[q] * soft[er, q]
            return out

        def changes(owner, er, num, sums):
            """Influence changes of target rows `er` (indices or a slice)."""
            sums = self.base_sums[er] + sums
            low = sums <= ROW_SUM_TOL
            if low.any():
                b = np.broadcast_to(owner, low.shape)[low].min()
                bad = self.target[er][low & (owner == b)]
                raise ValueError(
                    f"removing edge {tuple(ends[b].tolist())} makes filter rows "
                    f"non-normalizable for nodes {bad[:5].tolist()}")
            return (self.base_num[er] + num) / sums - self.base_I[er]

        # each edge sums its ball's target rows in ascending order
        totals, affected = np.zeros(nb), np.zeros(nb, dtype=np.int64)
        pairs = 0
        narrow = np.flatnonzero((size > 0) & (2 * size <= nt))
        if narrow.size:
            en, rn = levels.pairs(narrow)
            own = None if soft is not None else cls[rn]
            # each endpoint's pairs are looked up once and read at every level
            where = [levels.find(col[en, p], rn) for p in (0, 1)]
            num = sums = 0.0
            for t in range(K + 1):
                for p in (0, 1):
                    f, x = F[t, :, p], levels.at(t, where[p])
                    w = soft_weight(f[en].T, rn) if own is None else f[en, own]
                    num = num + x * w
                    sums = sums + x * f[en, C]
            flat = changes(en, rn, num, sums)
            starts = np.cumsum(size[narrow]) - size[narrow]
            totals[narrow] = np.add.reduceat(flat, starts)
            affected[narrow] = np.add.reduceat(np.abs(flat) > AFFECTED_TOL, starts, dtype=np.int64)
            pairs = en.size
        wide = np.flatnonzero(2 * size > nt)
        if wide.size:
            X, xc = levels.columns(col[wide])
            Fm = F[:, wide].transpose(1, 2, 3, 0).copy()
            for k, b in enumerate(wide):
                # D is exactly zero off the ball, so its rows there change
                # nothing, but the ball's rows are summed on their own
                D = Fm[k, 0] @ X[xc[k, 0]] + Fm[k, 1] @ X[xc[k, 1]]
                num = D.ravel()[self.entry] if soft is None else soft_weight(D, slice(None))
                diffs = changes(b, slice(None), num, D[C])[levels.rows(b)]
                totals[b] = np.add.reduceat(diffs, [0])[0]
                affected[b] = np.count_nonzero(np.abs(diffs) > AFFECTED_TOL)

        values = _with_regularizer(totals, self.lam, g.degrees, self.target_mask, ends)
        stored = self._stored_bytes(nb, levels.stored, pairs, wide.size)
        return values, affected, stored, levels.fill


def _columns_after(ends: np.ndarray) -> np.ndarray:
    """Distinct endpoints among the first k + 1 rows of `ends`, for each k."""
    flat = ends.ravel()
    seen = np.zeros(flat.size, dtype=np.int64)
    seen[np.unique(flat, return_index=True)[1]] = 1
    return np.cumsum(seen)[1::2]


def _walk_order(ends: np.ndarray) -> np.ndarray:
    """A permutation of the rows of `ends`, an (m, 2) array of edge endpoints,
    in which consecutive edges share an endpoint wherever the edges allow.

    A depth-first walk over unused incident edges: from the node on top of
    the stack it takes the node's next unused edge and steps to its other
    end; at a node with none left it steps back. When the stack empties it
    starts again at the first unused row, so every row is taken once; a
    repeated edge is taken once per row."""
    m = ends.shape[0]
    nodes, ids = np.unique(ends, return_inverse=True)
    ids = ids.ravel()
    inc = (np.argsort(ids, kind="stable") // 2).tolist()   # rows by endpoint
    ptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=nodes.size), out=ptr[1:])
    ptr = ptr.tolist()
    u, v = ids[0::2].tolist(), ids[1::2].tolist()
    cursor, used, order = ptr[:-1], [False] * m, []
    for first in range(m):
        if used[first]:
            continue
        used[first] = True
        order.append(first)
        stack = [u[first], v[first]]
        while stack:
            a = stack[-1]
            k, end = cursor[a], ptr[a + 1]
            while k < end and used[inc[k]]:
                k += 1
            cursor[a] = k
            if k == end:
                stack.pop()
                continue
            e = inc[k]
            used[e] = True
            order.append(e)
            stack.append(u[e] + v[e] - a)
    return np.array(order, dtype=np.int64)


def _workers() -> int:
    """CPUs this process may run on, where it can fork; 1 elsewhere."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _in_shares(score, shares):
    """Call score(share) for each of `shares`: the first here, every other in a
    forked child, which writes its results straight into the caller's shared
    arrays and reports only its exit status.

    A share whose child could not be forked, or did not exit with status 0,
    is scored here after the children before it, so an error in a share is
    raised as a serial call raises it. Every child is reaped before this
    returns or raises; on an error or an interrupt here, the children not yet
    reaped are killed first. A child ends with os._exit, so it never runs this
    process's exit handlers or flushes its buffers."""
    children = []   # (pid, or None where the fork failed, and its share)
    try:
        for share in shares[1:]:
            try:
                pid = os.fork()
            except OSError:   # out of processes or memory: scored here instead
                pid = None
            if pid == 0:
                try:
                    score(share)
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, share))
        score(shares[0])
        while children:
            pid, share = children[0]
            done = pid is not None and os.waitpid(pid, 0)[1] == 0
            children.pop(0)
            if not done:
                score(share)
    finally:
        for pid, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class _DenseLevels:
    """A batch's endpoint levels as dense columns, one full-height product per
    level; X[col, t] is level t of endpoint column col on the target rows."""

    def __init__(self, ws, ends, nodes, col):
        n, K, nt = ws.g.n, ws.spec.k, ws.target.size
        cur = np.zeros((n, nodes.size))
        cur[nodes, np.arange(nodes.size)] = 1.0
        self.X = np.empty((nodes.size, K + 1, nt))
        self.H = np.empty((K + 1, ends.shape[0], 2, 2))
        for t in range(K + 1):
            if t:
                cur = csr_dense_product(ws.adj.csr, cur)
            self.H[t] = cur[ends[:, :, None], col[:, None, :]]
            self.X[:, t] = (cur if nt == n else np.take(cur, ws.target, axis=0)).T
        self.fill = np.count_nonzero(cur) / cur.size
        self.ball = (self.X[col[:, 0], K] != 0.0) | (self.X[col[:, 1], K] != 0.0)
        self.size = np.count_nonzero(self.ball, axis=1)
        self.stored = 2 * cur.size + self.X.size  # values: two products and X

    def pairs(self, edges):
        """(edge, target row) pairs in the balls of `edges`, ascending."""
        eb, er = np.nonzero(self.ball[edges])
        return edges[eb], er

    def rows(self, b):
        """Target rows in the ball of edge `b`, ascending."""
        return np.flatnonzero(self.ball[b])

    def find(self, cols, er):
        """Where `at` reads columns `cols` on target rows `er`."""
        return cols, er

    def at(self, t, where):
        """Level t at the positions `find` gave."""
        return self.X[where[0], t, where[1]]

    def columns(self, cols):
        """Dense levels holding `cols`, and each column's index into them."""
        return self.X, cols


class _SparseLevels:
    """The same levels as sparse columns, one sparse product per level: each
    column stores only its K-hop ball. Every level is non-negative and
    `csr_matmat` sums a row's terms in the order `csr_matvecs` does, so the
    stored values are bitwise the dense ones.

    Every level is stored in one key order, (column, row) ascending as
    col * n + row: level t as an array of |order| + 1 values, zero where it
    has no entry and in the last slot, which a missed lookup reads. A_hat has
    a positive diagonal and no negative entries, so level t's support lies
    inside level K's, and the order is level K's keys. That is checked, not
    assumed: `csr_matmat` drops an entry that sums to exactly 0, so a level-K
    entry that underflows while a lower level keeps it would leave that key
    out; the order is then the union of every level's keys. `find` looks a
    (column, row) pair up once in the order, and `at` gathers any level
    there."""

    def __init__(self, ws, ends, nodes, col):
        n, K, nt = ws.g.n, ws.spec.k, ws.target.size
        nb, nc = ends.shape[0], nodes.size
        self.ws, self.nc = ws, nc
        # column k holds a one in row nodes[k]; `nodes` is ascending and unique
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[nodes + 1] = 1
        cur = (np.cumsum(indptr), np.arange(nc), np.ones(nc), (n, nc))
        keys, vals = [], []   # per level: col * n + row, ascending, and the values
        for t in range(K + 1):
            if t:
                cur = csr_sparse_product(ws.adj.csr, cur)
            starts, rows, v, _ = csr_to_csc(cur)   # rows ascending within each column
            owner = np.repeat(np.arange(nc), np.diff(starts))
            keys.append(owner * n + rows)
            vals.append(v)
        # each level's positions in the key order: level K's own are 0, 1, ...
        self.order = keys[K]
        pos = [np.searchsorted(self.order, k) for k in keys[:K]] + [np.arange(self.order.size)]
        if not all(np.array_equal(self.order.take(p, mode="clip"), k) for p, k in zip(pos, keys)):
            self.order = np.unique(np.concatenate(keys))
            pos = [np.searchsorted(self.order, k) for k in keys]
        self.V = np.zeros((K + 1, self.order.size + 1))
        for t in range(K + 1):
            self.V[t, pos[t]] = vals[t]
        self.H = self.V[:, self._find(col[:, None, :], ends[:, :, None])]
        self.fill = rows.size / (n * nc)

        # ball pairs: the union of both endpoints' level-K target rows, edge
        # by edge in ascending row order; each edge's keys are two ascending
        # runs, which a stable sort merges, and a repeat equals its neighbour
        keep = ws.target_mask[rows]
        owner, trow = owner[keep], ws.target_pos[rows[keep]]
        count = np.bincount(owner, minlength=nc)
        seg = col.ravel()
        lens = count[seg]
        shift = np.repeat(np.cumsum(count)[seg] - count[seg] - np.cumsum(lens) + lens, lens)
        edge = np.repeat(np.arange(seg.size) // 2, lens)
        pairs = np.sort(edge * nt + trow[np.arange(lens.sum()) + shift], kind="stable")
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        self.eb, self.er = np.divmod(pairs, nt)
        self.size = np.bincount(self.eb, minlength=nb)
        self.start = np.cumsum(self.size) - self.size
        # per entry: its key and value, and the sparse copies of its level;
        # per level: its values in the key order; per pair: its edge, row and
        # the sort that found it
        self.stored = 6 * sum(k.size for k in keys) + self.V.size + 4 * pairs.size

    def pairs(self, edges):
        keep = np.isin(self.eb, edges)
        return self.eb[keep], self.er[keep]

    def rows(self, b):
        start = self.start[b]
        return self.er[start:start + self.size[b]]

    def _find(self, cols, rows):
        """Positions of the (cols, rows) pairs in the key order; the last
        slot for a pair no level holds."""
        q = cols * self.ws.g.n + rows
        pos = np.minimum(np.searchsorted(self.order, q), self.order.size - 1)
        return np.where(self.order[pos] == q, pos, self.order.size)

    def find(self, cols, er):
        return self._find(cols, self.ws.target[er])

    def at(self, t, where):
        return self.V[t, where]

    def columns(self, cols):
        ws, K, nt = self.ws, self.ws.spec.k, self.ws.target.size
        need, idx = np.unique(cols, return_inverse=True)
        slot = np.full(self.nc, -1)
        slot[need] = np.arange(need.size)
        X = np.zeros((need.size, K + 1, nt))
        c, r = np.divmod(self.order, ws.g.n)
        keep = (slot[c] >= 0) & ws.target_mask[r]
        X[slot[c[keep]], :, ws.target_pos[r[keep]]] = self.V[:, :-1][:, keep].T
        self.stored += X.size    # the batch stores this dense copy too
        return X, idx.reshape(cols.shape)


@dataclass
class ScoreReport:
    """Every edge's score as arrays in edge order, with the sign of each
    score (`signs`) and the ranking: edge ids by descending value, ties in the
    exact float64 value by ascending id, excluded edges last. Rows whose
    printed values are equal can therefore appear out of id order."""

    edges: np.ndarray            # (m, 2) endpoints, the graph's
    values: np.ndarray           # float64, -inf for an excluded edge
    affected: np.ndarray         # int64, as TopoInfScore.affected_nodes
    signs: np.ndarray
    ranking: np.ndarray          # int64 edge ids

    def to_tsv(self) -> str:
        r = self.ranking
        lines = ["edge_u\tedge_v\ttopoinf\tsign\taffected_nodes"]
        for (u, v), x, s, a in zip(self.edges[r].tolist(), self.values[r].tolist(),
                                   self.signs[r].tolist(), self.affected[r].tolist()):
            lines.append(f"{u}\t{v}\t{x:.12g}\t{s}\t{a}")
        return "\n".join(lines) + "\n"


def score_all_edges(g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
                    mode: str = "incremental") -> ScoreReport:
    """Score every edge as a removal from the original graph.

    mode "incremental" scores all edges in batches on one DeltaWorkspace;
    "exact" does a full recompute per edge. The two agree to <= 1e-10.
    """
    if mode not in ("incremental", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "incremental":
        ws = DeltaWorkspace.build(g, spec, labels, target, lam)
        values, affected = ws.score(np.arange(g.edge_count))
    else:
        base = compatibility(g, spec, labels, target, lam)
        steps = [removal_step(g, spec, labels, base, e)[0] for e in range(g.edge_count)]
        values = np.array([s.value for s in steps], dtype=np.float64)
        affected = np.array([s.affected_nodes for s in steps], dtype=np.int64)
    return ScoreReport(edges=g.edges, values=values, affected=affected,
                       signs=signs(values),
                       ranking=np.lexsort((np.arange(values.size), -values)))


def _stale_edges(g: Graph, seeds, target_mask: np.ndarray, k: int) -> np.ndarray:
    """Ids of the edges of `g`, the graph after removing edges between
    `seeds`, whose score those removals can have changed: the edges with an
    endpoint within k hops of the seeds or of a target node within k hops of
    them (see the module docstring)."""
    near = khop_set(g, seeds, k)
    reach = np.zeros(g.n, dtype=bool)
    reach[khop_set(g, np.concatenate([seeds, near[target_mask[near]]]), k)] = True
    return np.flatnonzero(reach[g.edges[:, 0]] | reach[g.edges[:, 1]])


def greedy_refine(g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
                  max_removals: int = 1, rescore_every: int = 1):
    """Repeatedly remove the highest positive-score edge.

    Scores are refreshed every `rescore_every` removals (1 = fully greedy,
    every step sees fresh scores). Stops early once a fresh refresh leaves no
    positive edge. A budget of zero is a no-op. Returns (removed, scores,
    c_after): the removed edge ids of `g` in removal order, each one's score
    at the refresh that picked it and C after its removal.

    Every edge is scored once; a refresh rescores, on a workspace of the
    current graph, only the edges `_stale_edges` names for the removals since
    the last refresh and keeps every other score, which is bitwise the score
    a full rescore would give. Candidates come from a heap ordered by
    (-value, id in `g`), the order of a full ranking, as ids follow (u, v).
    """
    if max_removals < 0:
        raise ValueError("max_removals must be >= 0")
    if rescore_every < 1:
        raise ValueError("rescore_every must be >= 1")
    target_arr = None if target is None else node_set(target, g.n)
    target_mask = _mask_of(np.arange(g.n) if target is None else target_arr, g.n)
    current = g
    alive = np.arange(g.edge_count)     # position in `current` -> id in `g`
    values = np.full(g.edge_count, np.nan)  # score at the last refresh; NaN once removed
    heap: list[tuple[float, int]] = []      # (-value, id) of positive scores
    removed, scores, c_after = [], [], []
    start = None  # removals before the last refresh; None: score every edge
    while len(removed) < max_removals:
        ws = DeltaWorkspace.build(current, spec, labels, target_arr, lam)
        stale = np.arange(current.edge_count) if start is None else \
            _stale_edges(current, g.edges[removed[start:]].ravel(), target_mask, spec.k)
        fresh = ws.score(stale)[0]
        values[alive[stale]] = fresh
        positive = signs(fresh) == "positive"
        for x, e in zip(fresh[positive].tolist(), alive[stale[positive]].tolist()):
            heapq.heappush(heap, (-x, e))
        start = len(removed)
        while heap and len(removed) < min(start + rescore_every, max_removals):
            neg, e = heapq.heappop(heap)
            # skip an edge removed or rescored since this entry was pushed, and
            # one that would now isolate a target node (its true score is -inf)
            if values[e] != -neg or lam > 0 and any(
                    target_mask[x] and current.degrees[x] == 1 for x in g.edges[e].tolist()):
                continue
            pos = int(np.searchsorted(alive, e))
            current = current.remove_edge(pos)
            alive = np.delete(alive, pos)
            values[e] = np.nan
            removed.append(e)
            scores.append(-neg)
            c_after.append(compatibility(current, spec, labels, target_arr, lam).C)
        if len(removed) == start:
            break  # fresh scores and nothing positive left
    return np.array(removed, dtype=np.int64), np.array(scores), np.array(c_after)
