"""Per-edge influence scores: compatibility change from single-edge removal.

Two independent routes compute the same number:

* `topoinf_oracle` (and `removal_step`, which it calls) removes the edge and
  recomputes `compatibility()` from scratch on the modified graph.
* `DeltaWorkspace` propagates only what the removal changes. Removing edge
  (i, j) drops both self-loop degrees by one, so D = A_hat' - A_hat is
  nonzero only on rows and columns i and j, and it has rank at most four:

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

Edges are scored in batches whose working set stays under BATCH_BYTES; one
sparse product per level serves the distinct endpoints of a batch. Batch
scoring treats every edge as a removal from the *original* graph;
`greedy_refine` is the sequential variant that re-scores as it removes.

The same locality makes greedy rescoring local. Removing (i, j) changes
A_hat only in rows and columns i and j, so the levels A_hat^t e_a and the
rows P_k[a] change only for a within K hops of {i, j}, and the base terms
only on those rows; distances to {i, j} are the same before and after the
removal. An edge's score reads its endpoints' degrees, levels and P rows and
the base terms of the target rows in its K-hop ball, so after a removal only
edges with an endpoint within K hops of {i, j} or of a target node within K
hops of {i, j} can change score. `greedy_refine` rescores just those and
keeps the rest, which are bitwise what a full rescore would give.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .compat import INF, CompatReport, check_lambda, compatibility
from .filters import ROW_SUM_TOL, as_filter
from .graphs import (
    Graph,
    LabelData,
    khop_set,
    node_set,
    normalized_adjacency,
)

__all__ = [
    "ZERO_TOL",
    "TopoInfScore",
    "DeltaWorkspace",
    "topoinf_oracle",
    "removal_step",
    "score_all_edges",
    "ScoreReport",
    "RemovalStep",
    "greedy_refine",
]

ZERO_TOL = 1e-12


@dataclass(frozen=True)
class TopoInfScore:
    """Score of a single edge removal.

    value is C(A') - C(A); -inf marks an excluded edge (removing it would
    isolate a target node while lambda > 0). affected_nodes counts target
    nodes whose influence term actually changed.
    """

    edge: int
    u: int
    v: int
    value: float
    affected_nodes: int
    sign: str

    @staticmethod
    def classify(value: float) -> str:
        if math.isnan(value):
            raise ValueError("score is NaN")
        if value == -INF:
            return "excluded"
        if abs(value) < ZERO_TOL:
            return "zero"
        return "positive" if value > 0 else "negative"


def _reg_delta(lam: float, degrees: np.ndarray, target_mask: np.ndarray,
               i: int, j: int):
    """Regularizer-sum change for the two endpoints; flags new isolation."""
    if lam == 0.0:
        return 0.0, False
    dr = 0.0
    excluded = False
    for v in (int(i), int(j)):
        if target_mask[v]:
            d = int(degrees[v])
            if d == 1:
                excluded = True
            else:
                dr += 1.0 / (d - 1) - 1.0 / d
    return dr, excluded


def topoinf_oracle(g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
                   e: int = 0, soft_influence: bool = False) -> TopoInfScore:
    """Full-recompute score of removing edge `e`."""
    if not 0 <= e < g.edge_count:
        raise IndexError(f"edge index {e} out of range [0, {g.edge_count})")
    pf = as_filter(spec)
    base = compatibility(g, pf, labels, target, lam, soft_influence)
    return removal_step(g, pf, labels, base, e, soft_influence)[0]


def removal_step(g: Graph, pf, labels: LabelData, base: CompatReport, e: int,
                 soft_influence: bool):
    """Score of removing edge `e` from `g`, whose report is `base`, by a full
    `compatibility()` recompute; returns the score and the new report."""
    i, j = (int(x) for x in g.edges[e])
    new = compatibility(g.remove_edge(e), pf, labels, base.target, base.lam,
                        soft_influence)
    diffs = new.per_node_I - base.per_node_I
    affected = int(np.count_nonzero(diffs != 0.0))
    dr, excluded = _reg_delta(base.lam, g.degrees, _mask_of(base.target, g.n), i, j)
    value = -INF if excluded else float(np.sum(diffs)) - base.lam * dr
    score = TopoInfScore(edge=e, u=i, v=j, value=value, affected_nodes=affected,
                         sign=TopoInfScore.classify(value))
    return score, new


def _mask_of(target: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[target] = True
    return mask


# Working-set budget of one scoring batch, in bytes. An edge adds at most two
# endpoint columns, each kept at every level t <= K on the target rows and
# held at full height by the sparse products, plus its assembly rows.
BATCH_BYTES = 4 << 20


class DeltaWorkspace:
    """Precomputed state for scoring single-edge removals on one graph.

    Holds P_k = A_hat^k [L | 1] for k <= K, the filtered baseline U with its
    row sums, and the baseline per-node influences. `score_edges` scores edges
    in batches sized by BATCH_BYTES and `score(e)` is a batch of one; a score
    is bitwise the same whichever batch it is computed in.
    """

    __slots__ = ("g", "adj", "pf", "labels", "lam", "target", "target_mask",
                 "soft_influence", "weights", "P", "U", "base_sums", "base_num",
                 "base_I")

    def __init__(self, g, adj, pf, labels, lam, target, soft_influence,
                 weights, P, U):
        self.g = g
        self.adj = adj
        self.pf = pf
        self.labels = labels
        self.lam = lam
        self.target = target
        self.target_mask = _mask_of(target, g.n)
        self.soft_influence = soft_influence
        self.weights = weights
        self.P = P
        self.U = U
        self.base_sums = U[:, -1].copy()
        self.base_num = np.einsum("ij,ij->i", weights, U[:, :-1])
        bad = np.intersect1d(np.flatnonzero(self.base_sums <= ROW_SUM_TOL), target)
        if bad.size:
            raise ValueError(f"non-normalizable filter rows for nodes {bad[:5].tolist()}")
        self.base_I = np.full(g.n, np.nan)
        ok = self.base_sums > ROW_SUM_TOL
        self.base_I[ok] = self.base_num[ok] / self.base_sums[ok]

    @classmethod
    def build(cls, g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
              soft_influence: bool = False) -> "DeltaWorkspace":
        check_lambda(lam)
        pf = as_filter(spec)
        target = np.arange(g.n, dtype=np.int64) if target is None else node_set(target, g.n)
        if not soft_influence and not labels.mask[target].all():
            missing = target[~labels.mask[target]]
            raise ValueError(f"target nodes without labels: {missing[:5].tolist()}")
        adj = normalized_adjacency(g)
        rows = labels.dense_rows(use_soft=soft_influence)
        stacked = np.hstack([rows, np.ones((g.n, 1))])
        weights = stacked[:, :-1].copy()
        gamma = pf.gamma
        P = np.empty((pf.order + 1,) + stacked.shape)
        P[0] = stacked
        U = gamma[0] * stacked
        for k in range(1, pf.order + 1):
            P[k] = adj.matrix @ P[k - 1]
            U += gamma[k] * P[k]
        return cls(g, adj, pf, labels, lam, target, soft_influence, weights, P, U)

    def score(self, e: int) -> TopoInfScore:
        """Exact score of removing edge `e`."""
        return self.score_edges([e])[0]

    def score_edges(self, edges) -> list:
        """Exact scores of removing each of `edges` alone, in the given order."""
        edges = np.asarray(edges, dtype=np.int64).ravel()
        m = self.g.edge_count
        out_of_range = (edges < 0) | (edges >= m)
        if out_of_range.any():
            raise IndexError(f"edge index {edges[out_of_range][0]} out of range [0, {m})")
        K, nt = self.pf.order, self.target.size
        edge_bytes = 16 * ((K + 8) * nt + 2 * self.g.n)
        step = max(1, min(BATCH_BYTES // edge_bytes, edges.size))
        # one level buffer for all batches: a fresh one per batch costs page faults
        levels = np.empty((2 * step, K + 1, nt))
        scores = []
        for lo in range(0, edges.size, step):
            scores.extend(self._score_batch(edges[lo:lo + step], levels))
        return scores

    def _score_batch(self, edges, levels) -> list:
        g, K, gamma = self.g, self.pf.order, np.asarray(self.pf.gamma)
        nb, nt, C = edges.size, self.target.size, self.weights.shape[1]
        ends = g.edges[edges]
        i, j = ends[:, 0], ends[:, 1]

        # levels A_hat^t e_v, t <= K, of the batch's distinct endpoints v on
        # the target rows, and H[t] = [e_i e_j]^T A_hat^t [e_i e_j]
        nodes, col = np.unique(ends, return_inverse=True)
        col = col.reshape(nb, 2)
        cur = np.zeros((g.n, nodes.size))
        cur[nodes, np.arange(nodes.size)] = 1.0
        X = levels[:nodes.size]
        H = np.empty((K + 1, nb, 2, 2))
        for t in range(K + 1):
            if t:
                cur = self.adj.matrix @ cur
            H[t] = cur[ends[:, :, None], col[:, None, :]]
            X[:, t] = (cur if nt == g.n else np.take(cur, self.target, axis=0)).T

        # D_e = Z S Z^T with Z = [e_i, e_j, r_i, r_j] = Y_0 A0 + Y_1 A1, where
        # Y_t = A_hat^t [e_i e_j] and r_v = (rho_v - 1) A_hat e_v off rows i, j
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
        # Delta U = sum_{t<=K} Y_t F_t with F_t = A0 G_t + A1 G_{t-1}, where
        # G_s = sum_{k>s} gamma_k c_{k-1-s} (G_{-1} = G_K = 0)
        G = np.zeros((K + 2,) + PZ.shape[1:])
        for r in range(K):
            G[1:K + 1 - r] += gamma[r + 1:, None, None, None] * c[r]
        F = A0 @ G[1:] + A1 @ G[:-1]

        # Delta U on (edge, target row) pairs inside each edge's K-hop ball;
        # outside it the levels, and so the changes, are exactly zero. An edge
        # whose ball holds at most half the targets is assembled elementwise on
        # its pairs, any other by one product per endpoint over all target
        # rows: either way its score depends on the edge alone
        ball = (X[col[:, 0], K] != 0.0) | (X[col[:, 1], K] != 0.0)
        size = np.count_nonzero(ball, axis=1)
        soft = self.weights[self.target] if self.soft_influence else None
        cls = self.labels.labels[self.target]

        def weigh(vals, er):
            """Weight of vals[class, row] for target rows `er`: the row's own
            label entry, or its inner product with the row's soft label."""
            if soft is None:
                return np.take_along_axis(vals, cls[er][None], axis=0)[0]
            out = 0.0
            for q in range(C):
                out = out + vals[q] * soft[er, q]
            return out

        def changes(owner, er, num, sums):
            rows = self.target[er]
            sums = self.base_sums[rows] + sums
            low = sums <= ROW_SUM_TOL
            if low.any():
                b = np.broadcast_to(owner, low.shape)[low].min()
                bad = np.broadcast_to(rows, low.shape)[low & (owner == b)]
                raise ValueError(
                    f"removing edge ({i[b]}, {j[b]}) makes filter rows "
                    f"non-normalizable for nodes {bad[:5].tolist()}")
            return (self.base_num[rows] + num) / sums - self.base_I[rows]

        groups = []
        narrow = np.flatnonzero((size > 0) & (2 * size <= nt))
        if narrow.size:
            eb, er = np.nonzero(ball[narrow])
            eb = narrow[eb]
            num = sums = 0.0
            for t in range(K + 1):
                for p in (0, 1):
                    f, x = F[t, eb, p], X[col[eb, p], t, er]
                    num = num + x * weigh(f.T, er)
                    sums = sums + x * f[:, C]
            groups.append((narrow, changes(eb, er, num, sums)))
        wide = np.flatnonzero(2 * size > nt)
        if wide.size:
            Fm = F[:, wide].transpose(1, 2, 3, 0).copy()
            num, sums = np.empty((wide.size, nt)), np.empty((wide.size, nt))
            for k, b in enumerate(wide):
                D = Fm[k, 0] @ X[col[b, 0]] + Fm[k, 1] @ X[col[b, 1]]
                num[k], sums[k] = weigh(D, slice(None)), D[C]
            diffs = changes(wide[:, None], slice(None), num, sums)
            groups.append((wide, diffs[ball[wide]]))

        # each edge sums its ball's target rows in ascending order
        totals, affected = np.zeros(nb), np.zeros(nb, dtype=np.int64)
        for idx, flat in groups:
            starts = np.cumsum(size[idx]) - size[idx]
            totals[idx] = np.add.reduceat(flat, starts)
            affected[idx] = np.add.reduceat((flat != 0.0).astype(np.int64), starts)

        scores = []
        for b in range(nb):
            u, v = int(i[b]), int(j[b])
            dr, excluded = _reg_delta(self.lam, g.degrees, self.target_mask, u, v)
            value = -INF if excluded else float(totals[b]) - self.lam * dr
            scores.append(TopoInfScore(edge=int(edges[b]), u=u, v=v, value=value,
                                       affected_nodes=int(affected[b]),
                                       sign=TopoInfScore.classify(value)))
        return scores


@dataclass
class ScoreReport:
    """Scores for every edge plus the sign partition and ranking."""

    scores: list                 # TopoInfScore in edge order
    ranking: list                # edge ids, descending value, ties by id, excluded last
    positive: np.ndarray
    negative: np.ndarray
    zero: np.ndarray
    excluded: np.ndarray
    metadata: dict

    def ranked(self) -> list:
        return [self.scores[e] for e in self.ranking]

    def to_tsv(self) -> str:
        lines = ["edge_u\tedge_v\ttopoinf\tsign\taffected_nodes"]
        for s in self.ranked():
            lines.append(f"{s.u}\t{s.v}\t{s.value:.12g}\t{s.sign}\t{s.affected_nodes}")
        return "\n".join(lines) + "\n"


def score_all_edges(g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
                    mode: str = "incremental", soft_influence: bool = False) -> ScoreReport:
    """Score every edge as a removal from the original graph.

    mode "incremental" scores all edges in batches on one DeltaWorkspace;
    "exact" does a full recompute per edge. The two agree to <= 1e-10.
    """
    if mode not in ("incremental", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    check_lambda(lam)
    pf = as_filter(spec)
    target_arr = np.arange(g.n, dtype=np.int64) if target is None else node_set(target, g.n)
    if mode == "incremental":
        ws = DeltaWorkspace.build(g, pf, labels, target_arr, lam, soft_influence)
        scores = ws.score_edges(np.arange(g.edge_count))
    else:
        base = compatibility(g, pf, labels, target_arr, lam, soft_influence)
        scores = [removal_step(g, pf, labels, base, e, soft_influence)[0]
                  for e in range(g.edge_count)]
    ranking = sorted(range(g.edge_count), key=lambda e: (-scores[e].value, e))
    by_sign = {"positive": [], "negative": [], "zero": [], "excluded": []}
    for s in scores:
        by_sign[s.sign].append(s.edge)
    metadata = {"filter": list(pf.gamma), "lambda": lam, "mode": mode,
                "target_size": int(target_arr.size)}
    return ScoreReport(
        scores=scores, ranking=ranking,
        positive=np.asarray(by_sign["positive"], dtype=np.int64),
        negative=np.asarray(by_sign["negative"], dtype=np.int64),
        zero=np.asarray(by_sign["zero"], dtype=np.int64),
        excluded=np.asarray(by_sign["excluded"], dtype=np.int64),
        metadata=metadata)


@dataclass(frozen=True)
class RemovalStep:
    u: int
    v: int
    score: float
    c_after: float


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
    every step sees fresh scores). Stops early once no positive edge remains.
    A budget of zero is a no-op. Returns (new_graph, trace).

    Every edge is scored once; a refresh rescores, on a workspace of the
    current graph, only the edges `_stale_edges` names for the removals since
    the last refresh and keeps every other score, which is bitwise the score
    a full rescore would give. Candidates come from a heap ordered by
    (-value, u, v), the (-value, edge id) order of a full ranking.
    """
    if max_removals < 0:
        raise ValueError("max_removals must be >= 0")
    if rescore_every < 1:
        raise ValueError("rescore_every must be >= 1")
    pf = as_filter(spec)
    target_arr = None if target is None else node_set(target, g.n)
    target_mask = np.ones(g.n, dtype=bool) if target_arr is None \
        else _mask_of(target_arr, g.n)
    current = g
    trace: list[RemovalStep] = []
    values: dict[tuple[int, int], float] = {}  # (u, v) -> score at the last refresh
    heap: list[tuple[float, int, int]] = []    # (-value, u, v) of positive scores
    seeds = None  # endpoints removed since the last refresh; None: score every edge
    since_rescore = rescore_every
    while len(trace) < max_removals:
        if since_rescore >= rescore_every:
            if seeds is None:
                fresh = score_all_edges(current, pf, labels, target_arr, lam).scores
            else:
                ws = DeltaWorkspace.build(current, pf, labels, target_arr, lam)
                fresh = ws.score_edges(_stale_edges(current, seeds, target_mask, pf.order))
            for s in fresh:
                values[s.u, s.v] = s.value
                if s.sign == "positive":
                    heapq.heappush(heap, (-s.value, s.u, s.v))
            seeds = []
            since_rescore = 0
        pick = None
        while heap:
            neg, u, v = heapq.heappop(heap)
            if values.get((u, v)) != -neg:
                continue  # removed, or rescored since this entry was pushed
            # stale candidate may have become unsafe: skip anything that would
            # now isolate a target node (its true score is -inf)
            if lam > 0 and ((target_mask[u] and current.degree(u) == 1) or
                            (target_mask[v] and current.degree(v) == 1)):
                continue
            pick = u, v
            break
        if pick is None:
            if since_rescore == 0:
                break  # fresh scores and nothing positive left
            since_rescore = rescore_every
            continue
        current = current.remove_edge(current.edge_id(*pick))
        score = values.pop(pick)
        seeds += pick
        c_after = compatibility(current, pf, labels, target_arr, lam).C
        trace.append(RemovalStep(u=pick[0], v=pick[1], score=score, c_after=c_after))
        since_rescore += 1
    return current, trace
