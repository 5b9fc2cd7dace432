"""Compatibility between a graph's topology and a node-classification task.

Per node v with hard label c_v, the influence term is the filtered label mass
the topology leaves on the correct class, I(v) = Lbar[v, c_v], and the
regularizer is the reciprocal degree R(v) = 1/d_v (degree without self-loop).
The aggregate over a target node set is C = sum_v I(v) - lambda * R(v).

Isolated nodes have R = +inf. When lambda > 0 that sentinel propagates to
C = -inf, so any rewiring step that would isolate a target node scores as
"never remove". With lambda = 0 the regularizer is ignored entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filters import SoftLabelMatrix, as_filter, soft_labels
from .graphs import Graph, LabelData, node_set, normalized_adjacency

__all__ = ["CompatReport", "node_influence", "node_regularizer", "compatibility",
           "check_lambda"]

INF = float("inf")


def check_lambda(lam: float):
    """Reject a regularizer weight that is negative, NaN or infinite."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")


@dataclass
class CompatReport:
    """Per-node influence/regularizer terms, their aggregate C, and the
    filtered rows of every node they were read from."""

    lam: float
    target: np.ndarray
    per_node_I: np.ndarray         # aligned with target
    per_node_R: np.ndarray         # aligned with target, may contain +inf
    C: float                       # -inf when lam > 0 and some target R is inf
    lbar: SoftLabelMatrix          # row-normalized filtered labels, all nodes
    isolated: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def influence_sum(self) -> float:
        return math.fsum(self.per_node_I)

    def to_json_dict(self) -> dict:
        def enc(x):
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return float(f"{x:.12g}")

        nodes = [
            {"id": int(v), "I": enc(i), "R": enc(r)}
            for v, i, r in zip(self.target, self.per_node_I, self.per_node_R)
        ]
        return {"lambda": enc(self.lam), "C": enc(self.C), "nodes": nodes}


def node_influence(lbar, labels: LabelData, v: int) -> float:
    """Filtered label mass on node v's own class, Lbar[v, c_v]."""
    if not labels.mask[v]:
        raise ValueError(f"node {v} has no hard label; supply pseudo labels first")
    if v in lbar.nonnormalizable:
        raise ValueError(f"node {v} has a non-normalizable filter row")
    return float(lbar.values[v, labels.labels[v]])


def node_regularizer(g: Graph, v: int) -> float:
    """Reciprocal degree 1/d_v; +inf for isolated nodes."""
    d = g.degree(v)
    return INF if d == 0 else 1.0 / d


def compatibility(g: Graph, spec, labels: LabelData, target=None, lam: float = 0.0,
                  soft_influence: bool = False) -> CompatReport:
    """Aggregate compatibility over a target node set.

    `spec` is a FilterSpec or an already-expanded PolynomialFilter. With
    `soft_influence` the per-node term is the inner product of the soft label
    row with the filtered distribution instead of the hard-label entry
    (extension mode; requires labels.soft).
    """
    check_lambda(lam)
    target = np.arange(g.n, dtype=np.int64) if target is None else node_set(target, g.n)
    pf = as_filter(spec)
    if soft_influence and labels.soft is None:
        raise ValueError("soft influence mode needs soft labels")
    if not soft_influence and not labels.mask[target].all():
        missing = target[~labels.mask[target]]
        raise ValueError(f"target nodes without labels: {missing[:5].tolist()}")

    adj = normalized_adjacency(g)
    lbar = soft_labels(pf, adj, labels, use_soft=soft_influence)
    bad = np.intersect1d(lbar.nonnormalizable, target)
    if bad.size:
        raise ValueError(
            f"non-normalizable filter rows for target nodes {bad[:5].tolist()} "
            "(row sum <= tolerance; negative coefficients?)")

    if soft_influence:
        per_i = np.einsum("ij,ij->i", labels.soft[target], lbar.values[target])
    else:
        per_i = lbar.values[target, labels.labels[target]].astype(np.float64)
    deg = g.degrees[target].astype(np.float64)
    per_r = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), INF)
    isolated = target[deg == 0]

    if lam == 0.0:
        c = math.fsum(per_i)
    elif isolated.size:
        c = -INF
    else:
        c = math.fsum(per_i - lam * per_r)
    return CompatReport(lam=lam, target=target, per_node_I=per_i, per_node_R=per_r,
                        C=c, lbar=lbar, isolated=isolated)
