"""Compatibility between a graph's topology and a node-classification task.

Per node v with label row y_v (one-hot for a hard label c_v, or v's soft
label row), the influence term is the filtered label mass the topology leaves
on v's label, I(v) = <y_v, Lbar_v>, which is Lbar[v, c_v] for a hard label.
The regularizer is the reciprocal degree R(v) = 1/d_v (degree without
self-loop).
The aggregate over a target node set is C = sum_v I(v) - lambda * R(v).

Isolated nodes have R = +inf. When lambda > 0 that sentinel propagates to
C = -inf, so any rewiring step that would isolate a target node scores as
"never remove". With lambda = 0 the regularizer is ignored entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filters import FilterSpec, row_normalized_filter
from .graphs import Graph, LabelData, ParameterError, node_set, normalized_adjacency

__all__ = ["CompatReport", "compatibility", "check_scoring_inputs"]

INF = float("inf")


def check_scoring_inputs(g: Graph, labels: LabelData, target, lam: float) -> np.ndarray:
    """Check the inputs every score is computed from and return the target
    as a sorted array of node ids (every node when `target` is None).

    Rejects a regularizer weight that is negative, NaN or infinite, and,
    without soft labels, a target node without a hard label.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ParameterError("lambda", lam, "must be finite and non-negative")
    target = np.arange(g.n, dtype=np.int64) if target is None else node_set(target, g.n)
    if labels.soft is None and not labels.mask[target].all():
        missing = target[~labels.mask[target]]
        raise ValueError(f"target nodes without labels: {missing[:5].tolist()}")
    return target


@dataclass
class CompatReport:
    """Per-node influence/regularizer terms, their aggregate C, and the
    filtered rows of every node they were read from."""

    lam: float
    target: np.ndarray
    per_node_I: np.ndarray         # aligned with target
    per_node_R: np.ndarray         # aligned with target, may contain +inf
    C: float                       # -inf when lam > 0 and some target R is inf
    lbar: np.ndarray               # row-normalized filtered labels, all nodes;
                                   # NaN rows did not normalize
    isolated: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def to_json_dict(self) -> dict:
        nodes = [
            {"id": int(v), "I": json_number(i), "R": json_number(r)}
            for v, i, r in zip(self.target, self.per_node_I, self.per_node_R)
        ]
        return {"lambda": json_number(self.lam), "C": json_number(self.C), "nodes": nodes}


def json_number(x: float):
    """`x` as JSON outputs write it: 12 significant digits, or "inf"/"-inf"."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def compatibility(g: Graph, spec: FilterSpec, labels: LabelData, target=None,
                  lam: float = 0.0) -> CompatReport:
    """Aggregate compatibility over a target node set.

    The per-node term is the inner product of each target's label row with its
    filtered distribution: the hard-label entry for one-hot rows, or soft
    influence (an extension) when `labels` carry soft labels.

    Raises ParameterError when C overflows float64 (a lambda near its maximum);
    incremental scores never form C and stay finite there.
    """
    target = check_scoring_inputs(g, labels, target, lam)
    adj = normalized_adjacency(g)
    rows = labels.dense_rows()
    lbar = row_normalized_filter(spec, adj, rows)
    bad = target[np.isnan(lbar[target, 0])]
    if bad.size:
        raise ValueError(
            f"non-normalizable filter rows for target nodes {bad[:5].tolist()} "
            "(row sum <= tolerance; negative coefficients?)")

    per_i = np.einsum("ij,ij->i", rows[target], lbar[target])
    deg = g.degrees[target].astype(np.float64)
    per_r = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), INF)
    isolated = target[deg == 0]

    if lam == 0.0:
        c = math.fsum(per_i)
    elif isolated.size:
        c = -INF
    else:
        try:
            c = math.fsum(per_i - lam * per_r)
        except OverflowError:
            raise ParameterError("lambda", lam, "C overflows float64") from None
    return CompatReport(lam=lam, target=target, per_node_I=per_i, per_node_R=per_r,
                        C=c, lbar=lbar, isolated=isolated)
