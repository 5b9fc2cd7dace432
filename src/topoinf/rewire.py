"""Edge-removal strategies and the influence-guided edge-dropping sampler.

Removal strategies pick a subset of edges: score-ordered (within the positive
or negative partition, by absolute score), uniformly random, or the
label-agreement baseline that partitions edges by whether their endpoints
share a label. The dropping sampler turns scores into a softmax distribution
P_e proportional to exp(score_e / tau) and draws without replacement by
sequential renormalized draws (inclusion probabilities of that scheme are
not exactly proportional to the weights; this is the standard caveat).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, LabelData

__all__ = [
    "RemovalPlan",
    "EdgePartition",
    "DropEdgeDistribution",
    "remove_by_topoinf",
    "remove_random",
    "adaedge_partition",
    "check_tau",
    "check_drop_fraction",
    "dropedge_weights",
    "sample_dropedge",
    "epoch_seed",
]

STRATEGIES = ("topoinf", "random", "adaedge")


@dataclass(frozen=True)
class RemovalPlan:
    strategy: str
    ratio: float
    seed: int = 0
    set: str = "positive"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("ratio must lie in [0, 1]")
        if self.set not in ("positive", "negative"):
            raise ValueError("set must be 'positive' or 'negative'")

    def count(self, edge_count: int) -> int:
        return int(self.ratio * edge_count)


def remove_by_topoinf(report, plan: RemovalPlan) -> np.ndarray:
    """Top floor(ratio * |E|) edges of the chosen sign partition.

    Ordered by absolute score descending, ties broken by ascending edge id.
    Truncates with a warning when the partition is smaller than requested.
    """
    if plan.strategy != "topoinf":
        raise ValueError("plan strategy must be 'topoinf'")
    pool = report.positive if plan.set == "positive" else report.negative
    want = plan.count(len(report.scores))
    if want > pool.size:
        warnings.warn(
            f"requested {want} edges but the {plan.set} partition has {pool.size}; "
            "truncating", stacklevel=2)
        want = pool.size
    order = sorted(pool.tolist(), key=lambda e: (-abs(report.scores[e].value), e))
    return np.asarray(order[:want], dtype=np.int64)


def remove_random(g: Graph, ratio: float, seed: int) -> np.ndarray:
    """Uniform sample of floor(ratio * |E|) edge ids, without replacement."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    count = int(ratio * g.edge_count)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(g.edge_count, size=count, replace=False)
    return np.sort(chosen.astype(np.int64))


@dataclass
class EdgePartition:
    same_label: np.ndarray
    diff_label: np.ndarray
    unassigned: np.ndarray      # edges with an unlabeled endpoint


def adaedge_partition(g: Graph, labels: LabelData) -> EdgePartition:
    """Split edges by endpoint-label equality; unlabeled endpoints are reported."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    known = labels.mask[u] & labels.mask[v]
    same = known & (labels.labels[u] == labels.labels[v])
    diff = known & (labels.labels[u] != labels.labels[v])
    return EdgePartition(
        same_label=np.flatnonzero(same).astype(np.int64),
        diff_label=np.flatnonzero(diff).astype(np.int64),
        unassigned=np.flatnonzero(~known).astype(np.int64),
    )


@dataclass
class DropEdgeDistribution:
    """Per-edge dropping probabilities proportional to exp(score / tau)."""

    edges: np.ndarray            # (m, 2) endpoint pairs
    values: np.ndarray           # scores in edge order (-inf for excluded)
    probabilities: np.ndarray    # sums to 1; excluded edges get exactly 0
    tau: float

    def __len__(self):
        return self.edges.shape[0]


def check_tau(tau: float):
    """Reject a softmax temperature that is not finite and positive."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")


def check_drop_fraction(drop_fraction: float):
    """Reject a drop rate outside [0, 1], NaN included."""
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError(f"drop rate must lie in [0, 1], got {drop_fraction}")


def dropedge_weights(report, tau: float) -> DropEdgeDistribution:
    """Softmax of scores at temperature tau. Excluded edges get weight zero.

    The max finite score is subtracted before exponentiation for numerical
    stability; softmax is invariant to that shift.
    """
    check_tau(tau)
    values = np.asarray([s.value for s in report.scores], dtype=np.float64)
    finite = values > -np.inf
    if not finite.any():
        raise ValueError("all edges are excluded; dropping distribution is empty")
    w = np.zeros_like(values)
    shift = values[finite].max()
    w[finite] = np.exp((values[finite] - shift) / tau)
    probs = w / w.sum()
    edges = np.asarray([(s.u, s.v) for s in report.scores], dtype=np.int64)
    return DropEdgeDistribution(edges=edges, values=values, probabilities=probs, tau=tau)


def sample_dropedge(dist: DropEdgeDistribution, drop_fraction: float, seed: int) -> np.ndarray:
    """floor(drop_fraction * |E|) edge ids, drawn sequentially without
    replacement with renormalization after each draw. Capped at the support
    (excluded edges are never dropped)."""
    check_drop_fraction(drop_fraction)
    m = len(dist)
    count = int(drop_fraction * m)
    support = int(np.count_nonzero(dist.probabilities > 0.0))
    count = min(count, support)
    rng = np.random.default_rng(seed)
    probs = dist.probabilities.copy()
    chosen = np.empty(count, dtype=np.int64)
    for t in range(count):
        probs_norm = probs / probs.sum()
        pick = int(rng.choice(m, p=probs_norm))
        chosen[t] = pick
        probs[pick] = 0.0
    return np.sort(chosen)


def epoch_seed(seed: int, epoch: int):
    """Derived per-epoch seed stream: deterministic in (seed, epoch)."""
    return [int(seed), int(epoch)]
