"""Edge-removal strategies and the influence-guided edge-dropping sampler.

Removal strategies pick a subset of edges: score-ordered (within the positive
or negative partition, by absolute score), uniformly random, or the
label-agreement baseline that draws from the edges whose labeled endpoints
disagree, or agree. The dropping sampler turns scores into a softmax
distribution P_e proportional to exp(score_e / tau) and draws without
replacement with Efraimidis-Spirakis keys: each edge gets the key
U_e^(1 / P_e) for a uniform U_e, and the edges with the largest keys are
dropped. That set has the same law as sequential draws renormalized after
each pick (Efraimidis & Spirakis, "Weighted random sampling with a
reservoir", IPL 2006), so inclusion probabilities are not exactly
proportional to the weights; this is the standard caveat of that scheme.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .graphs import Graph, LabelData

__all__ = [
    "remove_by_topoinf",
    "remove_random",
    "remove_adaedge",
    "check_tau",
    "check_drop_fraction",
    "dropedge_weights",
    "sample_dropedge",
    "epoch_seed",
]


def _check_removal(ratio: float, which: str):
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    if which not in ("positive", "negative"):
        raise ValueError("set must be 'positive' or 'negative'")


def remove_by_topoinf(report, ratio: float, which: str) -> np.ndarray:
    """Top floor(ratio * |E|) edges of the `which` sign partition of a ScoreReport.

    Ordered by absolute score descending, ties broken by ascending edge id.
    Truncates with a warning when the partition is smaller than requested.
    """
    _check_removal(ratio, which)
    pool = np.flatnonzero(report.signs == which)
    want = int(ratio * report.values.size)
    if want > pool.size:
        warnings.warn(
            f"requested {want} edges but the {which} partition has {pool.size}; "
            "truncating", stacklevel=2)
        want = pool.size
    return pool[np.lexsort((pool, -np.abs(report.values[pool])))][:want]


def remove_random(g: Graph, ratio: float, seed: int) -> np.ndarray:
    """Uniform sample of floor(ratio * |E|) edge ids, without replacement."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    count = int(ratio * g.edge_count)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(g.edge_count, size=count, replace=False)
    return np.sort(chosen.astype(np.int64))


def remove_adaedge(g: Graph, labels: LabelData, ratio: float, which: str,
                   seed: int) -> np.ndarray:
    """Uniform sample, without replacement, of floor(ratio * |E|) edge ids
    from the cross-label edges ("positive": their removal helps) or the
    same-label edges ("negative"), truncated to that pool; sorted. Edges with
    an unlabeled endpoint are in neither pool."""
    _check_removal(ratio, which)
    u, v = g.edges[:, 0], g.edges[:, 1]
    agree = labels.labels[u] == labels.labels[v]
    pool = np.flatnonzero(labels.mask[u] & labels.mask[v]
                          & (~agree if which == "positive" else agree))
    count = min(int(ratio * g.edge_count), pool.size)
    return np.sort(np.random.default_rng(seed).choice(pool, size=count, replace=False))


def check_tau(tau: float):
    """Reject a softmax temperature that is not finite and positive."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")


def check_drop_fraction(drop_fraction: float):
    """Reject a drop rate outside [0, 1], NaN included."""
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError(f"drop rate must lie in [0, 1], got {drop_fraction}")


def dropedge_weights(values, tau: float) -> np.ndarray:
    """Per-edge dropping probabilities in edge order: the softmax of the
    score values at temperature tau, summing to 1. Excluded edges get exactly 0.

    The max finite score is subtracted before exponentiation for numerical
    stability; softmax is invariant to that shift.
    """
    check_tau(tau)
    values = np.asarray(values, dtype=np.float64)
    finite = values > -np.inf
    if not finite.any():
        raise ValueError("all edges are excluded; dropping distribution is empty")
    w = np.zeros_like(values)
    shift = values[finite].max()
    # values - shift <= 0 can overflow only to -inf, which exp maps to its limit 0
    with np.errstate(over="ignore"):
        z = (values[finite] - shift) / tau
    w[finite] = np.exp(z)
    return w / w.sum()


def sample_dropedge(probabilities: np.ndarray, drop_fraction: float, seed: int) -> np.ndarray:
    """floor(drop_fraction * |E|) distinct edge ids, sorted, capped at the
    support (excluded and underflowed edges are never dropped).

    One uniform U_e per edge with P_e > 0; the edges with the largest keys
    log(U_e) / P_e (the order of U_e^(1 / P_e)) are taken, which has the law
    of sequential draws renormalized after each pick. Keys are compared as
    log(P_e) - log(-log U_e), which is -log(-key) and so orders the edges the
    same way, so that a subnormal P_e cannot overflow its key to -inf and tie
    with another.
    """
    check_drop_fraction(drop_fraction)
    live = np.flatnonzero(probabilities > 0.0)
    count = min(int(drop_fraction * probabilities.size), live.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    with np.errstate(divide="ignore"):   # U_e = 1 gives log(0): the top key, +inf
        keys = np.log(probabilities[live]) - np.log(-np.log1p(-rng.random(live.size)))
    top = np.argpartition(keys, live.size - count)[live.size - count:]
    return np.sort(live[top]).astype(np.int64)


def epoch_seed(seed: int, epoch: int):
    """Derived per-epoch seed stream: deterministic in (seed, epoch)."""
    return [int(seed), int(epoch)]
