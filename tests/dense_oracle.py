"""Independent dense-matrix reference implementations for the tests.

Everything here is deliberately written with dense numpy matrix powers and
per-node Python loops, sharing no code path with the library's sparse
iterated products. Frozen expected constants in the tests were produced by
these functions.
"""

import math

import numpy as np

INF = float("inf")


def dense_norm_adj(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    at = a + np.eye(n)
    dt = at.sum(axis=1)
    s = np.diag(1.0 / np.sqrt(dt))
    return s @ at @ s


def dense_filter(gamma, ahat):
    out = np.zeros_like(ahat)
    for k, g in enumerate(gamma):
        out += g * np.linalg.matrix_power(ahat, k)
    return out


def dense_rownorm_filter(gamma, n, edges):
    f = dense_filter(gamma, dense_norm_adj(n, edges))
    return f / f.sum(axis=1, keepdims=True)


def dense_soft_labels(n, edges, labels, c, gamma):
    fr = dense_rownorm_filter(gamma, n, edges)
    one_hot = np.zeros((n, c))
    for v, cls in enumerate(labels):
        one_hot[v, cls] = 1.0
    return fr @ one_hot


def dense_degrees(n, edges):
    deg = np.zeros(n)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def dense_compat(n, edges, labels, c, gamma, lam, target=None):
    target = range(n) if target is None else target
    lbar = dense_soft_labels(n, edges, labels, c, gamma)
    deg = dense_degrees(n, edges)
    total = 0.0
    for v in target:
        term = lbar[v, labels[v]]
        if lam > 0:
            if deg[v] == 0:
                return -INF
            term -= lam / deg[v]
        total += term
    return total


def dense_topoinf(n, edges, labels, c, gamma, lam, edge, target=None):
    """Score via explicit before/after recomputation (per-node differences)."""
    target = list(range(n)) if target is None else list(target)
    rest = [e for e in edges if tuple(e) != tuple(edge)]
    assert len(rest) == len(edges) - 1
    lb0 = dense_soft_labels(n, edges, labels, c, gamma)
    lb1 = dense_soft_labels(n, rest, labels, c, gamma)
    deg = dense_degrees(n, edges)
    value = 0.0
    for v in target:
        value += lb1[v, labels[v]] - lb0[v, labels[v]]
    if lam > 0:
        for v in edge:
            if v in target:
                if deg[v] == 1:
                    return -INF
                value -= lam * (1.0 / (deg[v] - 1) - 1.0 / deg[v])
    return value


def dense_topoinf_rows(n, edges, rows, gamma, lam, edge, target=None):
    """Score with label rows `rows` (one-hot or soft) as both the filtered
    signal and the per-node weights; the soft-influence mode's definition."""
    target = list(range(n)) if target is None else list(target)
    rest = [e for e in edges if tuple(e) != tuple(edge)]
    assert len(rest) == len(edges) - 1
    lb0 = dense_rownorm_filter(gamma, n, edges) @ rows
    lb1 = dense_rownorm_filter(gamma, n, rest) @ rows
    deg = dense_degrees(n, edges)
    value = 0.0
    for v in target:
        value += float(rows[v] @ lb1[v]) - float(rows[v] @ lb0[v])
    if lam > 0:
        for v in edge:
            if v in target:
                if deg[v] == 1:
                    return -INF
                value -= lam * (1.0 / (deg[v] - 1) - 1.0 / deg[v])
    return value


def dense_row_sums(gamma, n, edges):
    """Row sums of the unnormalized filter sum_k gamma_k A_hat^k."""
    return dense_filter(gamma, dense_norm_adj(n, edges)).sum(axis=1)


def expected_edge_count(n, c, p, q):
    sizes = [n // c + (1 if i < n % c else 0) for i in range(c)]
    intra = sum(s * (s - 1) // 2 for s in sizes)
    inter = n * (n - 1) // 2 - intra
    return p * intra + q * inter


def softmax(v):
    e = np.exp(np.asarray(v, dtype=float) - max(v))
    return e / e.sum()


assert math.isinf(INF)
