"""Polynomial graph filters and their model presets.

A filter is a coefficient vector (g_0 .. g_K) acting as sum_k g_k A_hat^k on
node signals, where A_hat is the self-loop symmetric normalized adjacency.
`FilterSpec` is the one filter type: it names a model preset and expands it
once, at construction, into `FilterSpec.coefficients`:

    sgc, gcn      (0, ..., 0, 1)
    s2gc          g_0 = alpha, g_k = (1 - alpha) / K for k >= 1
    appnp, gcnii  g_k = alpha (1 - alpha)^k for k < K, g_K = (1 - alpha)^K
    gprgnn        supplied coefficients (learned weights)
    custom        supplied coefficients

The row-normalized filtered label matrix divides each row of f(A_hat) L by
the corresponding row sum of f(A_hat); both come from one propagation pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import NormalizedAdjacency, ParameterError, csr_dense_product

__all__ = [
    "PRESETS",
    "FilterSpec",
    "apply_filter",
    "row_normalized_filter",
    "ROW_SUM_TOL",
    "MAX_ORDER",
]

PRESETS = ("sgc", "s2gc", "appnp", "gcn", "gcnii", "gprgnn", "custom")
_NEEDS_GAMMA = ("gprgnn", "custom")
ROW_SUM_TOL = 1e-12
# Largest filter order K. Scoring keeps K + 1 propagated copies of the label
# matrix and K + 1 levels per endpoint, so memory grows linearly with K; the
# diffusion models above use K = 10 or less.
MAX_ORDER = 64


@dataclass(frozen=True)
class FilterSpec:
    """A filter: model preset, order K, hyperparameters, and the coefficients
    g_0 .. g_K they expand to, computed once at construction.

    `gamma` is the supplied vector of gprgnn/custom (None for the other
    presets); `coefficients` is derived and cannot be set. Supplied vectors
    may have K = 0; the named presets need K >= 1.
    """

    preset: str
    k: int
    alpha: float = 0.1
    gamma: tuple | None = None
    coefficients: tuple = field(init=False)

    def __post_init__(self):
        preset = self.preset.lower()
        object.__setattr__(self, "preset", preset)
        if preset not in PRESETS:
            raise ParameterError("preset", self.preset, f"must be one of {PRESETS}")
        k, a = self.k, self.alpha
        low = 0 if preset in _NEEDS_GAMMA else 1
        if not low <= k <= MAX_ORDER:
            raise ParameterError("k", k, f"must lie in [{low}, {MAX_ORDER}]")
        if not 0.0 <= a <= 1.0:
            raise ParameterError("alpha", a, "must lie in [0, 1]")
        if preset in _NEEDS_GAMMA:
            if self.gamma is None:
                raise ValueError(f"preset {preset!r} requires explicit gamma coefficients")
            gamma = tuple(float(x) for x in self.gamma)
            if not all(math.isfinite(x) for x in gamma):
                raise ParameterError("gamma", gamma, "must be finite")
            if len(gamma) != k + 1:
                raise ParameterError("gamma", gamma, f"must have K+1 = {k + 1} entries")
            if all(x == 0.0 for x in gamma):
                raise ParameterError("gamma", gamma, "needs at least one nonzero coefficient")
            object.__setattr__(self, "gamma", gamma)
            coefficients = gamma
        elif self.gamma is not None:
            raise ParameterError("gamma", tuple(self.gamma), f"preset {preset} takes none")
        elif preset in ("sgc", "gcn"):
            coefficients = [0.0] * k + [1.0]
        elif preset == "s2gc":
            coefficients = [a] + [(1.0 - a) / k] * k
        else:  # appnp, gcnii
            coefficients = [a * (1.0 - a) ** i for i in range(k)] + [(1.0 - a) ** k]
        object.__setattr__(self, "coefficients", tuple(float(x) for x in coefficients))


def apply_filter(spec: FilterSpec, adj: NormalizedAdjacency, signal) -> np.ndarray:
    """Evaluate sum_k g_k A_hat^k @ signal by iterated sparse products.

    Accumulation is in fixed order k = 0, 1, ..., K, so results are
    reproducible bit-for-bit across runs.
    """
    m = np.asarray(signal, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != adj.n:
        raise ValueError(f"signal must have {adj.n} rows, got shape {m.shape}")
    power = m
    out = spec.coefficients[0] * m
    for k in range(1, spec.k + 1):
        power = csr_dense_product(adj.csr, power)
        out += spec.coefficients[k] * power
    return out


def check_finite_rows(filt: np.ndarray):
    """Raise ValueError naming the first nodes whose filtered [L | 1] row is
    not finite: the filter coefficients overflow float64 there."""
    bad = np.flatnonzero(~np.isfinite(filt).all(axis=1))
    if bad.size:
        raise ValueError(f"filter coefficients overflow: the filtered rows of nodes "
                         f"{bad[:5].tolist()} are not finite")


def row_normalized_filter(spec: FilterSpec, adj: NormalizedAdjacency,
                          m: np.ndarray) -> np.ndarray:
    """RowNorm(f(A_hat)) m, with f(A_hat) m and its row sums from one pass.

    Propagates [m | 1]: the filtered ones-column is exactly the row sum of
    f(A_hat), and each filtered row of m is divided by it elementwise. Row v
    is the label distribution the filtered graph assigns to node v. A row
    whose sum is <= ROW_SUM_TOL (possible with negative coefficients) cannot
    be normalized and is NaN, not silently replaced.
    """
    stacked = np.hstack([m, np.ones((m.shape[0], 1))])
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        filt = apply_filter(spec, adj, stacked)
    check_finite_rows(filt)
    sums = filt[:, -1]
    values = filt[:, :-1]
    ok = sums > ROW_SUM_TOL
    values[ok] /= sums[ok, None]
    values[~ok] = np.nan
    return values
