"""Polynomial graph filters and their model presets.

A filter is a coefficient vector (g_0 .. g_K) acting as sum_k g_k A_hat^k on
node signals, where A_hat is the self-loop symmetric normalized adjacency.
Preset expansions:

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
from dataclasses import dataclass

import numpy as np

from .graphs import LabelData, NormalizedAdjacency

__all__ = [
    "PRESETS",
    "FilterSpec",
    "PolynomialFilter",
    "SoftLabelMatrix",
    "expand_preset",
    "as_filter",
    "apply_filter",
    "row_normalized_filter",
    "soft_labels",
    "ROW_SUM_TOL",
]

PRESETS = ("sgc", "s2gc", "appnp", "gcn", "gcnii", "gprgnn", "custom")
_NEEDS_GAMMA = ("gprgnn", "custom")
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FilterSpec:
    """Parsed filter request: model preset, order K, and hyperparameters."""

    preset: str
    k: int
    alpha: float = 0.1
    gamma: tuple | None = None

    def __post_init__(self):
        preset = self.preset.lower()
        object.__setattr__(self, "preset", preset)
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.k < 1:
            raise ValueError("filter order K must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if preset in _NEEDS_GAMMA:
            if self.gamma is None:
                raise ValueError(f"preset {preset!r} requires explicit gamma coefficients")
            gamma = tuple(float(x) for x in self.gamma)
            if not all(math.isfinite(x) for x in gamma):
                raise ValueError(f"gamma coefficients must be finite, got {gamma}")
            if len(gamma) != self.k + 1:
                raise ValueError(f"gamma must have K+1 = {self.k + 1} entries, got {len(gamma)}")
            object.__setattr__(self, "gamma", gamma)
        elif self.gamma is not None:
            raise ValueError(f"preset {preset!r} does not take gamma coefficients")


@dataclass(frozen=True)
class PolynomialFilter:
    """Coefficients g_0 .. g_K of the filter polynomial."""

    gamma: tuple

    def __post_init__(self):
        gamma = tuple(float(x) for x in self.gamma)
        if not gamma:
            raise ValueError("empty coefficient vector")
        if not all(math.isfinite(x) for x in gamma):
            raise ValueError(f"gamma coefficients must be finite, got {gamma}")
        if all(x == 0.0 for x in gamma):
            raise ValueError("filter needs at least one nonzero coefficient")
        object.__setattr__(self, "gamma", gamma)

    @property
    def order(self) -> int:
        return len(self.gamma) - 1

    @property
    def nonnegative(self) -> bool:
        return all(x >= 0.0 for x in self.gamma)


def expand_preset(spec: FilterSpec) -> PolynomialFilter:
    """Coefficient vector for a model preset."""
    k, a = spec.k, spec.alpha
    if spec.preset in ("sgc", "gcn"):
        gamma = [0.0] * k + [1.0]
    elif spec.preset == "s2gc":
        gamma = [a] + [(1.0 - a) / k] * k
    elif spec.preset in ("appnp", "gcnii"):
        gamma = [a * (1.0 - a) ** i for i in range(k)] + [(1.0 - a) ** k]
    else:  # gprgnn / custom: pass supplied weights through
        gamma = list(spec.gamma)
    return PolynomialFilter(tuple(gamma))


def as_filter(f) -> PolynomialFilter:
    if isinstance(f, PolynomialFilter):
        return f
    if isinstance(f, FilterSpec):
        return expand_preset(f)
    raise TypeError(f"expected FilterSpec or PolynomialFilter, got {type(f).__name__}")


def apply_filter(pf, adj: NormalizedAdjacency, signal) -> np.ndarray:
    """Evaluate sum_k g_k A_hat^k @ signal by iterated sparse products.

    Accumulation is in fixed order k = 0, 1, ..., K, so results are
    reproducible bit-for-bit across runs.
    """
    pf = as_filter(pf)
    m = np.asarray(signal, dtype=np.float64)
    squeeze = m.ndim == 1
    if squeeze:
        m = m[:, None]
    if m.ndim != 2 or m.shape[0] != adj.n:
        raise ValueError(f"signal must have {adj.n} rows, got shape {m.shape}")
    power = m
    out = pf.gamma[0] * m
    for k in range(1, pf.order + 1):
        power = adj.matrix @ power
        out += pf.gamma[k] * power
    return out[:, 0] if squeeze else out


@dataclass
class SoftLabelMatrix:
    """Row-normalized filtered labels.

    `values[v]` is the label distribution that the filtered graph assigns to
    node v. Nodes whose filter row sum is <= ROW_SUM_TOL (possible with
    negative learned coefficients) cannot be normalized; their rows are NaN
    and their ids are listed in `nonnormalizable` instead of being silently
    replaced.
    """

    values: np.ndarray
    row_sums: np.ndarray
    nonnormalizable: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def row_normalized_filter(pf, adj: NormalizedAdjacency, m: np.ndarray) -> SoftLabelMatrix:
    """RowNorm(f(A_hat)) m, with f(A_hat) m and its row sums from one pass.

    Propagates [m | 1]: the filtered ones-column is exactly the row sum of
    f(A_hat), and each filtered row of m is divided by it elementwise. Rows
    whose sum is <= ROW_SUM_TOL are NaN and listed as non-normalizable.
    """
    stacked = np.hstack([m, np.ones((m.shape[0], 1))])
    filt = apply_filter(pf, adj, stacked)
    sums = filt[:, -1].copy()
    values = filt[:, :-1]
    bad = np.flatnonzero(sums <= ROW_SUM_TOL)
    ok = sums > ROW_SUM_TOL
    values[ok] /= sums[ok, None]
    if bad.size:
        values[bad] = np.nan
    return SoftLabelMatrix(values=values, row_sums=sums, nonnormalizable=bad)


def soft_labels(pf, adj: NormalizedAdjacency, labels: LabelData,
                use_soft: bool = False) -> SoftLabelMatrix:
    """Filtered, row-normalized label distributions: `row_normalized_filter`
    of the one-hot (or soft) label matrix."""
    return row_normalized_filter(pf, adj, labels.dense_rows(use_soft=use_soft))
