"""Contextual stochastic block model: SBM topology plus noisy center features.

Nodes split into c balanced communities (round-robin assignment, then a
seeded shuffle). Each unordered pair is an edge independently with
probability p inside a community and q across communities (q > p, the
heterophilic regime, is allowed). Features are X = F + N where row v of F is
its community's center vector, mu[labels[v]], and N is i.i.d. Gaussian noise
with standard deviation sigma. The noise is the generator's last draw, so it
is drawn on the first read of `CsbmSample.X`: a caller that reads only the
topology and labels never pays for the n x d matrix.

The two runnable checks cover what a nonnegative, sum-one filter does to
such data after row normalization: the largest distance from a node to any
node of a different community never grows, and the total noise variance
never grows (equivalently ||RowNorm(f)||_F^2 <= n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .filters import row_normalized_filter
from .graphs import Graph, LabelData, normalized_adjacency

__all__ = [
    "MAX_SBM_NODES",
    "MAX_FEATURE_VALUES",
    "CsbmParams",
    "CsbmSample",
    "generate_csbm",
    "sbm_edges",
    "cora_like_params",
    "check_distance_contraction",
    "check_variance_reduction",
    "ContractionReport",
    "VarianceReport",
]

MU_SCHEMES = ("orthogonal_scaled", "gaussian_random")
# Largest node count `CsbmParams` accepts. `sbm_edges` draws every node pair
# once, so a draw costs O(n^2) time: 0.3 s at n = 10^4 and 0.9-1.3 s at
# 2 x 10^4 on a 2-core x86 VM, so about half a minute at this bound.
MAX_SBM_NODES = 100_000
# Most node pairs `sbm_edges` draws at once: 8 MiB of uniforms.
SBM_BLOCK_PAIRS = 2 ** 20
# Largest n * d `CsbmParams` accepts. The first read of `CsbmSample.X` forms
# the n x d float64 X = F + sigma * noise in place in the noise, 256 MiB at
# this bound, with the gathered centers F a temporary of the same size;
# `generate_csbm` itself allocates nothing n x d. `write_features`
# formats every value as text, one row at a time. The cora-like preset uses
# 2708 x 1433, about 3.9 million values.
MAX_FEATURE_VALUES = 2 ** 25


@dataclass(frozen=True)
class CsbmParams:
    n: int
    c: int
    p: float
    q: float
    d: int
    sigma: float
    mu_scheme: str = "orthogonal_scaled"
    mu_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.c < 2 or self.n < self.c:
            raise ValueError("need n >= c >= 2")
        if self.n > MAX_SBM_NODES:
            raise ValueError(f"n = {self.n} exceeds {MAX_SBM_NODES} nodes")
        for name in ("p", "q"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.d < 1:
            raise ValueError("feature dimension must be positive")
        if int(self.n) * int(self.d) > MAX_FEATURE_VALUES:
            raise ValueError(f"n * d = {int(self.n) * int(self.d)} exceeds "
                             f"{MAX_FEATURE_VALUES} feature values")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not math.isfinite(self.mu_scale):
            raise ValueError(f"mu_scale must be finite, got {self.mu_scale}")
        if self.mu_scheme not in MU_SCHEMES:
            raise ValueError(f"mu_scheme must be one of {MU_SCHEMES}")
        if self.mu_scheme == "orthogonal_scaled" and self.d < self.c:
            raise ValueError("orthogonal_scaled centers need d >= c")


@dataclass
class CsbmSample:
    """A drawn block model. The features `X` = mu[communities] + sigma * noise
    are formed on first read and cached, from the drawn communities and the
    generator state recorded after the centers, so they are bitwise the
    eager draw; a `dataclasses.replace` copy forms the same `X` again."""

    graph: Graph
    labels: LabelData
    mu: np.ndarray        # c x d community centers
    _params: CsbmParams = field(repr=False)
    _communities: np.ndarray = field(repr=False)
    _noise_state: dict = field(repr=False)   # where the noise draw begins

    @cached_property
    def X(self) -> np.ndarray:
        rng = np.random.default_rng(self._params.seed)
        rng.bit_generator.state = self._noise_state
        X = rng.normal(size=(self._params.n, self._params.d))   # rounds as F + sigma * noise
        X *= self._params.sigma
        X += self.mu[self._communities]
        return X


def _community_centers(params: CsbmParams, rng) -> np.ndarray:
    if params.mu_scheme == "orthogonal_scaled":
        mu = np.zeros((params.c, params.d))
        mu[np.arange(params.c), np.arange(params.c)] = params.mu_scale
        return mu
    return params.mu_scale * rng.normal(size=(params.c, params.d))


def sbm_edges(rng, communities: np.ndarray, p: float, q: float) -> np.ndarray:
    """Seeded block-model edges (i, j), i < j: each pair independently with
    probability p inside a community and q across. One uniform per pair, in
    row order (i, then j), drawn SBM_BLOCK_PAIRS at a time, so the draw is
    bit-reproducible and leaves `rng` where one `rng.random` call per row
    would; a single community with p = q is the Erdos-Renyi graph."""
    n = communities.shape[0]
    rows = np.arange(n, dtype=np.int64)
    start = rows * (n - 1) - rows * (rows - 1) // 2   # stream index of pair (i, i + 1)
    total = n * (n - 1) // 2
    top = max(p, q)
    edges = []
    for lo in range(0, total, SBM_BLOCK_PAIRS):
        draws = rng.random(min(SBM_BLOCK_PAIRS, total - lo))
        k = np.flatnonzero(draws < top)
        i = np.searchsorted(start, k + lo, side="right") - 1
        j = k + lo - start[i] + i + 1
        hit = draws[k] < np.where(communities[i] == communities[j], p, q)
        edges.append(np.column_stack([i[hit], j[hit]]))
    return np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)


def generate_csbm(params: CsbmParams) -> CsbmSample:
    """Fully seeded draw. RNG consumption order is fixed (communities, edges
    row by row, centers, noise), so samples are bit-reproducible. The noise
    comes last and is drawn on the first read of `X`, from the generator
    state recorded here."""
    rng = np.random.default_rng(params.seed)
    n, c = params.n, params.c

    communities = np.arange(n, dtype=np.int64) % c   # balanced within +/- 1
    rng.shuffle(communities)

    graph = Graph.from_edges(n, sbm_edges(rng, communities, params.p, params.q))

    mu = _community_centers(params, rng)
    return CsbmSample(graph=graph, labels=LabelData(c, communities), mu=mu, _params=params,
                      _communities=communities, _noise_state=rng.bit_generator.state)


def cora_like_params(mix=(0.9, 0.1), sigma: float = 1.0, seed: int = 0) -> CsbmParams:
    """Parameter bundle matching a citation-graph profile: n=2708 nodes,
    7 classes, 1433 feature dimensions, ~5278 expected edges. The (p, q) pair
    keeps the requested intra/inter mix ratio, scaled so the expected edge
    count hits the target."""
    n, c, d, m_target = 2708, 7, 1433, 5278
    a, b = float(mix[0]), float(mix[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"mix ({a}, {b}) must be finite")
    if a <= 0 or b < 0:
        raise ValueError("mix must be positive (intra) and non-negative (inter)")
    sizes = np.full(c, n // c, dtype=np.int64)
    sizes[: n % c] += 1
    intra_pairs = int((sizes * (sizes - 1) // 2).sum())
    inter_pairs = n * (n - 1) // 2 - intra_pairs
    t = m_target / (a * intra_pairs + b * inter_pairs)
    return CsbmParams(n=n, c=c, p=t * a, q=t * b, d=d, sigma=sigma, seed=seed)


@dataclass
class ContractionReport:
    """Per-node farthest-different-community distances before/after filtering."""

    before: np.ndarray
    after: np.ndarray
    violations: np.ndarray     # node ids where after > before + 1e-9
    vacuous: bool = False


def _require_low_pass(spec):
    gamma = spec.coefficients
    if min(gamma) < 0.0 or abs(math.fsum(gamma) - 1.0) > 1e-9:
        raise ValueError(
            f"check requires nonnegative coefficients summing to 1 (got {gamma})")


def check_distance_contraction(sample: CsbmSample, spec) -> ContractionReport:
    """For every node, the distance to its farthest different-community node
    must not grow when the row-normalized filter is applied to the clean
    feature matrix."""
    _require_low_pass(spec)
    adj = normalized_adjacency(sample.graph)
    comm = sample.labels.labels
    diff_mask = comm[:, None] != comm[None, :]
    if not diff_mask.any():
        empty = np.empty(0)
        return ContractionReport(before=empty, after=empty,
                                 violations=np.empty(0, dtype=np.int64), vacuous=True)

    centers = sample.mu[comm]
    filtered = row_normalized_filter(spec, adj, centers)

    def farthest(mat):
        sq = np.sum(mat ** 2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
        np.maximum(d2, 0.0, out=d2)
        d2[~diff_mask] = -1.0
        return np.sqrt(np.max(d2, axis=1))

    before = farthest(centers)
    after = farthest(filtered)
    violations = np.flatnonzero(after > before + 1e-9)
    return ContractionReport(before=before, after=after, violations=violations)


@dataclass
class VarianceReport:
    """Deterministic operator bound plus a Monte Carlo noise comparison."""

    frobenius_sq: float
    n: int
    mean_noise_before: float
    mean_noise_after: float
    trials: int
    slack: float

    @property
    def deterministic_ok(self) -> bool:
        return self.frobenius_sq <= self.n + 1e-9

    @property
    def empirical_ok(self) -> bool:
        return self.mean_noise_after <= self.mean_noise_before * (1.0 + self.slack)


def check_variance_reduction(params: CsbmParams, spec, trials: int) -> VarianceReport:
    """Checks that filtering cannot inflate noise: the row-normalized
    operator has squared Frobenius norm at most n, and over fresh noise draws
    seeded with params.seed + 1 the mean filtered noise energy stays below
    the raw energy (up to 3/sqrt(trials) Monte Carlo slack)."""
    _require_low_pass(spec)
    if trials < 1:
        raise ValueError("need at least one trial")
    sample = generate_csbm(params)
    adj = normalized_adjacency(sample.graph)
    n = params.n

    operator = row_normalized_filter(spec, adj, np.eye(n))
    frob_sq = float(np.sum(operator ** 2))

    rng = np.random.default_rng(params.seed + 1)
    before = np.empty(trials)
    after = np.empty(trials)
    for t in range(trials):
        noise = params.sigma * rng.normal(size=(n, params.d))
        before[t] = np.sum(noise ** 2)
        after[t] = np.sum((operator @ noise) ** 2)
    slack = 3.0 / math.sqrt(trials)
    return VarianceReport(frobenius_sq=frob_sq, n=n,
                          mean_noise_before=float(before.mean()),
                          mean_noise_after=float(after.mean()),
                          trials=trials, slack=slack)


def write_features(x: np.ndarray) -> str:
    """Dense feature rows, whitespace separated, one node per line."""
    fmt = " ".join(["{:.12g}"] * x.shape[1])
    return "\n".join([fmt.format(*row.tolist()) for row in x]) + "\n"
