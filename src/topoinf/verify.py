"""Self-check suites: oracle equivalence, filter-property checks, gradients.

These are the runnable counterparts of the library's correctness claims, in
a form both the command line (`topoinf verify`) and the test suite execute:

* oracle: on seeded random labeled graphs, the score of every edge from the
  batched rank-4 delta engine (`DeltaWorkspace.score`) must match the
  full-recompute score to 1e-10, and all influence changes must stay inside
  the K-hop neighborhood of the removed edge's endpoints.
* theorem2: on seeded block-model samples, the row-normalized low-pass
  filter must contract farthest-different-community distances and must not
  inflate noise energy.
* gradients: the analytic gradient of the pseudo-label trainer must match
  central finite differences.

Each suite runs one fixed shape, or a smaller one when `quick` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compat import compatibility
from .csbm import (CsbmParams, check_distance_contraction, check_variance_reduction,
                   generate_csbm, sbm_edges)
from .filters import FilterSpec
from .graphs import Graph, LabelData, khop_set
from .influence import DeltaWorkspace, removal_step
from .pseudo import loss_and_gradients

__all__ = [
    "SuiteResult",
    "random_labeled_graph",
    "check_edge_scores",
    "run_oracle_suite",
    "run_theorem2_suite",
    "run_gradient_suite",
    "SUITES",
]

ORACLE_TOL = 1e-10
GRADIENT_TOL = 1e-4


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "\n".join(f"  {line}" for line in self.lines)
        return f"[{status}] {self.name}\n{body}" if body else f"[{status}] {self.name}"


def random_labeled_graph(n: int, mean_degree: float, classes: int, seed: int):
    """Seeded Erdos-Renyi graph with balanced shuffled labels."""
    rng = np.random.default_rng(seed)
    p = min(mean_degree / max(n - 1, 1), 1.0)
    g = Graph.from_edges(n, sbm_edges(rng, np.zeros(n, dtype=np.int64), p, p))
    labels = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(labels)
    return g, LabelData(classes, labels)


@dataclass
class EdgeCheck:
    edges: int = 0
    max_abs_diff: float = 0.0
    mismatches: int = 0
    locality_violations: int = 0


def check_edge_scores(g: Graph, labels: LabelData, spec, lam: float = 0.0,
                      target=None) -> EdgeCheck:
    """Compare incremental vs full-recompute scores, and the locality of the
    recomputed changes, for every edge of g."""
    ws = DeltaWorkspace.build(g, spec, labels, target, lam)
    base = compatibility(g, spec, labels, ws.target, lam)
    out = EdgeCheck(edges=g.edge_count)
    for e, value in enumerate(ws.score(np.arange(g.edge_count))[0].tolist()):
        oracle, new = removal_step(g, spec, labels, base, e)
        # equal values (both -inf for an excluded edge) differ by 0, -inf
        # against a finite value by inf
        d = 0.0 if value == oracle.value else abs(value - oracle.value)
        out.max_abs_diff = max(out.max_abs_diff, d)
        out.mismatches += int(d > ORACLE_TOL)

        # a non-normalizable (NaN) row that stays NaN has not changed
        a, b = new.lbar, base.lbar
        changed = np.flatnonzero(np.any((a != b) & ~(np.isnan(a) & np.isnan(b)), axis=1))
        allowed = np.zeros(g.n, dtype=bool)
        allowed[khop_set(g, g.edges[e], spec.k)] = True
        out.locality_violations += int(np.count_nonzero(~allowed[changed]))
    return out


def run_oracle_suite(quick: bool = False) -> SuiteResult:
    graphs, sizes, ks = 20, (20, 50, 100, 200), (1, 2, 3)
    presets = ("sgc", "s2gc", "appnp", "gcn", "gcnii", "gprgnn")
    if quick:
        graphs, sizes, ks = 4, (20, 50), (1, 2)
        presets = ("sgc", "appnp", "gprgnn")
    total = EdgeCheck()
    redraws = 0
    rng = np.random.default_rng(1007)
    for idx in range(graphs):
        n, mean_deg = sizes[idx % len(sizes)], (4, 6, 8, 10)[idx % 4]
        g, labels = random_labeled_graph(n, mean_deg, 4, 1000 + idx)
        for preset in presets:
            for k in ks:
                if preset == "gprgnn":
                    gamma = tuple(np.round(rng.uniform(-0.3, 1.0, size=k + 1), 3))
                    spec = FilterSpec(preset, k, gamma=gamma)
                else:
                    spec = FilterSpec(preset, k, alpha=0.1)
                try:
                    res = check_edge_scores(g, labels, spec)
                except ValueError as exc:
                    # negative learned coefficients can make rows non-normalizable;
                    # retry with a tamer draw. Any other failure is a fault.
                    if preset != "gprgnn" or "non-normalizable" not in str(exc):
                        raise
                    redraws += 1
                    spec = FilterSpec("gprgnn", k,
                                      gamma=tuple(np.round(rng.uniform(0.1, 1.0, size=k + 1), 3)))
                    res = check_edge_scores(g, labels, spec)
                total.edges += res.edges
                total.max_abs_diff = max(total.max_abs_diff, res.max_abs_diff)
                total.mismatches += res.mismatches
                total.locality_violations += res.locality_violations
    passed = total.mismatches == 0 and total.locality_violations == 0
    return SuiteResult(
        name="oracle equivalence",
        passed=passed,
        lines=[
            f"edge removals checked: {total.edges}",
            f"max |incremental - exact|: {total.max_abs_diff:.3e} (tol {ORACLE_TOL:.0e})",
            f"mismatches: {total.mismatches}",
            f"gprgnn redraws (non-normalizable rows): {redraws}",
            f"locality violations: {total.locality_violations}",
        ])


def run_theorem2_suite(quick: bool = False) -> SuiteResult:
    samples, trials = (3, 50) if quick else (10, 200)
    filters = [FilterSpec("sgc", 2), FilterSpec("appnp", 2, alpha=0.1),
               FilterSpec("s2gc", 2, alpha=0.1)]
    contraction_violations = 0
    frobenius_failures = 0
    variance_failures = 0
    checks = 0
    for s in range(samples):
        params = CsbmParams(n=60, c=3, p=0.5, q=0.1, d=8, sigma=1.0, seed=s)
        sample = generate_csbm(params)
        for spec in filters:
            rep = check_distance_contraction(sample, spec)
            contraction_violations += int(rep.violations.size)
            var = check_variance_reduction(params, spec, trials=trials)
            frobenius_failures += 0 if var.deterministic_ok else 1
            variance_failures += 0 if var.empirical_ok else 1
            checks += 1
    passed = contraction_violations == 0 and frobenius_failures == 0 and variance_failures == 0
    return SuiteResult(
        name="low-pass filter properties",
        passed=passed,
        lines=[
            f"sample/filter combinations: {checks}",
            f"distance-contraction violations: {contraction_violations}",
            f"Frobenius bound failures: {frobenius_failures}",
            f"noise-energy failures: {variance_failures}",
        ])


def run_gradient_suite(quick: bool = False) -> SuiteResult:
    instances = 3 if quick else 10
    worst = 0.0
    failures = 0
    for s in range(instances):
        rng = np.random.default_rng(42 + s)
        m, d, c = 12, 5, 3
        feats = rng.normal(size=(m, d))
        y = rng.integers(0, c, size=m)
        weights = rng.normal(scale=0.5, size=(d, c))
        bias = rng.normal(scale=0.1, size=c)
        l2 = 0.01
        _, grad_w, grad_b = loss_and_gradients(weights, bias.copy(), feats, y, l2)
        err = _fd_relative_error(weights, bias, feats, y, l2, grad_w, grad_b)
        worst = max(worst, err)
        if err > GRADIENT_TOL:
            failures += 1
    return SuiteResult(
        name="trainer gradients vs finite differences",
        passed=failures == 0,
        lines=[
            f"instances: {instances}",
            f"worst relative error: {worst:.3e} (tol {GRADIENT_TOL:.0e})",
        ])


def _fd_relative_error(weights, bias, feats, y, l2, grad_w, grad_b, h: float = 1e-6):
    """Worst relative error of the analytic gradient against central
    differences, over every entry of the weights and the bias."""
    def loss_moved(which, idx, step):
        params = [weights.copy(), bias.copy()]
        params[which][idx] += step
        return loss_and_gradients(*params, feats, y, l2)[0]

    worst = 0.0
    for which, grad in enumerate((grad_w, grad_b)):
        for idx in np.ndindex(grad.shape):
            fd = (loss_moved(which, idx, h) - loss_moved(which, idx, -h)) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst


# name -> runner of every `verify` suite, in the order `--suite all` runs them
SUITES = {
    "oracle": run_oracle_suite,
    "theorem2": run_theorem2_suite,
    "gradients": run_gradient_suite,
}
