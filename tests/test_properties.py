"""Property tests of the batched delta engine on generated inputs.

Hypothesis draws small random graphs, filters (every preset, including
gprgnn with negative coefficients, and K from 0 to 4), target subsets,
lambda > 0 with excluded edges, and soft labels. Every edge's score must
match the dense before/after recompute in `dense_oracle`, and the number of
affected target nodes must not exceed the target nodes in the K-hop ball of
the removed edge. Scores over a target set must add up over any split of it
into two disjoint parts. Greedy rewiring, which rescores only the edges
that `influence._stale_edges` names after each removal, must give the same
trace as the from-scratch loop in `greedy_reference`, each fully greedy step
must raise C by the removed edge's score, and every edge it leaves out must
keep its score bit for bit. The seeded sweeps in the other test modules
stay as they are; these draws are derandomized so a run is reproducible.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from topoinf import (
    DeltaWorkspace,
    FilterSpec,
    Graph,
    LabelData,
    compatibility,
    greedy_refine,
    khop_set,
)
from topoinf.influence import _stale_edges, signs

from dense_oracle import dense_row_sums, dense_topoinf_rows
from greedy_reference import reference_greedy

PRESETS = ("sgc", "s2gc", "appnp", "gcn", "gcnii", "gprgnn")
TOL = 1e-10


@st.composite
def scoring_cases(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                 max_size=min(len(pairs), 16), unique=True)))
    c = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    k = draw(st.sampled_from(range(5)))
    preset = draw(st.sampled_from(PRESETS))
    if k == 0:
        spec = FilterSpec("custom", 0, gamma=(draw(st.floats(0.1, 2.0)),))
    elif preset == "gprgnn":
        # learned weights with at least one negative coefficient
        gamma = draw(st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1))
        gamma[draw(st.integers(0, k))] = -draw(st.floats(0.05, 0.5))
        spec = FilterSpec("gprgnn", k, gamma=tuple(gamma))
    else:
        spec = FilterSpec(preset, k, alpha=draw(st.floats(0.05, 0.95)))
    target = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    lam = draw(st.sampled_from([0.0, 0.1, 0.7]))
    soft = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n * c,
                                     max_size=n * c))).reshape(n, c)
        soft = raw / raw.sum(axis=1, keepdims=True)
    return n, edges, c, labels, spec, target, lam, soft


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(scoring_cases())
def test_engine_matches_dense_oracle(case):
    n, edges, c, labels, spec, target, lam, soft = case
    gamma = spec.coefficients
    # keep clear of non-normalizable rows, before and after every removal
    for graph_edges in [edges] + [[f for f in edges if f != e] for e in edges]:
        assume(dense_row_sums(gamma, n, graph_edges)[target].min() > 1e-3)

    g = Graph.from_edges(n, edges)
    hard = np.asarray(labels, dtype=np.int64)
    data = LabelData(c, hard, soft=soft)
    rows = soft if soft is not None else np.eye(c)[hard]
    ws = DeltaWorkspace.build(g, spec, data, target, lam)
    values, affected = ws.score_edges(np.arange(g.edge_count))
    for edge, value, sign, count in zip(g.edges.tolist(), values.tolist(),
                                        signs(values).tolist(), affected.tolist()):
        want = dense_topoinf_rows(n, edges, rows, gamma, lam, tuple(edge), target)
        if math.isinf(want):
            assert value == want and sign == "excluded"
        else:
            assert abs(value - want) <= TOL
        ball = np.intersect1d(khop_set(g, edge, len(gamma) - 1), target)
        assert count <= ball.size


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(scoring_cases(), st.data())
def test_scores_add_over_disjoint_targets(case, split):
    """Scoring a target set gives, per edge, the sum of the scores and of the
    affected-node counts over any split of it into two disjoint parts; an
    edge excluded for either part is excluded for the union (-inf absorbs)."""
    n, edges, c, labels, spec, target, lam, soft = case
    assume(len(target) >= 2)
    gamma = spec.coefficients
    for graph_edges in [edges] + [[f for f in edges if f != e] for e in edges]:
        assume(dense_row_sums(gamma, n, graph_edges)[target].min() > 1e-3)
    in_first = split.draw(st.lists(st.booleans(), min_size=len(target),
                                   max_size=len(target)))
    assume(0 < sum(in_first) < len(target))
    first = [v for v, f in zip(target, in_first) if f]
    second = [v for v, f in zip(target, in_first) if not f]

    g = Graph.from_edges(n, edges)
    label_data = LabelData(c, labels, soft=soft)

    def scores(part):
        ws = DeltaWorkspace.build(g, spec, label_data, part, lam)
        return ws.score_edges(np.arange(g.edge_count))

    (whole, whole_count), (one, one_count), (two, two_count) = \
        scores(target), scores(first), scores(second)
    assert whole_count.tolist() == (one_count + two_count).tolist()
    for w, a, b in zip(whole.tolist(), one.tolist(), two.tolist()):
        if math.isinf(a) or math.isinf(b):
            assert w == -math.inf
        else:
            assert abs(w - (a + b)) <= TOL


@st.composite
def greedy_cases(draw):
    """Sparse graphs (long paths between far nodes), filters with
    non-negative coefficients, so no row is ever non-normalizable, and
    optional soft labels, which greedy rewiring scores by soft influence."""
    n = draw(st.integers(4, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), min_size=2,
                                 max_size=min(len(pairs), 2 * n), unique=True)))
    c = draw(st.integers(2, 3))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, 3))
    preset = draw(st.sampled_from(("sgc", "s2gc", "appnp")))
    spec = FilterSpec(preset, k, alpha=draw(st.floats(0.05, 0.95)))
    target = None
    if draw(st.booleans()):
        target = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    lam = draw(st.sampled_from([0.0, 0.1]))
    soft = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n * c,
                                     max_size=n * c))).reshape(n, c)
        soft = raw / raw.sum(axis=1, keepdims=True)
    return Graph.from_edges(n, edges), LabelData(c, labels, soft=soft), spec, target, lam


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(greedy_cases(), st.integers(1, 6), st.integers(1, 3))
def test_greedy_matches_full_rescoring(case, budget, rescore_every):
    g, labels, spec, target, lam = case
    got, trace = greedy_refine(g, spec, labels, target, lam, max_removals=budget,
                               rescore_every=rescore_every)
    want, want_trace = reference_greedy(g, spec, labels, target, lam,
                                        max_removals=budget,
                                        rescore_every=rescore_every)
    assert [(s.u, s.v, s.score, s.c_after) for s in trace] == want_trace
    assert np.array_equal(got.edges, want.edges)
    # with fresh scores at every step, C rises by exactly the removed edge's score
    c_before = compatibility(g, spec, labels, target, lam).C
    if rescore_every == 1 and math.isfinite(c_before):
        for s in trace:
            assert abs((s.c_after - c_before) - s.score) <= TOL
            c_before = s.c_after


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(greedy_cases(), st.data())
def test_removals_leave_unlisted_scores_unchanged(case, data):
    g, labels, spec, target, lam = case
    picked = data.draw(st.lists(st.integers(0, g.edge_count - 1), min_size=1,
                                max_size=min(3, g.edge_count), unique=True))
    removed = g.edges[picked]
    after = Graph.from_edges(g.n, np.delete(g.edges, picked, axis=0))
    mask = np.ones(g.n, dtype=bool) if target is None else np.isin(np.arange(g.n), target)
    stale = _stale_edges(after, removed.ravel(), mask, spec.k)
    kept = np.setdiff1d(np.arange(after.edge_count), stale)

    def scores(graph):
        ws = DeltaWorkspace.build(graph, spec, labels, target, lam)
        values, affected = ws.score_edges(np.arange(graph.edge_count))
        return {(u, v): (x, a) for (u, v), x, a in
                zip(graph.edges.tolist(), values.tolist(), affected.tolist())}

    before, now = scores(g), scores(after)
    for u, v in after.edges[kept].tolist():
        assert now[u, v] == before[u, v]
