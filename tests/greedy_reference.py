"""From-scratch greedy rewiring, the reference for `greedy_refine`.

Every refresh scores all edges of the current graph with `score_all_edges`
and walks the positive ones in (-value, edge id) order, so it shares none of
the incremental bookkeeping that `greedy_refine` keeps between removals.
"""

import numpy as np

from topoinf import compatibility, score_all_edges


def reference_greedy(g, spec, labels, target=None, lam=0.0, max_removals=1,
                     rescore_every=1):
    """(graph, [(u, v, score, c_after), ...]) of the plain greedy loop."""
    mask = np.ones(g.n, dtype=bool)
    if target is not None:
        mask = np.isin(np.arange(g.n), target)
    current, trace, pending, since = g, [], [], rescore_every
    while len(trace) < max_removals:
        if since >= rescore_every:
            report = score_all_edges(current, spec, labels, target, lam)
            ranked = report.ranking[report.signs[report.ranking] == "positive"]
            pending = [(u, v, x) for (u, v), x in zip(report.edges[ranked].tolist(),
                                                       report.values[ranked].tolist())]
            since = 0
        step = None
        while pending:
            cand = pending.pop(0)
            # a candidate that would now isolate a target node scores -inf
            if lam > 0 and any(mask[x] and current.degree(x) == 1 for x in cand[:2]):
                continue
            step = cand
            break
        if step is None:
            if since == 0:
                break
            since = rescore_every
            continue
        u, v, value = step
        current = current.remove_edge(current.edge_id(u, v))
        c_after = compatibility(current, spec, labels, target, lam).C
        trace.append((u, v, value, c_after))
        since += 1
    return current, trace
