"""Edge-removal strategies compared on one graph.

Removing the same number of edges by different rules: score-ordered removal
should raise compatibility the most, the label-agreement baseline (drop
cross-label edges) should help somewhat, and uniform random removal should
barely move it. Also shows the score-biased edge-dropping sampler.
"""

import numpy as np

from topoinf import (CsbmParams, FilterSpec, Graph, compatibility,
                     generate_csbm, greedy_refine, score_all_edges)
from topoinf.rewire import (dropedge_weights, remove_adaedge, remove_by_topoinf,
                            remove_random, sample_dropedge)

params = CsbmParams(n=150, c=3, p=0.3, q=0.06, d=8, sigma=1.0, seed=7)
sample = generate_csbm(params)
g, labels = sample.graph, sample.labels
spec = FilterSpec("sgc", k=2)
ratio = 0.05
budget = int(ratio * g.edge_count)
c0 = compatibility(g, spec, labels).C
print(f"{g.edge_count} edges; removing {budget} ({ratio:.0%}); C before = {c0:.4f}")


def apply_removal(edge_ids):
    keep = np.setdiff1d(np.arange(g.edge_count), edge_ids)
    return Graph.from_edges(g.n, g.edges[keep])


report = score_all_edges(g, spec, labels)
by_score = remove_by_topoinf(report, ratio, "positive")
print(f"score-ordered : C = {compatibility(apply_removal(by_score), spec, labels).C:.4f}")

ada = remove_adaedge(g, labels, ratio, "positive", seed=0)
ends = labels.labels[g.edges]   # every node of a block-model sample is labeled
cross = np.count_nonzero(ends[:, 0] != ends[:, 1])
print(f"label-based   : C = {compatibility(apply_removal(ada), spec, labels).C:.4f}"
      f"   (drawn from {cross} cross-label edges)")

rand = remove_random(g, ratio, seed=0)
print(f"uniform random: C = {compatibility(apply_removal(rand), spec, labels).C:.4f}")

removed, scores, c_after = greedy_refine(g, spec, labels, max_removals=5)
print("\ngreedy removal, one fresh re-scoring per step:")
for (u, v), score, c in zip(g.edges[removed].tolist(), scores, c_after):
    print(f"  removed ({u:3d},{v:3d})  score {score:+.5f}  ->  C = {c:.4f}")

# the dropping sampler: high scores are dropped more often
probabilities = dropedge_weights(report.values, tau=0.75)
counts = np.zeros(g.edge_count)
for epoch in range(200):
    counts[sample_dropedge(probabilities, 0.3, seed=[3, epoch])] += 1
top = np.argsort(probabilities)[-3:]
bottom = np.argsort(probabilities)[:3]
print(f"\ndropping over 200 sampled epochs (rate 0.3):")
print(f"  three highest-probability edges dropped {counts[top].mean():.0f} times each")
print(f"  three lowest-probability edges dropped  {counts[bottom].mean():.0f} times each")
