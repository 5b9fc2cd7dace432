"""How well does a topology fit its labels?

A three-node walkthrough: two nodes of one class, one of another, all
mutually connected. The one-step filter mixes each node's label with its
neighbors', so the lone class-1 node keeps only a third of its own label
mass while the class-0 pair keeps two thirds each.
"""

from topoinf import FilterSpec, Graph, LabelData, compatibility, normalized_adjacency

g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
labels = LabelData(2, [0, 0, 1])
walk = FilterSpec("sgc", 1)  # f = A_hat

adj = normalized_adjacency(g)
print("normalized adjacency (every entry 1/3 on a triangle):")
print(adj.matrix.toarray())

report = compatibility(g, walk, labels, lam=0.0)
print("\nfiltered label distributions:")
for v in range(3):
    print(f"  node {v} (class {labels.labels[v]}): {report.lbar[v]}")

print(f"\nC at lambda=0:   {report.C:.6f}   (per-node I: {report.per_node_I})")

report_reg = compatibility(g, walk, labels, lam=0.1)
print(f"C at lambda=0.1: {report_reg.C:.6f}   (R = 1/degree = {report_reg.per_node_R})")

# a deeper preset filter on the same graph
for preset in ("sgc", "appnp", "s2gc"):
    spec = FilterSpec(preset, k=3, alpha=0.1)
    c = compatibility(g, spec, labels, lam=0.0).C
    print(f"C under {preset:6s} K=3: {c:.6f}")

print("\nJSON form of the report:")
import json
print(json.dumps(report.to_json_dict(), indent=2))

# isolated nodes have R = +inf; with lambda > 0 the sentinel propagates
g_iso = Graph.from_edges(3, [(0, 1)])
identity = FilterSpec("custom", 0, gamma=(1.0,))
rep = compatibility(g_iso, identity, LabelData(2, [0, 1, 0]), lam=0.5)
print(f"\nwith an isolated target node and lambda=0.5: C = {rep.C}"
      f"  (isolated: {rep.isolated.tolist()})")
