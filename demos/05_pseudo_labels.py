"""Estimating edge influence when most labels are unknown.

True labels are kept on 15% of nodes; a linear softmax classifier on
filtered features predicts the rest. Scores computed from the hardened
pseudo labels approximate the true-label scores well enough to keep the
positive/negative split largely intact.
"""

import numpy as np

from topoinf import (CsbmParams, FilterSpec, LabelData, TrainConfig,
                     generate_csbm, predict_pseudo, score_all_edges,
                     train_linear_sgc)

params = CsbmParams(n=150, c=3, p=0.4, q=0.05, d=12, sigma=0.6, seed=3)
sample = generate_csbm(params)
g, truth = sample.graph, sample.labels
spec = FilterSpec("sgc", k=2)

rng = np.random.default_rng(0)
mask = rng.random(g.n) < 0.15
mask[:3] = True  # make sure every class is represented
partial = LabelData(truth.c, np.where(mask, truth.labels, -1))
print(f"{mask.sum()} of {g.n} nodes keep their true label")

cfg = TrainConfig(learning_rate=0.5, epochs=300, l2_penalty=1e-4, seed=0)
model = train_linear_sgc(g, spec, sample.X, partial, cfg)
print(f"training loss: {model.loss_trace[0]:.4f} -> {model.loss_trace[-1]:.4f}")

pseudo = predict_pseudo(model, g, spec, sample.X, partial)
holdout = ~mask
acc = np.mean(pseudo.labels[holdout] == truth.labels[holdout])
print(f"pseudo-label accuracy on unlabeled nodes: {acc:.3f}")

true_scores = score_all_edges(g, spec, truth, lam=0.0)
est_scores = score_all_edges(g, spec, LabelData(truth.c, pseudo.labels), lam=0.0)

tv, ev = true_scores.values, est_scores.values
sign_match = np.mean(np.sign(tv) == np.sign(ev))
corr = np.corrcoef(tv, ev)[0, 1]
print(f"\nestimated vs true scores over {g.edge_count} edges:")
print(f"  sign agreement: {sign_match:.3f}")
print(f"  correlation:    {corr:.3f}")

both = sorted(range(g.edge_count), key=lambda e: -ev[e])[:5]
print("\ntop five edges by estimated score (true score alongside):")
for e in both:
    u, v = g.edges[e]
    print(f"  ({u:3d},{v:3d})  est {ev[e]:+.5f}   true {tv[e]:+.5f}")
