"""What a low-pass filter does to block-model data.

Two effects pull in opposite directions. Bias: after row-normalized
filtering, every node moves closer to its farthest other-community node, so
classes get harder to tell apart. Denoising: the filtered noise carries less
total energy than the raw noise. The compatibility metric's two terms mirror
exactly this trade-off.
"""

from topoinf import (CsbmParams, FilterSpec, check_distance_contraction,
                     check_variance_reduction, generate_csbm)

params = CsbmParams(n=60, c=3, p=0.5, q=0.1, d=8, sigma=1.0, mu_scale=2.0, seed=1)
sample = generate_csbm(params)
print(f"sample: {params.n} nodes, {params.c} communities, "
      f"{sample.graph.edge_count} edges")

for preset, k in (("sgc", 2), ("appnp", 2), ("s2gc", 2)):
    spec = FilterSpec(preset, k, alpha=0.1)
    rep = check_distance_contraction(sample, spec)
    shrink = (rep.before - rep.after).mean()
    print(f"{preset:6s} K={k}: farthest cross-community distance shrinks by "
          f"{shrink:.4f} on average; violations: {rep.violations.size}")

print()
for preset, k in (("sgc", 2), ("appnp", 2)):
    spec = FilterSpec(preset, k, alpha=0.1)
    rep = check_variance_reduction(params, spec, trials=200)
    print(f"{preset:6s} K={k}: ||RowNorm(f)||_F^2 = {rep.frobenius_sq:8.3f} "
          f"<= n = {rep.n};  mean noise energy {rep.mean_noise_before:9.1f} -> "
          f"{rep.mean_noise_after:8.1f} over {rep.trials} draws")

# the bound is tight exactly when the filter does nothing
identity = FilterSpec("custom", 0, gamma=(1.0,))
rep = check_variance_reduction(params, identity, trials=20)
print(f"\nidentity filter: ||RowNorm(f)||_F^2 = {rep.frobenius_sq:.1f} = n "
      "(no denoising without topology)")

# a cora-like parameter bundle matches a citation graph's gross statistics
from topoinf import cora_like_params
cl = cora_like_params(mix=(0.9, 0.1))
print(f"\ncora-like bundle: n={cl.n}, c={cl.c}, d={cl.d}, "
      f"p={cl.p:.5f}, q={cl.q:.6f} (ratio {cl.p / cl.q:.1f})")
