"""Write the benchmark's seeded inputs: graph, labels and a greedy target set.

    python3 bench/make_inputs.py --seed 0 --out DIR [--smoke]

The graph comes from the cora-like preset, `cora_like_params(mix=(0.9, 0.1),
seed=SEED)` (n=2708, m=5342 at seed 0); `--smoke` swaps in a 90-node block
model for tests. The target set holds TARGET_PER_CLASS seeded nodes of each
class, drawn only from nodes of degree >= 1: with lambda > 0 an isolated target
node makes C = -inf, which would make every greedy gain check vacuous.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from topoinf.csbm import CsbmParams, cora_like_params, generate_csbm
from topoinf.graphs import write_edge_list, write_labels

from workloads import GRAPH, LABELS, META, TARGET

TARGET_PER_CLASS = 20
SMOKE_TARGET_PER_CLASS = 5


def input_params(seed: int, smoke: bool) -> CsbmParams:
    if smoke:
        return CsbmParams(n=90, c=3, p=0.12, q=0.02, d=3, sigma=1.0, seed=seed)
    return cora_like_params(mix=(0.9, 0.1), seed=seed)


def draw_target(degrees: np.ndarray, labels: np.ndarray, c: int, per_class: int,
                seed: int) -> np.ndarray:
    """`per_class` nodes of each class with degree >= 1, sorted."""
    rng = np.random.default_rng([seed, 1])
    picked = []
    for cls in range(c):
        pool = np.flatnonzero((labels == cls) & (degrees > 0))
        picked.append(rng.choice(pool, size=min(per_class, pool.size), replace=False))
    return np.sort(np.concatenate(picked))


def make_inputs(seed: int, out: Path, smoke: bool = False) -> dict:
    sample = generate_csbm(input_params(seed, smoke))
    g, labels = sample.graph, sample.labels
    per_class = SMOKE_TARGET_PER_CLASS if smoke else TARGET_PER_CLASS
    target = draw_target(g.degrees, labels.labels, labels.c, per_class, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / GRAPH).write_text(write_edge_list(g))
    (out / LABELS).write_text(write_labels(labels))
    (out / TARGET).write_text("".join(f"{int(v)}\n" for v in target))
    leaves = np.zeros(g.n, dtype=bool)
    leaves[target[g.degrees[target] == 1]] = True
    meta = {"seed": seed, "smoke": smoke, "n": g.n, "m": g.edge_count,
            "isolated": int(np.count_nonzero(g.degrees == 0)),
            "target_size": int(target.size),
            # greedy edges scored -inf: removal would isolate a target node
            "excluded_edges": int(np.count_nonzero(leaves[g.edges].any(axis=1)))}
    (out / META).write_text(json.dumps(meta) + "\n")
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(make_inputs(args.seed, Path(args.out), args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
