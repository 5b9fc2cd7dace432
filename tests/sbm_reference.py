"""Row-by-row block-model draw, the reference for `topoinf.csbm.sbm_edges`.

One `rng.random` call per row i draws the uniforms of the pairs (i, j > i),
and a pair is an edge when its uniform is below p (same community) or q. It
consumes the generator exactly as `sbm_edges` must, so both the edges and
the generator's next draw can be compared bit for bit.
"""

import numpy as np


def reference_sbm_edges(rng, communities, p, q):
    n = communities.shape[0]
    edges = []
    for i in range(n - 1):
        draws = rng.random(n - 1 - i)
        js = np.arange(i + 1, n)
        prob = np.where(communities[js] == communities[i], p, q)
        hit = js[draws < prob]
        if hit.size:
            edges.append(np.column_stack([np.full(hit.size, i, dtype=np.int64), hit]))
    return np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)
