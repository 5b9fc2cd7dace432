"""Eager block-model draw, the reference for `topoinf.csbm.generate_csbm`.

One generator, seeded with `params.seed`, draws in the documented order: the
community shuffle, the edges row by row (`reference_sbm_edges`), the centers
(only under `gaussian_random`) and then the n x d noise. The features are
formed at once as mu[communities] + sigma * noise, so a sample whose `X` is
drawn later, from a recorded generator state, can be compared bit for bit.
"""

import numpy as np

from sbm_reference import reference_sbm_edges


def reference_csbm(params):
    """(communities, edges, mu, X) of `params`, every array drawn eagerly."""
    rng = np.random.default_rng(params.seed)
    communities = np.arange(params.n, dtype=np.int64) % params.c
    rng.shuffle(communities)
    edges = reference_sbm_edges(rng, communities, params.p, params.q)
    if params.mu_scheme == "gaussian_random":
        mu = params.mu_scale * rng.normal(size=(params.c, params.d))
    else:
        mu = np.zeros((params.c, params.d))
        mu[np.arange(params.c), np.arange(params.c)] = params.mu_scale
    X = mu[communities] + params.sigma * rng.normal(size=(params.n, params.d))
    return communities, edges, mu, X
