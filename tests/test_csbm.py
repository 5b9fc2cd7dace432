import dataclasses
import hashlib

import numpy as np
import pytest

from topoinf import (
    CsbmParams,
    FilterSpec,
    LabelData,
    check_distance_contraction,
    check_variance_reduction,
    cora_like_params,
    generate_csbm,
    score_all_edges,
)
from topoinf import csbm
from topoinf.csbm import (MAX_FEATURE_VALUES, MAX_SBM_NODES, MU_SCHEMES, sbm_edges,
                          write_features)
from topoinf.verify import random_labeled_graph

from csbm_reference import reference_csbm
from dense_oracle import expected_edge_count
from sbm_reference import reference_sbm_edges


class TestGeneration:
    def test_two_cliques(self):
        params = CsbmParams(n=10, c=2, p=1.0, q=0.0, d=4, sigma=0.5, seed=1)
        sample = generate_csbm(params)
        labels = sample.labels.labels
        for u, v in sample.graph.edges:
            assert labels[u] == labels[v]
        sizes = np.bincount(labels)
        # every intra pair present
        assert sample.graph.edge_count == sum(s * (s - 1) // 2 for s in sizes)

    def test_edge_count_within_three_sigma(self):
        params = CsbmParams(n=80, c=2, p=0.3, q=0.3, d=2, sigma=1.0, seed=7)
        sample = generate_csbm(params)
        pairs = 80 * 79 // 2
        mean = pairs * 0.3
        sd = np.sqrt(pairs * 0.3 * 0.7)
        assert abs(sample.graph.edge_count - mean) <= 3 * sd

    def test_sigma_zero_features_equal_centers(self):
        params = CsbmParams(n=12, c=3, p=0.5, q=0.1, d=5, sigma=0.0, seed=2)
        sample = generate_csbm(params)
        assert np.array_equal(sample.X, sample.mu[sample.labels.labels])

    def test_balanced_communities(self):
        params = CsbmParams(n=11, c=3, p=0.2, q=0.1, d=3, sigma=1.0, seed=3)
        sizes = np.bincount(generate_csbm(params).labels.labels)
        assert sizes.max() - sizes.min() <= 1

    def test_seed_reproducible_bitwise(self):
        params = CsbmParams(n=30, c=3, p=0.4, q=0.05, d=6, sigma=0.7, seed=9)
        a = generate_csbm(params)
        b = generate_csbm(params)
        assert a.graph.edges.tolist() == b.graph.edges.tolist()
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels.labels, b.labels.labels)

    @pytest.mark.parametrize("mu_scheme", MU_SCHEMES)
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_features_match_eager_reference(self, mu_scheme, sigma):
        """`X` is drawn on first read, yet bitwise the eager draw of
        `reference_csbm`: read once or twice, and in a `dataclasses.replace`
        copy made before or after the read. Reading it leaves the graph,
        labels and centers as they were."""
        params = CsbmParams(n=40, c=3, p=0.3, q=0.05, d=5, sigma=sigma,
                            mu_scheme=mu_scheme, mu_scale=1.5, seed=12)
        communities, edges, mu, X = reference_csbm(params)
        sample = generate_csbm(params)
        relabeled = LabelData(3, np.zeros(40, dtype=np.int64))
        before = dataclasses.replace(sample, labels=relabeled)
        assert "X" not in vars(sample) and "X" not in vars(before)

        def unchanged():
            assert sample.graph.edges.tobytes() == edges.tobytes()
            assert sample.labels.labels.tobytes() == communities.tobytes()
            assert sample.mu.tobytes() == mu.tobytes()

        unchanged()
        for x in (sample.X, sample.X, before.X,
                  dataclasses.replace(sample, labels=relabeled).X):
            assert x.dtype == X.dtype and x.shape == X.shape
            assert x.tobytes() == X.tobytes()
        assert "X" in vars(sample)
        unchanged()

    def test_cora_like_features_match_eager_reference(self):
        params = cora_like_params(seed=0)
        X = reference_csbm(params)[3]
        assert generate_csbm(params).X.tobytes() == X.tobytes()

    def test_orthogonal_centers(self):
        params = CsbmParams(n=9, c=3, p=0.3, q=0.1, d=5, sigma=1.0,
                            mu_scale=2.5, seed=0)
        mu = generate_csbm(params).mu
        gram = mu @ mu.T
        assert np.allclose(gram, 2.5 ** 2 * np.eye(3))

    def test_orthogonal_needs_enough_dims(self):
        with pytest.raises(ValueError, match="d >= c"):
            CsbmParams(n=9, c=3, p=0.3, q=0.1, d=2, sigma=1.0)

    def test_node_count_bounded(self):
        CsbmParams(n=MAX_SBM_NODES, c=3, p=0.3, q=0.1, d=3, sigma=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            CsbmParams(n=MAX_SBM_NODES + 1, c=3, p=0.3, q=0.1, d=3, sigma=1.0)

    def test_feature_count_bounded(self):
        # only the parameters are built: nothing n x d is allocated
        limit = MAX_FEATURE_VALUES // 10
        CsbmParams(n=10, c=3, p=0.3, q=0.1, d=limit, sigma=1.0)
        with pytest.raises(ValueError, match="feature values"):
            CsbmParams(n=10, c=3, p=0.3, q=0.1, d=limit + 1, sigma=1.0)

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"c": 1}, "n >= c >= 2", id="one-class"),
        pytest.param({"n": 2}, "n >= c >= 2", id="fewer-nodes-than-classes"),
        pytest.param({"p": 1.5}, r"p must lie in \[0, 1\]", id="p-above-one"),
        pytest.param({"q": -0.1}, r"q must lie in \[0, 1\]", id="negative-q"),
        pytest.param({"q": float("nan")}, r"q must lie in \[0, 1\]", id="nan-q"),
        pytest.param({"d": 0}, "feature dimension", id="zero-dim"),
        pytest.param({"sigma": -1.0}, "sigma", id="negative-sigma"),
        pytest.param({"mu_scale": float("nan")}, "mu_scale", id="nan-mu-scale"),
        pytest.param({"mu_scheme": "uniform"}, "mu_scheme", id="unknown-mu-scheme"),
    ])
    def test_params_checked(self, changes, message):
        params = {"n": 9, "c": 3, "p": 0.3, "q": 0.1, "d": 3, "sigma": 1.0, **changes}
        with pytest.raises(ValueError, match=message):
            CsbmParams(**params)

    def test_gaussian_centers_allowed_in_low_dim(self):
        params = CsbmParams(n=9, c=3, p=0.3, q=0.1, d=2, sigma=1.0,
                            mu_scheme="gaussian_random", seed=0)
        assert generate_csbm(params).mu.shape == (3, 2)

    def test_heterophilic_allowed(self):
        params = CsbmParams(n=20, c=2, p=0.05, q=0.6, d=2, sigma=1.0, seed=4)
        sample = generate_csbm(params)
        labels = sample.labels.labels
        cross = sum(1 for u, v in sample.graph.edges if labels[u] != labels[v])
        assert cross > sample.graph.edge_count / 2


class TestCoraLike:
    def test_statistics(self):
        params = cora_like_params(mix=(0.9, 0.1), seed=0)
        assert params.n == 2708 and params.c == 7 and params.d == 1433
        assert params.p / params.q == pytest.approx(9.0)
        assert expected_edge_count(params.n, params.c, params.p, params.q) == \
            pytest.approx(5278, abs=1e-6)

    @pytest.mark.parametrize("mix", [(0.8, 0.2), (0.7, 0.3)])
    def test_other_mixes(self, mix):
        params = cora_like_params(mix=mix, seed=0)
        assert params.p / params.q == pytest.approx(mix[0] / mix[1])
        assert expected_edge_count(params.n, params.c, params.p, params.q) == \
            pytest.approx(5278, abs=1e-6)


    @pytest.mark.parametrize("mix", [(1.0, float("nan")), (float("nan"), 0.1),
                                     (1.0, float("inf")), (float("-inf"), 0.1)])
    def test_non_finite_mix_rejected(self, mix):
        with pytest.raises(ValueError, match=r"^mix \(.*(nan|inf).*\) must be finite"):
            cora_like_params(mix=mix)

    @pytest.mark.parametrize("mix", [(0.0, 0.1), (-0.5, 0.1), (0.9, -0.1)])
    def test_mix_sign_checked(self, mix):
        with pytest.raises(ValueError, match="mix must be positive"):
            cora_like_params(mix=mix)


class TestDistanceContraction:
    def test_identity_filter_is_equality(self):
        params = CsbmParams(n=20, c=2, p=0.4, q=0.1, d=4, sigma=1.0, seed=5)
        sample = generate_csbm(params)
        rep = check_distance_contraction(sample, FilterSpec("custom", 0, gamma=(1.0,)))
        assert rep.violations.size == 0 and not rep.vacuous
        assert np.allclose(rep.before, rep.after)

    def test_csbm_sample_contracts(self):
        params = CsbmParams(n=60, c=3, p=0.5, q=0.1, d=8, sigma=1.0, seed=6)
        sample = generate_csbm(params)
        rep = check_distance_contraction(sample, FilterSpec("sgc", 2))
        assert rep.violations.size == 0 and not rep.vacuous

    def test_single_community_is_vacuous(self):
        params = CsbmParams(n=6, c=2, p=0.5, q=0.1, d=4, sigma=0.0, seed=0)
        mono = dataclasses.replace(generate_csbm(params),
                                   labels=LabelData(2, np.zeros(6, dtype=np.int64)))
        rep = check_distance_contraction(mono, FilterSpec("sgc", 2))
        assert rep.vacuous and rep.violations.size == 0

    def test_hypothesis_violation_refused(self):
        params = CsbmParams(n=10, c=2, p=0.5, q=0.1, d=4, sigma=1.0, seed=0)
        sample = generate_csbm(params)
        with pytest.raises(ValueError, match="nonnegative"):
            check_distance_contraction(sample, FilterSpec("custom", 1, gamma=(0.5, 0.6)))
        with pytest.raises(ValueError):
            check_distance_contraction(sample, FilterSpec("custom", 1, gamma=(-0.5, 1.5)))


class TestVarianceReduction:
    def test_identity_filter_bound_tight(self):
        params = CsbmParams(n=15, c=3, p=0.4, q=0.1, d=4, sigma=1.0, seed=1)
        rep = check_variance_reduction(params, FilterSpec("custom", 0, gamma=(1.0,)), trials=20)
        assert rep.frobenius_sq == pytest.approx(15.0, abs=1e-9)
        assert rep.deterministic_ok and rep.empirical_ok

    def test_two_node_walk_filter(self):
        params = CsbmParams(n=2, c=2, p=1.0, q=1.0, d=3, sigma=1.0, seed=2)
        rep = check_variance_reduction(params, FilterSpec("sgc", 1), trials=50)
        assert rep.frobenius_sq == pytest.approx(1.0, abs=1e-12)
        assert rep.frobenius_sq <= rep.n

    def test_needs_a_trial(self):
        params = CsbmParams(n=6, c=2, p=0.5, q=0.1, d=2, sigma=1.0)
        with pytest.raises(ValueError, match="at least one trial"):
            check_variance_reduction(params, FilterSpec("sgc", 1), trials=0)

    def test_csbm_empirical(self):
        params = CsbmParams(n=100, c=3, p=0.3, q=0.05, d=6, sigma=1.0, seed=3)
        rep = check_variance_reduction(params, FilterSpec("sgc", 2), trials=200)
        assert rep.deterministic_ok and rep.empirical_ok


def test_homophilous_directional_smoke():
    """Inter-community edges should look more removable than intra ones."""
    params = CsbmParams(n=60, c=3, p=0.6, q=0.05, d=4, sigma=1.0, seed=11)
    sample = generate_csbm(params)
    rep = score_all_edges(sample.graph, FilterSpec("sgc", 2), sample.labels, lam=0.0)
    labels, edges = sample.labels.labels, sample.graph.edges
    cross = labels[edges[:, 0]] != labels[edges[:, 1]]
    assert np.mean(rep.values[cross]) > np.mean(rep.values[~cross])


@pytest.mark.parametrize("n, degree, classes, seed, edge_count, digest", [
    (20, 4, 4, 1000, 39, "715ef365921db4f7c883a67f758453c214f992e0d6db5ff04ad4be59e811c41b"),
    (200, 10, 4, 1019, 930, "71b0d01e12092b6851df41647d0ab1427207260f6a702e8a5a0a312e78a1a86f"),
    (40, 2, 3, 4, 32, "74a1e24b59745c6527a14d07b566f198de83d4bd1a8eff1e3b3d815b8df0cba7"),
    (2000, 10, 4, 12, 10016, "aa506cd42f3c2d6748d96af6481ddd579ff22555f7dd2d6c93fcbfbef4b5e361"),
])
def test_random_labeled_graph_pinned(n, degree, classes, seed, edge_count, digest):
    """The Erdos-Renyi graphs of the oracle suite and the seeded sweeps are the
    single-community case of `sbm_edges`; their edges and the labels drawn
    after them must stay bit for bit what the suites were written against."""
    g, labels = random_labeled_graph(n, degree, classes, seed)
    assert g.edge_count == edge_count
    got = hashlib.sha256(g.edges.tobytes() + labels.labels.tobytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("n, c, p, q, block", [
    pytest.param(50, 3, 0.0, 0.0, None, id="p-q-zero"),
    pytest.param(30, 3, 1.0, 0.2, None, id="p-one"),
    pytest.param(60, 3, 0.05, 0.4, None, id="q-over-p"),
    pytest.param(2, 2, 0.6, 0.6, None, id="n-2"),
    pytest.param(40, 4, 0.3, 0.1, 1, id="one-pair-blocks"),
    pytest.param(40, 4, 0.3, 0.1, 7, id="seven-pair-blocks"),
    pytest.param(2708, 7, None, None, 9973, id="cora-like-small-blocks"),
])
def test_sbm_edges_matches_row_loop(monkeypatch, n, c, p, q, block):
    """Block draws give the row loop's edges, dtype and generator state. The
    cora-like case (3.7 million pairs in 367 blocks) and the tiny blocks make
    draws straddle both block and row edges."""
    if p is None:
        params = cora_like_params()
        p, q = params.p, params.q
    if block is not None:
        monkeypatch.setattr(csbm, "SBM_BLOCK_PAIRS", block)
    for seed in range(3):
        communities = np.arange(n, dtype=np.int64) % c
        np.random.default_rng([seed, 7]).shuffle(communities)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sbm_edges(rng, communities, p, q)
        want = reference_sbm_edges(ref_rng, communities, p, q)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()


def test_write_features_matches_per_value_format():
    x = np.array([[-0.0, 1e-300, 1e300, 3.0],
                  [2.0, -7.0, 0.1, 1 / 3],
                  [np.pi, -1e-5, 123456789012345.0, 0.0]])
    want = "\n".join(" ".join(f"{val:.12g}" for val in row) for row in x) + "\n"
    assert write_features(x) == want
    assert write_features(x).splitlines()[0] == "-0 1e-300 1e+300 3"
    sample = generate_csbm(CsbmParams(n=30, c=3, p=0.2, q=0.05, d=5, sigma=1.0, seed=3))
    want = "\n".join(" ".join(f"{val:.12g}" for val in row) for row in sample.X) + "\n"
    assert write_features(sample.X) == want
