import itertools

import numpy as np
import pytest

from topoinf import (
    FilterSpec,
    Graph,
    LabelData,
    dropedge_weights,
    remove_adaedge,
    remove_by_topoinf,
    remove_random,
    sample_dropedge,
    score_all_edges,
)
from topoinf.rewire import epoch_seed
from topoinf.verify import random_labeled_graph

from dense_oracle import softmax


def _distribution(probabilities) -> np.ndarray:
    return np.asarray(probabilities, dtype=np.float64)


def _sequential_law(p, count):
    """Exact law of the set picked by `count` sequential renormalized draws:
    each ordered sequence s has probability prod_t p[s_t] / (1 - sum of the
    earlier picks), summed over the orders of each set."""
    law = {}
    for seq in itertools.permutations(np.flatnonzero(p > 0).tolist(), count):
        prob, used = 1.0, 0.0
        for e in seq:
            prob *= p[e] / (1.0 - used)
            used += p[e]
        key = tuple(sorted(seq))
        law[key] = law.get(key, 0.0) + prob
    return law


@pytest.fixture
def triangle_scores(triangle, triangle_labels, walk_filter):
    return score_all_edges(triangle, walk_filter, triangle_labels, lam=0.0)


class TestRemoveByTopoinf:
    def test_takes_top_positive(self, triangle_scores):
        out = remove_by_topoinf(triangle_scores, 1 / 3, "positive")
        assert out.tolist() == [1]  # tie on |value| broken by ascending id

    def test_ratio_zero(self, triangle_scores):
        assert remove_by_topoinf(triangle_scores, 0.0, "positive").size == 0

    def test_negative_set_orders_by_magnitude(self):
        g, labels = random_labeled_graph(30, 4, 3, seed=1)
        rep = score_all_edges(g, FilterSpec("sgc", 2), labels)
        out = remove_by_topoinf(rep, 0.2, "negative")
        mags = np.abs(rep.values[out]).tolist()
        assert mags == sorted(mags, reverse=True)
        assert (rep.signs[out] == "negative").all()

    def test_truncation_warns(self, triangle_scores):
        with pytest.warns(UserWarning, match="truncating"):
            out = remove_by_topoinf(triangle_scores, 1.0, "positive")
        assert out.tolist() == [1, 2]

    def test_all_zero_scores(self, triangle, triangle_labels, identity_filter):
        rep = score_all_edges(triangle, identity_filter, triangle_labels)
        with pytest.warns(UserWarning):
            out = remove_by_topoinf(rep, 1 / 3, "positive")
        assert out.size == 0


class TestRemoveRandom:
    def test_ratio_one_takes_all(self, triangle):
        assert remove_random(triangle, 1.0, seed=0).tolist() == [0, 1, 2]

    def test_seed_reproducible(self):
        g, _ = random_labeled_graph(40, 5, 3, seed=2)
        a = remove_random(g, 0.4, seed=123)
        b = remove_random(g, 0.4, seed=123)
        assert a.tolist() == b.tolist()
        c = remove_random(g, 0.4, seed=124)
        assert a.tolist() != c.tolist()

    def test_count_is_floor(self):
        g, _ = random_labeled_graph(40, 5, 3, seed=3)
        out = remove_random(g, 0.35, seed=0)
        assert out.size == int(0.35 * g.edge_count)
        assert np.unique(out).size == out.size

    def test_uniform_frequency(self):
        g = Graph.from_edges(11, [(i, i + 1) for i in range(10)])  # 10 edges
        hits = np.zeros(10)
        trials = 10_000
        for t in range(trials):
            hits[remove_random(g, 0.3, seed=t)] += 1
        freq = hits / trials
        assert np.all(np.abs(freq - 0.3) <= 0.02)


def adaedge_pool(g, labels, which):
    """Reference pool of `remove_adaedge`, edge by edge: both endpoints
    labeled, their labels different ("positive") or equal ("negative")."""
    pool = []
    for e, (u, v) in enumerate(g.edges.tolist()):
        a, b = labels.labels[u], labels.labels[v]
        if a >= 0 and b >= 0 and (a != b) == (which == "positive"):
            pool.append(e)
    return np.array(pool, dtype=np.int64)


class TestAdaEdge:
    def test_triangle_partition(self, triangle, triangle_labels):
        assert remove_adaedge(triangle, triangle_labels, 1.0, "negative", seed=0).tolist() \
            == [0]
        assert remove_adaedge(triangle, triangle_labels, 1.0, "positive", seed=0).tolist() \
            == [1, 2]

    def test_all_same_labels(self, triangle):
        same = LabelData(2, [0, 0, 0])
        assert remove_adaedge(triangle, same, 1.0, "positive", seed=0).size == 0
        assert remove_adaedge(triangle, same, 1.0, "negative", seed=0).tolist() == [0, 1, 2]

    def test_unlabeled_endpoints_never_drawn(self, triangle):
        unknown = LabelData(2, [-1, -1, -1])
        for which in ("positive", "negative"):
            assert remove_adaedge(triangle, unknown, 1.0, which, seed=0).size == 0
        g, labels = random_labeled_graph(60, 6, 3, seed=8)
        hidden = labels.labels.copy()
        hidden[np.random.default_rng(0).permutation(g.n)[:g.n // 3]] = -1
        labels = LabelData(3, hidden)
        for which in ("positive", "negative"):
            drawn = remove_adaedge(g, labels, 1.0, which, seed=0)
            assert drawn.size > 0 and labels.mask[g.edges[drawn]].all()
            assert drawn.tolist() == adaedge_pool(g, labels, which).tolist()


class TestRemoveAdaEdge:
    def test_sets_draw_from_their_partition(self):
        g, labels = random_labeled_graph(40, 5, 3, seed=5)
        pos = remove_adaedge(g, labels, 0.2, "positive", seed=1)
        neg = remove_adaedge(g, labels, 0.2, "negative", seed=1)
        assert pos.size == neg.size == int(0.2 * g.edge_count)
        assert set(pos.tolist()) <= set(adaedge_pool(g, labels, "positive").tolist())
        assert set(neg.tolist()) <= set(adaedge_pool(g, labels, "negative").tolist())

    def test_truncates_to_pool(self, triangle, triangle_labels):
        assert remove_adaedge(triangle, triangle_labels, 1.0, "positive", seed=0).tolist() \
            == [1, 2]
        assert remove_adaedge(triangle, triangle_labels, 1.0, "negative", seed=0).tolist() \
            == [0]
        assert remove_adaedge(triangle, LabelData(2, [0, 0, 0]), 1.0, "positive",
                              seed=0).size == 0

    def test_seed_reproducible(self):
        g, labels = random_labeled_graph(40, 5, 3, seed=6)
        a = remove_adaedge(g, labels, 0.3, "positive", seed=9)
        assert a.tolist() == remove_adaedge(g, labels, 0.3, "positive", seed=9).tolist()
        assert np.all(np.diff(a) > 0)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_matches_the_inline_draw(self, seed):
        # the draw `rewire --strategy adaedge` made before it moved here
        g, labels = random_labeled_graph(60, 6, 3, seed=7)
        for which in ("positive", "negative"):
            pool = adaedge_pool(g, labels, which)
            count = min(int(0.15 * g.edge_count), pool.size)
            rng = np.random.default_rng(seed)
            inline = np.sort(rng.choice(pool, size=count, replace=False))
            out = remove_adaedge(g, labels, 0.15, which, seed)
            assert out.dtype == inline.dtype and np.array_equal(out, inline)


class TestDropEdgeWeights:
    def test_equal_scores_uniform(self, triangle, triangle_labels, identity_filter):
        rep = score_all_edges(triangle, identity_filter, triangle_labels)
        dist = dropedge_weights(rep.values, tau=1.0)
        assert np.allclose(dist, 1 / 3)

    def test_log_two_scores(self):
        # values chosen for a closed-form softmax check
        dist = dropedge_weights([np.log(2.0), 0.0], tau=1.0)
        assert dist == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert dist == pytest.approx(softmax([np.log(2), 0.0]), abs=1e-12)

    def test_huge_tau_is_uniform(self):
        g, labels = random_labeled_graph(30, 4, 3, seed=4)
        rep = score_all_edges(g, FilterSpec("sgc", 2), labels)
        dist = dropedge_weights(rep.values, tau=1e6)
        assert np.all(np.abs(dist - 1 / len(dist)) < 1e-5)

    def test_shift_invariance(self):
        g, labels = random_labeled_graph(20, 4, 3, seed=5)
        rep = score_all_edges(g, FilterSpec("sgc", 2), labels)
        p0 = dropedge_weights(rep.values, tau=0.7)
        p1 = dropedge_weights(rep.values + 7.5, tau=0.7)
        assert np.all(np.abs(p0 - p1) <= 1e-12)

    def test_excluded_edges_get_zero(self, walk_filter):
        # star: removing a leaf edge isolates the leaf -> excluded at lam > 0
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        labels = LabelData(2, [0, 0, 0, 1])
        rep = score_all_edges(g, walk_filter, labels, lam=0.1)
        assert np.count_nonzero(rep.signs == "excluded") == 3
        with pytest.raises(ValueError, match="excluded"):
            dropedge_weights(rep.values, tau=1.0)

    def test_tau_positive(self, triangle_scores):
        with pytest.raises(ValueError):
            dropedge_weights(triangle_scores.values, tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_tau_finite(self, triangle_scores, tau):
        with pytest.raises(ValueError, match="tau"):
            dropedge_weights(triangle_scores.values, tau=tau)

    def test_probabilities_sum_to_one(self, triangle_scores):
        dist = dropedge_weights(triangle_scores.values, tau=0.5)
        assert abs(dist.sum() - 1.0) <= 1e-9


class TestSampleDropEdge:
    def test_zero_fraction(self, triangle_scores):
        dist = dropedge_weights(triangle_scores.values, tau=1.0)
        assert sample_dropedge(dist, 0.0, seed=0).size == 0

    def test_full_fraction_takes_support(self, triangle_scores):
        dist = dropedge_weights(triangle_scores.values, tau=1.0)
        assert sample_dropedge(dist, 1.0, seed=0).tolist() == [0, 1, 2]

    def test_seeded_reproducible(self, triangle_scores):
        dist = dropedge_weights(triangle_scores.values, tau=1.0)
        a = sample_dropedge(dist, 0.6, seed=42)
        b = sample_dropedge(dist, 0.6, seed=42)
        assert a.tolist() == b.tolist()

    def test_single_draw_statistics(self):
        target = np.array([0.9, 0.1])
        vals = np.log(target)  # tau=1 softmax of log p recovers p
        dist = dropedge_weights(vals, tau=1.0)
        assert dist == pytest.approx(target, abs=1e-12)
        hits = np.zeros(2)
        trials = 10_000
        for t in range(trials):
            hits[sample_dropedge(dist, 0.5, seed=t)] += 1  # floor(0.5*2) = 1 draw
        freq = hits / trials
        assert abs(freq[0] - 0.9) <= 0.02

    @pytest.mark.parametrize("probabilities, drop_fraction", [
        ([0.5, 0.3, 0.0, 0.2], 0.5),
        ([0.4, 0.3, 0.0, 0.2, 0.1], 0.4),
        ([0.4, 0.3, 0.0, 0.2, 0.1], 0.6),
        ([0.05, 0.6, 0.15, 0.0, 0.2], 0.6),
    ])
    def test_joint_law_matches_sequential_draws(self, probabilities, drop_fraction):
        dist = _distribution(probabilities)
        count = int(drop_fraction * len(dist))
        law = _sequential_law(dist, count)
        trials = 20_000
        seen = {}
        for t in range(trials):
            key = tuple(sample_dropedge(dist, drop_fraction, seed=t).tolist())
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) <= set(law)  # the zero-probability edge is never drawn
        for key, prob in law.items():
            assert abs(seen.get(key, 0) / trials - prob) <= 0.015, key

    def test_underflowed_probability_never_dropped(self):
        dist = dropedge_weights([0.0, -1e4, 0.5], tau=1.0)
        assert dist[1] == 0.0
        for t in range(200):
            assert sample_dropedge(dist, 2 / 3, seed=t).tolist() == [0, 2]

    def test_count_equal_to_support_returns_support(self):
        dist = _distribution([0.25, 0.0, 0.5, 0.0, 0.25])
        for fraction in (0.6, 0.8, 1.0):  # 3, 4, 5 requested; support is 3
            assert sample_dropedge(dist, fraction, seed=9).tolist() == [0, 2, 4]

    def test_ids_sorted_distinct_int64(self):
        rng = np.random.default_rng(0)
        w = rng.random(60) * (rng.random(60) > 0.2)
        dist = _distribution(w / w.sum())
        for t, fraction in enumerate((0.05, 0.3, 0.5, 0.7)):
            out = sample_dropedge(dist, fraction, seed=t)
            assert out.dtype == np.int64
            assert out.size == int(fraction * 60)
            assert np.all(np.diff(out) > 0)
            assert np.all(dist[out] > 0)

    def test_subnormal_weights_keep_their_ratio(self):
        # once edge 0 is gone the two subnormal weights are picked 1 : 2
        dist = _distribution([1.0, 1e-310, 2e-310])
        trials = 4_000
        hits = np.zeros(3)
        for t in range(trials):
            hits[sample_dropedge(dist, 2 / 3, seed=t)] += 1
        assert hits[0] == trials
        assert abs(hits[2] / trials - 2 / 3) <= 0.03

    def test_epoch_seeds_differ(self, triangle_scores):
        dist = dropedge_weights(triangle_scores.values, tau=1.0)
        draws = {tuple(sample_dropedge(dist, 2 / 3, epoch_seed(7, ep)).tolist())
                 for ep in range(20)}
        assert len(draws) > 1


def test_removal_plan_validation(triangle, triangle_labels, triangle_scores):
    for remove in (lambda ratio, which: remove_by_topoinf(triangle_scores, ratio, which),
                   lambda ratio, which: remove_adaedge(triangle, triangle_labels,
                                                       ratio, which, seed=0)):
        with pytest.raises(ValueError, match="ratio"):
            remove(1.5, "positive")
        with pytest.raises(ValueError, match="set"):
            remove(0.5, "both")
    for ratio in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="ratio"):
            remove_random(triangle, ratio, seed=0)
    g, labels = random_labeled_graph(30, 4, 3, seed=1)
    rep = score_all_edges(g, FilterSpec("sgc", 2), labels)
    assert g.edge_count >= 10 and np.count_nonzero(rep.signs == "positive") >= 2
    assert remove_by_topoinf(rep, 2.5 / g.edge_count, "positive").size == 2
