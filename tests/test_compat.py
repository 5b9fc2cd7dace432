import json
import math

import numpy as np
import pytest

from topoinf import (
    FilterSpec,
    Graph,
    LabelData,
    compatibility,
)

from dense_oracle import dense_compat

INF = float("inf")


class TestNodeTerms:
    def test_influence_on_triangle(self, triangle, triangle_labels, walk_filter):
        per_i = compatibility(triangle, walk_filter, triangle_labels).per_node_I
        assert per_i[0] == pytest.approx(2 / 3, abs=1e-12)
        assert per_i[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_influence_identity_filter(self, triangle, triangle_labels, identity_filter):
        per_i = compatibility(triangle, identity_filter, triangle_labels).per_node_I
        for v in range(3):
            assert per_i[v] == 1.0

    def test_regularizer(self, triangle, triangle_labels, path4, identity_filter):
        def per_r(g, labels):
            return compatibility(g, identity_filter, labels).per_node_R

        assert per_r(triangle, triangle_labels)[0] == 0.5
        assert per_r(path4, LabelData(2, [0, 0, 1, 1]))[0] == 1.0
        isolated = Graph.from_edges(2, [(0, 1)]).remove_edge(0)
        assert per_r(isolated, LabelData(2, [0, 1]))[0] == INF


class TestCompatibility:
    def test_triangle_lambda_zero(self, triangle, triangle_labels, walk_filter):
        rep = compatibility(triangle, walk_filter, triangle_labels, lam=0.0)
        assert rep.C == pytest.approx(5 / 3, abs=1e-12)

    def test_triangle_lambda_point_one(self, triangle, triangle_labels, walk_filter):
        rep = compatibility(triangle, walk_filter, triangle_labels, lam=0.1)
        assert rep.C == pytest.approx(5 / 3 - 0.1 * 1.5, abs=1e-12)

    def test_single_labeled_node_identity(self, identity_filter):
        g = Graph.from_edges(2, [(0, 1)])
        rep = compatibility(g, identity_filter, LabelData(2, [0, 1]),
                            target=[0], lam=0.0)
        assert rep.C == 1.0

    def test_identity_filter_gives_target_size(self, identity_filter):
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 20, size=(40, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(20, pairs)
        labels = LabelData(4, rng.integers(0, 4, size=20))
        rep = compatibility(g, identity_filter, labels, lam=0.0)
        assert rep.C == 20.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        pairs = rng.integers(0, 16, size=(36, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(16, pairs)
        labels = LabelData(3, rng.integers(0, 3, size=16))
        for lam in (0.0, 0.25):
            got = compatibility(g, FilterSpec("custom", 1, gamma=(0.2, 0.8)), labels, lam=lam).C
            want = dense_compat(16, g.edges.tolist(), labels.labels.tolist(), 3,
                                (0.2, 0.8), lam)
            assert got == pytest.approx(want, abs=1e-12)

    def test_additive_over_disjoint_targets_identity(self, identity_filter):
        # identity filter: every term is exactly 1.0, sums are exact
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        labels = LabelData(2, [0, 1, 0, 1, 0, 1])
        c_all = compatibility(g, identity_filter, labels, lam=0.0).C
        c_a = compatibility(g, identity_filter, labels, target=[0, 2, 4], lam=0.0).C
        c_b = compatibility(g, identity_filter, labels, target=[1, 3, 5], lam=0.0).C
        assert c_all == c_a + c_b

    def test_additive_over_disjoint_targets_general(self, walk_filter):
        rng = np.random.default_rng(12)
        pairs = rng.integers(0, 14, size=(30, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(14, pairs)
        labels = LabelData(3, rng.integers(0, 3, size=14))
        v1 = [0, 2, 4, 6, 8]
        v2 = [1, 3, 5, 7, 9, 10, 11, 12, 13]
        whole = compatibility(g, walk_filter, labels, lam=0.2).C
        parts = (compatibility(g, walk_filter, labels, target=v1, lam=0.2).C
                 + compatibility(g, walk_filter, labels, target=v2, lam=0.2).C)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_influence_in_unit_interval(self):
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, 18, size=(40, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(18, pairs)
        labels = LabelData(3, rng.integers(0, 3, size=18))
        for spec in (FilterSpec("sgc", 2), FilterSpec("appnp", 3, alpha=0.1)):
            rep = compatibility(g, spec, labels, lam=0.0)
            assert (rep.per_node_I >= -1e-15).all()
            assert (rep.per_node_I <= 1 + 1e-15).all()

    def test_isolated_target_with_lambda_gives_sentinel(self, identity_filter):
        g = Graph.from_edges(3, [(0, 1)])  # node 2 isolated
        labels = LabelData(2, [0, 1, 0])
        rep = compatibility(g, identity_filter, labels, lam=0.5)
        assert rep.C == -INF
        assert rep.isolated.tolist() == [2]
        # with lambda = 0 the regularizer is ignored
        rep0 = compatibility(g, identity_filter, labels, lam=0.0)
        assert rep0.C == 3.0

    def test_unlabeled_target_rejected(self, triangle, walk_filter):
        labels = LabelData(2, [0, 0, -1])
        with pytest.raises(ValueError, match="without labels"):
            compatibility(triangle, walk_filter, labels, target=[2])

    def test_non_normalizable_target_rows_rejected(self):
        # A_hat has unit row sums on K_2, so f = A_hat - I sums to 0 on every row
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match=r"non-normalizable filter rows .*\[1\]"):
            compatibility(g, FilterSpec("custom", 1, gamma=(-1.0, 1.0)), LabelData(2, [0, 1]),
                          target=[1])

    def test_negative_lambda_rejected(self, triangle, triangle_labels, walk_filter):
        with pytest.raises(ValueError):
            compatibility(triangle, walk_filter, triangle_labels, lam=-0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, triangle, triangle_labels, walk_filter,
                                        lam):
        with pytest.raises(ValueError, match="lambda"):
            compatibility(triangle, walk_filter, triangle_labels, lam=lam)

    def test_soft_influence_with_one_hot_soft_matches_hard(self, triangle,
                                                           triangle_labels,
                                                           walk_filter):
        # soft rows equal to the one-hot truth: both modes propagate the same
        # matrix and pick the same entries, so C agrees bitwise
        lab2 = LabelData(2, triangle_labels.labels, soft=triangle_labels.one_hot())
        hard = compatibility(triangle, walk_filter, triangle_labels, lam=0.0).C
        soft = compatibility(triangle, walk_filter, lab2, lam=0.0).C
        assert soft == hard


class TestReportSerialization:
    def test_json_shape_and_inf_encoding(self, identity_filter):
        g = Graph.from_edges(3, [(0, 1)])
        labels = LabelData(2, [0, 1, 0])
        rep = compatibility(g, identity_filter, labels, lam=0.5)
        doc = rep.to_json_dict()
        text = json.dumps(doc)  # must be valid JSON (no bare Infinity)
        parsed = json.loads(text)
        assert parsed["C"] == "-inf"
        assert parsed["lambda"] == 0.5
        by_id = {node["id"]: node for node in parsed["nodes"]}
        assert by_id[2]["R"] == "inf"
        assert by_id[0]["I"] == 1.0
        assert math.isfinite(by_id[0]["R"])
