import math

import numpy as np
import pytest

from topoinf import (
    DeltaWorkspace,
    FilterSpec,
    Graph,
    LabelData,
    apply_filter,
    compatibility,
    normalized_adjacency,
)

from topoinf.filters import MAX_ORDER, row_normalized_filter

from dense_oracle import dense_rownorm_filter, dense_soft_labels


class TestExpandPreset:
    def test_sgc_is_pure_top_power(self):
        assert FilterSpec("sgc", 2).coefficients == (0.0, 0.0, 1.0)
        assert FilterSpec("gcn", 3).coefficients == (0.0, 0.0, 0.0, 1.0)

    def test_appnp_k2(self):
        spec = FilterSpec("appnp", 2, alpha=0.1)
        assert spec.coefficients == pytest.approx((0.1, 0.09, 0.81), abs=1e-15)

    def test_gcnii_matches_appnp(self):
        a = FilterSpec("appnp", 4, alpha=0.2)
        b = FilterSpec("gcnii", 4, alpha=0.2)
        assert a.coefficients == b.coefficients

    def test_s2gc(self):
        gamma = FilterSpec("s2gc", 4, alpha=0.2).coefficients
        assert gamma[0] == pytest.approx(0.2)
        assert all(g == pytest.approx(0.8 / 4) for g in gamma[1:])

    def test_custom_passthrough_identity(self):
        spec = FilterSpec("custom", 2, gamma=(1, 0, 0))
        assert spec.coefficients == spec.gamma == (1.0, 0.0, 0.0)
        assert all(type(x) is float for x in spec.coefficients)

    def test_supplied_coefficients_allow_order_zero(self):
        assert FilterSpec("custom", 0, gamma=(1.0,)).coefficients == (1.0,)
        assert FilterSpec("gprgnn", 0, gamma=(2.0,)).coefficients == (2.0,)
        with pytest.raises(ValueError, match=r"filter order K must lie in \[1, "):
            FilterSpec("appnp", 0)

    def test_coefficients_are_derived(self):
        spec = FilterSpec("sgc", 2)
        assert spec.gamma is None
        with pytest.raises(TypeError):
            FilterSpec("sgc", 2, coefficients=(0.0, 0.0, 1.0))
        with pytest.raises(AttributeError):
            spec.coefficients = (1.0, 0.0, 0.0)

    def test_gamma_required_for_learned(self):
        with pytest.raises(ValueError, match="gamma"):
            FilterSpec("gprgnn", 2)

    def test_gamma_length_checked(self):
        with pytest.raises(ValueError):
            FilterSpec("custom", 2, gamma=(1.0, 0.0))

    def test_gamma_rejected_for_fixed_presets(self):
        with pytest.raises(ValueError):
            FilterSpec("sgc", 2, gamma=(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("preset,alpha,k", [
        ("s2gc", 0.05, 3), ("s2gc", 0.3, 7), ("appnp", 0.1, 2),
        ("appnp", 0.25, 6), ("gcnii", 0.5, 4),
    ])
    def test_coefficient_sums_to_one(self, preset, alpha, k):
        gamma = FilterSpec(preset, k, alpha=alpha).coefficients
        assert abs(math.fsum(gamma) - 1.0) <= 1e-12

    @pytest.mark.parametrize("preset, alpha, message", [
        pytest.param("gat", 0.1, "unknown preset", id="unknown-preset"),
        pytest.param("appnp", -0.1, "alpha", id="negative-alpha"),
        pytest.param("s2gc", 1.5, "alpha", id="alpha-above-one"),
        pytest.param("gcnii", float("nan"), "alpha", id="nan-alpha"),
    ])
    def test_preset_and_alpha_checked(self, preset, alpha, message):
        with pytest.raises(ValueError, match=message):
            FilterSpec(preset, 2, alpha=alpha)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            FilterSpec("sgc", 0)

    def test_order_bounded(self):
        gamma = FilterSpec("sgc", MAX_ORDER).coefficients
        assert len(gamma) == MAX_ORDER + 1
        assert gamma[-1] == 1.0
        with pytest.raises(ValueError, match="filter order"):
            FilterSpec("sgc", MAX_ORDER + 1)
        with pytest.raises(ValueError, match="filter order"):
            FilterSpec("custom", MAX_ORDER + 1, gamma=(0.0,) * (MAX_ORDER + 1) + (1.0,))

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec("custom", 1, gamma=(0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="gamma"):
            FilterSpec("gprgnn", 1, gamma=(bad, 1.0))
        with pytest.raises(ValueError, match="gamma"):
            FilterSpec("custom", 1, gamma=(bad, 1.0))


class TestApplyFilter:
    def test_identity_is_bitwise(self, triangle, identity_filter):
        adj = normalized_adjacency(triangle)
        m = np.random.default_rng(0).normal(size=(3, 4))
        out = apply_filter(identity_filter, adj, m)
        assert np.array_equal(out, m)

    def test_two_node_walk(self, walk_filter):
        adj = normalized_adjacency(Graph.from_edges(2, [(0, 1)]))
        out = apply_filter(walk_filter, adj, np.eye(2))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_single_node(self):
        g = Graph.from_edges(1, np.empty((0, 2), dtype=np.int64))
        adj = normalized_adjacency(g)
        out = apply_filter(FilterSpec("custom", 1, gamma=(0.5, 0.5)), adj, np.array([[3.0]]))
        assert out.tolist() == [[3.0]]

    def test_dimension_mismatch(self, triangle, walk_filter):
        adj = normalized_adjacency(triangle)
        with pytest.raises(ValueError, match="rows"):
            apply_filter(walk_filter, adj, np.ones((4, 2)))

    def test_linearity(self, walk_filter):
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, 12, size=(30, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        adj = normalized_adjacency(Graph.from_edges(12, pairs))
        spec = FilterSpec("custom", 2, gamma=(0.3, 0.5, 0.2))
        m1 = rng.normal(size=(12, 3))
        m2 = rng.normal(size=(12, 3))
        lhs = apply_filter(spec, adj, m1 + m2)
        rhs = apply_filter(spec, adj, m1) + apply_filter(spec, adj, m2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_vector_signal(self, triangle, walk_filter):
        adj = normalized_adjacency(triangle)
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            apply_filter(walk_filter, adj, np.ones(3))


class TestSoftLabels:
    def test_triangle_rows(self, triangle, triangle_labels, walk_filter):
        adj = normalized_adjacency(triangle)
        lbar = row_normalized_filter(walk_filter, adj, triangle_labels.dense_rows())
        assert np.allclose(lbar, [[2 / 3, 1 / 3]] * 3)
        assert not np.isnan(lbar).any()

    def test_same_class_pair_is_one_hot(self, walk_filter):
        g = Graph.from_edges(2, [(0, 1)])
        lbar = row_normalized_filter(walk_filter, normalized_adjacency(g),
                                     LabelData(2, [0, 0]).dense_rows())
        assert np.allclose(lbar, [[1.0, 0.0], [1.0, 0.0]])

    def test_identity_filter_returns_labels(self, triangle, triangle_labels, identity_filter):
        lbar = row_normalized_filter(identity_filter, normalized_adjacency(triangle),
                                     triangle_labels.dense_rows())
        assert np.array_equal(lbar, triangle_labels.one_hot())

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        pairs = rng.integers(0, 14, size=(30, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(14, pairs)
        labels = LabelData(3, rng.integers(0, 3, size=14))
        gamma = (0.1, 0.3, 0.6)
        lbar = row_normalized_filter(FilterSpec("custom", 2, gamma=gamma),
                                     normalized_adjacency(g), labels.dense_rows())
        ref = dense_soft_labels(14, g.edges.tolist(), labels.labels.tolist(), 3, gamma)
        assert np.allclose(lbar, ref, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        FilterSpec("sgc", 2), FilterSpec("appnp", 3, alpha=0.1),
        FilterSpec("s2gc", 2, alpha=0.05),
    ])
    def test_row_stochastic_for_nonnegative_presets(self, spec):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 10, size=(18, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(10, pairs)
        # labels = identity: each node its own class, so lbar = RowNorm(f)
        labels = LabelData(10, np.arange(10))
        lbar = row_normalized_filter(spec, normalized_adjacency(g), labels.dense_rows())
        assert np.allclose(lbar.sum(axis=1), 1.0, atol=1e-9)

    def test_negative_gamma_flags_rows(self):
        g = Graph.from_edges(2, [(0, 1)])
        # row sums of A_hat are exactly 1, so f = A_hat - I has zero row sums
        lbar = row_normalized_filter(FilterSpec("custom", 1, gamma=(-1.0, 1.0)),
                                     normalized_adjacency(g), LabelData(2, [0, 1]).dense_rows())
        assert np.flatnonzero(np.isnan(lbar).any(axis=1)).tolist() == [0, 1]
        assert np.isnan(lbar).all()

    def test_frobenius_bound_of_row_normalized_filter(self):
        rng = np.random.default_rng(6)
        pairs = rng.integers(0, 20, size=(50, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph.from_edges(20, pairs)
        for spec in (FilterSpec("sgc", 2), FilterSpec("appnp", 2, alpha=0.1)):
            rn = dense_rownorm_filter(spec.coefficients, 20, g.edges.tolist())
            lbar = row_normalized_filter(spec, normalized_adjacency(g),
                                         LabelData(20, np.arange(20)).dense_rows())
            assert np.allclose(lbar, rn, atol=1e-12)
            assert np.sum(lbar ** 2) <= 20 + 1e-9


class TestOverflowingCoefficients:
    """A 4-node path whose custom filter sums to about 3e308 on every row."""

    PATH = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    LABELS = LabelData(2, [0, 0, 1, 1])
    HUGE = FilterSpec("custom", 2, gamma=(1e308,) * 3)

    def test_row_normalized_filter_names_the_nodes(self):
        with pytest.raises(ValueError, match=r"coefficients overflow.*nodes \[0, 1, 2, 3\]"):
            row_normalized_filter(self.HUGE, normalized_adjacency(self.PATH),
                                  self.LABELS.dense_rows())

    def test_workspace_build_names_the_nodes(self):
        with pytest.raises(ValueError, match=r"coefficients overflow.*nodes \[0, 1, 2, 3\]"):
            DeltaWorkspace.build(self.PATH, self.HUGE, self.LABELS)

    def test_large_finite_rows_still_score(self):
        report = compatibility(self.PATH, FilterSpec("custom", 2, gamma=(1e300,) * 3), self.LABELS)
        assert report.to_json_dict()["C"] == 3.46541461324
