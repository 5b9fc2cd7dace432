import numpy as np
import pytest

from topoinf import (
    CsbmParams,
    FilterSpec,
    Graph,
    LabelData,
    TrainConfig,
    generate_csbm,
    predict_pseudo,
    score_all_edges,
    train_linear_sgc,
)
from topoinf.pseudo import load_soft_tsv, loss_and_gradients, write_soft_tsv

IDENTITY = FilterSpec("custom", 0, gamma=(1.0,))


def two_blob_instance(n_per=10, seed=0):
    """Linearly separable toy: two far-apart Gaussian blobs on an edgeless task."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    feats = np.vstack([
        rng.normal(loc=(-5.0, 0.0), scale=0.3, size=(n_per, 2)),
        rng.normal(loc=(+5.0, 0.0), scale=0.3, size=(n_per, 2)),
    ])
    labels = LabelData(2, np.repeat([0, 1], n_per))
    edges = [(i, i + 1) for i in range(0, n - 1, 2)]
    return Graph.from_edges(n, edges), feats, labels


class TestTraining:
    def test_separable_blobs_reach_full_accuracy(self):
        g, feats, labels = two_blob_instance()
        cfg = TrainConfig(learning_rate=0.5, epochs=500, l2_penalty=1e-4, seed=0)
        model = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        pseudo = predict_pseudo(model, g, IDENTITY, feats, labels)
        assert (pseudo.labels == labels.labels).all()

    def test_zero_features_give_uniform_predictions(self):
        g = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
        labels = LabelData(2, np.tile([0, 1], 4))
        feats = np.zeros((8, 3))
        cfg = TrainConfig(learning_rate=0.5, epochs=400, l2_penalty=0.01, seed=1)
        model = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        unlabeled = LabelData(2, np.full(8, -1))
        pseudo = predict_pseudo(model, g, IDENTITY, feats, unlabeled)
        assert np.allclose(pseudo.soft, 0.5, atol=1e-3)

    def test_loss_trace_final_not_above_initial(self):
        g, feats, labels = two_blob_instance(seed=2)
        cfg = TrainConfig(learning_rate=0.1, epochs=50, seed=2)
        model = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        assert model.loss_trace[-1] <= model.loss_trace[0]
        assert model.loss_trace.shape == (51,)

    def test_divergence_detected(self):
        g, feats, labels = two_blob_instance(seed=3)
        cfg = TrainConfig(learning_rate=1e6, epochs=40, seed=3)
        with pytest.raises(RuntimeError):
            train_linear_sgc(g, IDENTITY, feats, labels, cfg)

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"learning_rate": 0.0}, "learning_rate", id="zero-lr"),
        pytest.param({"learning_rate": float("nan")}, "learning_rate", id="nan-lr"),
        pytest.param({"learning_rate": float("inf")}, "learning_rate", id="inf-lr"),
        pytest.param({"epochs": 0}, "epochs", id="zero-epochs"),
        pytest.param({"l2_penalty": -1e-4}, "l2_penalty", id="negative-l2"),
        pytest.param({"l2_penalty": float("nan")}, "l2_penalty", id="nan-l2"),
    ])
    def test_config_checked(self, changes, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**changes)

    def test_empty_mask_rejected(self):
        g, feats, _ = two_blob_instance(seed=4)
        none = LabelData(2, np.full(g.n, -1))
        with pytest.raises(ValueError, match="no labeled"):
            train_linear_sgc(g, IDENTITY, feats, none,
                             TrainConfig())

    def test_deterministic_given_seed(self):
        g, feats, labels = two_blob_instance(seed=5)
        cfg = TrainConfig(learning_rate=0.3, epochs=60, seed=7)
        m1 = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        m2 = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        m, d, c = 9, 4, 3
        feats = rng.normal(size=(m, d))
        y = rng.integers(0, c, size=m)
        w = rng.normal(scale=0.4, size=(d, c))
        b = rng.normal(scale=0.1, size=c)
        l2 = 0.02
        _, gw, gb = loss_and_gradients(w, b.copy(), feats, y, l2)
        h = 1e-6
        for idx in [(0, 0), (1, 2), (3, 1)]:
            wp = w.copy(); wp[idx] += h
            wm = w.copy(); wm[idx] -= h
            lp, _, _ = loss_and_gradients(wp, b.copy(), feats, y, l2)
            lm, _, _ = loss_and_gradients(wm, b.copy(), feats, y, l2)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gw[idx]) / max(abs(fd), 1e-8) < 1e-4
        for k in range(c):
            bp = b.copy(); bp[k] += h
            bm = b.copy(); bm[k] -= h
            lp, _, _ = loss_and_gradients(w, bp, feats, y, l2)
            lm, _, _ = loss_and_gradients(w, bm, feats, y, l2)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gb[k]) / max(abs(fd), 1e-8) < 1e-4


class TestPredictions:
    def test_true_labels_override_model(self):
        g, feats, labels = two_blob_instance(seed=6)
        # adversarial "model": always predicts class 1
        from topoinf.pseudo import LinearModel
        model = LinearModel(weights=np.zeros((2, 2)),
                            bias=np.array([-10.0, 10.0]),
                            loss_trace=np.zeros(1))
        pseudo = predict_pseudo(model, g, IDENTITY, feats, labels)
        assert (pseudo.labels == labels.labels).all()
        # every node is known, so every soft row is its one-hot truth
        assert np.array_equal(pseudo.soft, labels.dense_rows())

    def test_soft_rows_sum_to_one(self):
        g, feats, labels = two_blob_instance(seed=7)
        cfg = TrainConfig(learning_rate=0.2, epochs=30, seed=0)
        model = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        pseudo = predict_pseudo(model, g, IDENTITY, feats, labels)
        assert np.allclose(pseudo.soft.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_ties_take_lowest_class(self):
        # a zero model predicts 0.5 / 0.5 on every unlabeled node
        g, feats, _ = two_blob_instance(seed=11)
        from topoinf.pseudo import LinearModel
        model = LinearModel(weights=np.zeros((2, 2)), bias=np.zeros(2),
                            loss_trace=np.zeros(1))
        pseudo = predict_pseudo(model, g, IDENTITY, feats, LabelData(2, np.full(g.n, -1)))
        assert np.array_equal(pseudo.soft, np.full((g.n, 2), 0.5))
        assert pseudo.labels.tolist() == [0] * g.n

    def test_non_finite_prediction_rejected(self):
        # logits overflow to +inf in both classes, so softmax gives inf - inf = NaN
        from topoinf.pseudo import LinearModel
        g = Graph.from_edges(2, [(0, 1)])
        model = LinearModel(weights=np.full((1, 2), 1e308), bias=np.zeros(2),
                            loss_trace=np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite"):
            predict_pseudo(model, g, IDENTITY, np.full((2, 1), 1e308),
                           LabelData(2, [-1, -1]))

    def test_easy_regime_holdout_accuracy(self):
        params = CsbmParams(n=90, c=3, p=0.8, q=0.05, d=6, sigma=0.3, seed=8)
        sample = generate_csbm(params)
        rng = np.random.default_rng(0)
        mask = rng.random(90) < 0.3
        mask[:3] = True  # keep every class represented
        train_labels = LabelData(3, np.where(mask, sample.labels.labels, -1))
        spec = FilterSpec("sgc", 2)
        cfg = TrainConfig(learning_rate=0.5, epochs=300, seed=0)
        model = train_linear_sgc(sample.graph, spec, sample.X, train_labels, cfg)
        pseudo = predict_pseudo(model, sample.graph, spec, sample.X, train_labels)
        holdout = ~mask
        acc = np.mean(pseudo.labels[holdout] == sample.labels.labels[holdout])
        assert acc > 0.9

    def test_estimated_scores_match_truth_bitwise_when_labels_agree(self):
        params = CsbmParams(n=24, c=2, p=0.7, q=0.05, d=4, sigma=0.1, seed=9)
        sample = generate_csbm(params)
        pseudo_data = LabelData(2, sample.labels.labels.copy())
        spec = FilterSpec("sgc", 2)
        true_rep = score_all_edges(sample.graph, spec, sample.labels, lam=0.1)
        est_rep = score_all_edges(sample.graph, spec, pseudo_data, lam=0.1)
        assert true_rep.values.tobytes() == est_rep.values.tobytes()  # bitwise

    def test_soft_tsv_roundtrip(self):
        g, feats, labels = two_blob_instance(seed=10)
        cfg = TrainConfig(learning_rate=0.2, epochs=30, seed=0)
        model = train_linear_sgc(g, IDENTITY, feats, labels, cfg)
        pseudo = predict_pseudo(model, g, IDENTITY, feats, labels)
        text = write_soft_tsv(pseudo)
        back = load_soft_tsv(text, g.n, 2)
        assert np.allclose(back, pseudo.soft, atol=1e-11)
