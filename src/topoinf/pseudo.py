"""Pseudo labels for unlabeled nodes via softmax regression on filtered features.

The classifier is the linear propagate-then-classify model: features are
filtered once through the polynomial filter, then a single weight matrix
plus bias is trained with full-batch gradient descent on the labeled nodes
(cross entropy with an L2 penalty on the weights, not the bias). Predicted
distributions for nodes that already carry a true label are overridden by
their one-hot truth, so downstream influence scores computed from pseudo
labels coincide bitwise with true-label scores whenever the predictions
happen to match the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import apply_filter
from .graphs import Graph, LabelData, _iter_lines, normalized_adjacency, write_labels

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "LinearModel",
    "PseudoLabels",
    "train_linear_sgc",
    "predict_pseudo",
    "softmax_rows",
    "loss_and_gradients",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 200
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if not (math.isfinite(self.l2_penalty) and self.l2_penalty >= 0):
            raise ValueError(
                f"l2_penalty must be finite and non-negative, got {self.l2_penalty}")


class TrainingDiverged(RuntimeError):
    """Gradient descent produced a non-finite or increasing loss."""


@dataclass
class LinearModel:
    weights: np.ndarray      # d x c
    bias: np.ndarray         # c
    loss_trace: np.ndarray   # per-epoch loss, entry 0 is the initial loss


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradients(weights, bias, feats, label_ids, l2_penalty):
    """Cross entropy (mean over rows) + 0.5 * l2 * ||W||^2, with gradients."""
    m = feats.shape[0]
    probs = softmax_rows(feats @ weights + bias)
    picked = probs[np.arange(m), label_ids]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    loss += 0.5 * l2_penalty * float(np.sum(weights ** 2))
    resid = probs
    resid[np.arange(m), label_ids] -= 1.0
    grad_w = feats.T @ resid / m + l2_penalty * weights
    grad_b = resid.mean(axis=0)
    return loss, grad_w, grad_b


def train_linear_sgc(g: Graph, spec, features, labels: LabelData,
                     cfg: TrainConfig) -> LinearModel:
    """Full-batch gradient descent on the labeled nodes.

    Features are filtered once up front. Initialization is seeded scaled
    uniform (Glorot); the run aborts on a non-finite loss and rejects runs
    whose final loss exceeds the initial one.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != g.n:
        raise ValueError(f"features must be n x d with n = {g.n}")
    train_idx = np.flatnonzero(labels.mask)
    if train_idx.size == 0:
        raise ValueError("no labeled nodes to train on")

    adj = normalized_adjacency(g)
    filtered = apply_filter(spec, adj, feats)
    z = filtered[train_idx]
    y = labels.labels[train_idx]

    d, c = feats.shape[1], labels.c
    rng = np.random.default_rng(cfg.seed)
    limit = np.sqrt(6.0 / (d + c))
    weights = rng.uniform(-limit, limit, size=(d, c))
    bias = np.zeros(c)

    trace = np.empty(cfg.epochs + 1)
    # a diverging run overflows before its loss turns non-finite, which is
    # detected and raised below; keep numpy's warnings for it off stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss, grad_w, grad_b = loss_and_gradients(weights, bias, z, y, cfg.l2_penalty)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} "
                    f"(lr={cfg.learning_rate}, l2={cfg.l2_penalty}); lower the learning rate")
            trace[epoch] = loss
            weights = weights - cfg.learning_rate * grad_w
            bias = bias - cfg.learning_rate * grad_b
        final, _, _ = loss_and_gradients(weights, bias, z, y, cfg.l2_penalty)
        if not np.isfinite(final):
            raise TrainingDiverged("non-finite final loss; lower the learning rate")
    trace[cfg.epochs] = final
    if final > trace[0]:
        raise TrainingDiverged(
            f"training diverged: final loss {final:.6g} > initial {trace[0]:.6g}; "
            "lower the learning rate")
    return LinearModel(weights=weights, bias=bias, loss_trace=trace)


@dataclass
class PseudoLabels:
    """Predictions with true labels kept where known.

    hardened is the argmax of each soft row (ties resolve to the lowest class
    id); rows of nodes in source_mask are exactly their one-hot truth.
    """

    soft: np.ndarray
    hardened: np.ndarray
    source_mask: np.ndarray

    def as_label_data(self, c: int) -> LabelData:
        return LabelData(c, self.hardened, soft=self.soft)

    def to_label_text(self) -> str:
        return write_labels(self.as_label_data(self.soft.shape[1]))

    def to_soft_tsv(self) -> str:
        lines = []
        for v, row in enumerate(self.soft):
            probs = "\t".join(f"{p:.12g}" for p in row)
            lines.append(f"{v}\t{probs}")
        return "\n".join(lines) + "\n"


def predict_pseudo(model: LinearModel, g: Graph, spec, features,
                   labels: LabelData) -> PseudoLabels:
    """Soft predictions for every node; truth overrides where available."""
    feats = np.asarray(features, dtype=np.float64)
    adj = normalized_adjacency(g)
    filtered = apply_filter(spec, adj, feats)
    soft = softmax_rows(filtered @ model.weights + model.bias)
    known = np.flatnonzero(labels.mask)
    soft[known] = 0.0
    soft[known, labels.labels[known]] = 1.0
    hardened = np.argmax(soft, axis=1).astype(np.int64)
    return PseudoLabels(soft=soft, hardened=hardened, source_mask=labels.mask.copy())


def load_soft_tsv(text: str, n: int, c: int) -> np.ndarray:
    """Parse the soft-label TSV (node id followed by c probabilities)."""
    out = np.full((n, c), np.nan)
    for ln, line in _iter_lines(text):
        parts = line.split()
        if len(parts) != c + 1:
            raise ValueError(f"line {ln}: expected node + {c} probabilities")
        try:
            v = int(parts[0])
        except ValueError:
            raise ValueError(f"line {ln}: non-integer node id {parts[0]!r}") from None
        if not 0 <= v < n:
            raise ValueError(f"line {ln}: node {v} outside [0, {n})")
        if not np.isnan(out[v]).all():
            raise ValueError(f"line {ln}: node {v} appears twice")
        try:
            out[v] = [float(x) for x in parts[1:]]
        except ValueError:
            raise ValueError(f"line {ln}: non-numeric probability for node {v}") from None
        if not np.isfinite(out[v]).all():
            raise ValueError(f"line {ln}: non-finite probability for node {v}")
    if np.isnan(out).any():
        missing = int(np.flatnonzero(np.isnan(out).any(axis=1))[0])
        raise ValueError(f"soft label rows missing (first: node {missing})")
    return out
