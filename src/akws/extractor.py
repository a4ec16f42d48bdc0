"""Desk-scale trainable feature extractor, frozen after pretraining.

A one-hidden-layer rectifier network trained with softmax cross-entropy
by plain mini-batch SGD (batch 32, reshuffled each epoch from the seed).
Only the hidden layer survives: after pretraining the model is frozen and
``extract`` returns hidden activations, which downstream stages treat as
the fixed feature space.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import DataError, ShapeError

BATCH_SIZE = 32


@dataclass(frozen=True)
class ExtractorModel:
    w1: np.ndarray  # d_in x H
    b1: np.ndarray  # H
    w2: np.ndarray  # H x C0
    b2: np.ndarray  # C0

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[1]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def loss_and_grads(params, x: np.ndarray, y_onehot: np.ndarray):
    """Cross-entropy loss and its analytic gradients for one batch.

    ``params`` is the tuple (w1, b1, w2, b2); returns (loss, grads) with
    grads in the same structure. Exposed so the gradients can be checked
    against finite differences.
    """
    w1, b1, w2, b2 = params
    n = x.shape[0]
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    probs = _softmax(a1 @ w2 + b2)
    eps = np.finfo(np.float64).tiny
    loss = -np.mean(np.log(np.sum(probs * y_onehot, axis=1) + eps))
    dz2 = (probs - y_onehot) / n
    gw2 = a1.T @ dz2
    gb2 = dz2.sum(axis=0)
    dz1 = (dz2 @ w2.T) * (z1 > 0.0)
    gw1 = x.T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def batch_loss(params, x: np.ndarray, y_onehot: np.ndarray) -> float:
    return loss_and_grads(params, x, y_onehot)[0]


def pretrain_extractor(
    d0: LabeledDataset, hidden: int, epochs: int, lr: float, seed: int
) -> tuple[ExtractorModel, list[float]]:
    """Train the extractor on the first task's data, then freeze it.

    Returns the frozen model together with the per-epoch mean training
    loss history.
    """
    if lr <= 0:
        raise DataError(f"learning rate must be > 0, got {lr}")
    if epochs < 1:
        raise DataError(f"epochs must be >= 1, got {epochs}")
    if d0.n < 1:
        raise DataError("pretraining set is empty")
    classes = d0.classes()
    if len(classes) < 2:
        raise DataError(f"pretraining needs >= 2 classes, got {len(classes)}")
    if hidden < 1:
        raise ShapeError(f"hidden width must be >= 1, got {hidden}")

    col = {c: j for j, c in enumerate(classes)}
    y = np.zeros((d0.n, len(classes)))
    y[np.arange(d0.n), [col[int(l)] for l in d0.labels]] = 1.0
    x = d0.features

    rng = np.random.default_rng(seed)
    d_in = d0.dim
    w1 = rng.standard_normal((d_in, hidden)) * np.sqrt(2.0 / d_in)
    b1 = np.zeros(hidden)
    w2 = rng.standard_normal((hidden, len(classes))) * np.sqrt(1.0 / hidden)
    b2 = np.zeros(len(classes))

    history = []
    for _ in range(epochs):
        order = rng.permutation(d0.n)
        epoch_loss = 0.0
        for start in range(0, d0.n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            loss, (gw1, gb1, gw2, gb2) = loss_and_grads((w1, b1, w2, b2), x[idx], y[idx])
            epoch_loss += loss * len(idx)
            w1 = w1 - lr * gw1
            b1 = b1 - lr * gb1
            w2 = w2 - lr * gw2
            b2 = b2 - lr * gb2
        history.append(epoch_loss / d0.n)
    model = ExtractorModel(w1=w1, b1=b1, w2=w2, b2=b2)
    for arr in (model.w1, model.b1, model.w2, model.b2):
        arr.flags.writeable = False
    return model, history


def extract(m: ExtractorModel, x: np.ndarray) -> np.ndarray:
    """Hidden-layer activations (n x H) of a frozen extractor."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.input_dim:
        raise ShapeError(f"expected n x {m.input_dim} input, got {x.shape}")
    return np.maximum(x @ m.w1 + m.b1, 0.0)
