"""Desk-scale trainable feature extractor, frozen after pretraining.

A one-hidden-layer rectifier network trained with softmax cross-entropy
by plain mini-batch SGD (batch 32, reshuffled each epoch from the seed).
Only the hidden layer survives: after pretraining the model is frozen and
``extract`` returns hidden activations, which downstream stages treat as
the fixed feature space.

``loss_and_grads`` is the one gradient definition. It picks each row's
probability by its label column and works in place where it can, and the
four parameter arrays and their gradients are views of one flat buffer
each, so the update of an SGD step is two numpy calls. The weights and
loss history are bit-identical to a loop that makes one fresh array per
operation (``tests/oracles.py``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .classifier import LabelMatrix
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
    """Row-wise softmax, computed in place over ``z``."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def loss_and_grads(params, x: np.ndarray, cols: np.ndarray, out=None):
    """Cross-entropy loss and its analytic gradients for one batch.

    ``params`` is the tuple (w1, b1, w2, b2) and ``cols`` the label column
    of each row of ``x``; returns (loss, grads) with grads in the same
    structure as ``params``, written into ``out`` when it is given. Exposed
    so the gradients can be checked against finite differences.
    """
    w1, b1, w2, b2 = params
    gw1, gb1, gw2, gb2 = (np.empty_like(p) for p in params) if out is None else out
    n = x.shape[0]
    rows = np.arange(n)
    z1 = x @ w1
    z1 += b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2
    z2 += b2
    probs = _softmax(z2)
    picked = probs[rows, cols]  # each row's probability of its own label
    picked += np.finfo(np.float64).tiny
    loss = -np.mean(np.log(picked, out=picked))
    # probs becomes dz2 = (probs - onehot) / n
    probs[rows, cols] -= 1.0
    probs /= n
    np.matmul(a1.T, probs, out=gw2)
    probs.sum(axis=0, out=gb2)
    dz1 = probs @ w2.T
    dz1 *= z1 > 0.0
    np.matmul(x.T, dz1, out=gw1)
    dz1.sum(axis=0, out=gb1)
    return loss, (gw1, gb1, gw2, gb2)


def _views(flat: np.ndarray, shapes) -> tuple:
    """Consecutive C-ordered views of ``flat``, one per shape."""
    bounds = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return tuple(part.reshape(s) for part, s in zip(np.split(flat, bounds), shapes))


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
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if d0.n < 1:
        raise DataError("pretraining set is empty")
    onehot = LabelMatrix.from_labels(d0.labels).onehot
    n_classes = onehot.shape[1]
    if n_classes < 2:
        raise DataError(f"pretraining needs >= 2 classes, got {n_classes}")
    if hidden < 1:
        raise ShapeError(f"hidden width must be >= 1, got {hidden}")

    x = d0.features
    cols = onehot.argmax(axis=1)

    rng = np.random.default_rng(seed)
    d_in = d0.dim
    shapes = ((d_in, hidden), (hidden,), (hidden, n_classes), (n_classes,))
    flat = np.zeros(sum(math.prod(s) for s in shapes))
    params = _views(flat, shapes)
    params[0][...] = rng.standard_normal((d_in, hidden)) * np.sqrt(2.0 / d_in)
    params[2][...] = rng.standard_normal((hidden, n_classes)) * np.sqrt(1.0 / hidden)
    grad_flat = np.empty_like(flat)
    grads = _views(grad_flat, shapes)

    history = []
    for _ in range(epochs):
        order = rng.permutation(d0.n)
        epoch_loss = 0.0
        for start in range(0, d0.n, BATCH_SIZE):
            # gathered per batch: gathering an epoch's rows at once took as long and
            # raised peak RSS at the end of set-up by 2.6 MB on the features workload
            idx = order[start : start + BATCH_SIZE]
            loss, _ = loss_and_grads(params, x[idx], cols[idx], grads)
            epoch_loss += loss * len(idx)
            grad_flat *= lr
            flat -= grad_flat
        history.append(epoch_loss / d0.n)
    for arr in params:
        arr.flags.writeable = False
    return ExtractorModel(*params), history


def extract(m: ExtractorModel, x: np.ndarray) -> np.ndarray:
    """Hidden-layer activations (n x H) of a frozen extractor."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.input_dim:
        raise ShapeError(f"expected n x {m.input_dim} input, got {x.shape}")
    return np.maximum(x @ m.w1 + m.b1, 0.0)
