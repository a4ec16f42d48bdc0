"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own linear-algebra paths (and
numpy's solvers where the point is to check a solve), so that agreement
between the package and an oracle is meaningful evidence. ``time_trend``
is the slope test the timing gates use, and ``inject_faulty_updates``
breaks the recursion for tests that the oracle check catches it.
``pretrain_per_step`` is the extractor's SGD written one array per
operation, the reference the library's loop must match bit for bit.
``full_storage_update`` is the Woodbury update on a full E x E state,
refreshed by one whole-matrix product, the reference for the library's
update on packed storage. ``per_line_features`` is ``load_features``
through its per-line parser alone, the reference for numpy's C reader,
and ``parse_outcome`` what a parse gives, to compare the two.
"""

from dataclasses import replace

import numpy as np

from akws import lapack
from akws.classifier import AnalyticClassifier, LabelMatrix, _check_batch, _register, _spd_factor
from akws.data import _feature_lines, _parse_lines, read_text
from akws.errors import MetricUndefinedError, ParseError


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by explicit Gaussian elimination with partial pivoting."""
    a = a.astype(np.float64).copy()
    b = np.atleast_2d(b.astype(np.float64).copy())
    if b.shape[0] != a.shape[0]:
        b = b.T
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def ridge_normal_equations(s: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Brute-force ridge weights via explicit normal equations."""
    e = s.shape[1]
    gram = s.T @ s + gamma * np.eye(e)
    return gaussian_solve(gram, s.T @ y)


def ridge_augmented_lstsq(s: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Ridge weights as the least-squares solution of ``[S; sqrt(gamma) I] W = [Y; 0]``.

    No Gram matrix is formed, so the error is of order eps * cond(S_aug),
    the square root of the normal equations' cond(S'T S + gamma I).
    """
    e = s.shape[1]
    s_aug = np.vstack([s, np.sqrt(gamma) * np.eye(e)])
    y_aug = np.vstack([y, np.zeros((e, y.shape[1]))])
    return np.linalg.lstsq(s_aug, y_aug, rcond=None)[0]


def nearest_centroid_fit(x: np.ndarray, labels: np.ndarray):
    classes = sorted(set(labels.tolist()))
    centroids = np.stack([x[labels == c].mean(axis=0) for c in classes])
    return np.asarray(classes), centroids


def nearest_centroid_predict(classes: np.ndarray, centroids: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(d, axis=1)]


def time_trend(times) -> tuple[float, float, float]:
    """OLS slope of time against task index with its t statistic.

    Returns (slope, t_stat, two_sided_p). Used to check that per-task
    adaptation cost stays flat as tasks accumulate.
    """
    from scipy.special import stdtr

    y = np.asarray(times, dtype=np.float64)
    n = y.size
    if n < 3:
        raise MetricUndefinedError("trend test needs at least 3 timings")
    x = np.arange(n, dtype=np.float64)
    xc = x - x.mean()
    slope = float(np.sum(xc * (y - y.mean())) / np.sum(xc**2))
    resid = y - (y.mean() + slope * xc)
    se = float(np.sqrt(np.sum(resid**2) / (n - 2) / np.sum(xc**2)))
    if se == 0.0:
        return slope, 0.0, 1.0
    t_stat = slope / se
    p = 2.0 * float(stdtr(n - 2, -abs(t_stat)))
    return slope, t_stat, p


def inject_faulty_updates(monkeypatch, scale: float = 1e-3) -> None:
    """Make every update the harness runs return weights with noise of relative size ``scale``.

    The next update builds on the perturbed classifier, so the fault sits
    inside the recursive chain, where the joint oracle must find it.
    """
    import akws.harness

    exact = akws.harness.update
    rng = np.random.default_rng(0x5EED)

    def faulty(c, s, y):
        out = exact(c, s, y)
        noise = scale * max(1.0, float(np.max(np.abs(out.weights)))) * rng.standard_normal(out.weights.shape)
        return replace(out, weights=out.weights + noise)

    monkeypatch.setattr(akws.harness, "update", faulty)


def pretrain_per_step(x: np.ndarray, labels: np.ndarray, hidden: int, epochs: int, lr: float, seed: int):
    """The extractor's pretraining, one fresh array per operation: (w1, b1, w2, b2) and the loss history.

    Same draws, batches and IEEE operations as ``akws.pretrain_extractor``,
    with the targets as a one-hot matrix and each batch gathered by index.
    """
    classes = np.unique(labels)
    y = (labels[:, None] == classes).astype(np.float64)
    n, d_in = x.shape
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d_in, hidden)) * np.sqrt(2.0 / d_in)
    b1 = np.zeros(hidden)
    w2 = rng.standard_normal((hidden, classes.size)) * np.sqrt(1.0 / hidden)
    b2 = np.zeros(classes.size)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, 32):
            idx = order[start : start + 32]
            xb, yb = x[idx], y[idx]
            z1 = xb @ w1 + b1
            a1 = np.maximum(z1, 0.0)
            z2 = a1 @ w2 + b2
            z2 = z2 - z2.max(axis=1, keepdims=True)
            ez = np.exp(z2)
            probs = ez / ez.sum(axis=1, keepdims=True)
            loss = -np.mean(np.log(np.sum(probs * yb, axis=1) + np.finfo(np.float64).tiny))
            dz2 = (probs - yb) / len(idx)
            gw2 = a1.T @ dz2
            gb2 = dz2.sum(axis=0)
            dz1 = (dz2 @ w2.T) * (z1 > 0.0)
            gw1 = xb.T @ dz1
            gb1 = dz1.sum(axis=0)
            epoch_loss += loss * len(idx)
            w1 = w1 - lr * gw1
            b1 = b1 - lr * gb1
            w2 = w2 - lr * gw2
            b2 = b2 - lr * gb2
        history.append(epoch_loss / n)
    return (w1, b1, w2, b2), history


def full_storage_update(c: AnalyticClassifier, s: np.ndarray, y: LabelMatrix) -> AnalyticClassifier:
    """``akws.update`` on a classifier whose ``afam`` is a full C-ordered E x E array.

    The square-root Woodbury step with ``S A`` as one GEMM and the refresh
    ``A - Z_a^T Z_a`` as one more. Writes over ``c.afam``; returns a new
    classifier.
    """
    s = _check_batch(s, y)
    e = c.expansion_size
    class_ids, cols = _register(c.class_ids, y.class_ids)
    n, n_cols = s.shape[0], c.n_classes
    a = np.require(c.afam, np.float64, "CW")
    rhs = np.empty((n, e + len(class_ids)))
    np.matmul(s, a, out=rhs[:, :e])
    r = rhs[:, e:]
    np.matmul(s, c.weights, out=r[:, :n_cols])
    r[:, :n_cols] *= -1.0
    r[:, n_cols:] = 0.0
    r[:, cols] += y.onehot
    chol = _spd_factor(np.add(np.eye(n), rhs[:, :e] @ s.T, order="F"), "the Woodbury kernel")
    lapack.trsm("R", "L", "T", "N", 1.0, chol, rhs.T)
    za = rhs[:, :e]
    a -= za.T @ za
    weights = za.T @ rhs[:, e:]
    weights[:, :n_cols] += c.weights
    return AnalyticClassifier(
        weights=weights, afam=a, gamma=c.gamma, class_ids=class_ids, tasks_seen=c.tasks_seen + 1
    )


def per_line_features(path):
    """``load_features`` through its per-line parser alone."""
    where = f"feature file {path}"
    return _parse_lines(where, *_feature_lines(where, read_text(path, where)))


def parse_outcome(parse, path):
    """Arrays and labels as bytes, or the ParseError's message and line."""
    try:
        ds = parse(path)
    except ParseError as exc:
        return str(exc), exc.line
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()
