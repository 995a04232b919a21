"""Linear SVM trained by sequential minimal optimization, with stratified
cross-validation and class balancing.

The solver works on the dual problem

    min 0.5 a'Qa - e'a   s.t.  y'a = 0,  0 <= a <= C,   Q_ij = y_i y_j x_i.x_j

using maximal-KKT-violating-pair working set selection.  Features are
min-max scaled to [0,1] with statistics from the training set; the scaling
is stored on the model and applied again at prediction time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


def scale_fit(X):
    """Per-feature (min, max) over the training matrix."""
    X = np.asarray(X, dtype=float)
    return X.min(axis=0), X.max(axis=0)


def scale_apply(X, mins, maxs):
    """Map features into [0,1]; constant features map to 0."""
    X = np.asarray(X, dtype=float)
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    out = (X - mins) / safe
    return np.where(span > 0, out, 0.0)


def smo_solve(K, y, C: float, tol: float = 1e-3, max_iter: int = 200000):
    """Maximal-violating-pair SMO on a precomputed kernel matrix.

    Returns (alpha, b, iterations).  Convergence means the maximal KKT
    violation m(a) - M(a) dropped to tol or below.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K
    alpha = np.zeros(n)
    G = -np.ones(n)  # gradient of the dual objective at alpha = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        yG = y * G
        up = ((y > 0) & (alpha < C - _EPS)) | ((y < 0) & (alpha > _EPS))
        low = ((y < 0) & (alpha < C - _EPS)) | ((y > 0) & (alpha > _EPS))
        if not up.any() or not low.any():
            break
        neg_yG = -yG
        i = int(np.flatnonzero(up)[np.argmax(neg_yG[up])])
        j = int(np.flatnonzero(low)[np.argmin(neg_yG[low])])
        if neg_yG[i] - neg_yG[j] <= tol:
            break
        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = Q[i, i] + Q[j, j] + 2 * Q[i, j]
            if quad <= 0:
                quad = _EPS
            delta = (-G[i] - G[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            quad = Q[i, i] + Q[j, j] - 2 * Q[i, j]
            if quad <= 0:
                quad = _EPS
            delta = (G[i] - G[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total
        d_i, d_j = alpha[i] - old_i, alpha[j] - old_j
        G += Q[:, i] * d_i + Q[:, j] * d_j
    b = _bias(alpha, y, G, C)
    return alpha, b, iterations


def _bias(alpha, y, G, C):
    yG = y * G
    free = (alpha > _EPS) & (alpha < C - _EPS)
    if free.any():
        return -float(yG[free].mean())
    ub, lb = np.inf, -np.inf
    for t in range(len(y)):
        if alpha[t] >= C - _EPS:
            if y[t] < 0:
                ub = min(ub, yG[t])
            else:
                lb = max(lb, yG[t])
        else:
            if y[t] > 0:
                ub = min(ub, yG[t])
            else:
                lb = max(lb, yG[t])
    if not np.isfinite(ub):
        ub = lb
    if not np.isfinite(lb):
        lb = ub
    return -float((ub + lb) / 2)


@dataclass
class SvmModel:
    w: np.ndarray
    b: float
    C: float
    mins: np.ndarray
    maxs: np.ndarray
    pos_label: str
    neg_label: str
    iterations: int = 0     # SMO iterations run; max_iter means it may have stopped at its cap


def _label_signs(labels):
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {classes}")
    pos, neg = classes[0], classes[1]
    y = np.array([1.0 if l == pos else -1.0 for l in labels])
    return y, pos, neg


def train_svm(X, labels, C: float = 1.0, tol: float = 1e-3, max_iter: int = 200000) -> SvmModel:
    """Fit a linear SVM; the lexicographically first class is the +1 class."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values")
    y, pos, neg = _label_signs(labels)
    if (y > 0).sum() == 0 or (y < 0).sum() == 0:
        raise ValueError("need at least one instance per class")
    mins, maxs = scale_fit(X)
    Xs = scale_apply(X, mins, maxs)
    K = Xs @ Xs.T
    alpha, b, iterations = smo_solve(K, y, C, tol, max_iter)
    w = (alpha * y) @ Xs
    return SvmModel(w, b, C, mins, maxs, pos, neg, iterations)


def predict(model: SvmModel, x):
    """(label, margin) for one raw feature vector; margin 0 goes to the
    +1 class."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.w.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {model.w.shape}")
    xs = scale_apply(x[None, :], model.mins, model.maxs)[0]
    margin = float(model.w @ xs + model.b)
    return (model.pos_label if margin >= 0 else model.neg_label), margin


@dataclass
class EvalReport:
    classes: tuple
    confusion: np.ndarray   # rows true class, columns predicted
    precision: dict
    recall: dict
    accuracy: float

    def as_text(self) -> str:
        a, b = self.classes
        lines = [
            f"{'':10}{'precision':>20}{'recall':>16}{'acc.':>8}",
            f"{'':10}{a:>10}{b:>10}{a:>8}{b:>8}",
            (
                f"{'':10}{self.precision[a]:>10.1f}{self.precision[b]:>10.1f}"
                f"{self.recall[a]:>8.1f}{self.recall[b]:>8.1f}{self.accuracy:>8.1f}"
            ),
        ]
        return "\n".join(lines) + "\n"

    def as_csv(self) -> str:
        a, b = self.classes
        header = f"precision_{a},precision_{b},recall_{a},recall_{b},accuracy"
        row = (
            f"{self.precision[a]:.2f},{self.precision[b]:.2f},"
            f"{self.recall[a]:.2f},{self.recall[b]:.2f},{self.accuracy:.2f}"
        )
        return header + "\n" + row + "\n"


def _report_from_confusion(classes, confusion) -> EvalReport:
    confusion = np.asarray(confusion, dtype=float)
    precision, recall = {}, {}
    for k, cls in enumerate(classes):
        col = confusion[:, k].sum()
        row = confusion[k, :].sum()
        precision[cls] = 100.0 * confusion[k, k] / col if col else 0.0
        recall[cls] = 100.0 * confusion[k, k] / row if row else 0.0
    accuracy = 100.0 * np.trace(confusion) / confusion.sum()
    return EvalReport(tuple(classes), confusion, precision, recall, accuracy)


def balance_classes(items, labels, seed: int):
    """Downsample the majority class to the minority count (uniform,
    seeded) and shuffle deterministically."""
    rng = random.Random(seed)
    by_class: dict = {}
    for item, label in zip(items, labels):
        by_class.setdefault(label, []).append(item)
    if len(by_class) < 2 or any(len(v) == 0 for v in by_class.values()):
        raise ValueError("both classes must be present")
    n = min(len(v) for v in by_class.values())
    out = []
    for label in sorted(by_class):
        members = by_class[label]
        chosen = rng.sample(range(len(members)), n) if len(members) > n else range(len(members))
        out.extend((members[i], label) for i in sorted(chosen))
    rng.shuffle(out)
    return [item for item, _ in out], [label for _, label in out]


def stratified_folds(labels, folds: int, seed: int):
    """Per-class seeded shuffle dealt round-robin; returns fold index per
    instance."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = random.Random(seed)
    assignment = [0] * len(labels)
    by_class: dict = {}
    for idx, label in enumerate(labels):
        by_class.setdefault(label, []).append(idx)
    for label in sorted(by_class):
        indices = by_class[label]
        if len(indices) < folds:
            raise ValueError(f"class {label!r} has fewer instances than folds")
        rng.shuffle(indices)
        for pos, idx in enumerate(indices):
            assignment[idx] = pos % folds
    return assignment


def cross_validate(X, labels, folds: int = 10, seed: int = 0,
                   C: float = 1.0, tol: float = 1e-3) -> EvalReport:
    """Stratified k-fold CV; scaling is fitted per training fold; the
    confusion matrix is pooled over folds."""
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    classes = sorted(set(labels))
    class_index = {c: k for k, c in enumerate(classes)}
    assignment = np.array(stratified_folds(labels, folds, seed))
    confusion = np.zeros((len(classes), len(classes)))
    for fold in range(folds):
        train_mask = assignment != fold
        test_mask = ~train_mask
        model = train_svm(
            X[train_mask], [l for l, m in zip(labels, train_mask) if m], C=C, tol=tol
        )
        for x, true in zip(X[test_mask], (l for l, m in zip(labels, test_mask) if m)):
            pred, _ = predict(model, x)
            confusion[class_index[true], class_index[pred]] += 1
    return _report_from_confusion(classes, confusion)


def vectors_to_matrix(vectors, dimension: int):
    """Dense (X, labels) from sparse FeatureVector values."""
    X = np.zeros((len(vectors), dimension))
    labels = []
    for r, vec in enumerate(vectors):
        for i, v in vec.values.items():
            X[r, i] = v
        labels.append(vec.label)
    return X, labels
