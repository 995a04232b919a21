"""Linear SVM trained by sequential minimal optimization, with stratified
cross-validation and class balancing.

The solver works on the SVM dual in signed variables beta = y * alpha
(Bottou & Lin 2007, "Support Vector Machine Solvers"):

    max y'beta - 0.5 beta'K beta   s.t.  sum(beta) = 0,
                                         min(0, C y_i) <= beta_i <= max(0, C y_i)

Each step moves the maximal KKT-violating pair (the first-order working
set selection of Keerthi et al. 2001, WSS1 in Fan, Chen & Lin 2005) along
beta_i += t, beta_j -= t and clips to the box, so one update rule covers
both label-sign cases.  A step costs one argmax, one argmin and one
rank-2 update of the gradient over numpy rows; the pair's step and
clipping are Python float arithmetic, which rounds as numpy's float64
does.

Features are min-max scaled to [0,1] with statistics from the training
set; the scaling is stored on the model and applied again at prediction
time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12
SVM_C = 1.0  # the cost train_svm passes to smo_solve


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
    violation, the largest g = y - K beta over the variables that can rise
    minus the smallest over those that can fall, dropped to tol or below.

    beta, its box and diag(K) are Python floats, and K's columns are
    views, not copies.  Which variables can rise (fall) is a
    penalty row of 0 and -inf (+inf) that changes only at i and j, so
    g + penalty keeps g's bits where the variable is eligible.
    """
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    lower = np.minimum(0.0, C * y)  # beta's box: lower <= beta <= upper
    upper = np.maximum(0.0, C * y)
    can_rise, can_fall = upper - _EPS, lower + _EPS
    A, B, rise, fall, diag = (v.tolist() for v in (lower, upper, can_rise, can_fall, K.diagonal()))
    columns = list(K.T)  # columns[j][i] is K[i, j]
    beta = [0.0] * len(y)
    g = y.copy()  # y - K beta
    pen_up = np.where(0.0 < can_rise, 0.0, -np.inf)
    pen_low = np.where(0.0 > can_fall, 0.0, np.inf)
    g_up, g_low = np.empty(len(y)), np.empty(len(y))
    for iterations in range(1, max_iter + 1):
        np.add(g, pen_up, out=g_up)
        np.add(g, pen_low, out=g_low)
        i = int(g_up.argmax())
        j = int(g_low.argmin())
        gap = g_up.item(i) - g_low.item(j)
        if gap <= tol:
            break
        quad = diag[i] + diag[j] - 2 * columns[j].item(i)
        if quad <= 0:
            quad = _EPS
        step = gap / quad
        old_i, old_j = beta[i], beta[j]
        total = old_i + old_j
        beta[i] = old_i + step
        beta[j] = old_j - step
        # Clip at the box edge that the line beta_i + beta_j = total meets
        # first: i's upper bound or j's lower bound.  On the corner itself
        # a rounded step can cross one bound and not the other; i is checked
        # when B_i is 0 and j otherwise, as `reference_smo_solve` does.
        corner = B[i] + A[j]
        if total > corner or (total == corner and B[i] == 0):
            if beta[i] > B[i]:
                beta[i], beta[j] = B[i], total - B[i]
        elif beta[j] < A[j]:
            beta[i], beta[j] = total - A[j], A[j]
        g -= columns[i] * (beta[i] - old_i) + columns[j] * (beta[j] - old_j)
        for k in (i, j):
            pen_up[k] = 0.0 if beta[k] < rise[k] else -np.inf
            pen_low[k] = 0.0 if beta[k] > fall[k] else np.inf
    beta = np.array(beta)
    up, low = beta < can_rise, beta > can_fall
    free = up & low
    if free.any():
        b = float(g[free].mean())
    else:  # midpoint of the largest g at a lower bound and the smallest at an upper one
        ends = np.array([g[~low].max(initial=-np.inf), g[~up].min(initial=np.inf)])
        b = float(ends[np.isfinite(ends)].mean())
    return y * beta, b, iterations


@dataclass
class SvmModel:
    w: np.ndarray
    b: float
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


def train_svm(X, labels) -> SvmModel:
    """Fit a linear SVM; the lexicographically first class is the +1 class."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values")
    y, pos, neg = _label_signs(labels)
    mins, maxs = scale_fit(X)
    Xs = scale_apply(X, mins, maxs)
    K = Xs @ Xs.T
    alpha, b, iterations = smo_solve(K, y, SVM_C)
    w = (alpha * y) @ Xs
    return SvmModel(w, b, mins, maxs, pos, neg, iterations)


def predict(model: SvmModel, X):
    """(labels, margins) for a matrix of raw feature rows; a margin of 0
    goes to the +1 class."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1:] != model.w.shape:
        raise ValueError(f"dimension mismatch: rows of {X.shape} vs {model.w.shape}")
    margins = scale_apply(X, model.mins, model.maxs) @ model.w + model.b
    labels = [model.pos_label if m >= 0 else model.neg_label for m in margins.tolist()]
    return labels, margins


@dataclass
class EvalReport:
    classes: tuple
    confusion: np.ndarray   # rows true class, columns predicted, pooled over folds
    accuracy: float         # percent: trace over total


def balance_classes(items, labels, seed: int):
    """Downsample the majority class to the minority count (uniform,
    seeded) and shuffle deterministically."""
    if len(items) != len(labels):
        raise ValueError(f"{len(items)} items but {len(labels)} labels")
    rng = random.Random(seed)
    by_class: dict = {}
    for item, label in zip(items, labels):
        by_class.setdefault(label, []).append(item)
    if len(by_class) < 2:
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


def cross_validate(X, labels, folds: int = 10, seed: int = 0) -> EvalReport:
    """Stratified k-fold CV of `train_svm` at its defaults; scaling is
    fitted per training fold; the confusion matrix is pooled over folds."""
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if len(labels) != len(X):
        raise ValueError(f"{len(X)} rows but {len(labels)} labels")
    classes = sorted(set(labels))
    class_index = {c: k for k, c in enumerate(classes)}
    assignment = np.array(stratified_folds(labels, folds, seed))
    confusion = np.zeros((len(classes), len(classes)))
    for fold in range(folds):
        train_mask = assignment != fold
        test_mask = ~train_mask
        model = train_svm(X[train_mask], [l for l, m in zip(labels, train_mask) if m])
        predicted, _ = predict(model, X[test_mask])
        for true, pred in zip((l for l, m in zip(labels, test_mask) if m), predicted):
            confusion[class_index[true], class_index[pred]] += 1
    accuracy = 100.0 * np.trace(confusion) / confusion.sum()
    return EvalReport(tuple(classes), confusion, accuracy)


def vectors_to_matrix(vectors, dimension: int):
    """(X, labels): the vectors' rows stacked in order, and their labels.
    A row whose shape is not (dimension,) raises ValueError."""
    for vec in vectors:
        if np.shape(vec.values) != (dimension,):
            raise ValueError(f"feature row of shape {np.shape(vec.values)}, expected ({dimension},)")
    X = np.array([vec.values for vec in vectors], dtype=float).reshape(len(vectors), dimension)
    return X, [vec.label for vec in vectors]
