"""Discriminative-marker analysis and visualisation-ready projections.

Information gain of a feature is computed against the best single binary
split of its values (entropy in bits); markers below a weight threshold
are flagged weak.  PCA reduces function-word vectors to two dimensions for
the gender-vs-translationese scatter, and the persistence report follows
the markers of an original text through its translation variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WEAK_GAIN = 0.01  # markers with less information gain are flagged weak


def discretize_feature(values, labels):
    """Best binary-split threshold by information gain.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; a value goes left when it is <= the threshold.  A later
    threshold wins only when its gain beats the best so far by more than
    1e-15, so ties resolve to the smallest one.  A constant feature has no
    threshold (None, gain 0).  Non-finite values, and a label count other
    than the value count, raise ValueError.

    One stable sort, thresholds placed with searchsorted, and the class
    counts on each side of every threshold from one cumulative sum per
    class: O(n log n).  An entropy in bits is 0.0 minus p log2 p per class
    in sorted class order, p = count / size, with log2 from math.log2, so
    gains do not depend on numpy's log2.
    """
    column = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    n = len(labels)
    if column.shape != (n,):
        raise ValueError(f"{column.size} values but {n} labels")
    if not np.isfinite(column).all():
        raise ValueError("non-finite feature values")
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    edges = np.flatnonzero(ordered[1:] != ordered[:-1])
    if not len(edges):
        return None, 0.0
    thresholds = (ordered[edges] + ordered[edges + 1]) / 2.0
    left_n = np.searchsorted(ordered, thresholds, side="right")
    classes = np.array(sorted(set(labels.tolist())))
    seen = np.zeros((len(classes), n + 1), dtype=np.intp)  # class k among the m smallest
    np.cumsum(labels[order] == classes[:, None], axis=1, out=seen[:, 1:])
    left, total = seen[:, left_n], seen[:, n:]
    # columns: left of each threshold, right of each threshold, all n
    sizes = np.concatenate([left_n, n - left_n, [n]])
    counts = np.concatenate([left, total - left, total], axis=1)
    present = counts > 0
    p = np.divide(counts, sizes, out=np.zeros(counts.shape), where=present)
    log2p = np.zeros(counts.shape)
    log2p[present] = list(map(math.log2, p[present].tolist()))
    entropy = np.zeros(len(sizes))
    for terms in p * log2p:
        entropy -= terms
    cuts = len(edges)
    gains = entropy[-1] - (left_n * entropy[:cuts] + (n - left_n) * entropy[cuts:-1]) / n
    best_gain, best = -1.0, 0
    for at, gain in enumerate(gains.tolist()):
        if gain > best_gain + 1e-15:
            best_gain, best = gain, at
    return float(thresholds[best]), max(best_gain, 0.0)


@dataclass(frozen=True)
class MarkerWeight:
    feature: str
    info_gain: float
    class_direction: str  # class with the higher mean value
    weak: bool


def _matrix(X):
    """X as a float array, which must be 2-D and finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values")
    return X


def info_gain_rank(X, labels, feature_names):
    """Rank features by information gain of their best binary split.

    Returns MarkerWeight entries sorted by descending gain (ties broken by
    feature name).  class_direction is the class with the higher mean.
    A matrix that is not 2-D, non-finite values, and a label count other
    than the row count, raise ValueError.
    """
    X = _matrix(X)
    labels = list(labels)
    if X.size == 0 or not labels:
        raise ValueError("empty input")
    if X.shape[1] != len(feature_names):
        raise ValueError("feature_names must match matrix width")
    if X.shape[0] != len(labels):
        raise ValueError(f"{X.shape[0]} rows but {len(labels)} labels")
    classes = sorted(set(labels))
    out = []
    label_arr = np.array(labels)
    # contiguous rows, so each mean sums in the same order as X[label_arr == c, j].mean()
    by_class = {c: np.ascontiguousarray(X[label_arr == c].T) for c in classes}
    for j, (column, name) in enumerate(zip(np.ascontiguousarray(X.T), feature_names)):
        _, gain = discretize_feature(column, label_arr)
        means = {c: by_class[c][j].mean() for c in classes}
        direction = max(sorted(means), key=lambda c: means[c])
        out.append(MarkerWeight(name, gain, direction, gain < WEAK_GAIN))
    out.sort(key=lambda m: (-m.info_gain, m.feature))
    return out


@dataclass
class Projection2D:
    coordinates: np.ndarray     # (n, 2)
    genders: list
    statuses: list
    components: np.ndarray      # (2, d) orthonormal rows
    explained_variance: np.ndarray
    mean: np.ndarray


def pca_project(X, genders, statuses) -> Projection2D:
    """Mean-centred PCA onto the two leading eigenvectors of the sample
    covariance.  Sign convention: the largest-magnitude entry of each
    component is positive.  A matrix that is not 2-D or holds a non-finite
    value raises ValueError."""
    X = _matrix(X)
    n, d = X.shape
    if d < 2:
        raise ValueError(f"need at least 2 features, got {d}")
    if n < 3:
        raise ValueError("need at least 3 vectors")
    if len(genders) != n or len(statuses) != n:
        raise ValueError(f"{n} vectors but {len(genders)} genders and {len(statuses)} statuses")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = eigvecs[:, order].T.copy()
    for k in range(components.shape[0]):
        pivot = np.argmax(np.abs(components[k]))
        if components[k, pivot] < 0:
            components[k] = -components[k]
    coords = centered @ components.T
    return Projection2D(
        coordinates=coords,
        genders=list(genders),
        statuses=list(statuses),
        components=components,
        explained_variance=eigvals[order],
        mean=mean,
    )


def projection_csv(projection: Projection2D) -> str:
    lines = ["pc1,pc2,gender,status"]
    for (pc1, pc2), g, s in zip(
        projection.coordinates, projection.genders, projection.statuses
    ):
        lines.append(f"{pc1:.10g},{pc2:.10g},{g},{s}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MarkerComparison:
    feature: str                # marker name in the original
    variant: str
    variant_feature: str        # aligned name in the variant (via lexicon)
    original_gain: float
    variant_gain: float | None  # None when absent from the variant ranking
    original_direction: str
    variant_direction: str | None
    carried_over: bool
    lost: bool
    direction_flip: bool


@dataclass
class PersistenceReport:
    comparisons: list

    def as_csv(self) -> str:
        lines = ["feature,variant,variant_feature,orig_ig,var_ig,orig_dir,var_dir,carried,lost,flip"]
        for c in self.comparisons:
            var_ig = "" if c.variant_gain is None else f"{c.variant_gain:.6g}"
            var_dir = "" if c.variant_direction is None else c.variant_direction
            lines.append(
                f"{c.feature},{c.variant},{c.variant_feature},{c.original_gain:.6g},"
                f"{var_ig},{c.original_direction},{var_dir},"
                f"{int(c.carried_over)},{int(c.lost)},{int(c.direction_flip)}"
            )
        return "\n".join(lines) + "\n"


def marker_persistence_report(rankings: dict, original: str, lexicon: dict | None = None,
                              cross_language: bool = False) -> PersistenceReport:
    """Follow each original-language marker through translation variants.

    rankings maps variant name -> list of MarkerWeight; lexicon maps an
    original feature name to its gloss in the translations.  Identity
    alignment is the default and only valid for same-language variants;
    cross-language comparison requires a non-empty lexicon.
    """
    if original not in rankings:
        raise ValueError(f"original variant {original!r} missing from rankings")
    if cross_language and not lexicon:
        raise ValueError("cross-language comparison requires a marker lexicon")
    if lexicon is None:
        lexicon = {}
    variants = [v for v in rankings if v != original]
    by_variant = {v: {m.feature: m for m in rankings[v]} for v in rankings}
    comparisons = []
    for marker in rankings[original]:
        for variant in variants:
            aligned = lexicon.get(marker.feature, marker.feature)
            counterpart = by_variant[variant].get(aligned)
            strong_orig = not marker.weak
            strong_var = counterpart is not None and not counterpart.weak
            same_dir = (counterpart is not None
                        and counterpart.class_direction == marker.class_direction)
            comparisons.append(
                MarkerComparison(
                    marker.feature, variant, aligned, marker.info_gain,
                    None if counterpart is None else counterpart.info_gain,
                    marker.class_direction,
                    None if counterpart is None else counterpart.class_direction,
                    carried_over=strong_orig and strong_var and same_dir,
                    lost=strong_orig and not strong_var,
                    direction_flip=strong_orig and strong_var and not same_dir,
                )
            )
    return PersistenceReport(comparisons)


def markers_csv(markers) -> str:
    lines = ["feature,ig,direction,weak"]
    for m in markers:
        lines.append(f"{m.feature},{m.info_gain:.6g},{m.class_direction},{int(m.weak)}")
    return "\n".join(lines) + "\n"
