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


def _count_entropy(counts, n: int) -> float:
    """Entropy in bits of n labels with the given per-class counts."""
    ent = 0.0
    for count in counts:
        if count:
            p = count / n
            ent -= p * math.log2(p)
    return ent


def discretize_feature(values, labels):
    """Best binary-split threshold by information gain.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; ties resolve to the smallest threshold.  A constant feature has
    no threshold (None, gain 0).  One sort, then one sweep that keeps the
    class counts left of the threshold: O(n log n).
    """
    values = list(values)
    labels = list(labels)
    if len(values) != len(labels):
        raise ValueError("values and labels must align")
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return None, 0.0
    n = len(values)
    class_of = {c: k for k, c in enumerate(sorted(set(labels)))}
    order = sorted(range(n), key=values.__getitem__)
    sorted_classes = [class_of[labels[i]] for i in order]
    sorted_values = [values[i] for i in order]
    totals = [0] * len(class_of)
    for k in sorted_classes:
        totals[k] += 1
    base = _count_entropy(totals, n)
    left = [0] * len(class_of)
    best_gain, best_threshold = -1.0, None
    split_at = 0
    for lo, hi in zip(distinct, distinct[1:]):
        threshold = (lo + hi) / 2.0
        while split_at < n and sorted_values[split_at] <= threshold:
            left[sorted_classes[split_at]] += 1
            split_at += 1
        right = [t - l for t, l in zip(totals, left)]
        n_right = n - split_at
        cond = (split_at * _count_entropy(left, split_at)
                + n_right * _count_entropy(right, n_right)) / n
        gain = base - cond
        if gain > best_gain + 1e-15:
            best_gain, best_threshold = gain, threshold
    return best_threshold, max(best_gain, 0.0)


@dataclass(frozen=True)
class MarkerWeight:
    feature: str
    info_gain: float
    class_direction: str  # class with the higher mean value
    weak: bool


def info_gain_rank(X, labels, feature_names):
    """Rank features by information gain of their best binary split.

    Returns MarkerWeight entries sorted by descending gain (ties broken by
    feature name).  class_direction is the class with the higher mean.
    """
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if X.size == 0 or not labels:
        raise ValueError("empty input")
    if X.shape[1] != len(feature_names):
        raise ValueError("feature_names must match matrix width")
    classes = sorted(set(labels))
    out = []
    label_arr = np.array(labels)
    # contiguous rows, so each mean sums in the same order as X[label_arr == c, j].mean()
    by_class = {c: np.ascontiguousarray(X[label_arr == c].T) for c in classes}
    for j, (column, name) in enumerate(zip(X.T.tolist(), feature_names)):
        _, gain = discretize_feature(column, labels)
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
    component is positive."""
    X = np.asarray(X, dtype=float)
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
    original: str
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
    return PersistenceReport(original, comparisons)


def markers_csv(markers) -> str:
    lines = ["feature,ig,direction,weak"]
    for m in markers:
        lines.append(f"{m.feature},{m.info_gain:.6g},{m.class_direction},{int(m.weak)}")
    return "\n".join(lines) + "\n"
