import math
import random
import re

import numpy as np
import pytest

from traitmt.analysis import (
    WEAK_GAIN,
    MarkerComparison,
    MarkerWeight,
    discretize_feature,
    info_gain_rank,
    marker_persistence_report,
    markers_csv,
    pca_project,
    projection_csv,
)


def reference_entropy(labels):
    """Entropy in bits, counting each class in the list."""
    labels = list(labels)
    n = len(labels)
    ent = 0.0
    for c in sorted(set(labels)):
        p = labels.count(c) / n
        ent -= p * math.log2(p)
    return ent


def brute_force_best_split(values, labels):
    """Independent check: information gain of every midpoint, max taken."""
    distinct = sorted(set(values))
    base = reference_entropy(labels)
    n = len(values)
    best = (0.0, None)
    for lo, hi in zip(distinct, distinct[1:]):
        t = (lo + hi) / 2
        left = [l for v, l in zip(values, labels) if v <= t]
        right = [l for v, l in zip(values, labels) if v > t]
        cond = len(left) * reference_entropy(left) + len(right) * reference_entropy(right)
        gain = base - cond / n
        if gain > best[0] + 1e-15:
            best = (gain, t)
    return best


def brute_force_marker(values, labels):
    """(gain, class_direction) of one column: the gain of every midpoint
    split, the first one better than the best so far by more than 1e-15
    winning and a negative best read as 0; the direction is the first of
    the sorted classes whose values have the highest numpy mean."""
    distinct = sorted(set(values))
    base = reference_entropy(labels)
    best = -1.0
    for lo, hi in zip(distinct, distinct[1:]):
        t = (lo + hi) / 2
        left = [l for v, l in zip(values, labels) if v <= t]
        right = [l for v, l in zip(values, labels) if v > t]
        gain = base - (len(left) * reference_entropy(left)
                       + len(right) * reference_entropy(right)) / len(values)
        if gain > best + 1e-15:
            best = gain
    means = {c: np.array([v for v, l in zip(values, labels) if l == c]).mean()
             for c in sorted(set(labels))}
    return max(best, 0.0), max(means, key=means.get)


class TestDiscretize:
    def test_perfect_separation(self):
        threshold, gain = discretize_feature([0, 0, 1, 1], ["M", "M", "F", "F"])
        assert threshold == pytest.approx(0.5)
        assert gain == pytest.approx(1.0)

    def test_constant_feature(self):
        threshold, gain = discretize_feature([3, 3, 3], ["M", "F", "M"])
        assert threshold is None and gain == 0.0

    def test_matches_exhaustive_search(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(4, 20)
            values = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
            labels = [rng.choice("MF") for _ in range(n)]
            if len(set(values)) < 2:
                continue
            threshold, gain = discretize_feature(values, labels)
            expected_gain, expected_threshold = brute_force_best_split(values, labels)
            assert gain == pytest.approx(expected_gain, abs=1e-12)
            if expected_gain > 0:
                assert threshold == pytest.approx(expected_threshold)

    def test_equals_exhaustive_search_exactly(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 300)
            levels = rng.randint(2, 2 * n)
            labels = ["M", "F"] + [rng.choice("MF") for _ in range(n - 2)]
            values = [rng.randrange(levels) / levels + (0.3 if l == "M" else 0.0)
                      for l in labels]
            if len(set(values)) < 2:
                continue
            expected_gain, expected_threshold = brute_force_best_split(values, labels)
            assert expected_threshold is not None
            assert discretize_feature(values, labels) == (expected_threshold, expected_gain)

    def test_tie_break_to_smallest_threshold(self):
        # both midpoints yield zero gain; smallest one must be reported
        threshold, gain = discretize_feature([0.0, 1.0, 2.0], ["M", "F", "M"])
        by_hand_gain, _ = brute_force_best_split([0.0, 1.0, 2.0], ["M", "F", "M"])
        assert gain == pytest.approx(by_hand_gain)
        candidates = [0.5, 1.5]
        gains = []
        for t in candidates:
            left = [l for v, l in zip([0.0, 1.0, 2.0], ["M", "F", "M"]) if v <= t]
            right = [l for v, l in zip([0.0, 1.0, 2.0], ["M", "F", "M"]) if v > t]
            gains.append(
                reference_entropy(["M", "F", "M"])
                - (len(left) * reference_entropy(left) + len(right) * reference_entropy(right)) / 3
            )
        best = max(gains)
        first_best = candidates[gains.index(best)]
        assert threshold == pytest.approx(first_best)


class TestInfoGain:
    def test_perfect_feature_on_balanced_labels(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        markers = info_gain_rank(X, ["M", "M", "F", "F"], ["f0"])
        assert markers[0].info_gain == pytest.approx(1.0)
        assert markers[0].class_direction == "F"
        assert not markers[0].weak

    def test_independent_feature_is_zero(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        markers = info_gain_rank(X, ["M", "M", "F", "F"], ["f0"])
        assert markers[0].info_gain <= 1e-12

    def test_weak_flag(self):
        # engineered low-information feature: barely better than chance
        rng = random.Random(1)
        n = 2000
        labels = ["M"] * (n // 2) + ["F"] * (n // 2)
        values = [
            (1.0 if rng.random() < (0.52 if l == "M" else 0.48) else 0.0) for l in labels
        ]
        markers = info_gain_rank(np.array(values)[:, None], labels, ["f0"])
        assert 0 < markers[0].info_gain < 0.01
        assert markers[0].weak

    def test_label_swap_symmetry(self):
        rng = random.Random(2)
        X = np.array([[rng.random()] for _ in range(30)])
        labels = [rng.choice("MF") for _ in range(30)]
        swapped = ["M" if l == "F" else "F" for l in labels]
        a = info_gain_rank(X, labels, ["f0"])[0].info_gain
        b = info_gain_rank(X, swapped, ["f0"])[0].info_gain
        assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_transformation_invariance(self):
        rng = random.Random(3)
        values = [rng.random() for _ in range(40)]
        labels = [rng.choice("MF") for _ in range(40)]
        X = np.array(values)[:, None]
        Xt = np.array([math.exp(3 * v) for v in values])[:, None]
        a = info_gain_rank(X, labels, ["f0"])[0].info_gain
        b = info_gain_rank(Xt, labels, ["f0"])[0].info_gain
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounded_by_class_entropy(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(6, 30)
            X = np.array([[rng.random() for _ in range(3)] for _ in range(n)])
            labels = [rng.choice("MF") for _ in range(n)]
            h = reference_entropy(labels)
            for m in info_gain_rank(X, labels, ["a", "b", "c"]):
                assert -1e-12 <= m.info_gain <= h + 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            info_gain_rank(np.zeros((0, 1)), [], ["f0"])

    def test_equals_per_column_brute_force_exactly(self):
        rng = random.Random(6)
        for trial in range(40):
            n = rng.randint(2, 120)
            classes = "FMU"[:rng.choice([2, 2, 3])]
            labels = [rng.choice(classes) for _ in range(n)]
            d = rng.randint(1, 8)
            columns = []
            for _ in range(d):
                kind = rng.random()
                if kind < 0.2:  # constant: zero, or a value whose class means round differently
                    columns.append([rng.choice([0.0, 0.1, 1 / 3])] * n)
                else:  # a few levels, so values tie
                    levels = rng.randint(2, n + 2)
                    columns.append([rng.randrange(levels) / levels for _ in range(n)])
            X = np.array(columns).T
            names = [f"f{j}" for j in range(d)]
            got = {m.feature: m for m in info_gain_rank(X, labels, names)}
            for name, column in zip(names, columns):
                gain, direction = brute_force_marker(column, labels)
                marker = got[name]
                assert (marker.info_gain, marker.class_direction) == (gain, direction), trial
                assert marker.weak == (gain < WEAK_GAIN)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        rng = np.random.default_rng(0)
        X = rng.random((40, 3))
        X[3, 0] = bad
        labels = ["M", "F"] * 20
        with pytest.raises(ValueError, match="non-finite"):
            info_gain_rank(X, labels, ["a", "b", "c"])
        with pytest.raises(ValueError, match="non-finite"):
            discretize_feature(X[:, 0], labels)

    @pytest.mark.parametrize("shape", [(3,), (0,), (), (2, 2, 1)])
    def test_matrix_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=rf"X must be 2-D, got shape {re.escape(str(shape))}"):
            info_gain_rank(np.zeros(shape), ["M", "F", "M"], ["a", "b", "c"])

    def test_label_count_must_match_rows(self):
        X = np.random.default_rng(1).random((10, 2))
        with pytest.raises(ValueError, match="10 rows but 9 labels"):
            info_gain_rank(X, ["M", "F", "M"] * 3, ["a", "b"])
        with pytest.raises(ValueError, match="10 values but 11 labels"):
            discretize_feature(X[:, 0], ["M"] * 11)

    def test_csv_export(self):
        markers = [MarkerWeight("fw:also", 0.25, "F", False)]
        csv = markers_csv(markers)
        assert csv.splitlines()[1] == "fw:also,0.25,F,0"


class TestPca:
    def test_collinear_points(self):
        X = np.array([[t, 2 * t] for t in np.linspace(-1, 1, 9)])
        proj = pca_project(X, ["M"] * 9, ["original"] * 9)
        assert proj.explained_variance[0] > 0
        assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_analytic_2x2_eigendecomposition(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 2)) @ np.array([[2.0, 0.7], [0.0, 0.5]])
        proj = pca_project(X, ["M"] * 200, ["original"] * 200)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(X) - 1)
        # closed-form eigenvalues of a symmetric 2x2 matrix
        a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
        disc = math.sqrt(((a - c) / 2) ** 2 + b * b)
        lam1 = (a + c) / 2 + disc
        lam2 = (a + c) / 2 - disc
        np.testing.assert_allclose(proj.explained_variance, [lam1, lam2], atol=1e-8)
        # closed-form eigenvector for the top eigenvalue
        v1 = np.array([b, lam1 - a])
        v1 /= np.linalg.norm(v1)
        if v1[np.argmax(np.abs(v1))] < 0:
            v1 = -v1
        np.testing.assert_allclose(proj.components[0], v1, atol=1e-8)

    def test_rank2_reconstruction_exact(self):
        rng = np.random.default_rng(6)
        basis = rng.normal(size=(2, 5))
        coords = rng.normal(size=(30, 2))
        X = coords @ basis
        proj = pca_project(X, ["M"] * 30, ["original"] * 30)
        reconstructed = proj.coordinates @ proj.components + proj.mean
        np.testing.assert_allclose(reconstructed, X, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 6))
        proj = pca_project(X, ["M"] * 50, ["original"] * 50)
        np.testing.assert_allclose(proj.components @ proj.components.T, np.eye(2), atol=1e-10)

    def test_variance_conservation_full_dims(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 2))
        proj = pca_project(X, ["M"] * 40, ["original"] * 40)
        centered = X - X.mean(axis=0)
        total = np.trace(centered.T @ centered / 39)
        assert proj.explained_variance.sum() == pytest.approx(total, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        proj_a = pca_project(X, ["M"] * 25, ["o"] * 25)
        perm = rng.permutation(25)
        proj_b = pca_project(X[perm], ["M"] * 25, ["o"] * 25)
        np.testing.assert_allclose(proj_a.components, proj_b.components, atol=1e-10)

    def test_dims_validation(self):
        with pytest.raises(ValueError, match="2 features"):
            pca_project(np.zeros((5, 1)), ["M"] * 5, ["o"] * 5)
        with pytest.raises(ValueError, match="3 vectors"):
            pca_project(np.zeros((2, 2)), ["M"] * 2, ["o"] * 2)

    @pytest.mark.parametrize("shape", [(3,), (), (4, 2, 2)])
    def test_matrix_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=rf"X must be 2-D, got shape {re.escape(str(shape))}"):
            pca_project(np.zeros(shape), ["M"] * 3, ["o"] * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        X = np.random.default_rng(0).random((6, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="^non-finite feature values$"):
            pca_project(X, ["M", "F"] * 3, ["o"] * 6)

    def test_label_length_mismatch_rejected(self):
        X = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ValueError, match="5 vectors but 2 genders and 1 statuses"):
            pca_project(X, ["M", "F"], ["o"])
        with pytest.raises(ValueError, match="5 vectors but 5 genders and 6 statuses"):
            pca_project(X, ["M"] * 5, ["o"] * 6)

    def test_csv_export(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        proj = pca_project(X, ["M", "F", "M"], ["o", "o", "t"])
        csv = projection_csv(proj)
        assert csv.splitlines()[0] == "pc1,pc2,gender,status"
        assert len(csv.splitlines()) == 4


class TestPersistence:
    def mk(self, feature, gain, direction):
        return MarkerWeight(feature, gain, direction, gain < 0.01)

    def test_lost_marker_flagged(self):
        rankings = {
            "orig": [self.mk("fw:also", 0.05, "F")],
            "mt": [self.mk("fw:also", 0.002, "F")],
        }
        report = marker_persistence_report(rankings, "orig")
        assert [c.lost for c in report.comparisons] == [True]
        assert not any(c.carried_over for c in report.comparisons)

    def test_marker_absent_from_variant(self):
        rankings = {
            "orig": [self.mk("fw:also", 0.05, "F"), self.mk("fw:so", 0.002, "M")],
            "mt": [],
        }
        report = marker_persistence_report(rankings, "orig")
        assert report.comparisons == [
            MarkerComparison("fw:also", "mt", "fw:also", 0.05, None, "F", None,
                             carried_over=False, lost=True, direction_flip=False),
            MarkerComparison("fw:so", "mt", "fw:so", 0.002, None, "M", None,
                             carried_over=False, lost=False, direction_flip=False),
        ]

    def test_carried_over_via_lexicon(self):
        rankings = {
            "orig_fr": [self.mk("fw:je", 0.04, "M")],
            "mt_en": [self.mk("fw:i", 0.03, "M")],
        }
        report = marker_persistence_report(
            rankings, "orig_fr", lexicon={"fw:je": "fw:i"}, cross_language=True
        )
        assert [c.carried_over for c in report.comparisons] == [True]
        assert not any(c.direction_flip for c in report.comparisons)

    def test_identity_comparison_no_flags(self):
        ranking = [self.mk("fw:also", 0.05, "F"), self.mk("fw:you", 0.02, "M")]
        report = marker_persistence_report({"orig": ranking, "same": ranking}, "orig")
        assert not any(c.lost or c.direction_flip for c in report.comparisons)
        assert [c.carried_over for c in report.comparisons] == [True, True]

    def test_direction_flip_detected(self):
        rankings = {
            "orig": [self.mk("fw:must", 0.04, "F")],
            "mt": [self.mk("fw:must", 0.03, "M")],
        }
        report = marker_persistence_report(rankings, "orig")
        assert [c.direction_flip for c in report.comparisons] == [True]

    def test_cross_language_requires_lexicon(self):
        rankings = {"orig": [self.mk("fw:je", 0.04, "M")], "mt": []}
        with pytest.raises(ValueError):
            marker_persistence_report(rankings, "orig", cross_language=True)

    def test_csv(self):
        rankings = {
            "orig": [self.mk("fw:also", 0.05, "F")],
            "mt": [self.mk("fw:also", 0.002, "M")],
        }
        report = marker_persistence_report(rankings, "orig")
        lines = report.as_csv().splitlines()
        assert lines[0].startswith("feature,variant")
        assert len(lines) == 2
