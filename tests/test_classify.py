import itertools
import random

import numpy as np
import pytest

from traitmt.classify import (
    _EPS,
    SVM_C,
    SvmModel,
    balance_classes,
    cross_validate,
    predict,
    scale_apply,
    scale_fit,
    smo_solve,
    stratified_folds,
    train_svm,
    vectors_to_matrix,
)
from traitmt.stylometry import FeatureVector


def kkt_violation(K, y, alpha, C):
    """m(a) - M(a), the maximal violating pair gap (0 when optimal)."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    G = Q @ alpha - 1.0
    neg_yG = -(y * G)
    up = ((y > 0) & (alpha < C - _EPS)) | ((y < 0) & (alpha > _EPS))
    low = ((y < 0) & (alpha < C - _EPS)) | ((y > 0) & (alpha > _EPS))
    if not up.any() or not low.any():
        return 0.0
    return float(neg_yG[up].max() - neg_yG[low].min())


def dual_objective(K, y, alpha):
    """0.5 a'Qa - e'a (the minimized dual objective)."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    return float(0.5 * alpha @ Q @ alpha - alpha.sum())


def qp_oracle(K, y, C):
    """Exact dual optimum by exhaustive active-set enumeration.

    Every variable is assigned lower bound (0), upper bound (C) or free;
    free variables and the equality multiplier come from the stationarity
    system.  The best feasible candidate of a convex QP is the optimum.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K
    best = np.inf
    best_alpha = None
    for assignment in itertools.product((0, 1, 2), repeat=n):
        alpha = np.zeros(n)
        free = [i for i, a in enumerate(assignment) if a == 2]
        for i, a in enumerate(assignment):
            if a == 1:
                alpha[i] = C
        if free:
            F = np.array(free)
            B = np.array([i for i in range(n) if i not in free], dtype=int)
            A = np.zeros((len(F) + 1, len(F) + 1))
            A[: len(F), : len(F)] = Q[np.ix_(F, F)]
            A[: len(F), -1] = y[F]
            A[-1, : len(F)] = y[F]
            rhs = np.ones(len(F) + 1)
            if len(B):
                rhs[: len(F)] = 1.0 - Q[np.ix_(F, B)] @ alpha[B]
                rhs[-1] = -y[B] @ alpha[B]
            else:
                rhs[-1] = 0.0
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.linalg.norm(A @ sol - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
                continue
            alpha[F] = sol[:-1]
            if (alpha[F] < -1e-9).any() or (alpha[F] > C + 1e-9).any():
                continue
        if abs(y @ alpha) > 1e-9:
            continue
        obj = 0.5 * alpha @ Q @ alpha - alpha.sum()
        if obj < best:
            best = obj
            best_alpha = alpha
    return best, best_alpha


def reference_smo_solve(K, y, C: float, tol: float = 1e-3, max_iter: int = 200000):
    """Maximal-violating-pair SMO in the unsigned variables alpha, with one
    update per label-sign case; returns (alpha, b, iterations).  The
    library's signed-variable solver must reproduce it bit for bit."""
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
    b = reference_bias(alpha, y, G, C)
    return alpha, b, iterations


def reference_bias(alpha, y, G, C):
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


class TestSmoCore:
    def test_two_symmetric_points_analytic(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        K = X @ X.T
        alpha, b, _ = smo_solve(K, y, C=1000.0, tol=1e-6)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-9)
        assert b == pytest.approx(0.0, abs=1e-9)
        w = (alpha * y) @ X
        assert w[0] == pytest.approx(1.0, abs=1e-9)

    def test_linearly_separable_zero_training_error(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(3, 0.5, (20, 2)), rng.normal(-3, 0.5, (20, 2))])
        labels = ["A"] * 20 + ["B"] * 20
        model = train_svm(X, labels)
        preds, _ = predict(model, X)
        assert preds == labels

    def test_xor_converges_with_error(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        K = X @ X.T
        alpha, b, _ = smo_solve(K, y, C=1.0, tol=1e-4)
        assert kkt_violation(K, y, alpha, 1.0) <= 1e-4
        expected, _ = qp_oracle(K, y, 1.0)
        assert dual_objective(K, y, alpha) == pytest.approx(expected, abs=1e-6)
        # a linear separator cannot shatter XOR
        w = (alpha * y) @ X
        preds = np.sign(X @ w + b)
        preds[preds == 0] = 1.0
        assert (preds != y).any()

    def test_matches_exact_qp_on_random_small_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 7))
            X = rng.normal(size=(n, 2))
            y = np.ones(n)
            y[rng.permutation(n)[: n // 2]] = -1.0
            if (y > 0).all() or (y < 0).all():
                y[0] = -y[0]
            C = float(rng.choice([0.5, 1.0, 5.0]))
            K = X @ X.T
            alpha, _, _ = smo_solve(K, y, C, tol=1e-8)
            expected, _ = qp_oracle(K, y, C)
            assert dual_objective(K, y, alpha) == pytest.approx(expected, abs=1e-6)

    def test_kkt_residual_on_random_200_points(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 10))
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        K = X @ X.T
        alpha, _, _ = smo_solve(K, y, C=1.0, tol=1e-3)
        assert kkt_violation(K, y, alpha, 1.0) <= 1e-3
        assert (alpha >= -1e-12).all() and (alpha <= 1.0 + 1e-12).all()
        assert abs(y @ alpha) < 1e-9

    def test_dual_feasibility_and_monotone_objective_each_iteration(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        K = X @ X.T
        C = 1.0
        objectives = []
        # re-run the solver with increasing iteration caps to observe the
        # trajectory through an independent lens
        for cap in range(1, 40):
            alpha, _, _ = smo_solve(K, y, C, tol=0.0, max_iter=cap)
            assert (alpha >= -1e-12).all() and (alpha <= C + 1e-12).all()
            assert abs(y @ alpha) < 1e-9
            objectives.append(dual_objective(K, y, alpha))
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur <= prev + 1e-12

    def test_model_reports_iterations_and_cap(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        labels = ["A" if v else "B" for v in rng.random(40) < 0.5]
        model = train_svm(X, labels)
        assert 1 < model.iterations < 200000
        Xs = scale_apply(X, model.mins, model.maxs)
        y = np.where(np.array(labels) == model.pos_label, 1.0, -1.0)
        assert smo_solve(Xs @ Xs.T, y, SVM_C)[2] == model.iterations
        assert smo_solve(Xs @ Xs.T, y, SVM_C, max_iter=1)[2] == 1

    def test_matches_reference_smo(self):
        rng = np.random.default_rng(31)
        capped_without_free = 0
        for case in range(1200):
            max_iter = int(rng.choice([1, 2, 5, 50, 200000]))
            asymmetric = case % 40 == 1
            if asymmetric:
                max_iter = min(max_iter, 50)
            if max_iter < 200000:
                C = float(rng.choice([0.01, 0.1, 1.0, 10.0, 1000.0]))
                tol = float(rng.choice([0.0, 1e-8, 1e-3]))
                n = int(rng.integers(2, 61))
            else:
                # solves to convergence: C = 1000 or tol = 0 can take the
                # whole default cap, and C = 10 thousands of iterations
                C = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
                tol = float(rng.choice([1e-8, 1e-3]))
                n = int(rng.integers(2, 21 if C == 10.0 else 61))
            X = rng.normal(size=(n, int(rng.integers(1, 6))))
            if case % 3 == 0:
                X = np.round(X)  # tied gradients and all-zero kernel rows
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[rng.choice(n, 2, replace=False)] = (1.0, -1.0)
            K = X @ X.T
            if asymmetric:
                K += 0.1 * rng.normal(size=K.shape)
            kwargs = {} if max_iter == 200000 else {"max_iter": max_iter}
            alpha, b, iterations = smo_solve(K, y, C, tol, **kwargs)
            ref_alpha, ref_b, ref_iterations = reference_smo_solve(K, y, C, tol, **kwargs)
            assert np.array_equal(alpha, ref_alpha), case
            assert b == ref_b, case
            assert iterations == ref_iterations, case
            if iterations == max_iter and not ((alpha > _EPS) & (alpha < C - _EPS)).any():
                capped_without_free += 1
        assert capped_without_free > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_smo_at_style_size(self, seed):
        # the stylometry problem's shape: ~200 chunks, 240 min-max scaled
        # relative frequencies with ties and never-seen features, C = 1
        rng = np.random.default_rng(100 + seed)
        n, d = int(rng.integers(190, 216)), 240
        y = np.where(rng.permutation(n) % 2 == 0, 1.0, -1.0)
        rates = rng.gamma(0.5, 1.0, size=d) * (rng.random(d) < 0.9)
        signal = np.where(y[:, None] > 0, 1.0 + 0.3 * rng.normal(size=d), 1.0)
        X = rng.poisson(5.0 * rates * np.clip(signal, 0.0, None)) / 50.0
        mins, maxs = scale_fit(X)
        Xs = scale_apply(X, mins, maxs)
        K = Xs @ Xs.T
        alpha, b, iterations = smo_solve(K, y, 1.0, 1e-3)
        ref_alpha, ref_b, ref_iterations = reference_smo_solve(K, y, 1.0, 1e-3)
        assert np.array_equal(alpha, ref_alpha)
        assert (b, iterations) == (ref_b, ref_iterations)
        assert 100 < iterations < 200000

    @pytest.mark.parametrize("K, y, C", [
        # a step from the corner beta_i + beta_j = B_i + A_j whose rounding
        # crosses one bound but not the other: y_i = y_j = +1 ...
        ([[-0.25, 0.9999999999999991, -0.75],
          [-2.0, -1.9999999999999973, -0.75],
          [-1.75, 1.75, -0.2499999999999991]], [1.0, -1.0, 1.0], 2.0),
        # ... and y_i = y_j = -1 (found by random search over such K)
        ([[0.25, -0.7499999999999991, 1.0000000000000009, 1.25],
          [-2.0, 0.5, -2.0, 1.25],
          [1.4999999999999991, -2.0000000000000027, 1.5, 1.75],
          [0.75, 0.75, -0.5, 0.75]], [1.0, -1.0, -1.0, 1.0], 2.0),
    ])
    def test_matches_reference_smo_on_box_corner(self, K, y, C):
        K, y = np.array(K), np.array(y)
        for max_iter in (3, 4, 8):
            alpha, b, iterations = smo_solve(K, y, C, 0.0, max_iter)
            ref_alpha, ref_b, ref_iterations = reference_smo_solve(K, y, C, 0.0, max_iter)
            assert np.array_equal(alpha, ref_alpha)
            assert (b, iterations) == (ref_b, ref_iterations)

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_nonpositive_C_rejected(self, C):
        X = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        with pytest.raises(ValueError, match="C must be > 0"):
            smo_solve(X @ X.T, np.array([1.0, -1.0, 1.0, -1.0]), C)

    def test_negative_tol_rejected(self):
        X = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        with pytest.raises(ValueError, match="tol must be >= 0"):
            smo_solve(X @ X.T, np.array([1.0, -1.0, 1.0, -1.0]), 1.0, tol=-1e-3)

    def test_zero_max_iter_rejected(self):
        X = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            smo_solve(X @ X.T, np.array([1.0, -1.0, 1.0, -1.0]), 1.0, max_iter=0)


class TestPredict:
    def test_margin_zero_goes_to_positive_class(self):
        X = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        labels = ["A", "B", "A", "B"]
        model = train_svm(X, labels)
        # model.pos_label is the lexicographically first class
        assert model.pos_label == "A"
        mid = np.array([[(model.mins[0] + model.maxs[0]) / 2]])
        [label], [margin] = predict(model, mid)
        assert abs(margin) < 1e-6
        assert label == "A"
        # scaled rows 0.5 and 0.25 sit exactly on and below w.x + b = 0
        exact = SvmModel(np.array([2.0]), -1.0, np.array([0.0]), np.array([4.0]), "A", "B")
        labels, margins = predict(exact, np.array([[2.0], [1.0]]))
        assert margins.tolist() == [0.0, -0.5]
        assert labels == ["A", "B"]

    def test_batched_labels_match_per_row_rule(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        labels = ["A" if x[0] - 0.5 * x[2] > 0 else "B" for x in X]
        model = train_svm(X, labels)
        predicted, margins = predict(model, X)
        for x, label, margin in zip(X, predicted, margins):
            row = float(model.w @ scale_apply(x[None, :], model.mins, model.maxs)[0] + model.b)
            assert margin == pytest.approx(row, abs=1e-12)
            assert label == ("A" if row >= 0 else "B")

    def test_free_support_vectors_sit_on_margin(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(2, 1.0, (30, 2)), rng.normal(-2, 1.0, (30, 2))])
        labels = ["A"] * 30 + ["B"] * 30
        model = train_svm(X, labels)
        Xs = scale_apply(X, model.mins, model.maxs)
        y = np.where(np.array(labels) == model.pos_label, 1.0, -1.0)
        alpha, _, _ = smo_solve(Xs @ Xs.T, y, SVM_C)
        np.testing.assert_array_equal((alpha * y) @ Xs, model.w)
        free = (alpha > 1e-8) & (alpha < 1.0 - 1e-8)
        assert free.any()
        margins = Xs @ model.w + model.b
        np.testing.assert_allclose(np.abs(margins[free]), 1.0, atol=1e-3)

    def test_dimension_mismatch(self):
        model = train_svm(np.array([[1.0], [-1.0]]), ["A", "B"])
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(model, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(model, np.array([1.0]))

    def test_sign_invariance_under_rescaling(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        labels = ["A" if x[0] + 0.2 * x[1] > 0 else "B" for x in X]
        model = train_svm(X, labels)
        scaled_w = 3.7 * model.w
        scaled_b = 3.7 * model.b
        for x in X:
            xs = scale_apply(x[None, :], model.mins, model.maxs)[0]
            assert np.sign(model.w @ xs + model.b) == np.sign(scaled_w @ xs + scaled_b)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            train_svm(np.array([[np.nan], [1.0]]), ["A", "B"])


class TestBalance:
    def test_downsample_to_minority(self):
        items = [f"m{i}" for i in range(500)] + [f"f{i}" for i in range(370)]
        labels = ["M"] * 500 + ["F"] * 370
        out_items, out_labels = balance_classes(items, labels, seed=1)
        assert out_labels.count("M") == 370
        assert out_labels.count("F") == 370

    def test_balanced_input_unchanged_modulo_shuffle(self):
        items = list(range(10))
        labels = ["M"] * 5 + ["F"] * 5
        out_items, out_labels = balance_classes(items, labels, seed=2)
        assert sorted(out_items) == items
        assert sorted(out_labels) == sorted(labels)

    def test_seed_determinism(self):
        items = list(range(100))
        labels = ["M"] * 60 + ["F"] * 40
        a = balance_classes(items, labels, seed=9)
        b = balance_classes(items, labels, seed=9)
        assert a == b

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            balance_classes([1, 2], ["M", "M"], seed=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="5 items but 3 labels"):
            balance_classes([1, 2, 3, 4, 5], ["M", "F", "M"], seed=0)


class TestCrossValidate:
    def test_perfectly_separable_is_100(self):
        rng = np.random.default_rng(13)
        X = np.vstack([rng.normal(4, 0.3, (30, 2)), rng.normal(-4, 0.3, (30, 2))])
        labels = ["M"] * 30 + ["F"] * 30
        report = cross_validate(X, labels, folds=10, seed=0)
        assert report.accuracy == pytest.approx(100.0)

    def test_shuffled_labels_near_chance(self):
        # permutation oracle: with labels detached from the data, accuracy
        # should hover around 50% over many seeds
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        accs = []
        for seed in range(20):
            labels = ["M"] * 30 + ["F"] * 30
            perm_rng = random.Random(seed)
            perm_rng.shuffle(labels)
            report = cross_validate(X, labels, folds=5, seed=seed)
            accs.append(report.accuracy)
        assert 40.0 <= np.mean(accs) <= 60.0

    def test_fold_sizes_370_per_class(self):
        labels = ["M"] * 370 + ["F"] * 370
        assignment = stratified_folds(labels, folds=10, seed=3)
        for fold in range(10):
            in_fold = [l for l, a in zip(labels, assignment) if a == fold]
            assert in_fold.count("M") == 37
            assert in_fold.count("F") == 37

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        labels = (["M"] * 20) + (["F"] * 20)
        a = cross_validate(X, labels, folds=4, seed=5)
        b = cross_validate(X, labels, folds=4, seed=5)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.accuracy == b.accuracy

    def test_pooled_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(40, 3))
        labels = ["M" if x[0] > 0 else "F" for x in X]
        if labels.count("M") < 4 or labels.count("F") < 4:
            pytest.skip("degenerate draw")
        report = cross_validate(X, labels, folds=4, seed=1)
        assert report.accuracy == pytest.approx(
            100.0 * np.trace(report.confusion) / report.confusion.sum()
        )

    def test_too_few_folds(self):
        with pytest.raises(ValueError):
            cross_validate(np.zeros((4, 1)), ["M", "M", "F", "F"], folds=1)

    @pytest.mark.parametrize("n_labels", [19, 21])
    def test_label_count_must_match_rows(self, n_labels):
        labels = (["M", "F"] * 11)[:n_labels]
        with pytest.raises(ValueError, match=f"20 rows but {n_labels} labels"):
            cross_validate(np.zeros((20, 2)), labels, folds=2)


class TestReportsAndHelpers:
    def test_vectors_to_matrix(self):
        vecs = [
            FeatureVector(np.array([0.5, 0.0, 0.25]), "M"),
            FeatureVector(np.array([0.0, 1.0, 1 / 3]), "F"),
        ]
        X, labels = vectors_to_matrix(vecs, 3)
        assert np.array_equal(X, [[0.5, 0.0, 0.25], [0.0, 1.0, 1 / 3]])
        assert labels == ["M", "F"]
        X, labels = vectors_to_matrix([], 3)
        assert X.shape == (0, 3) and labels == []

    @pytest.mark.parametrize("row", [np.zeros(2), np.zeros(4), np.zeros((1, 3))])
    def test_vectors_to_matrix_refuses_row_of_wrong_shape(self, row):
        vecs = [FeatureVector(np.zeros(3), "M"), FeatureVector(row, "F")]
        with pytest.raises(ValueError, match=r"feature row of shape .*expected \(3,\)"):
            vectors_to_matrix(vecs, 3)

    def test_scaling_round_trip(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(10, 4)) * 7 + 3
        mins, maxs = scale_fit(X)
        Xs = scale_apply(X, mins, maxs)
        assert Xs.min() >= -1e-12 and Xs.max() <= 1 + 1e-12
