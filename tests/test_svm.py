import json
import math

import numpy as np
import pytest

from conftest import make_blobs
from entropic.errors import TrainingError
from entropic.svm import (
    KernelSpec,
    LabeledPoint,
    SvmModel,
    _sorted_classes,
    _stack,
    accuracy,
    decision_value,
    kernel_eval,
    kernel_matrix,
    kfold_cross_validate,
    select_best_kernel,
    train_binary,
    train_multiclass,
)


def points_from(X, labels):
    return [LabeledPoint(x, lab) for x, lab in zip(X, labels)]


TWO_POINTS = [LabeledPoint(np.array([-1.0]), "A"), LabeledPoint(np.array([1.0]), "B")]


class TestKernelEval:
    def test_linear_dot(self):
        assert kernel_eval(KernelSpec("linear"), [1, 2], [3, 4]) == 11.0

    def test_polynomial(self):
        spec = KernelSpec("polynomial", degree=2, offset=1.0)
        assert kernel_eval(spec, [1, 0], [0, 1]) == 1.0

    def test_gaussian_at_zero_distance(self):
        spec = KernelSpec("gaussian", sigma=1.0)
        assert kernel_eval(spec, [1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(TrainingError):
            kernel_eval(KernelSpec("linear"), [1, 2], [1, 2, 3])

    def test_invalid_specs(self):
        with pytest.raises(TrainingError):
            KernelSpec("sigmoid")
        with pytest.raises(TrainingError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(TrainingError):
            KernelSpec("gaussian", sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(TrainingError, match="finite"):
            KernelSpec("gaussian", sigma=sigma)


def kkt_residuals(model, data, C, tol):
    """Check every point against the soft-margin KKT conditions."""
    X = np.stack([p.features for p in data])
    neg, pos = model.class_pair
    y = np.array([-1.0 if p.label == neg else 1.0 for p in data])
    f = model.decision_values(X)
    # Recover the raw multipliers a_i = |signed alpha| per training point.
    alpha = np.zeros(len(data))
    sv_rows = {tuple(sv): a for sv, a in zip(model.support_vectors, model.alpha)}
    for i, p in enumerate(data):
        alpha[i] = abs(sv_rows.get(tuple(p.features), 0.0))
    ok = True
    for a, yi, fi in zip(alpha, y, f):
        margin = yi * fi
        if a <= 1e-9:
            ok &= margin >= 1 - tol - 1e-6
        elif a >= C - 1e-9:
            ok &= margin <= 1 + tol + 1e-6
        else:
            ok &= abs(margin - 1) <= tol + 1e-6
    return ok


class TestTrainBinary:
    def test_symmetric_two_point_problem(self):
        m = train_binary(TWO_POINTS, KernelSpec("linear"), C=10.0)
        assert m.bias == pytest.approx(0.0, abs=1e-6)
        assert decision_value(m, [0.0]) == pytest.approx(0.0, abs=1e-6)
        assert decision_value(m, [2.0]) > 0

    def test_separable_blobs_perfect_training_accuracy(self):
        X, labels = make_blobs(seed=0)
        data = points_from(X, labels)
        tol = 1e-3
        m = train_binary(data, KernelSpec("linear"), C=10.0, tol=tol)
        assert accuracy(m.predict(X), labels) == 1.0
        assert kkt_residuals(m, data, C=10.0, tol=tol)

    def test_dual_feasibility(self):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))  # overlapping
        for C in (0.1, 1.0, 10.0):
            m = train_binary(points_from(X, labels), KernelSpec("gaussian", sigma=1.0), C=C)
            assert abs(m.alpha.sum()) <= 1e-8 * C + 1e-12
            assert np.all(np.abs(m.alpha) <= C + 1e-12)

    def test_degenerate_identical_features(self):
        data = [LabeledPoint(np.array([1.0, 1.0]), "A" if i < 5 else "B") for i in range(8)]
        m = train_binary(data, KernelSpec("linear"), C=1.0)
        X = np.stack([p.features for p in data])
        acc = accuracy(m.predict(X), [p.label for p in data])
        assert acc <= 0.5 + abs(5 - 3) / 8

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_binary([LabeledPoint(np.array([0.0]), "A")] * 3, KernelSpec("linear"))

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            train_binary([], KernelSpec("linear"))

    @pytest.mark.parametrize("param", [{"C": math.nan}, {"C": math.inf}, {"tol": math.nan}, {"tol": math.inf}])
    def test_non_finite_parameter_rejected(self, param):
        with pytest.raises(TrainingError, match="finite"):
            train_binary(TWO_POINTS, KernelSpec("linear"), **param)

    def test_overflowing_gram_matrix_rejected(self):
        data = [LabeledPoint(np.array([v * 1e110]), lab)
                for v, lab in ((1.0, "A"), (2.0, "A"), (-1.0, "B"), (-2.0, "B"))]
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="polynomial"):
            train_binary(data, KernelSpec("polynomial", degree=3))

    def test_order_permutation_does_not_change_predictions(self):
        X, labels = make_blobs(seed=2)
        data = points_from(X, labels)
        rng = np.random.default_rng(0)
        test = rng.normal(2.0, 2.0, (50, 2))
        base = train_binary(data, KernelSpec("linear"), C=10.0).predict(test)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(data))
            shuffled = [data[i] for i in perm]
            assert train_binary(shuffled, KernelSpec("linear"), C=10.0).predict(test) == base


    def test_separable_blobs_converge(self):
        X, labels = make_blobs(seed=0)
        m = train_binary(points_from(X, labels), KernelSpec("linear"), C=10.0, tol=1e-3)
        assert m.converged
        assert m.kkt_gap <= 1e-3
        assert m.iterations > 0

    def test_iteration_cap_is_reported(self):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))  # overlapping
        m = train_binary(points_from(X, labels), KernelSpec("linear"), C=10.0, max_iter=1)
        assert m.iterations == 1
        assert m.converged is False
        assert m.kkt_gap > 1e-3


def reference_train_binary(data, kernel, C=1.0, tol=1e-3, max_iter=None) -> SvmModel:
    """The SMO loop as it was before its per-iteration cost was cut, kept verbatim.

    Every step is a NumPy call: the masks are rebuilt from alpha, and the
    scalars are NumPy scalars. train_binary must return bit-identical models.
    """
    X, labels = _stack(data)
    classes = _sorted_classes(labels)
    neg, pos = classes
    y = np.array([-1.0 if lab == neg else 1.0 for lab in labels])

    n = len(y)
    if max_iter is None:
        max_iter = min(10 * n * n, 200_000)
    K = kernel_matrix(kernel, X, X)

    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    eps = 1e-12 * C

    up = np.empty(n, dtype=bool)
    low = np.empty(n, dtype=bool)
    gap_lo = -math.inf
    gap_hi = math.inf
    for _ in range(max_iter):
        np.logical_or((y > 0) & (alpha < C - eps), (y < 0) & (alpha > eps), out=up)
        np.logical_or((y > 0) & (alpha > eps), (y < 0) & (alpha < C - eps), out=low)
        viol = y - f  # -y_i * gradient_i
        up_vals = np.where(up, viol, -np.inf)
        low_vals = np.where(low, viol, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        gap_lo, gap_hi = low_vals[j], up_vals[i]
        if gap_hi - gap_lo <= tol:
            break

        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 0:
            eta = 1e-12
        # Errors relative to targets; the bias cancels in the difference.
        e_diff = (f[i] - y[i]) - (f[j] - y[j])
        if y[i] != y[j]:
            lo_b = max(0.0, alpha[j] - alpha[i])
            hi_b = min(C, C + alpha[j] - alpha[i])
        else:
            lo_b = max(0.0, alpha[i] + alpha[j] - C)
            hi_b = min(C, alpha[i] + alpha[j])
        aj_new = np.clip(alpha[j] + y[j] * e_diff / eta, lo_b, hi_b)
        dj = aj_new - alpha[j]
        if dj == 0.0:
            break  # numerically stuck on the most violating pair
        ai_new = alpha[i] + y[i] * y[j] * (alpha[j] - aj_new)
        di = ai_new - alpha[i]
        alpha[i] = ai_new
        alpha[j] = aj_new
        f += (di * y[i]) * K[:, i] + (dj * y[j]) * K[:, j]

    free = (alpha > eps) & (alpha < C - eps)
    if np.any(free):
        bias = float(np.mean(y[free] - f[free]))
    elif math.isfinite(gap_lo) and math.isfinite(gap_hi):
        bias = float((gap_lo + gap_hi) / 2.0)
    else:
        bias = 0.0

    keep = alpha > 0.0
    return SvmModel(
        support_vectors=X[keep],
        alpha=alpha[keep] * y[keep],
        bias=bias,
        kernel=kernel,
        class_pair=(neg, pos),
    )


def bit_identity_cases():
    """About 40 seeded problems: every kernel family and C, plus hard corners."""
    kernels = [KernelSpec("linear"), KernelSpec("polynomial", degree=2, offset=1.0),
               KernelSpec("polynomial", degree=3, offset=0.0), KernelSpec("gaussian", sigma=0.7)]
    cases = []
    for seed in range(32):
        rng = np.random.default_rng([seed, 17])
        n = int(rng.integers(6, 15))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        labels = ["A", "B"] + ["A" if v < 0.5 else "B" for v in rng.uniform(size=n - 2)]
        X[labels.index("B") if seed % 2 else 0] += 1.0
        C = (0.1, 1.0, 100.0, 1000.0)[seed % 4]
        cases.append((f"random{seed}", points_from(X, labels), kernels[seed // 8], C, None))
    x = np.random.default_rng(5).normal(size=14)
    one_d = points_from(x[:, None] + np.repeat([0.0, 0.5], 7)[:, None], ["A"] * 7 + ["B"] * 7)
    cases.append(("1d_overlap_high_C", one_d, KernelSpec("linear"), 1000.0, None))
    cases.append(("1d_overlap_gaussian", one_d, KernelSpec("gaussian", sigma=0.3), 100.0, None))
    X, labels = make_blobs(seed=14, n_per_class=6, centers=((0.0, 0.0), (0.8, 0.8)))
    X[6:9] = X[0]  # the same point under both labels
    X[3] = X[2]
    cases.append(("duplicates", points_from(X, labels), KernelSpec("linear"), 10.0, None))
    X, labels = make_blobs(seed=15, n_per_class=8, centers=((0.0, 0.0), (0.5, 0.5)))
    for cap in (0, 1, 5, 40):
        cases.append((f"max_iter{cap}", points_from(X, labels), KernelSpec("gaussian", sigma=1.0),
                      100.0, cap))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("data,kernel,C,max_iter", bit_identity_cases())
def test_train_binary_is_bit_identical_to_reference(data, kernel, C, max_iter):
    got = train_binary(data, kernel, C=C, max_iter=max_iter)
    want = reference_train_binary(data, kernel, C=C, max_iter=max_iter)
    assert np.array_equal(got.alpha, want.alpha)
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert got.bias == want.bias


class TestDecisionValue:
    def test_no_support_vectors_returns_bias(self):
        m = SvmModel(
            support_vectors=np.empty((0, 2)),
            alpha=np.empty(0),
            bias=1.5,
            kernel=KernelSpec("linear"),
            class_pair=("A", "B"),
        )
        assert decision_value(m, [3.0, 4.0]) == 1.5

    def test_label_flip_negates_decision(self):
        X, labels = make_blobs(seed=3)
        m = train_binary(points_from(X, labels), KernelSpec("linear"), C=10.0)
        flipped = SvmModel(
            support_vectors=m.support_vectors,
            alpha=-m.alpha,
            bias=-m.bias,
            kernel=m.kernel,
            class_pair=(m.class_pair[1], m.class_pair[0]),
        )
        v = np.array([1.0, 2.0])
        assert decision_value(flipped, v) == pytest.approx(-decision_value(m, v))

    def test_dimension_mismatch(self):
        m = train_binary(TWO_POINTS, KernelSpec("linear"), C=1.0)
        with pytest.raises(TrainingError):
            decision_value(m, [1.0, 2.0])


class TestMulticlass:
    def test_two_classes_reduce_to_binary(self):
        X, labels = make_blobs(seed=4)
        data = points_from(X, labels)
        binary = train_binary(data, KernelSpec("linear"), C=10.0)
        multi = train_multiclass(data, KernelSpec("linear"), C=10.0)
        test = np.random.default_rng(1).normal(2.0, 3.0, (80, 2))
        assert multi.predict(test) == binary.predict(test)

    def test_three_blobs_full_accuracy(self):
        X, labels = make_blobs(seed=5, centers=((0, 0), (5, 0), (0, 5)))
        multi = train_multiclass(points_from(X, labels), KernelSpec("linear"), C=10.0)
        assert len(multi.models) == 3
        assert accuracy(multi.predict(X), labels) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_multiclass([LabeledPoint(np.array([0.0]), "A")] * 4, KernelSpec("linear"))

    def test_gaussian_rescaling_keeps_predictions(self):
        X, labels = make_blobs(seed=6, n_per_class=30)
        data = points_from(X, labels)
        test = np.random.default_rng(2).normal(2.0, 3.0, (200, 2))
        base = train_binary(data, KernelSpec("gaussian", sigma=2.0), C=10.0).predict(test)
        scaled_kernel = KernelSpec("gaussian", sigma=2.0, scale=7.3)
        scaled = train_binary(data, scaled_kernel, C=10.0).predict(test)
        assert scaled == base


class TestAccuracy:
    def test_two_thirds(self):
        assert accuracy([1, 1, 0], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_identical_is_one(self):
        assert accuracy(["x", "y"], ["x", "y"]) == 1.0

    def test_disjoint_is_zero(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(TrainingError):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(TrainingError):
            accuracy([], [])


class TestKfold:
    def test_separable_mean_one(self):
        X, labels = make_blobs(seed=7)
        result = kfold_cross_validate(points_from(X, labels), KernelSpec("linear"), C=10.0, k=4, seed=0)
        assert result.mean_accuracy == 1.0
        assert result.stratified

    def test_leave_one_out_fold_count(self):
        X, labels = make_blobs(seed=8, n_per_class=6)
        result = kfold_cross_validate(points_from(X, labels), KernelSpec("linear"), C=10.0, k=12, seed=0)
        assert len(result.fold_accuracies) == 12

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 2))
        labels = ["A" if v < 0.5 else "B" for v in rng.uniform(size=200)]
        result = kfold_cross_validate(points_from(X, labels), KernelSpec("linear"), C=1.0, k=5, seed=0)
        assert abs(result.mean_accuracy - 0.5) <= 0.12

    def test_tiny_class_degrades_to_unstratified(self):
        X, labels = make_blobs(seed=10, n_per_class=10)
        data = points_from(X, labels) + [LabeledPoint(np.array([9.0, 9.0]), "A")]
        # class census: A=11, B=10, plus a singleton class C
        data.append(LabeledPoint(np.array([-9.0, -9.0]), "C"))
        data.append(LabeledPoint(np.array([-9.0, -8.0]), "C"))
        labels3 = [p.label for p in data]
        from entropic.svm import stratified_folds

        folds, stratified = stratified_folds(labels3, k=3, seed=0)
        assert stratified  # two C points is still enough
        data.append(LabeledPoint(np.array([-9.0, -7.0]), "D"))
        folds, stratified = stratified_folds([p.label for p in data], k=3, seed=0)
        assert not stratified  # singleton class D

    def test_k_larger_than_dataset_rejected(self):
        with pytest.raises(TrainingError):
            kfold_cross_validate(TWO_POINTS, KernelSpec("linear"), k=3)


class TestSelectBestKernel:
    def test_xor_prefers_polynomial(self):
        rng = np.random.default_rng(11)
        centers = [((0, 0), "A"), ((1, 1), "A"), ((0, 1), "B"), ((1, 0), "B")]
        X, labels = [], []
        for (cx, cy), lab in centers:
            X.append(rng.normal((cx, cy), 0.08, (15, 2)))
            labels.extend([lab] * 15)
        data = points_from(np.vstack(X), labels)
        result = select_best_kernel(
            data,
            kernels=[KernelSpec("linear"), KernelSpec("polynomial", degree=2, offset=1.0)],
            Cs=(10.0,),
            k=4,
            seed=0,
        )
        assert result.kernel.family == "polynomial"

    def test_single_cell_grid(self):
        result = select_best_kernel(
            TWO_POINTS * 3, kernels=[KernelSpec("linear")], Cs=(1.0,), k=2, seed=0
        )
        assert result.kernel.family == "linear"
        assert len(result.table) == 1

    def test_linear_wins_ties_on_separable_data(self):
        X, labels = make_blobs(seed=12)
        result = select_best_kernel(points_from(X, labels), Cs=(10.0,), k=3, seed=0)
        assert result.mean_accuracy == 1.0
        assert result.kernel.family == "linear"  # first in grid order among ties

    def test_empty_grid_rejected(self):
        with pytest.raises(TrainingError):
            select_best_kernel(TWO_POINTS * 3, kernels=[], Cs=(1.0,))


class TestModelSerialization:
    def test_round_trip_decision_values(self):
        X, labels = make_blobs(seed=13)
        m = train_binary(points_from(X, labels), KernelSpec("gaussian", sigma=1.7), C=3.0)
        assert set(json.loads(m.to_json())) == {
            "version", "kernel", "support_vectors", "alpha", "bias", "class_pair"}
        restored = SvmModel.from_json(m.to_json())
        test = np.random.default_rng(3).normal(2.0, 3.0, (40, 2))
        assert np.allclose(m.decision_values(test), restored.decision_values(test), atol=1e-12)
        assert restored.class_pair == m.class_pair

    def test_version_check(self):
        m = train_binary(TWO_POINTS, KernelSpec("linear"), C=1.0)
        doc = m.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(TrainingError):
            SvmModel.from_json(doc)
