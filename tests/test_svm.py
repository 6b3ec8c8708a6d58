import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import make_blobs, scaled_kernel
from entropic.dataset import audio_columns
from entropic.errors import TrainingError
from entropic import svm
from entropic.svm import (
    DEFAULT_C_GRID,
    KernelSpec,
    LabeledPoint,
    SvmModel,
    _sorted_classes,
    _stack,
    accuracy,
    default_kernel_grid,
    kernel_matrix,
    kfold_cross_validate,
    select_best_kernel,
    stratified_folds,
    stratified_split,
    train_binary,
    train_multiclass,
)


def points_from(X, labels):
    return [LabeledPoint(x, lab) for x, lab in zip(X, labels)]


TWO_POINTS = [LabeledPoint(np.array([-1.0]), "A"), LabeledPoint(np.array([1.0]), "B")]


class TestKernelEval:
    def test_linear_dot(self):
        assert kernel_matrix(KernelSpec("linear"), [[1, 2]], [[3, 4]])[0, 0] == 11.0

    def test_polynomial(self):
        spec = KernelSpec("polynomial", degree=2, offset=1.0)
        assert kernel_matrix(spec, [[1, 0]], [[0, 1]])[0, 0] == 1.0

    def test_gaussian_at_zero_distance(self):
        spec = KernelSpec("gaussian", sigma=1.0)
        assert kernel_matrix(spec, [[1.0, 2.0]], [[1.0, 2.0]])[0, 0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(TrainingError):
            kernel_matrix(KernelSpec("linear"), [[1, 2]], [[1, 2, 3]])

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
        assert m.decision_values([0.0])[0] == pytest.approx(0.0, abs=1e-6)
        assert m.decision_values([2.0])[0] > 0

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


def recovered_kkt_gap(model, data, C):
    """The KKT gap of a binary model on its training points, from the model
    alone: each support vector, in order, is matched to the next training
    point with its features and label sign."""
    X = np.stack([p.features for p in data])
    neg, _ = model.class_pair
    y = np.array([-1.0 if p.label == neg else 1.0 for p in data])
    alpha = np.zeros(len(y))
    sv = iter(zip(model.support_vectors, model.alpha))
    pending = next(sv, None)
    for i in range(len(y)):
        if pending is not None and np.sign(pending[1]) == y[i] and np.array_equal(pending[0], X[i]):
            alpha[i] = abs(pending[1])
            pending = next(sv, None)
    assert pending is None, "a support vector is not a training point"
    assert np.all(alpha <= C * (1 + 1e-12)) and abs(alpha @ y) <= 1e-9 * C
    viol = y - (model.decision_values(X) - model.bias)
    eps = 1e-12 * C
    up = np.where(y > 0, alpha < C - eps, alpha > eps)
    low = np.where(y > 0, alpha > eps, alpha < C - eps)
    return float(viol[up].max() - viol[low].min()) if up.any() and low.any() else 0.0


def warm_start_problems():
    """Seeded two-class problems of 8-30 points, every kernel family."""
    kernels = [KernelSpec("linear"), KernelSpec("polynomial", degree=2, offset=1.0),
               KernelSpec("polynomial", degree=3, offset=0.0), KernelSpec("gaussian", sigma=0.5)]
    problems = []
    for seed in range(24):
        rng = np.random.default_rng([seed, 23])
        n = int(rng.integers(8, 31))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        labels = ["A", "B"] + list(rng.choice(["A", "B"], n - 2))
        X[np.array(labels) == "B"] += rng.uniform(0.0, 1.5)
        problems.append((points_from(X, labels), kernels[seed % 4]))
    return problems


class TestWarmStart:
    def test_every_fit_along_a_grid_meets_kkt_at_tol(self):
        tol = 1e-3
        converged = 0
        for data, kernel in warm_start_problems():
            models = svm._binary_path(data, kernel, DEFAULT_C_GRID, tol)
            for C, model in zip(DEFAULT_C_GRID, models):
                gap = recovered_kkt_gap(model, data, C)
                assert gap == pytest.approx(model.kkt_gap, abs=1e-9)
                if model.converged:
                    assert gap <= tol + 1e-9
                    converged += 1
                else:  # only where the cold fit fails too, and after the whole budget
                    assert model.iterations == min(10 * len(data) ** 2, 200_000)
                    assert not train_binary(data, kernel, C=C, tol=tol).converged
        assert converged >= 85  # of 96 fits

    def test_start_meeting_tol_returns_its_alphas(self):
        X, labels = make_blobs(seed=0)  # separable: no alpha reaches C = 10
        data = points_from(X, labels)
        cold = train_binary(data, KernelSpec("linear"), C=10.0)
        assert cold.iterations > 0 and cold.dual.max() < 10.0
        for C in (10.0, 100.0):
            warm = train_binary(data, KernelSpec("linear"), C=C, start=cold)
            assert warm.iterations == 0
            assert warm.dual.view(np.int64).tolist() == cold.dual.view(np.int64).tolist()
            assert warm.alpha.view(np.int64).tolist() == cold.alpha.view(np.int64).tolist()
            assert warm.bias == cold.bias

    def test_start_is_not_changed(self):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))  # overlapping
        data = points_from(X, labels)
        start = train_binary(data, KernelSpec("linear"), C=0.1)
        dual, f = start.dual.copy(), start.f.copy()
        warm = train_binary(data, KernelSpec("linear"), C=100.0, start=start)
        assert warm.iterations > 0
        assert np.array_equal(start.dual, dual) and np.array_equal(start.f, f)

    def test_infeasible_starts_rejected(self):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))
        data = points_from(X, labels)
        kernel = KernelSpec("linear")
        start = train_binary(data, kernel, C=10.0)
        assert start.dual.max() > 1.0
        with pytest.raises(TrainingError, match="above C"):
            train_binary(data, kernel, C=1.0, start=start)
        with pytest.raises(TrainingError, match="not a model trained on these points"):
            train_binary(data[1:], kernel, C=10.0, start=start)
        renamed = [LabeledPoint(p.features, {"A": "A", "B": "0"}[p.label]) for p in data]
        with pytest.raises(TrainingError, match="not a model trained on these points"):
            train_binary(renamed, kernel, C=10.0, start=start)
        hand_built = dataclasses.replace(start, dual=None, f=None)
        with pytest.raises(TrainingError, match="not a model trained on these points"):
            train_binary(data, kernel, C=10.0, start=hand_built)

    def test_solver_state_is_kept_out_of_repr_and_equality(self):
        fields = {f.name: f for f in dataclasses.fields(SvmModel)}
        assert not any(fields[name].repr or fields[name].compare for name in ("dual", "f"))


class TestDecisionValue:
    def test_no_support_vectors_returns_bias(self):
        m = SvmModel(
            support_vectors=np.empty((0, 2)),
            alpha=np.empty(0),
            bias=1.5,
            kernel=KernelSpec("linear"),
            class_pair=("A", "B"),
        )
        assert m.decision_values([3.0, 4.0])[0] == 1.5

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
        assert flipped.decision_values([v])[0] == pytest.approx(-m.decision_values([v])[0])

    def test_dimension_mismatch(self):
        m = train_binary(TWO_POINTS, KernelSpec("linear"), C=1.0)
        with pytest.raises(TrainingError):
            m.decision_values([1.0, 2.0])


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
        with scaled_kernel(7.3):
            scaled = train_binary(data, KernelSpec("gaussian", sigma=2.0), C=10.0).predict(test)
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
        assert stratified_folds(labels, 4, 0)[1]  # the folds it scored are stratified

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

    @pytest.mark.parametrize("shift", [0.0, 8.0])
    def test_descending_grid_is_the_cold_grid(self, shift):
        # Shifted to entropy-like values near 8, the polynomial cells cap fits.
        X, labels = make_blobs(seed=16, n_per_class=7, centers=((0, 0), (0.3, 0.1), (0.1, 0.3)))
        data = points_from(X / 3 + shift, labels)
        descending = tuple(sorted(DEFAULT_C_GRID, reverse=True))
        result = select_best_kernel(data, Cs=descending, k=3, seed=1)
        table, best = reference_select_best_kernel(data, Cs=descending, k=3, seed=1)
        assert result.table == table
        converged = [row for row, cv in zip(table, result.cells) if cv.unconverged == 0]
        assert (len(converged) < len(table)) == (shift > 0)
        picked = max(converged, key=lambda row: row[2])
        assert (result.kernel.describe(), result.C, result.mean_accuracy) == picked
        if shift == 0:
            assert (result.kernel, result.C, result.mean_accuracy) == best

    def test_unconverged_cell_loses_to_a_converged_one(self, monkeypatch):
        rng = np.random.default_rng(11)
        centers = [((0, 0), "A"), ((1, 1), "A"), ((0, 1), "B"), ((1, 0), "B")]
        X = np.vstack([rng.normal(c, 0.08, (15, 2)) for c, _ in centers])
        data = points_from(X, [lab for _, lab in centers for _ in range(15)])
        kernels = [KernelSpec("linear"), KernelSpec("polynomial", degree=2, offset=1.0)]
        trained = svm.train_binary
        capped = set()

        def flag_capped(data, kernel, *args, **kwargs):
            model = trained(data, kernel, *args, **kwargs)
            return dataclasses.replace(model, converged=False) if kernel.family in capped else model

        monkeypatch.setattr(svm, "train_binary", flag_capped)
        capped.add("polynomial")
        result = select_best_kernel(data, kernels=kernels, Cs=(10.0,), k=4, seed=0)
        linear, polynomial = result.cells
        assert polynomial.mean_accuracy > linear.mean_accuracy
        assert (linear.unconverged, polynomial.unconverged) == (0, polynomial.fits)
        assert result.kernel.family == "linear"
        capped.add("linear")
        assert select_best_kernel(data, kernels=kernels, Cs=(10.0,), k=4, seed=0).kernel.family == "polynomial"


def reference_select_best_kernel(data, kernels=None, Cs=DEFAULT_C_GRID, tol=1e-3, k=5, seed=0):
    """The grid search before warm starts, every cell a cold
    kfold_cross_validate, kept as it was apart from returning only the table
    and the (kernel, C, accuracy) picked."""
    X, _ = _stack(data)
    if kernels is None:
        kernels = default_kernel_grid(X)
    if not kernels or not Cs:
        raise TrainingError("empty kernel or C grid")
    best = None
    table = []
    for spec in kernels:
        for C in Cs:
            result = kfold_cross_validate(data, spec, C=C, tol=tol, k=k, seed=seed)
            table.append((spec.describe(), float(C), result.mean_accuracy))
            if best is None or result.mean_accuracy > best[2]:
                best = (spec, float(C), result.mean_accuracy)
    return tuple(table), best


def reference_stratified_folds(labels, k, seed):
    """The per-index fold assignment that stratified_folds replaced, kept as
    the reference it must match index for index."""
    n = len(labels)
    if k < 2:
        raise TrainingError("k must be at least 2")
    if k > n:
        raise TrainingError(f"k={k} exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)

    stratified = all(len(v) >= 2 for v in by_class.values())
    folds: list[list[int]] = [[] for _ in range(k)]
    if stratified:
        offset = 0
        for lab in _sorted_classes(labels):
            idxs = np.array(by_class[lab])
            rng.shuffle(idxs)
            for pos, idx in enumerate(idxs):
                folds[(offset + pos) % k].append(int(idx))
            offset += len(idxs)
    else:
        perm = rng.permutation(n)
        for pos, idx in enumerate(perm):
            folds[pos % k].append(int(idx))
    return [np.array(sorted(f), dtype=np.intp) for f in folds], stratified


def reference_train_test_split(labels, n_train, seed):
    """The experiment-2 split that stratified_split replaced (it lived in
    the dataset module), kept as the reference it must match index for index
    on string labels."""
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)
    frac = n_train / len(labels)
    train: list[int] = []
    # Floor per class first, then top up largest remainders to hit n_train.
    quotas = {}
    for lab, idxs in sorted(by_class.items(), key=lambda kv: str(kv[0])):
        quotas[lab] = int(np.floor(frac * len(idxs)))
    remainders = sorted(
        by_class,
        key=lambda lab: (frac * len(by_class[lab]) - quotas[lab]),
        reverse=True,
    )
    shortfall = n_train - sum(quotas.values())
    for lab in remainders[:shortfall]:
        quotas[lab] += 1
    for lab, idxs in sorted(by_class.items(), key=lambda kv: str(kv[0])):
        idxs = np.array(idxs)
        rng.shuffle(idxs)
        train.extend(int(i) for i in idxs[: quotas[lab]])
    train_set = set(train)
    test = [i for i in range(len(labels)) if i not in train_set]
    return np.array(sorted(train), dtype=np.intp), np.array(test, dtype=np.intp)


def assert_same_indices(got, want):
    assert got.dtype == want.dtype == np.intp
    assert np.array_equal(got, want)


def random_label_sets(count, seed):
    """String label lists of 2 to 80 points over 1 to 9 classes of uneven size,
    singletons included, classes first appearing in random order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 81))
        names = [f"c{j}" for j in rng.permutation(int(rng.integers(1, 10)))]
        weights = rng.dirichlet(np.full(len(names), 0.7))
        yield [names[j] for j in rng.choice(len(names), size=n, p=weights)]


class TestStratifierMatchesReference:
    EXPERIMENT2_LABELS = [col.emotion for col in audio_columns()]

    def test_split_on_experiment2_labels(self):
        labels = self.EXPERIMENT2_LABELS
        n_train = round(len(labels) * 2 / 3)
        for seed in range(400):
            got, want = stratified_split(labels, n_train, seed), reference_train_test_split(labels, n_train, seed)
            assert_same_indices(got[0], want[0])
            assert_same_indices(got[1], want[1])
            assert len(got[0]) == n_train

    def test_folds_on_experiment2_labels(self):
        for seed in range(400):
            for k in (2, 3, 5):
                got, got_strat = stratified_folds(self.EXPERIMENT2_LABELS, k, seed)
                want, want_strat = reference_stratified_folds(self.EXPERIMENT2_LABELS, k, seed)
                assert got_strat == want_strat
                for g, w in zip(got, want, strict=True):
                    assert_same_indices(g, w)

    def test_split_and_folds_on_random_label_sets(self):
        rng = np.random.default_rng(1)
        for labels in random_label_sets(750, seed=2):
            seed = int(rng.integers(2**32))
            n_train = int(rng.integers(1, len(labels) + 1))
            got, want = stratified_split(labels, n_train, seed), reference_train_test_split(labels, n_train, seed)
            assert_same_indices(got[0], want[0])
            assert_same_indices(got[1], want[1])
            k = int(rng.integers(2, min(len(labels), 10) + 1))
            got_folds, got_strat = stratified_folds(labels, k, seed)
            want_folds, want_strat = reference_stratified_folds(labels, k, seed)
            assert got_strat == want_strat
            for g, w in zip(got_folds, want_folds, strict=True):
                assert_same_indices(g, w)


# MulticlassModel.predict and the two-class branch of _cv_path as they were
# before the vote moved into class x point arrays and two-class CV went
# through one-vs-one, kept as the references they must match.


def reference_predict(model, X) -> list:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    votes = {c: np.zeros(n) for c in model.classes}
    margins = {c: np.zeros(n) for c in model.classes}
    for m in model.models:
        values = m.decision_values(X)
        neg, pos = m.class_pair
        neg_wins = values < 0
        votes[neg] += neg_wins
        votes[pos] += ~neg_wins
        margins[neg] += np.where(neg_wins, np.abs(values), 0.0)
        margins[pos] += np.where(neg_wins, 0.0, np.abs(values))
    out = []
    for r in range(n):
        best = max(
            range(len(model.classes)),
            key=lambda ci: (votes[model.classes[ci]][r], margins[model.classes[ci]][r], -ci),
        )
        out.append(model.classes[best])
    return out


def reference_cv_path(data, kernel, Cs, tol, k, seed) -> list[svm.CvResult]:
    X, labels = _stack(data)
    folds, _ = stratified_folds(labels, k, seed)
    binary = len(set(labels)) == 2
    accs: list[list[float]] = [[] for _ in Cs]
    fits: list[list[tuple]] = [[] for _ in Cs]
    for fold in folds:
        test_mask = np.zeros(len(labels), dtype=bool)
        test_mask[fold] = True
        train_pts = [p for p, held in zip(data, test_mask) if not held]
        truth = [labels[i] for i in fold]
        path = (svm._binary_path if binary else svm._one_vs_one_path)(train_pts, kernel, Cs, tol)
        for c, model in enumerate(path):
            accs[c].append(accuracy(model.predict(X[test_mask]), truth))
            fits[c] += [(m.iterations, m.kkt_gap, m.converged) for m in ((model,) if binary else model.models)]
    results = []
    for a, fit in zip(accs, fits):
        iterations, gaps, converged = zip(*fit)
        results.append(svm.CvResult(
            fold_accuracies=tuple(a),
            mean_accuracy=float(np.mean(a)),
            fits=len(fit),
            iterations=sum(iterations),
            kkt_gap=max(gaps),
            unconverged=converged.count(False),
        ))
    return results


@dataclasses.dataclass(frozen=True)
class FixedValues:
    """A stand-in binary model whose decision values are given."""

    class_pair: tuple
    values: np.ndarray

    def decision_values(self, X):
        return self.values


def random_vote_models(rng):
    """A one-vs-one ensemble over 2-6 classes with decision values drawn
    from a few small integers, so that exact vote and margin ties are common."""
    classes = tuple(_sorted_classes(list(rng.choice([0, 1, 2, "a", "b", "c"], int(rng.integers(2, 7)),
                                                    replace=False))))
    n = int(rng.integers(1, 40))
    levels = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.5 * rng.normal()])
    models = tuple(FixedValues(pair, levels[rng.integers(len(levels), size=n)])
                   for pair in itertools.combinations(classes, 2))
    return svm.MulticlassModel(classes=classes, models=models), np.zeros((n, 1))


class TestVoteMatchesReference:
    def test_random_decision_values_with_ties(self):
        rng = np.random.default_rng(29)
        vote_ties = margin_ties = 0
        for _ in range(400):
            model, X = random_vote_models(rng)
            got, want = model.predict(X), reference_predict(model, X)
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]
            for r in range(X.shape[0]):  # count the points the tie-breaks decide
                tally = {c: [0, 0.0] for c in model.classes}
                for m in model.models:
                    v = m.values[r]
                    tally[m.class_pair[int(v >= 0)]][0] += 1
                    tally[m.class_pair[int(v >= 0)]][1] += abs(v)
                top = max(tally.values())[0]
                tied = [margin for votes, margin in tally.values() if votes == top]
                vote_ties += len(tied) > 1
                margin_ties += tied.count(max(tied)) > 1
        assert vote_ties > 1000 and margin_ties > 300

    def test_continuous_decision_values(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            model, X = random_vote_models(rng)
            model = dataclasses.replace(model, models=tuple(
                FixedValues(m.class_pair, rng.normal(size=X.shape[0]) * 10.0 ** rng.integers(-3, 4))
                for m in model.models))
            assert model.predict(X) == reference_predict(model, X)


class TestTwoClassCvMatchesReference:
    @pytest.mark.parametrize("k", [2, 3])
    def test_warm_start_problems(self, k):
        for seed, (data, kernel) in enumerate(warm_start_problems()):
            got = svm._cv_path(data, kernel, DEFAULT_C_GRID, 1e-3, k, seed)
            want = reference_cv_path(data, kernel, DEFAULT_C_GRID, 1e-3, k, seed)
            for g, w in zip(got, want, strict=True):
                assert g.fold_accuracies == w.fold_accuracies
                assert (g.fits, g.iterations, g.unconverged) == (w.fits, w.iterations, w.unconverged)
                assert np.float64(g.kkt_gap).view(np.int64) == np.float64(w.kkt_gap).view(np.int64)
                assert g.mean_accuracy == w.mean_accuracy
