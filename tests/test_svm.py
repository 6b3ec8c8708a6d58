import dataclasses
import itertools
import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from conftest import make_blobs, scaled_kernel
from entropic.dataset import audio_columns, build_experiment1, build_experiment2, build_experiment3
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

    @pytest.mark.parametrize("degree", [True, 2.0, 10**309, 10**400], ids=["True", "2.0", "1e309", "1e400"])
    def test_degree_must_be_an_int_that_float64_holds(self, degree):
        with pytest.raises(TrainingError, match="degree must be >= 1 and an int that float64 holds"):
            KernelSpec("polynomial", degree=degree)

    def test_degree_float64_holds_is_a_kernel(self):
        # (1 + 1)^1e308 is inf, an outcome training refuses, not an OverflowError.
        assert np.isinf(kernel_matrix(KernelSpec("polynomial", degree=10**308), [[1.0]], [[1.0]])).all()

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(TrainingError, match="finite"):
            KernelSpec("gaussian", sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e200, 1e155, 1e-170, 5e-324, -1e-170])
    def test_sigma_whose_2_sigma_squared_leaves_float64_rejected(self, sigma):
        # kernel_matrix would raise OverflowError on sigma**2, or divide by zero.
        with pytest.raises(TrainingError, match="as must 2 sigma\\^2"):
            KernelSpec("gaussian", sigma=sigma)
        edge = KernelSpec("gaussian", sigma=1e150 if sigma > 1 else 1e-150)
        assert np.isfinite(kernel_matrix(edge, [[0.0], [1.0]], [[0.0], [1.0]])).all()

    def test_value_beyond_float64_gives_no_warning(self):
        # The suite turns a warning into an error; training and prediction refuse the values.
        X = [[1.0, 2.0], [3.0, 4.0]]
        assert np.isinf(kernel_matrix(KernelSpec("polynomial", degree=1000), X, X)).all()
        assert np.array_equal(kernel_matrix(KernelSpec("gaussian", sigma=1e-160), X, X), np.eye(2))
        assert np.isinf(kernel_matrix(KernelSpec("linear"), [[1e200]], [[1e200]])).all()


class TestKernelSpecParse:
    @pytest.mark.parametrize("matrix", ["separable_matrix", "random_matrix"])
    @pytest.mark.parametrize("build", [build_experiment1, build_experiment2, build_experiment3])
    def test_round_trips_every_default_grid_spec(self, request, matrix, build):
        X, _ = _stack(build(request.getfixturevalue(matrix)))
        for spec in default_kernel_grid(X):
            assert KernelSpec.parse(spec.describe()) == spec, spec.describe()

    @pytest.mark.parametrize("spec", [
        KernelSpec("linear"), KernelSpec("polynomial"), KernelSpec("polynomial", degree=7, offset=-0.25),
        KernelSpec("polynomial", degree=1, offset=0), KernelSpec("polynomial", degree=3, offset=-0.0),
        KernelSpec("polynomial", degree=2, offset=1e-300), KernelSpec("polynomial", degree=2, offset=-3e+20),
        KernelSpec("gaussian", sigma=0.5), KernelSpec("gaussian", sigma=1e-150),
        KernelSpec("gaussian", sigma=1.2345678901234567e150), KernelSpec("gaussian", sigma=0.1 * 0.7),
        KernelSpec("gaussian", sigma=3), KernelSpec("gaussian", sigma=1e16),
    ], ids=lambda spec: spec.describe())
    def test_round_trips_hand_written_specs(self, spec):
        parsed = KernelSpec.parse(spec.describe())  # an int offset or sigma reads back as its float
        assert parsed == spec
        assert math.copysign(1.0, parsed.offset) == math.copysign(1.0, spec.offset)

    @pytest.mark.parametrize("digits", [400, 5000])  # int() reads at most 4300 digits
    def test_degree_beyond_float64_is_refused(self, digits):
        with pytest.raises(TrainingError, match="degree must be >= 1 and an int that float64 holds"):
            KernelSpec.parse(f"polynomial(d={'9' * digits}, c=1.0)")

    def test_bare_families_take_the_defaults(self):
        assert KernelSpec.parse("linear") == KernelSpec("linear")
        assert KernelSpec.parse("polynomial") == KernelSpec("polynomial") == KernelSpec.parse(
            "polynomial(d=2, c=1.0)")

    @pytest.mark.parametrize("text,message", [
        ("gaussian", "got 'gaussian'"), ("rbf", "got 'rbf'"), ("", "got ''"), ("Linear", "got 'Linear'"),
        (" linear", "got ' linear'"), ("linear()", "got 'linear()'"), ("polynomial()", "got 'polynomial()'"),
        ("gaussian(sigma=)", "got 'gaussian(sigma=)'"), ("polynomial(d=2,c=1)", "got 'polynomial(d=2,c=1)'"),
        ("polynomial(d=2.0, c=1.0)", "got 'polynomial(d=2.0, c=1.0)'"),
        ("polynomial(c=1.0, d=2)", "got 'polynomial(c=1.0, d=2)'"),
        ("gaussian(sigma=0.5) ", "got 'gaussian(sigma=0.5) '"), ("gaussian(sigma=1_0)", "got 'gaussian(sigma=1_0)'"),
        ("gaussian(sigma=infinity)", "got 'gaussian(sigma=infinity)'"),
        ("gaussian(sigma=0)", "sigma must be positive and finite, as must 2 sigma^2, got 0.0"),
        ("gaussian(sigma=-0.5)", "sigma must be positive and finite, as must 2 sigma^2, got -0.5"),
        ("gaussian(sigma=nan)", "sigma must be positive and finite, as must 2 sigma^2, got nan"),
        ("gaussian(sigma=1e400)", "sigma must be positive and finite, as must 2 sigma^2, got inf"),
        ("gaussian(sigma=1e200)", "as must 2 sigma^2, got 1e+200"),
        ("polynomial(d=0, c=1.0)", "degree must be >= 1"),
        ("polynomial(d=-2, c=1.0)", "degree must be >= 1"),
        ("polynomial(d=2, c=inf)", "offset finite, got polynomial(d=2, c=inf)"),
        ("polynomial(d=2, c=-1e400)", "offset finite, got polynomial(d=2, c=-inf)"),
    ])
    def test_refuses_any_other_text(self, text, message):
        with pytest.raises(TrainingError) as err:
            KernelSpec.parse(text)
        assert message in str(err.value)


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

    def test_prediction_that_leaves_float64_is_an_error(self):
        X, labels = make_blobs(seed=0)
        m = train_binary(points_from(X, labels), KernelSpec("polynomial"), C=10.0)
        assert np.isfinite(m.decision_values(X)).all()
        with pytest.raises(TrainingError, match="decision values are not finite"):
            m.decision_values(X * 1e200)
        multi = train_multiclass(points_from(X, labels), KernelSpec("polynomial"), C=10.0)
        with pytest.raises(TrainingError, match="decision values are not finite"):
            multi.predict(X * 1e200)

    def test_capped_fit_without_free_vectors_takes_the_final_interval_midpoint(self, monkeypatch):
        # One update from alpha = 0 at a tiny C moves its pair to C, so no vector is free.
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))
        data = points_from(X, labels)
        monkeypatch.setattr(svm, "_MAX_ITER", 1)
        path = svm._Path()
        m = train_binary(data, KernelSpec("linear"), C=1e-3, path=path)
        dual = np.array(path.dual)
        assert m.iterations == 1 and not m.converged
        assert list(dual).count(1e-3) == 2 and dual.max() == 1e-3
        y = np.array([-1.0 if p.label == m.class_pair[0] else 1.0 for p in data])
        viol = y - (m.decision_values(X) - m.bias)
        up = np.where(y > 0, dual < 1e-3, dual > 0)
        low = np.where(y > 0, dual > 0, dual < 1e-3)
        assert m.kkt_gap == pytest.approx(viol[up].max() - viol[low].min(), abs=1e-12)
        assert m.bias == pytest.approx((viol[up].max() + viol[low].min()) / 2, abs=1e-12)

    def test_iteration_cap_is_reported(self, monkeypatch):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))  # overlapping
        monkeypatch.setattr(svm, "_MAX_ITER", 1)
        m = train_binary(points_from(X, labels), KernelSpec("linear"), C=10.0)
        assert m.iterations == 1
        assert m.converged is False
        assert m.kkt_gap > 1e-3

    def test_pair_that_cannot_move_stops_unconverged_with_its_gap(self):
        # Below float64 resolution the maximal violating pair's step rounds
        # to nothing: SMO stops before its cap of 10 n^2 updates, and says so.
        data = points_from(np.arange(4.0)[:, None] ** 1.5, ["A", "B", "A", "B"])
        m = train_binary(data, KernelSpec("linear"), C=1.0, tol=1e-300)
        assert 0 < m.iterations < 10 * 4 ** 2
        assert m.converged is False and m.kkt_gap > 1e-300
        assert recovered_kkt_gap(m, data, 1.0) == pytest.approx(m.kkt_gap, abs=1e-12)

    def test_returned_arrays_are_read_only(self):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))
        m = train_binary(points_from(X, labels), KernelSpec("linear"), C=1.0)
        for array in (m.alpha, m.support_vectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def reference_train_binary(data, kernel, C=1.0, tol=1e-3, max_iter=None, start=None) -> SvmModel:
    """The SMO loop as it was before its per-iteration cost was cut, with its
    training record added.

    Every step is a NumPy call: the masks are rebuilt from alpha, and the
    scalars are NumPy scalars. start, when given, is the (dual, f) to
    resume from, else both are 0. train_binary must return bit-identical
    models.
    """
    X, labels = _stack(data)
    classes = _sorted_classes(labels)
    neg, pos = classes
    y = np.array([-1.0 if lab == neg else 1.0 for lab in labels])

    n = len(y)
    if max_iter is None:
        max_iter = min(10 * n * n, 200_000)
    K = kernel_matrix(kernel, X, X)

    # f_i = sum_j alpha_j y_j K_ij, bias excluded
    alpha, f = (np.zeros(n), np.zeros(n)) if start is None else map(np.array, start)
    eps = 1e-12 * C

    up = np.empty(n, dtype=bool)
    low = np.empty(n, dtype=bool)
    iterations = 0
    while True:
        np.logical_or((y > 0) & (alpha < C - eps), (y < 0) & (alpha > eps), out=up)
        np.logical_or((y > 0) & (alpha > eps), (y < 0) & (alpha < C - eps), out=low)
        viol = y - f  # -y_i * gradient_i
        up_vals = np.where(up, viol, -np.inf)
        low_vals = np.where(low, viol, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        gap_lo, gap_hi = low_vals[j], up_vals[i]
        if gap_hi - gap_lo <= tol or iterations == max_iter:
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
        iterations += 1

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
        iterations=iterations,
        kkt_gap=float(gap_hi - gap_lo),
        converged=bool(gap_hi - gap_lo <= tol),
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


@pytest.mark.parametrize("data,kernel,C,cap", bit_identity_cases())
def test_train_binary_is_bit_identical_to_reference(monkeypatch, data, kernel, C, cap):
    """cap, when given, is the iteration cap, set through svm._MAX_ITER."""
    if cap is not None:
        monkeypatch.setattr(svm, "_MAX_ITER", cap)
    got = train_binary(data, kernel, C=C)
    want = reference_train_binary(data, kernel, C=C, max_iter=cap)
    assert np.array_equal(got.alpha, want.alpha)
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert got.bias == want.bias
    assert (got.iterations, got.kkt_gap, got.converged) == (want.iterations, want.kkt_gap, want.converged)


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


def fit_bytes(model, path=None):
    """Every number a fit returns, as bytes: alphas, support vectors, then,
    given the path it was fitted on, the dual and f it left there, and last
    the bias, iterations and KKT gap."""
    arrays = [model.alpha, model.support_vectors]
    if path is not None:
        arrays += [np.array(path.dual), path.f]
    return [a.tobytes() for a in arrays] + [repr((model.bias, model.iterations, model.kkt_gap))]


class PathFit(NamedTuple):
    """One train_binary call, as the path_fits fixture records it."""

    data: list
    kernel: KernelSpec
    C: float
    path: object
    start: tuple | None  # a copy of the path's (dual, f) as the fit found it; None for a cold start
    problem: object  # the path's problem after the fit
    model: SvmModel


@pytest.fixture
def path_fits(monkeypatch):
    """Every train_binary call from here on, as a PathFit."""
    fits = []
    trained = svm.train_binary

    def recorded(data, kernel, C=1.0, tol=1e-3, *, path=None):
        start = None if path is None or path.problem is None else (list(path.dual), path.f.copy())
        model = trained(data, kernel, C, tol, path=path)
        fits.append(PathFit(data, kernel, C, path, start, path and path.problem, model))
        return model

    monkeypatch.setattr(svm, "train_binary", recorded)
    return fits


class TestWarmStart:
    def test_every_fit_along_a_grid_meets_kkt_at_tol(self):
        tol = 1e-3
        converged = 0
        for data, kernel in warm_start_problems():
            path = svm._one_vs_one_path(data, kernel, DEFAULT_C_GRID, tol)  # one class pair
            models = [ensemble.models[0] for ensemble in path]
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

    def test_every_path_fit_is_the_reference_started_from_the_last_fit(self, path_fits):
        for data, kernel in warm_start_problems():
            svm._one_vs_one_path(data, kernel, DEFAULT_C_GRID, 1e-3)  # one class pair
        assert len(path_fits) == 24 * len(DEFAULT_C_GRID)
        for fit in path_fits:
            want = reference_train_binary(fit.data, fit.kernel, C=fit.C, start=fit.start)
            assert fit_bytes(fit.model) == fit_bytes(want)
            assert fit.model.support_vectors.shape == want.support_vectors.shape
        assert sum(fit.start is not None for fit in path_fits) == 24 * (len(DEFAULT_C_GRID) - 1)

    def test_start_meeting_tol_returns_its_alphas(self):
        X, labels = make_blobs(seed=0)  # separable: no alpha reaches C = 10
        data = points_from(X, labels)
        path = svm._Path()
        cold = train_binary(data, KernelSpec("linear"), C=10.0, path=path)
        dual = np.array(path.dual)
        assert cold.iterations > 0 and dual.max() < 10.0
        for C in (10.0, 100.0):
            warm = train_binary(data, KernelSpec("linear"), C=C, path=path)
            assert warm.iterations == 0
            assert np.array(path.dual).view(np.int64).tolist() == dual.view(np.int64).tolist()
            assert warm.alpha.view(np.int64).tolist() == cold.alpha.view(np.int64).tolist()
            assert warm.bias == cold.bias

    def test_start_is_not_changed(self):
        X, labels = make_blobs(seed=1, centers=((0.0, 0.0), (1.0, 1.0)))  # overlapping
        data = points_from(X, labels)
        path = svm._Path()
        train_binary(data, KernelSpec("linear"), C=0.1, path=path)
        dual, f = path.dual, path.f
        saved = list(dual), f.copy()
        warm = train_binary(data, KernelSpec("linear"), C=100.0, path=path)
        assert warm.iterations > 0 and path.dual is not dual and path.f is not f
        assert dual == saved[0] and np.array_equal(f, saved[1])

    def test_start_that_breaks_the_equality_constraint_rejected(self):
        # Every positive at C and every negative at 0 would empty the 'up' set, for a
        # KKT gap of -inf that would pass as converged. A model holds no dual, and
        # train_binary takes no model to start from.
        x = np.arange(4.0)
        data = points_from(x, ["a", "b", "a", "b"])
        kernel = KernelSpec("linear")
        dual = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(TypeError, match="dual"):
            SvmModel(x[:0, None], x[:0], 0.0, kernel, ("a", "b"), dual=dual)
        with pytest.raises(TypeError, match="'f'"):
            SvmModel(x[:0, None], x[:0], 0.0, kernel, ("a", "b"), f=dual)
        hand_built = SvmModel(x[:0, None], x[:0], 0.0, kernel, ("a", "b"))
        with pytest.raises(TypeError, match="start"):
            train_binary(data, kernel, C=1.0, start=hand_built)

    def test_solver_state_is_kept_out_of_repr_and_equality(self):
        # Out of the model altogether: it holds what prediction needs, and its training record.
        assert list(SvmModel._fields) == [
            "support_vectors", "alpha", "bias", "kernel", "class_pair", "iterations", "kkt_gap", "converged"]


@pytest.fixture
def gram_calls(monkeypatch):
    """The number of Gram matrices computed so far, as a one-item list."""
    calls = [0]
    plain = svm.kernel_matrix

    def counted(spec, X, Y):
        calls[0] += 1
        return plain(spec, X, Y)

    monkeypatch.setattr(svm, "kernel_matrix", counted)
    return calls


def fits_by_path(fits):
    """The recorded fits grouped by the path they ran on, in order of first use."""
    groups: dict = {}
    for fit in fits:
        groups.setdefault(id(fit.path), []).append(fit)
    return list(groups.values())


class TestProblemReuse:
    def overlapping(self, seed=1):
        X, labels = make_blobs(seed=seed, n_per_class=9, centers=((0.0, 0.0), (1.0, 1.0)))
        return points_from(X, labels)

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("gaussian", sigma=0.8)])
    def test_same_points_reuse_the_problem_bit_for_bit(self, gram_calls, kernel):
        data = self.overlapping()
        path = svm._Path()
        train_binary(data, kernel, C=0.1, path=path)
        problem = path.problem
        assert gram_calls == [1]
        warm = train_binary(data, kernel, C=100.0, path=path)
        assert gram_calls == [1] and path.problem is problem and warm.iterations > 0
        warm_bytes = fit_bytes(warm, path)
        # The same path on equal-valued copies sets its problem up afresh, to the same bits.
        copies = [LabeledPoint(p.features.copy(), p.label) for p in data]
        fresh_path = svm._Path()
        train_binary(copies, kernel, C=0.1, path=fresh_path)
        fresh = train_binary(copies, kernel, C=100.0, path=fresh_path)
        assert gram_calls == [2] and fresh_path.problem is not problem
        assert fit_bytes(fresh, fresh_path) == warm_bytes

    def test_other_points_of_the_same_size_and_classes_are_not_reused(self, path_fits):
        # Each fold, and each class pair in it, is fitted on a path of its own: 3 folds
        # of 8-point pairs with 4 points per class.
        X, labels = make_blobs(seed=3, n_per_class=6, centers=((0, 0), (1, 0), (0, 1)))
        svm._cv_path(points_from(X, labels), KernelSpec("linear"), DEFAULT_C_GRID, 1e-3, 3, 0)
        groups = fits_by_path(path_fits)
        assert len(path_fits) == 3 * 3 * len(DEFAULT_C_GRID) and len(groups) == 3 * 3
        for group in groups:
            assert len(group[0].data) == 8
            assert all(fit.data is group[0].data and fit.problem is group[0].problem for fit in group)
        assert len({id(fit.data) for fit in path_fits}) == len({id(fit.problem) for fit in path_fits}) == 9

    def test_other_kernel_is_not_reused(self, path_fits):
        # A degree-1 polynomial with offset 0 has the linear kernel's Gram matrix, and its own paths.
        kernels = [KernelSpec("linear"), KernelSpec("gaussian", sigma=0.8),
                   KernelSpec("polynomial", degree=1, offset=0.0)]
        select_best_kernel(self.overlapping(), kernels, Cs=DEFAULT_C_GRID, k=3)
        groups = fits_by_path(path_fits)
        assert len(groups) == len(kernels) * 3
        for group in groups:
            assert all(fit.kernel is group[0].kernel and fit.problem is group[0].problem for fit in group)
        assert len({id(fit.problem) for fit in path_fits}) == len(groups)

    def test_refit_at_the_same_C_keeps_bounded_alphas_out_of_up_and_low(self):
        # The masks a warm fit starts from must match the ones its start
        # ended with, also for alphas at the bound C.
        data = self.overlapping()
        for C in (0.1, 1.0):
            path = svm._Path()
            start = train_binary(data, KernelSpec("linear"), C=C, path=path)
            start_bytes = fit_bytes(start, path)
            assert start.converged and (np.array(path.dual) >= C * (1 - 1e-12)).sum() >= 2
            again = train_binary(data, KernelSpec("linear"), C=C, path=path)
            assert again.iterations == 0 and fit_bytes(again, path)[:4] == start_bytes[:4]
            assert again.kkt_gap == start.kkt_gap and again.bias == start.bias

    def test_a_model_is_not_a_start(self):
        # A start read from a model's writable dual let a caller's write pass as valid:
        # with the C = 0.1 dual zeroed, the C = 10 fit reported converged at a true KKT
        # gap of 1.518. The state of a pair's fits lives on its path alone.
        data = self.overlapping()
        kernel = KernelSpec("linear")
        path = svm._Path()
        model = train_binary(data, kernel, C=0.1, path=path)
        with pytest.raises(TypeError, match="start"):
            train_binary(data, kernel, C=10.0, start=model)
        warm = train_binary(data, kernel, C=10.0, path=path)
        assert warm.iterations > 0 and warm.converged
        assert recovered_kkt_gap(warm, data, 10.0) <= 1e-3

    @pytest.mark.parametrize("call", [
        lambda data: train_multiclass(data, KernelSpec("linear"), C=1.0),
        lambda data: kfold_cross_validate(data, KernelSpec("gaussian", sigma=1.0), k=3),
        lambda data: select_best_kernel(data, Cs=DEFAULT_C_GRID, k=3),
    ], ids=["multiclass", "kfold", "grid"])
    def test_returned_models_keep_no_path_state(self, path_fits, call):
        X, labels = make_blobs(seed=3, n_per_class=6, centers=((0, 0), (1, 0), (0, 1)))
        result = call(points_from(X, labels))
        models = [fit.model for fit in path_fits] + list(getattr(result, "models", ()))
        assert path_fits and all(isinstance(fit.path, svm._Path) for fit in path_fits)
        for m in models:
            assert not any(hasattr(m, name) for name in ("dual", "f", "_problem", "path"))
            assert not (m.alpha.flags.writeable or m.support_vectors.flags.writeable)


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

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            train_multiclass([], KernelSpec("linear"))

    def test_gaussian_rescaling_keeps_predictions(self):
        X, labels = make_blobs(seed=6, n_per_class=30)
        data = points_from(X, labels)
        test = np.random.default_rng(2).normal(2.0, 3.0, (200, 2))
        base = train_binary(data, KernelSpec("gaussian", sigma=2.0), C=10.0).predict(test)
        with scaled_kernel(7.3):
            scaled = train_binary(data, KernelSpec("gaussian", sigma=2.0), C=10.0).predict(test)
        assert scaled == base


ENTRY_POINTS = {
    "train_binary": lambda data: train_binary(data, KernelSpec("linear")),
    "train_multiclass": lambda data: train_multiclass(data, KernelSpec("linear")),
    "kfold_cross_validate": lambda data: kfold_cross_validate(data, KernelSpec("linear"), k=2),
    "select_best_kernel": lambda data: select_best_kernel(data, [KernelSpec("linear")], Cs=(1.0,), k=2),
}


def model_bits(model) -> list[bytes]:
    """Every array and number a binary model or one-vs-one ensemble holds, as bytes."""
    models = getattr(model, "models", (model,))
    return [np.asarray(v, dtype=np.float64).tobytes() for m in models
            for v in (m.support_vectors, m.alpha, m.bias, m.iterations, m.kkt_gap)]


class TestFeatureCheck:
    """LabeledPoint is a plain pair; the features are checked where they are stacked for training."""

    def test_point_is_a_plain_pair(self):
        f = np.ones(3)
        p = LabeledPoint(f, "x")
        assert p.features is f and tuple(p) == (f, "x")
        assert f.flags.writeable

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("when", ["built", "written"])
    def test_non_finite_feature_is_refused(self, entry, value, when):
        X, labels = make_blobs(seed=9, n_per_class=4)
        data = points_from(X, labels)
        if when == "built":
            data[5] = LabeledPoint(np.array([value, 0.0]), data[5].label)
        else:
            X[5, 1] = value  # point 5 holds a view of this row
        with pytest.raises(TrainingError, match="^non-finite feature value$"):
            ENTRY_POINTS[entry](data)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_inconsistent_dimensions_are_refused(self, entry):
        X, labels = make_blobs(seed=9, n_per_class=4)
        data = points_from(X, labels)
        data[6] = LabeledPoint(np.ones(3), data[6].label)
        with pytest.raises(TrainingError, match=r"^inconsistent feature dimensions: \[2, 3\]$"):
            ENTRY_POINTS[entry](data)

    def test_scalar_and_list_features_train_as_arrays(self):
        X, labels = make_blobs(seed=10, n_per_class=6, centers=((0.0, 0.0), (1.0, 1.0), (0.0, 2.0)))
        as_lists = [LabeledPoint(x.tolist(), lab) for x, lab in zip(X, labels)]
        as_scalars = [LabeledPoint(float(x[0]), lab) for x, lab in zip(X, labels)]
        for data, want in ((as_lists, points_from(X, labels)), (as_scalars, points_from(X[:, :1], labels))):
            for fit in (lambda d: train_binary(d[:12], KernelSpec("linear"), C=10.0),  # classes A and B
                        lambda d: train_multiclass(d, KernelSpec("polynomial"))):
                assert model_bits(fit(data)) == model_bits(fit(want))
            assert kfold_cross_validate(data, KernelSpec("linear"), k=3) == \
                kfold_cross_validate(want, KernelSpec("linear"), k=3)


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
        assert_reference_folds(labels, 4, 0, stratified=True)  # the folds it scored

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
        assert_reference_folds(labels3, 3, 0, stratified=True)  # two C points is still enough
        data.append(LabeledPoint(np.array([-9.0, -7.0]), "D"))
        assert_reference_folds([p.label for p in data], 3, 0, stratified=False)  # singleton class D

    def test_k_larger_than_dataset_rejected(self):
        with pytest.raises(TrainingError):
            kfold_cross_validate(TWO_POINTS, KernelSpec("linear"), k=3)

    def test_k_below_two_rejected(self):
        with pytest.raises(TrainingError, match="^k must be at least 2$"):
            kfold_cross_validate(TWO_POINTS, KernelSpec("linear"), k=1)


class TestFitRollUp:
    def test_models_and_cv_results_add_up(self):
        no_points = np.zeros((0, 1))
        done, capped = (SvmModel(no_points, no_points[:, 0], 0.0, KernelSpec("linear"), ("a", "b"),
                                 iterations=it, kkt_gap=gap, converged=ok)
                        for it, gap, ok in ((5, 1e-4, True), (7, 0.5, False)))
        cv = svm.CvResult((1.0, 0.5), 0.75, 4, 100, 0.25, 1)
        assert svm.fit_roll_up([done, capped]) == {"fits": 2, "iterations": 12, "kkt_gap": 0.5,
                                                   "unconverged": 1}
        assert svm.fit_roll_up([cv, done]) == {"fits": 5, "iterations": 105, "kkt_gap": 0.25,
                                               "unconverged": 1}
        assert svm.fit_roll_up([cv]) == {"fits": 4, "iterations": 100, "kkt_gap": 0.25, "unconverged": 1}


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
            return model._replace(converged=False) if kernel.family in capped else model

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


def reference_shuffle(items, rng):
    """Fisher-Yates from the end: item i swaps with item floor(rng.random() * (i + 1))."""
    items = list(items)
    for i in reversed(range(1, len(items))):
        j = math.floor(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return np.array(items, dtype=np.intp)


def reference_stratified_folds(labels, k, seed):
    """The per-index fold assignment that stratified_folds replaced, kept as
    the reference it must match index for index; it shuffles by
    reference_shuffle over random.Random(seed)."""
    n = len(labels)
    if k < 2:
        raise TrainingError("k must be at least 2")
    if k > n:
        raise TrainingError(f"k={k} exceeds dataset size {n}")
    rng = random.Random(seed)
    by_class: dict = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)

    stratified = all(len(v) >= 2 for v in by_class.values())
    folds: list[list[int]] = [[] for _ in range(k)]
    if stratified:
        offset = 0
        for lab in _sorted_classes(labels):
            idxs = reference_shuffle(by_class[lab], rng)
            for pos, idx in enumerate(idxs):
                folds[(offset + pos) % k].append(int(idx))
            offset += len(idxs)
    else:
        perm = reference_shuffle(range(n), rng)
        for pos, idx in enumerate(perm):
            folds[pos % k].append(int(idx))
    return [np.array(sorted(f), dtype=np.intp) for f in folds], stratified


def reference_train_test_split(labels, n_train, seed):
    """The experiment-2 split that stratified_split replaced (it lived in
    the dataset module), kept as the reference it must match index for index
    on string labels; it shuffles by reference_shuffle over random.Random(seed)."""
    rng = random.Random(seed)
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
        idxs = reference_shuffle(idxs, rng)
        train.extend(int(i) for i in idxs[: quotas[lab]])
    train_set = set(train)
    test = [i for i in range(len(labels)) if i not in train_set]
    return np.array(sorted(train), dtype=np.intp), np.array(test, dtype=np.intp)


def assert_same_indices(got, want):
    assert got.dtype == want.dtype == np.intp
    assert np.array_equal(got, want)


def assert_reference_folds(labels, k, seed, stratified):
    """stratified_folds gives the reference's folds, which take the stratified
    path or the plain-shuffle fallback as named. Stratified folds hold each
    class's points within +-1 of each other."""
    got = stratified_folds(labels, k, seed)
    want, want_stratified = reference_stratified_folds(labels, k, seed)
    assert want_stratified == stratified
    for g, w in zip(got, want, strict=True):
        assert_same_indices(g, w)
    if stratified:
        for lab in set(labels):
            counts = [sum(labels[i] == lab for i in fold) for fold in got]
            assert max(counts) - min(counts) <= 1


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
                got = stratified_folds(self.EXPERIMENT2_LABELS, k, seed)
                want, _ = reference_stratified_folds(self.EXPERIMENT2_LABELS, k, seed)
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
            got_folds = stratified_folds(labels, k, seed)
            want_folds, _ = reference_stratified_folds(labels, k, seed)
            for g, w in zip(got_folds, want_folds, strict=True):
                assert_same_indices(g, w)


class TestShuffle:
    # Python promises these random() draws for these seeds on every version;
    # the folds and splits of every seeded result rest on that.
    PINNED = {
        0: [9, 4, 0, 5, 2, 7, 1, 3, 6, 8],
        1: [8, 0, 3, 4, 5, 2, 9, 6, 7, 1],
        2**32: [8, 7, 5, 2, 9, 6, 4, 0, 3, 1],
        2**64 + 3: [4, 2, 3, 5, 7, 1, 0, 6, 8, 9],
    }

    @pytest.mark.parametrize("seed", list(PINNED))
    def test_pinned_first_shuffle(self, seed):
        want = np.array(self.PINNED[seed], dtype=np.intp)
        assert_same_indices(svm._shuffled(range(10), svm._rng(seed)), want)
        assert_same_indices(reference_shuffle(range(10), random.Random(seed)), want)

    @pytest.mark.parametrize("seed", [True, np.int64(7), np.uint32(2**32 - 1)])
    def test_integer_like_seeds(self, seed):
        assert_same_indices(svm._shuffled(range(50), svm._rng(seed)),
                            svm._shuffled(range(50), svm._rng(int(seed))))

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_is_a_training_error(self, seed):
        labels = ["a", "b"] * 5
        with pytest.raises(TrainingError, match=f"^seed must be a non-negative integer, got {seed}$"):
            stratified_folds(labels, 2, seed)
        with pytest.raises(TrainingError, match=f"^seed must be a non-negative integer, got {seed}$"):
            stratified_split(labels, 6, seed)

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_non_integer_seed_is_a_type_error(self, seed):
        labels = ["a", "b"] * 5
        with pytest.raises(TypeError):
            stratified_folds(labels, 2, seed)
        with pytest.raises(TypeError):
            stratified_split(labels, 6, seed)


def reference_median_pairwise_distance(X) -> float:
    """median_pairwise_distance as it was, over an (n, n, d) array of
    differences and np.median, kept as the reference it must match bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if n < 2:
        return 1.0
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(sq[np.triu_indices(n, k=1)])
    med = float(np.median(d))
    return med if med > 0 else 1.0


class TestMedianPairwiseDistance:
    # n(n-1)/2 pairs: odd at n = 2, 3, 6, 7, 10 and 11, even at n = 4, 5, 8, 9 and 60.
    @pytest.mark.parametrize("d", [1, 8, 24, 200])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 60])
    def test_bit_identical_to_reference(self, d, n):
        rng = np.random.default_rng([d, n])
        for scale in (1e-3, 1.0, 1e4):
            X = rng.normal(size=(n, d)) * scale
            cases = [X]
            if n >= 4:
                dup = X.copy()
                dup[1::2] = dup[0]  # many zero distances, and repeated nonzero ones
                cases.append(dup)
            for case in cases:
                got = svm.median_pairwise_distance(case)
                assert got.hex() == reference_median_pairwise_distance(case).hex()

    def test_one_dimensional_input_and_all_rows_equal(self):
        for X in ([3.0, 1.0], [[2.0, 2.0]] * 5, np.zeros((0, 3))):
            got = svm.median_pairwise_distance(X)
            assert got.hex() == reference_median_pairwise_distance(X).hex()
        assert svm.median_pairwise_distance([[2.0, 2.0]] * 5) == 1.0

    def test_even_count_is_the_mean_of_the_middle_two(self):
        # Distances 1, 2, 3, 4, 6, 7 between the points 0, 1, 3, 7 on a line.
        assert svm.median_pairwise_distance([[0.0], [1.0], [3.0], [7.0]]) == 3.5


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


def reference_binary_path(data, kernel, Cs, tol) -> list[SvmModel]:
    """One binary model per C, each on the previous one's path where C did not decrease."""
    models: list[SvmModel] = []
    for i, C in enumerate(Cs):
        path = path if i and Cs[i - 1] <= C else svm._Path()
        models.append(train_binary(data, kernel, C=C, tol=tol, path=path))
    return models


def reference_cv_path(data, kernel, Cs, tol, k, seed) -> list[svm.CvResult]:
    X, labels = _stack(data)
    folds = stratified_folds(labels, k, seed)
    binary = len(set(labels)) == 2
    accs: list[list[float]] = [[] for _ in Cs]
    fits: list[list[tuple]] = [[] for _ in Cs]
    for fold in folds:
        test_mask = np.zeros(len(labels), dtype=bool)
        test_mask[fold] = True
        train_pts = [p for p, held in zip(data, test_mask) if not held]
        truth = [labels[i] for i in fold]
        path = (reference_binary_path if binary else svm._one_vs_one_path)(train_pts, kernel, Cs, tol)
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
            model = model._replace(models=tuple(
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
