"""SMO against the exact optimum of the SVM dual on problems of at most six points.

The dual is

    max  W(a) = sum(a) - 1/2 (a y)' K (a y)
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0.

The oracle tries each point's state (at 0, free, or at C): 3^n active sets.
For each it solves the linear system that the state makes of the KKT
conditions, the free points' decision values at their labels, and keeps
the feasible solutions that meet KKT. Since the dual is concave, every such
point is optimal; the oracle returns the one with the largest W.

References: Platt, "Sequential Minimal Optimization", 1998; Keerthi,
Shevade, Bhattacharyya & Murthy, "Improvements to Platt's SMO Algorithm for
SVM Classifier Design", Neural Computation 2001.
"""

import itertools
from typing import NamedTuple

import numpy as np
import pytest

from entropic.svm import KernelSpec, LabeledPoint, kernel_matrix, train_binary

TOL = 1e-3  # train_binary's default
ROUNDING = 1e-9  # relative slack for float64 rounding in the oracle and in W


class Optimum(NamedTuple):
    a: np.ndarray  # the dual variables, not label-signed
    objective: float
    bias: tuple[float, float]  # every bias that meets KKT with a: an interval


def dual_objective(a, y, K) -> float:
    ay = a * y
    return float(a.sum() - 0.5 * ay @ K @ ay)


def kkt_interval(a, y, K, C) -> tuple[float, float]:
    """The biases b with y_i (f_i + b) >= 1 where a_i can grow y_i a_i, and <= 1
    where it can shrink it: [max over 'up' of y - f, min over 'low' of y - f]."""
    v = y - K @ (a * y)
    slack = ROUNDING * C
    up = np.where(y > 0, a < C - slack, a > slack)
    low = np.where(y > 0, a > slack, a < C - slack)
    return (float(v[up].max()) if up.any() else -np.inf), (float(v[low].min()) if low.any() else np.inf)


def exact_optimum(K, y, C) -> Optimum:
    """The optimum of the dual, by trying every active set."""
    n = len(y)
    states = np.array(list(itertools.product((0, 1, 2), repeat=n)))  # 0: at 0, 1: free, 2: at C
    free = states == 1
    Q = K * np.outer(y, y)
    # Unknowns (a, b). A free point's row is (Q a)_i + y_i b = 1, a bound
    # point's is a_i = 0 or C, and the last row is y'a = 0.
    A = np.zeros((len(states), n + 1, n + 1))
    rhs = np.zeros((len(states), n + 1))
    A[:, :n, :n] = np.where(free[:, :, None], Q, np.eye(n))
    A[:, :n, n] = np.where(free, y, 0.0)
    A[:, n, :n] = y
    rhs[:, :n] = np.where(free, 1.0, np.where(states == 2, C, 0.0))
    solutions = (np.linalg.pinv(A) @ rhs[:, :, None])[:, :, 0]
    residual = np.abs((A @ solutions[:, :, None])[:, :, 0] - rhs).max(axis=1)
    scale = 1.0 + np.abs(A).max(axis=(1, 2)) * np.abs(solutions).max(axis=1)
    best = None
    for a, res, s in zip(solutions[:, :n], residual, scale):
        if res > 1e-8 * s or not np.all((-ROUNDING * C <= a) & (a <= C * (1 + ROUNDING))):
            continue
        a = np.clip(a, 0.0, C)
        lo, hi = kkt_interval(a, y, K, C)
        if lo - hi > 1e-8 * s:
            continue
        candidate = Optimum(a, dual_objective(a, y, K), (lo, hi))
        if best is None or candidate.objective > best.objective:
            best = candidate
    assert best is not None, "no active set gives a KKT point"
    return best


KERNELS = [KernelSpec("linear"), KernelSpec("polynomial", degree=2, offset=1.0),
           KernelSpec("gaussian", sigma=1.0)]


def oracle_problems():
    """Seeded problems of 3 to 6 points with one or two features, both
    classes present, for each kernel and C from 0.1 to 100."""
    rng = np.random.default_rng(2018)
    for case in range(150):
        n = int(rng.integers(3, 7))
        X = rng.normal(size=(n, int(rng.integers(1, 3))))
        labels = ["a", "b"] + list(rng.choice(["a", "b"], n - 2))
        X[np.array(labels) == "b"] += rng.uniform(0.0, 2.0)
        yield case, X, labels, KERNELS[case % 3], float(10 ** rng.uniform(-1, 2))


@pytest.fixture(scope="module")
def fits():
    """(case, X, y, K, C, SMO model, exact optimum) of each problem."""
    result = []
    for case, X, labels, kernel, C in oracle_problems():
        model = train_binary([LabeledPoint(x, lab) for x, lab in zip(X, labels)], kernel, C=C, tol=TOL)
        y = np.array([-1.0 if lab == "a" else 1.0 for lab in labels])
        K = kernel_matrix(kernel, X, X)
        result.append((case, X, y, K, C, model, exact_optimum(K, y, C)))
    return result


def test_the_oracle_is_exact_on_a_hand_solved_problem():
    # Two points at -1 and 1, linear kernel: the margin needs w = 1, so a = 1/2
    # each at C >= 1/2, with b = 0 and W = 1/2; below that both sit at C, with
    # W = 2C - 2C^2.
    K, y = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, 1.0])
    opt = exact_optimum(K, y, 10.0)
    assert opt.a.tolist() == pytest.approx([0.5, 0.5]) and opt.objective == pytest.approx(0.5)
    assert opt.bias == pytest.approx((0.0, 0.0), abs=1e-12)
    opt = exact_optimum(K, y, 0.25)
    assert opt.a.tolist() == pytest.approx([0.25, 0.25]) and opt.objective == pytest.approx(0.375)
    assert opt.bias[0] < opt.bias[1]  # no free point: any b in between meets KKT


def test_smo_never_beats_the_optimum(fits):
    for case, X, y, K, C, model, opt in fits:
        assert dual_objective(model.dual, y, K) <= opt.objective + ROUNDING * (1 + abs(opt.objective)), case


def test_shortfall_is_bounded_by_the_kkt_gap(fits):
    """By concavity, W(a*) - W(a) <= g'(a* - a) for the gradient g at a. As
    sum(y (a* - a)) = 0, a bias b in SMO's final interval [M, m] can be
    taken out of g, and each term is then at most the gap m - M times
    |a*_i - a_i|, the grows and the shrinks each adding up to half of
    |a* - a|_1. So the shortfall is at most kkt_gap * |a* - a|_1 / 2, and at
    most tol * n * C / 2 for a converged fit."""
    worst = 0.0
    for case, X, y, K, C, model, opt in fits:
        shortfall = opt.objective - dual_objective(model.dual, y, K)
        bound = max(model.kkt_gap, 0.0) * np.abs(opt.a - model.dual).sum() / 2
        assert shortfall <= bound + ROUNDING * (1 + abs(opt.objective)), case
        if model.converged:
            assert bound <= TOL * len(y) * C / 2
            worst = max(worst, shortfall / abs(opt.objective))
    assert worst < 1e-4  # relative to W(a*); 2.2e-6 on these problems


def test_decision_values_match_a_unique_optimum(fits):
    """The optimum's f = K (a y) is unique; where its bias is pinned too, by
    a free point, the decision values of the SMO model and of the optimum
    differ by at most 10 tol (3.2e-3 here) on the training points and on
    points around them."""
    unique = 0
    rng = np.random.default_rng(7)
    for case, X, y, K, C, model, opt in fits:
        lo, hi = opt.bias
        if hi - lo > 1e-9:
            continue
        unique += 1
        points = np.vstack([X, X + rng.normal(scale=0.5, size=X.shape)])
        want = kernel_matrix(model.kernel, points, X) @ (opt.a * y) + (lo + hi) / 2
        assert np.abs(model.decision_values(points) - want).max() <= 10 * TOL, case
    assert unique >= len(fits) // 2
