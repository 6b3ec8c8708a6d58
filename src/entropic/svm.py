"""Kernel soft-margin SVM: SMO training, one-vs-one multiclass, CV, grid search.

The binary trainer solves the standard dual

    max  sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0

by two-variable coordinate ascent on the maximal violating pair, stopping
when the KKT gap drops below tol. Predictions use
f(v) = b + sum_i alpha_i k(v, sv_i) with label-signed alphas.

The grid search solves each problem along its C grid in ascending order,
starting every fit from the previous C's dual solution (alpha seeding,
DeCoste & Wagstaff 2000); cross-validation and one-vs-one training of a
single C are the one-step case of the same paths.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TrainingError

KERNEL_FAMILIES = ("linear", "polynomial", "gaussian")
_MAX_ITER = 200_000  # the most SMO pair updates one fit makes, whatever its size


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with parameters.

    family is one of KERNEL_FAMILIES. The polynomial defaults, (x.y + 1)^2,
    are experiment 3's kernel.
    """

    family: str
    degree: int = 2
    offset: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise TrainingError(f"unknown kernel family: {self.family!r}")
        # A degree float64 does not hold would make kernel_matrix raise OverflowError.
        if self.family == "polynomial" and not (type(self.degree) is int and 1 <= self.degree <= sys.float_info.max
                                                and math.isfinite(self.offset)):
            raise TrainingError(f"polynomial degree must be >= 1 and an int that float64 holds, "
                                f"and offset finite, got {self.describe()}")
        # kernel_matrix divides by 2 sigma^2, which must neither underflow to 0 nor overflow.
        if self.family == "gaussian" and not (self.sigma > 0 and 0 < 2.0 * (self.sigma * self.sigma) < math.inf):
            raise TrainingError(
                f"gaussian sigma must be positive and finite, as must 2 sigma^2, got {self.sigma}")

    def describe(self) -> str:
        if self.family == "linear":
            return "linear"
        if self.family == "polynomial":
            return f"polynomial(d={self.degree}, c={self.offset})"
        return f"gaussian(sigma={self.sigma})"

    @classmethod
    def parse(cls, text: str) -> KernelSpec:
        """The spec whose describe() is text; a bare 'linear' or 'polynomial' (its defaults) too."""
        match = _DESCRIBED.fullmatch(text)
        if match is None:
            raise TrainingError(f"kernel must be linear, polynomial, polynomial(d=D, c=C) "
                                f"or gaussian(sigma=S), got {text!r}")
        bare, degree, offset, sigma = match.groups()
        if bare:
            return cls(bare)
        if sigma is None:
            try:
                return cls("polynomial", degree=int(degree), offset=float(offset))
            except ValueError:  # more digits than int() reads
                raise TrainingError(f"polynomial degree must be >= 1 and an int that float64 holds, "
                                    f"got one of {len(degree.lstrip('-'))} digits") from None
        return cls("gaussian", sigma=float(sigma))


# What describe() writes, and a bare family name that parse() takes with its defaults.
_NUMBER = r"(-?(?:\d+(?:\.\d+)?(?:e[-+]?\d+)?|inf|nan))"  # a Python int or float repr
_DESCRIBED = re.compile(rf"(linear|polynomial)|polynomial\(d=(-?\d+), c={_NUMBER}\)"
                        rf"|gaussian\(sigma={_NUMBER}\)")


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(X[i], Y[j]); a value beyond float64 is inf or nan, with no warning."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise TrainingError(f"feature dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        dots = X @ Y.T
        if spec.family == "linear":
            return dots
        if spec.family == "polynomial":
            return (dots + spec.offset) ** float(spec.degree)
        sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * dots
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * spec.sigma**2))


class LabeledPoint(NamedTuple):
    """Feature vector (or scalar) with a class label; _stack checks it when it is trained on."""

    features: np.ndarray
    label: object


def _stack(data: Sequence[LabeledPoint]) -> tuple[np.ndarray, list]:
    """The points' flattened features as the rows of a new float64 X, and their labels.

    The one check of feature values: some points, one feature dimension, every value finite.
    """
    if not data:
        raise TrainingError("empty dataset")
    rows = [np.asarray(p.features, dtype=np.float64).reshape(-1) for p in data]
    dims = {row.size for row in rows}
    if len(dims) != 1:
        raise TrainingError(f"inconsistent feature dimensions: {sorted(dims)}")
    X = np.stack(rows)
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature value")
    return X, [p.label for p in data]


class _Problem(NamedTuple):
    """A binary problem as train_binary sets it up, kept for warm starts along C."""

    points: tuple  # the LabeledPoint objects, in order
    kernel: KernelSpec
    classes: tuple  # (neg, pos)
    X: np.ndarray
    y: np.ndarray  # -1.0 for neg, +1.0 for pos
    K: np.ndarray
    K_cols: list  # K_cols[i] is K[:, i], as a contiguous row
    K_diag: list


def _set_up(data: Sequence[LabeledPoint], kernel: KernelSpec) -> _Problem:
    X, labels = _stack(data)
    classes = _sorted_classes(labels)
    if len(classes) != 2:
        raise TrainingError(f"binary training needs exactly 2 classes, got {len(classes)}")
    neg, pos = classes
    K = kernel_matrix(kernel, X, X)
    if not np.isfinite(K).all():
        raise TrainingError(f"{kernel.describe()} kernel matrix is not finite on these features")
    y = np.array([-1.0 if lab == neg else 1.0 for lab in labels])
    return _Problem(tuple(data), kernel, (neg, pos), X, y, K, list(np.ascontiguousarray(K.T)),
                    K.diagonal().tolist())


@dataclass(frozen=True)
class SvmModel:
    """Trained binary classifier separating class_pair[0] (sign -) from class_pair[1] (sign +)."""

    support_vectors: np.ndarray
    alpha: np.ndarray  # label-signed dual coefficients
    bias: float
    kernel: KernelSpec
    class_pair: tuple
    # Training record: pair updates made, the final KKT gap (max over 'up'
    # minus min over 'low' of y - f) and whether it reached tol. A model
    # built any other way carries the defaults.
    iterations: int = 0
    kkt_gap: float = math.nan
    converged: bool = False
    # Solver state, set by train_binary alone: the dual variable of every
    # training point in order (not label-signed), f without the bias, and
    # the problem, Gram matrix included, that train_binary(start=...)
    # resumes on. None on a model built any other way. _one_vs_one_path
    # drops _problem at the end of each pair's path, so that the models it
    # returns stay small.
    dual: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    f: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _problem: _Problem | None = field(default=None, init=False, repr=False, compare=False)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if len(self.alpha) == 0:
            return np.full(X.shape[0], self.bias)
        with np.errstate(over="ignore", invalid="ignore"):
            values = kernel_matrix(self.kernel, X, self.support_vectors) @ self.alpha + self.bias
        if not np.isfinite(values).all():
            raise TrainingError(f"{self.kernel.describe()} decision values are not finite on these features")
        return values

    def predict(self, X: np.ndarray) -> list:
        values = self.decision_values(X)
        neg, pos = self.class_pair
        return [neg if v < 0 else pos for v in values]


def _sorted_classes(labels: Sequence) -> list:
    return sorted(set(labels), key=lambda c: (str(type(c)), c))


def check_solver_params(C: float, tol: float) -> None:
    """Refuse a C or tol that is not positive and finite."""
    if not 0 < C < math.inf:
        raise TrainingError(f"C must be positive and finite, got {C}")
    if not 0 < tol < math.inf:
        raise TrainingError(f"tol must be positive and finite, got {tol}")


def train_binary(
    data: Sequence[LabeledPoint],
    kernel: KernelSpec,
    C: float = 1.0,
    tol: float = 1e-3,
    *,
    start: SvmModel | None = None,
) -> SvmModel:
    """Train a binary soft-margin SVM by SMO on the maximal violating pair.

    The first class in sorted label order maps to -1, the second to +1. The
    bias is the mean of y - f over free support vectors (0 < a < C), or the
    midpoint of the final KKT interval when none are free. Training stops
    when the KKT gap falls to tol, after min(10 n^2, _MAX_ITER) pair updates
    on n points, or when the maximal violating pair cannot move; the model
    records the updates made, the final gap and whether it is within tol
    (``converged``).

    ``start`` makes SMO resume from a model's dual solution instead of
    alpha = 0, on its Gram matrix. It must be the model that train_binary
    returned for these very LabeledPoint objects, in this order, with an
    equal kernel, and with no dual variable above C; any other start, or
    one whose problem was dropped, is refused. A start that already meets
    tol returns its alphas unchanged after 0 updates.
    """
    check_solver_params(C, tol)
    eps = 1e-12 * C
    if start is None:
        problem = _set_up(data, kernel)
        a = [0.0] * len(problem.y)
        f = np.zeros(len(problem.y))  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    else:
        problem = start._problem
        if (problem is None or problem.kernel != kernel or len(problem.points) != len(data)
                or not all(map(operator.is_, problem.points, data))):
            raise TrainingError("start is not a model trained on these points with this kernel")
        a = start.dual.tolist()
        if max(a) > C + eps:  # SMO can leave an alpha one rounding above its C
            raise TrainingError(f"start has a dual variable above C={C}")
        f = start.f.copy()
    _, _, (neg, pos), X, y, K, K_cols, K_diag = problem

    n = len(y)
    max_iter = min(10 * n * n, _MAX_ITER)
    upper = C - eps
    # On problems of tens of points a NumPy call costs more than the
    # arithmetic it does, so the per-pair scalars are Python floats.
    ys = y.tolist()
    # up_y[k] is y_k if alpha_k may move so that y_k alpha_k grows (the 'up'
    # set), else -inf; low_y likewise for 'low' with +inf. So up_y - f is
    # y - f masked for the argmax without a np.where. They are set for every
    # point, then for the pair that each update moves.
    up_y, low_y = np.empty(n), np.empty(n)
    moved = range(n)
    iterations = 0
    while True:
        for k in moved:
            yk, ak = ys[k], a[k]
            up_y[k] = yk if (ak < upper if yk > 0 else ak > eps) else -math.inf
            low_y[k] = yk if (ak > eps if yk > 0 else ak < upper) else math.inf
        up_vals = up_y - f  # y - f = -y * gradient, on 'up'
        low_vals = low_y - f
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        gap_lo, gap_hi = low_vals.item(j), up_vals.item(i)
        kkt_gap = gap_hi - gap_lo
        if kkt_gap <= tol or iterations == max_iter:
            break

        ai, aj, yi, yj = a[i], a[j], ys[i], ys[j]
        eta = K_diag[i] + K_diag[j] - 2.0 * K.item(i, j)
        if eta <= 0:
            eta = 1e-12
        # Errors relative to targets; the bias cancels in the difference.
        e_diff = (f.item(i) - yi) - (f.item(j) - yj)
        if yi != yj:
            lo_b = max(0.0, aj - ai)
            hi_b = min(C, C + aj - ai)
        else:
            lo_b = max(0.0, ai + aj - C)
            hi_b = min(C, ai + aj)
        aj_new = min(max(aj + yj * e_diff / eta, lo_b), hi_b)
        dj = aj_new - aj
        if dj == 0.0:
            break  # numerically stuck on the most violating pair
        ai_new = ai + yi * yj * (aj - aj_new)
        a[i] = ai_new
        a[j] = aj_new
        f += ((ai_new - ai) * yi) * K_cols[i] + (dj * yj) * K_cols[j]
        moved = (i, j)
        iterations += 1

    # np.mean's arithmetic on the free points, else the midpoint of the KKT interval: a
    # dual with sum(alpha * y) = 0 on two classes keeps 'up' and 'low' non-empty.
    free = [k for k, ak in enumerate(a) if eps < ak < upper]
    bias = float(np.add.reduce(y[free] - f[free]) / len(free)) if free else (gap_lo + gap_hi) / 2.0

    keep = [k for k, ak in enumerate(a) if ak > 0.0]
    model = SvmModel(
        support_vectors=X[keep],
        alpha=np.array([a[k] * ys[k] for k in keep]),
        bias=bias,
        kernel=kernel,
        class_pair=(neg, pos),
        iterations=iterations,
        kkt_gap=kkt_gap,
        converged=kkt_gap <= tol,
    )
    for name, value in (("dual", np.array(a)), ("f", f), ("_problem", problem)):
        object.__setattr__(model, name, value)
    return model


@dataclass(frozen=True)
class MulticlassModel:
    """One-vs-one ensemble: one binary model per unordered class pair."""

    classes: tuple
    models: tuple[SvmModel, ...]

    def predict(self, X: np.ndarray) -> list:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        index = {c: i for i, c in enumerate(self.classes)}
        votes = np.zeros((len(self.classes), X.shape[0]))  # classes x points
        margins = np.zeros_like(votes)
        points = np.arange(X.shape[0])
        for m in self.models:
            values = m.decision_values(X)
            neg, pos = m.class_pair
            winner = np.where(values < 0, index[neg], index[pos])
            votes[winner, points] += 1.0
            margins[winner, points] += np.abs(values)
        # Most votes, then the largest margin; argmax keeps the first class of a tie.
        best = np.where(votes == votes.max(axis=0), margins, -np.inf).argmax(axis=0)
        return [self.classes[i] for i in best]


def train_multiclass(
    data: Sequence[LabeledPoint],
    kernel: KernelSpec,
    C: float = 1.0,
    tol: float = 1e-3,
) -> MulticlassModel:
    """Train C(k,2) pairwise binary models; predict by majority vote.

    Ties are broken by the largest summed |decision value| margin, then by
    class order.
    """
    return _one_vs_one_path(data, kernel, (C,), tol)[0]


def _one_vs_one_path(data: Sequence[LabeledPoint], kernel: KernelSpec, Cs: Sequence[float],
                     tol: float) -> list[MulticlassModel]:
    """One one-vs-one ensemble per C.

    Each class pair is fitted along Cs in the order given, each fit starting
    from the previous one's dual solution when C did not decrease, since
    every alpha <= the previous C <= C; otherwise from 0.
    """
    classes = _sorted_classes([p.label for p in data])
    if len(classes) < 2:
        raise TrainingError("multiclass training needs at least 2 classes")
    paths = []
    for pair in itertools.combinations(classes, 2):
        pair_data = [p for p in data if p.label in pair]
        models: list[SvmModel] = []
        for i, C in enumerate(Cs):
            start = models[-1] if i and Cs[i - 1] <= C else None
            models.append(train_binary(pair_data, kernel, C=C, tol=tol, start=start))
        for model in models:
            object.__setattr__(model, "_problem", None)
        paths.append(models)
    return [MulticlassModel(classes=tuple(classes), models=models) for models in zip(*paths)]


def accuracy(predicted: Sequence, truth: Sequence) -> float:
    """Fraction of positions where predicted equals truth."""
    if len(predicted) != len(truth):
        raise TrainingError(f"length mismatch: {len(predicted)} vs {len(truth)}")
    if len(truth) == 0:
        raise TrainingError("empty sequences")
    hits = sum(1 for p, t in zip(predicted, truth) if p == t)
    return hits / len(truth)


@dataclass(frozen=True)
class CvResult:
    """Per-fold accuracies from k-fold cross-validation, and how its binary fits converged."""

    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    fits: int  # binary models trained over all folds
    iterations: int  # their SMO pair updates, summed
    kkt_gap: float  # their largest final KKT gap
    unconverged: int  # fits that stopped with a KKT gap above tol


def _rng(seed) -> random.Random:
    """The generator of every seeded shuffle; Python keeps its random() draws for a seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise TrainingError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def _shuffled(items: Sequence[int], rng: random.Random) -> np.ndarray:
    """The items in a Fisher-Yates order, as intp: from the end, item i swaps
    with item int(rng.random() * (i + 1))."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return np.array(items, dtype=np.intp)


def _shuffled_by_class(labels: Sequence, seed: int) -> dict:
    """Each class's indices in a seeded random order, keyed by class in order
    of first appearance. One generator shuffles the classes in sorted order,
    so the draws do not depend on the order in which the classes appear."""
    rng = _rng(seed)
    by_class: dict = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)
    for lab in _sorted_classes(labels):
        by_class[lab] = _shuffled(by_class[lab], rng)
    return by_class


def stratified_folds(labels: Sequence, k: int, seed: int) -> list[np.ndarray]:
    """Split indices into k folds preserving class proportions within +-1.

    Classes with fewer than 2 points cannot be stratified usefully; if there
    is one, a plain shuffled split is returned instead.
    """
    n = len(labels)
    if k < 2:
        raise TrainingError("k must be at least 2")
    if k > n:
        raise TrainingError(f"k={k} exceeds dataset size {n}")
    by_class = _shuffled_by_class(labels, seed)
    if all(len(v) >= 2 for v in by_class.values()):
        order = np.concatenate([by_class[lab] for lab in _sorted_classes(labels)])
    else:
        order = _shuffled(range(n), _rng(seed))
    return [np.sort(order[fold::k]) for fold in range(k)]


def stratified_split(labels: Sequence, n_train: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified split with exactly n_train training points.

    Each class gives the floor of its share of n_train; the classes with the
    largest remainders (ties in order of first appearance) give one more.
    Returns the ascending train and test indices.
    """
    by_class = _shuffled_by_class(labels, seed)
    frac = n_train / len(labels)
    quotas = {lab: int(np.floor(frac * len(idxs))) for lab, idxs in by_class.items()}
    by_remainder = sorted(by_class, key=lambda lab: frac * len(by_class[lab]) - quotas[lab], reverse=True)
    for lab in by_remainder[: n_train - sum(quotas.values())]:
        quotas[lab] += 1
    train = np.sort(np.concatenate([idxs[: quotas[lab]] for lab, idxs in by_class.items()]))
    test = np.ones(len(labels), dtype=bool)
    test[train] = False
    return train, np.flatnonzero(test)


def kfold_cross_validate(
    data: Sequence[LabeledPoint],
    kernel: KernelSpec,
    C: float = 1.0,
    tol: float = 1e-3,
    k: int = 5,
    seed: int = 0,
) -> CvResult:
    """Seeded stratified k-fold CV of a one-vs-one model (one pair for two classes)."""
    return _cv_path(data, kernel, (C,), tol, k, seed)[0]


def _cv_path(data: Sequence[LabeledPoint], kernel: KernelSpec, Cs: Sequence[float],
             tol: float, k: int, seed: int) -> list[CvResult]:
    """k-fold CV of every C, on the same folds; each fold's models are fitted along Cs."""
    X, labels = _stack(data)
    folds = stratified_folds(labels, k, seed)
    accs: list[list[float]] = [[] for _ in Cs]
    # (iterations, kkt_gap, converged) of each fit; the models themselves would
    # keep every fold's ensembles in memory.
    fits: list[list[tuple]] = [[] for _ in Cs]
    for fold in folds:
        held = set(fold.tolist())
        train_pts = [p for i, p in enumerate(data) if i not in held]
        truth = [labels[i] for i in fold]
        for c, model in enumerate(_one_vs_one_path(train_pts, kernel, Cs, tol)):
            accs[c].append(accuracy(model.predict(X[fold]), truth))
            fits[c] += [(m.iterations, m.kkt_gap, m.converged) for m in model.models]
    results = []
    for a, fit in zip(accs, fits):
        iterations, gaps, converged = zip(*fit)
        results.append(CvResult(
            fold_accuracies=tuple(a),
            mean_accuracy=float(np.mean(a)),
            fits=len(fit),
            iterations=sum(iterations),
            kkt_gap=max(gaps),
            unconverged=converged.count(False),
        ))
    return results


def median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean distance between distinct rows (the sigma heuristic)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if n < 2:
        return 1.0
    # Row by row: the same per-pair sums over the feature axis as an (n, n, d)
    # array of differences, without holding one.
    d = np.sqrt(np.concatenate([((X[i] - X[i + 1:]) ** 2).sum(axis=1) for i in range(n - 1)]))
    d.sort()
    # numpy's median: the middle value, or the mean of the two middle values.
    mid = len(d) // 2
    med = float(d[mid] if len(d) % 2 else (d[mid - 1] + d[mid]) / 2)
    return med if med > 0 else 1.0


def default_kernel_grid(X: np.ndarray) -> list[KernelSpec]:
    """Linear, then polynomial (d, c ascending), then gaussian around the median heuristic."""
    s = median_pairwise_distance(X)
    grid = [KernelSpec("linear")]
    for d in (2, 3):
        for c in (0.0, 1.0):
            grid.append(KernelSpec("polynomial", degree=d, offset=c))
    for mult in (0.1, 1.0, 10.0):
        grid.append(KernelSpec("gaussian", sigma=mult * s))
    return grid


DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of an exhaustive kernel/C grid search."""

    kernel: KernelSpec
    C: float
    mean_accuracy: float
    table: tuple[tuple[str, float, float], ...]  # (kernel description, C, accuracy)
    cells: tuple[CvResult, ...]  # the CV of each table row, with its fit roll-up


def select_best_kernel(
    data: Sequence[LabeledPoint],
    kernels: Sequence[KernelSpec] | None = None,
    Cs: Sequence[float] = DEFAULT_C_GRID,
    tol: float = 1e-3,
    k: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    """Evaluate every (kernel, C) cell by k-fold CV and keep the argmax.

    Each kernel's folds and class pairs are fitted along Cs in the order
    given, warm-started where C ascends, so a cell can differ from a cold
    fit within tol. A cell with an unconverged fit is picked only when every
    cell has one. Ties keep the earliest cell in grid order (linear before
    polynomial before gaussian, parameters ascending, then C in grid order).
    """
    X, _ = _stack(data)
    if kernels is None:
        kernels = default_kernel_grid(X)
    if not kernels or not Cs:
        raise TrainingError("empty kernel or C grid")
    grid = [(spec, float(C)) for spec in kernels for C in Cs]
    cells = [cv for spec in kernels for cv in _cv_path(data, spec, Cs, tol, k, seed)]
    converged = [i for i, cv in enumerate(cells) if cv.unconverged == 0]
    best = max(converged or range(len(cells)), key=lambda i: cells[i].mean_accuracy)
    return GridSearchResult(
        kernel=grid[best][0],
        C=grid[best][1],
        mean_accuracy=cells[best].mean_accuracy,
        table=tuple((spec.describe(), C, cv.mean_accuracy) for (spec, C), cv in zip(grid, cells)),
        cells=tuple(cells),
    )
