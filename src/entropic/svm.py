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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TrainingError

KERNEL_FAMILIES = ("linear", "polynomial", "gaussian")


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
        if self.family == "polynomial" and self.degree < 1:
            raise TrainingError("polynomial degree must be >= 1")
        if self.family == "gaussian" and not 0 < self.sigma < math.inf:
            raise TrainingError(f"gaussian sigma must be positive and finite, got {self.sigma}")

    def describe(self) -> str:
        if self.family == "linear":
            return "linear"
        if self.family == "polynomial":
            return f"polynomial(d={self.degree}, c={self.offset})"
        return f"gaussian(sigma={self.sigma})"


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(X[i], Y[j])."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise TrainingError(f"feature dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    dots = X @ Y.T
    if spec.family == "linear":
        return dots
    if spec.family == "polynomial":
        return (dots + spec.offset) ** spec.degree
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * dots
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * spec.sigma**2))


@dataclass(frozen=True)
class LabeledPoint:
    """Feature vector with a class label."""

    features: np.ndarray
    label: object

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(feats)):
            raise TrainingError("non-finite feature value")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)


def _stack(data: Sequence[LabeledPoint]) -> tuple[np.ndarray, list]:
    if not data:
        raise TrainingError("empty dataset")
    dims = {p.features.size for p in data}
    if len(dims) != 1:
        raise TrainingError(f"inconsistent feature dimensions: {sorted(dims)}")
    X = np.stack([p.features for p in data])
    labels = [p.label for p in data]
    return X, labels


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
    # Solver state that train_binary(start=...) resumes from: the dual
    # variable of every training point in order (not label-signed) and f
    # without the bias. None on a model built any other way.
    dual: np.ndarray | None = field(default=None, repr=False, compare=False)
    f: np.ndarray | None = field(default=None, repr=False, compare=False)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if len(self.alpha) == 0:
            return np.full(X.shape[0], self.bias)
        K = kernel_matrix(self.kernel, X, self.support_vectors)
        return K @ self.alpha + self.bias

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
    max_iter: int | None = None,
    *,
    start: SvmModel | None = None,
) -> SvmModel:
    """Train a binary soft-margin SVM by SMO on the maximal violating pair.

    The first class in sorted label order maps to -1, the second to +1. The
    bias is the mean of y - f over free support vectors (0 < a < C), or the
    midpoint of the KKT interval when none are free. Training stops when the
    KKT gap falls to tol, after max_iter pair updates, or when the maximal
    violating pair cannot move; the model records the updates made, the
    final gap and whether it is within tol (``converged``).

    ``start``, a model that train_binary returned for the same points and
    kernel, makes SMO resume from its dual solution instead of alpha = 0.
    That solution is feasible when no alpha in it exceeds C, since it keeps
    sum(alpha * y) = 0; a start that already meets tol returns its alphas
    unchanged after 0 updates.
    """
    check_solver_params(C, tol)
    X, labels = _stack(data)
    classes = _sorted_classes(labels)
    if len(classes) != 2:
        raise TrainingError(f"binary training needs exactly 2 classes, got {len(classes)}")
    neg, pos = classes
    y = np.array([-1.0 if lab == neg else 1.0 for lab in labels])

    n = len(y)
    if max_iter is None:
        max_iter = min(10 * n * n, 200_000)
    K = kernel_matrix(kernel, X, X)
    if not np.isfinite(K).all():
        raise TrainingError(f"{kernel.describe()} kernel matrix is not finite on these features")
    K_cols = np.ascontiguousarray(K.T)  # K_cols[i] is K[:, i], read without a stride
    K_diag = K.diagonal().tolist()

    eps = 1e-12 * C
    upper = C - eps
    if start is None:
        alpha = np.zeros(n)
        f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    elif start.dual is None or len(start.dual) != n or start.class_pair != (neg, pos):
        raise TrainingError("start is not a model trained on these points")
    elif (start.dual > C + eps).any():  # SMO can leave an alpha one rounding above its C
        raise TrainingError(f"start has a dual variable above C={C}")
    else:
        alpha, f = start.dual, start.f.copy()
    # On problems of tens of points a NumPy call costs more than the
    # arithmetic it does, so the per-pair scalars are Python floats.
    ys = y.tolist()
    a = alpha.tolist()
    # up_y[i] is y_i if alpha_i may move so that y_i alpha_i grows (the 'up'
    # set), else -inf; low_y likewise for 'low' with +inf. So up_y - f is
    # y - f masked for the argmax without a np.where.
    up_y = np.where(np.where(y > 0, alpha < upper, alpha > eps), y, -np.inf)
    low_y = np.where(np.where(y > 0, alpha > eps, alpha < upper), y, np.inf)
    gap_lo = -math.inf
    gap_hi = math.inf
    iterations = 0
    for _ in range(max_iter):
        up_vals = up_y - f  # y - f = -y * gradient, on 'up'
        low_vals = low_y - f
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        gap_lo, gap_hi = low_vals.item(j), up_vals.item(i)
        if gap_hi - gap_lo <= tol:
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
        di = ai_new - ai
        a[i] = ai_new
        a[j] = aj_new
        f += (di * yi) * K_cols[i] + (dj * yj) * K_cols[j]
        for k, ak in ((i, ai_new), (j, aj_new)):
            yk = ys[k]
            up_y[k] = yk if (ak < upper if yk > 0 else ak > eps) else -math.inf
            low_y[k] = yk if (ak > eps if yk > 0 else ak < upper) else math.inf
        iterations += 1

    alpha = np.array(a)
    kkt_gap = float((up_y - f).max() - (low_y - f).min())
    free = (alpha > eps) & (alpha < upper)
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
        kkt_gap=kkt_gap,
        converged=kkt_gap <= tol,
        dual=alpha,
        f=f,
    )


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


def _binary_path(data: Sequence[LabeledPoint], kernel: KernelSpec, Cs: Sequence[float],
                 tol: float) -> list[SvmModel]:
    """One binary model per C, fitted in the order given.

    Each fit starts from the previous one's dual solution when C did not
    decrease, since every alpha <= the previous C <= C; otherwise from 0.
    """
    models: list[SvmModel] = []
    for i, C in enumerate(Cs):
        start = models[-1] if i and Cs[i - 1] <= C else None
        models.append(train_binary(data, kernel, C=C, tol=tol, start=start))
    return models


def _one_vs_one_path(data: Sequence[LabeledPoint], kernel: KernelSpec, Cs: Sequence[float],
                     tol: float) -> list[MulticlassModel]:
    """One one-vs-one ensemble per C; each class pair is fitted along Cs."""
    _, labels = _stack(data)
    classes = _sorted_classes(labels)
    if len(classes) < 2:
        raise TrainingError("multiclass training needs at least 2 classes")
    paths = [_binary_path([p for p in data if p.label in pair], kernel, Cs, tol)
             for pair in itertools.combinations(classes, 2)]
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


def _shuffled_by_class(labels: Sequence, seed: int) -> dict:
    """Each class's indices in a seeded random order, keyed by class in order
    of first appearance. One generator shuffles the classes in sorted order,
    so the draws do not depend on the order in which the classes appear."""
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)
    for lab in _sorted_classes(labels):
        idxs = np.array(by_class[lab], dtype=np.intp)
        rng.shuffle(idxs)
        by_class[lab] = idxs
    return by_class


def stratified_folds(labels: Sequence, k: int, seed: int) -> tuple[list[np.ndarray], bool]:
    """Split indices into k folds preserving class proportions within +-1.

    Classes with fewer than 2 points cannot be stratified usefully; in that
    case a plain shuffled split is returned with stratified=False.
    """
    n = len(labels)
    if k < 2:
        raise TrainingError("k must be at least 2")
    if k > n:
        raise TrainingError(f"k={k} exceeds dataset size {n}")
    by_class = _shuffled_by_class(labels, seed)
    stratified = all(len(v) >= 2 for v in by_class.values())
    if stratified:
        order = np.concatenate([by_class[lab] for lab in _sorted_classes(labels)])
    else:
        order = np.random.default_rng(seed).permutation(n)
    return [np.sort(order[fold::k]) for fold in range(k)], stratified


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
    return train, np.setdiff1d(np.arange(len(labels)), train)


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
    folds, _ = stratified_folds(labels, k, seed)
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
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(sq[np.triu_indices(n, k=1)])
    med = float(np.median(d))
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
