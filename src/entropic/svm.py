"""Kernel soft-margin SVM: SMO training, one-vs-one multiclass, CV, grid search.

The binary trainer solves the standard dual

    max  sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0

by two-variable coordinate ascent on the maximal violating pair, stopping
when the KKT gap drops below tol. Predictions use
f(v) = b + sum_i alpha_i k(v, sv_i) with label-signed alphas.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TrainingError

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family with parameters.

    family is 'linear', 'polynomial' or 'gaussian'. The polynomial defaults,
    (x.y + 1)^2, are experiment 3's kernel. ``scale`` multiplies the kernel
    value uniformly; it exists only for rescaling-invariance checks and
    defaults to 1.
    """

    family: str
    degree: int = 2
    offset: float = 1.0
    sigma: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in ("linear", "polynomial", "gaussian"):
            raise TrainingError(f"unknown kernel family: {self.family!r}")
        if self.family == "polynomial" and self.degree < 1:
            raise TrainingError("polynomial degree must be >= 1")
        if self.family == "gaussian" and not 0 < self.sigma < math.inf:
            raise TrainingError(f"gaussian sigma must be positive and finite, got {self.sigma}")
        if self.scale <= 0:
            raise TrainingError("kernel scale must be positive")

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
        K = dots
    elif spec.family == "polynomial":
        K = (dots + spec.offset) ** spec.degree
    else:
        sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * dots
        np.maximum(sq, 0.0, out=sq)
        K = np.exp(-sq / (2.0 * spec.sigma**2))
    return spec.scale * K


def kernel_eval(spec: KernelSpec, u: Sequence[float], v: Sequence[float]) -> float:
    """Evaluate k(u, v) for a single pair of vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise TrainingError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(kernel_matrix(spec, u[None, :], v[None, :])[0, 0])


@dataclass(frozen=True)
class LabeledPoint:
    """Feature vector with a class label and optional provenance."""

    features: np.ndarray
    label: object
    provenance: tuple | None = None

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
    # Training record, not saved by to_json: pair updates made, the final
    # KKT gap (max over 'up' minus min over 'low' of y - f) and whether it
    # reached tol. A model built any other way carries the defaults.
    iterations: int = 0
    kkt_gap: float = math.nan
    converged: bool = False

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

    def to_json(self) -> str:
        doc = {
            "version": MODEL_FORMAT_VERSION,
            "kernel": {
                "family": self.kernel.family,
                "degree": self.kernel.degree,
                "offset": self.kernel.offset,
                "sigma": self.kernel.sigma,
                "scale": self.kernel.scale,
            },
            "support_vectors": self.support_vectors.tolist(),
            "alpha": self.alpha.tolist(),
            "bias": self.bias,
            "class_pair": list(self.class_pair),
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "SvmModel":
        doc = json.loads(text)
        if doc.get("version") != MODEL_FORMAT_VERSION:
            raise TrainingError(f"unsupported model format version: {doc.get('version')}")
        n_features = len(doc["support_vectors"][0]) if doc["support_vectors"] else 0
        return SvmModel(
            support_vectors=np.array(doc["support_vectors"], dtype=np.float64).reshape(-1, n_features),
            alpha=np.array(doc["alpha"], dtype=np.float64),
            bias=float(doc["bias"]),
            kernel=KernelSpec(**doc["kernel"]),
            class_pair=tuple(doc["class_pair"]),
        )


def decision_value(m: SvmModel, v: Sequence[float]) -> float:
    """f(v) = b + sum_i alpha_i k(v, sv_i)."""
    v = np.asarray(v, dtype=np.float64)
    return float(m.decision_values(v[None, :])[0])


def _sorted_classes(labels: Sequence) -> list:
    return sorted(set(labels), key=lambda c: (str(type(c)), c))


def train_binary(
    data: Sequence[LabeledPoint],
    kernel: KernelSpec,
    C: float = 1.0,
    tol: float = 1e-3,
    max_iter: int | None = None,
) -> SvmModel:
    """Train a binary soft-margin SVM by SMO on the maximal violating pair.

    The first class in sorted label order maps to -1, the second to +1. The
    bias is the mean of y - f over free support vectors (0 < a < C), or the
    midpoint of the KKT interval when none are free. Training stops when the
    KKT gap falls to tol, after max_iter pair updates, or when the maximal
    violating pair cannot move; the model records the updates made, the
    final gap and whether it is within tol (``converged``).
    """
    if not 0 < C < math.inf:
        raise TrainingError(f"C must be positive and finite, got {C}")
    if not 0 < tol < math.inf:
        raise TrainingError(f"tol must be positive and finite, got {tol}")
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

    # On problems of tens of points a NumPy call costs more than the
    # arithmetic it does, so the per-pair scalars are Python floats.
    ys = y.tolist()
    a = [0.0] * n
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    eps = 1e-12 * C
    upper = C - eps
    # up_y[i] is y_i if alpha_i may move so that y_i alpha_i grows (the 'up'
    # set), else -inf; low_y likewise for 'low' with +inf. So up_y - f is
    # y - f masked for the argmax without a np.where. All alpha start at 0.
    up_y = np.where(y > 0, y, -np.inf)
    low_y = np.where(y < 0, y, np.inf)
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
    )


@dataclass(frozen=True)
class MulticlassModel:
    """One-vs-one ensemble: one binary model per unordered class pair."""

    classes: tuple
    models: tuple[SvmModel, ...]

    def predict(self, X: np.ndarray) -> list:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n = X.shape[0]
        votes = {c: np.zeros(n) for c in self.classes}
        margins = {c: np.zeros(n) for c in self.classes}
        for m in self.models:
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
                range(len(self.classes)),
                key=lambda ci: (votes[self.classes[ci]][r], margins[self.classes[ci]][r], -ci),
            )
            out.append(self.classes[best])
        return out


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
    _, labels = _stack(data)
    classes = _sorted_classes(labels)
    if len(classes) < 2:
        raise TrainingError("multiclass training needs at least 2 classes")
    models = []
    for a, b in itertools.combinations(classes, 2):
        subset = [p for p in data if p.label in (a, b)]
        models.append(train_binary(subset, kernel, C=C, tol=tol))
    return MulticlassModel(classes=tuple(classes), models=tuple(models))


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
    """Per-fold accuracies from k-fold cross-validation."""

    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    stratified: bool  # False when stratification degraded to a plain shuffle


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
    """Seeded stratified k-fold CV; trains one-vs-one when > 2 classes."""
    X, labels = _stack(data)
    folds, stratified = stratified_folds(labels, k, seed)
    n_classes = len(set(labels))
    accs = []
    for fold in folds:
        test_mask = np.zeros(len(labels), dtype=bool)
        test_mask[fold] = True
        train_pts = [p for p, held in zip(data, test_mask) if not held]
        if n_classes == 2:
            model = train_binary(train_pts, kernel, C=C, tol=tol)
        else:
            model = train_multiclass(train_pts, kernel, C=C, tol=tol)
        preds = model.predict(X[test_mask])
        accs.append(accuracy(preds, [labels[i] for i in fold]))
    accs = tuple(accs)
    return CvResult(fold_accuracies=accs, mean_accuracy=float(np.mean(accs)), stratified=stratified)


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


def select_best_kernel(
    data: Sequence[LabeledPoint],
    kernels: Sequence[KernelSpec] | None = None,
    Cs: Sequence[float] = DEFAULT_C_GRID,
    tol: float = 1e-3,
    k: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    """Evaluate every (kernel, C) cell by k-fold CV and keep the argmax.

    Ties keep the earliest cell in grid order (linear before polynomial
    before gaussian, parameters ascending, then C ascending).
    """
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
    return GridSearchResult(kernel=best[0], C=best[1], mean_accuracy=best[2], table=tuple(table))
