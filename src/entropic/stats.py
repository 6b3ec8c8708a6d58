"""Descriptive statistics over entropy matrices.

Pearson correlations between actors, correlation means grouped by sex, and
Tukey box-plot summaries per audio column.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import StatsError


class ActorInfo(NamedTuple):
    actor_id: int
    sex: str  # 'male' or 'female'


class AudioInfo(NamedTuple):
    emotion: str
    intensity: str  # 'normal' or 'strong'
    statement: int
    repetition: int

    def column_key(self) -> str:
        return f"{self.emotion}-{self.intensity}-{self.statement}-{self.repetition}"


@dataclass(frozen=True)
class EntropyMatrix:
    """Actors x audios grid of persistent entropies with row/column metadata."""

    values: np.ndarray
    actor_meta: tuple[ActorInfo, ...]
    audio_meta: tuple[AudioInfo, ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise StatsError("entropy matrix must be 2-D")
        if values.shape[0] != len(self.actor_meta) or values.shape[1] != len(self.audio_meta):
            raise StatsError("entropy matrix shape does not match metadata")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def complete(self) -> bool:
        """Whether every cell holds a finite entropy (a missing one is NaN)."""
        return bool(np.isfinite(self.values).all())


def csv_text(rows) -> str:
    """CSV text of rows of str, int and Python float cells, a float as repr
    writes it; a field with a comma, quote, newline or carriage return is quoted."""
    # csv quotes a field holding a line terminator character; each row's "\r\n" becomes "\n".
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def missing_cells(m: EntropyMatrix) -> list[tuple[int, str]]:
    """(actor_id, column key) pairs that are absent from an incomplete matrix."""
    return [(m.actor_meta[i].actor_id, m.audio_meta[j].column_key())
            for i, j in np.argwhere(~np.isfinite(m.values))]


def require_complete(m: EntropyMatrix, error: type[Exception]) -> None:
    """Raise error, naming the first missing cells by actor and column, unless m is complete."""
    if not m.complete:
        cells = missing_cells(m)
        shown = ", ".join(f"actor {a}: {c}" for a, c in cells[:10])
        more = "" if len(cells) <= 10 else f" (+{len(cells) - 10} more)"
        raise error(f"entropy matrix incomplete; missing {shown}{more}")


def _row_correlations(x: np.ndarray) -> np.ndarray:
    """Pearson correlation of every pair of rows of x, as an n x n array.

    Products are summed one row against all rows at a time, so memory stays
    O(n * L) for n rows of length L.
    """
    if x.shape[1] < 2:
        raise StatsError("need at least 2 points")
    x = np.ascontiguousarray(x)  # so each row sum adds pairwise, as a 1-D sum does
    # Each row scaled by a power of two (exact) to magnitudes below 1, so no
    # sum below overflows; r does not change under a positive scale.
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, keepdims=True))[1])
    d = x - x.mean(axis=1, keepdims=True)
    var = (d * d).sum(axis=1)
    if np.any(var == 0.0):
        raise StatsError("correlation undefined for a constant sequence")
    cov = np.array([(row * d).sum(axis=1) for row in d])
    return cov / np.sqrt(var[:, None] * var[None, :])


def correlation_matrix(m: EntropyMatrix) -> np.ndarray:
    """Symmetric actor-by-actor Pearson matrix with exact unit diagonal."""
    require_complete(m, StatsError)
    if m.values.shape[0] < 2:
        return np.eye(m.values.shape[0])
    out = _row_correlations(m.values)
    np.fill_diagonal(out, 1.0)
    return out


def sex_grouped_correlation_means(
    corr: np.ndarray, sexes: Sequence[str]
) -> dict[tuple[str, str], float]:
    """Mean off-diagonal correlation per (sex, sex) block.

    Self-correlations (the unit diagonal) are excluded from within-sex means.
    A sex group with fewer than 2 members has an undefined within-sex mean,
    reported as NaN.
    """
    corr = np.asarray(corr, dtype=np.float64)
    n = corr.shape[0]
    if corr.shape != (n, n) or n != len(sexes):
        raise StatsError("correlation matrix / sex labels shape mismatch")
    if not np.allclose(corr, corr.T, atol=1e-9) or not np.allclose(np.diag(corr), 1.0):
        raise StatsError("expected a symmetric correlation matrix with unit diagonal")
    out: dict[tuple[str, str], float] = {}
    sex = np.asarray(sexes)
    off_diagonal = ~np.eye(n, dtype=bool)
    groups = sorted(set(sexes))
    for ga in groups:
        for gb in groups:
            entries = corr[np.outer(sex == ga, sex == gb) & off_diagonal]
            out[(ga, gb)] = float(np.mean(entries)) if entries.size else float("nan")
    return out


class BoxplotSummary(NamedTuple):
    """Five-number summary plus mean and Tukey-fence outliers."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    outliers: tuple[float, ...]


def _quartiles(x: np.ndarray) -> list[float]:
    """np.quantile(x, [0.25, 0.5, 0.75]) of a non-empty float64 array, bit
    for bit: the default 'linear' (type-7) method, step by step.

    np.quantile loads numpy.ma (about 1.25 MB) through np.unique, only to
    sort its partition indices.
    """
    n = x.size
    virtual = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    # The neighbours below and above each virtual index; -1, the maximum, past the end.
    lower = [-1 if v >= n - 1 else math.floor(v) for v in virtual]
    upper = [-1 if v >= n - 1 else i + 1 for v, i in zip(virtual, lower)]
    part = np.partition(x, sorted({0, -1, *lower, *upper}), axis=None)
    if math.isnan(part[-1]):  # a NaN sorts last and becomes every quantile
        return [part[-1]] * 3
    out = []
    for v, i, j in zip(virtual, lower, upper):
        a, b, t = part.item(i), part.item(j), v - i
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)  # numpy's _lerp, both branches
    return out


def summarize(values: Sequence[float]) -> BoxplotSummary:
    """Box-plot summary: type-7 quantiles, outliers beyond 1.5*IQR fences."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise StatsError("cannot summarize an empty group")
    # Scaled down by a power of two (exact) only as far as keeps the sum of
    # |x| below 2^1023, so that no sum or fence overflows, and each figure
    # scaled back; no further, so that a cell far below the others keeps its bits.
    exponent = max(int(np.frexp(np.abs(x).max())[1]) + x.size.bit_length() - 1023, 0)
    scaled = np.ldexp(x, -exponent)
    q1, med, q3 = _quartiles(scaled)
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = tuple(float(v) for v in np.sort(x[(scaled < lo) | (scaled > hi)]))
    return BoxplotSummary(
        minimum=float(x.min()),
        q1=math.ldexp(q1, exponent),
        median=math.ldexp(med, exponent),
        q3=math.ldexp(q3, exponent),
        maximum=float(x.max()),
        mean=math.ldexp(scaled.mean(), exponent),
        outliers=outliers,
    )


def boxplot_by_audio(m: EntropyMatrix) -> list[tuple[AudioInfo, BoxplotSummary]]:
    """One summary per audio column, over actors; grouped by the column's emotion."""
    require_complete(m, StatsError)
    return [(meta, summarize(m.values[:, col])) for col, meta in enumerate(m.audio_meta)]


def correlation_csv(corr: np.ndarray, actors: Sequence[ActorInfo]) -> str:
    """Correlation matrix as CSV with actor ids on both axes."""
    return csv_text([["actor", *(a.actor_id for a in actors)],
                     *([a.actor_id, *row] for a, row in zip(actors, corr.tolist()))])


def sex_means_csv(means: dict[tuple[str, str], float]) -> str:
    return csv_text([["sex_a", "sex_b", "mean_correlation"],
                     *([ga, gb, value] for (ga, gb), value in sorted(means.items()))])


def boxplot_csv(summaries: list[tuple[AudioInfo, BoxplotSummary]]) -> str:
    return csv_text([
        ["group", "emotion", "min", "q1", "median", "q3", "max", "mean", "outliers"],
        *([meta.column_key(), meta.emotion, s.minimum, s.q1, s.median, s.q3, s.maximum, s.mean,
           ";".join(map(repr, s.outliers))] for meta, s in summaries),
    ])
