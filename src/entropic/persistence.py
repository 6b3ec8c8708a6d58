"""0-dimensional sublevel-set persistence of 1-D signals and its entropy.

The filtration is the lower-star filtration of the path graph on the samples:
vertices enter at their height, each edge enters with its higher endpoint.
Components are born at local minima; when two components meet at a local
maximum the one with the older (lower) birth survives and the younger dies
(elder rule). Exactly one bar never dies; it is born at the global minimum.

The pairing needs no sweep (Edelsbrunner & Harer, Computational Topology,
2010): a local maximum joins the two components that reach out to the
nearest higher maximum on each side, and each component is born at its
lowest minimum. Both are range queries on sparse tables (Bender &
Farach-Colton, LATIN 2000), answered for all maxima at once in O(log n)
NumPy passes; the brute-force oracle below re-scans instead and shares none
of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BarcodeError
from .signal import DEFAULT_TARGET_LEN, CanonicalSignal, Signal, canonicalize, subsample
from .stats import csv_text

INFINITE = math.inf

_ORACLE_MAX_LEN = 4096
_ABOVE = np.iinfo(np.int64).max  # a sentinel above every order key


@dataclass(frozen=True)
class Barcode:
    """Bars [births[i], deaths[i]) plus the maximum filtration value.

    ``births`` and ``deaths`` are read-only float64 copies of equal length;
    the essential bar's death is INFINITE.
    """

    births: np.ndarray
    deaths: np.ndarray
    f_max: float

    def __post_init__(self) -> None:
        births = np.array(self.births, dtype=np.float64)
        deaths = np.array(self.deaths, dtype=np.float64)
        if births.ndim != 1 or births.shape != deaths.shape:
            raise BarcodeError("births and deaths must be 1-D arrays of equal length")
        bad = (deaths != INFINITE) & (deaths <= births)
        if bad.any():
            i = int(np.argmax(bad))
            raise BarcodeError(f"bar death {float(deaths[i])} must exceed birth {float(births[i])}")
        for name, arr in (("births", births), ("deaths", deaths)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def as_multiset(self) -> tuple[tuple[float, float], ...]:
        """Bars as a sorted tuple of (birth, death) pairs, for comparison."""
        return tuple(sorted(zip(self.births.tolist(), self.deaths.tolist())))

    def __len__(self) -> int:
        return self.births.size


def _sparse_table(values: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """table[l, i] = reduce(values[i : i + 2**l]) for every 2**l <= values.size.

    Row l is set only up to index values.size - 2**l; the rest is never read.
    """
    size = values.size
    table = np.empty((size.bit_length(), size), dtype=values.dtype)
    table[0] = values
    for level in range(1, table.shape[0]):
        half = 1 << (level - 1)
        count = size - 2 * half + 1
        reduce(table[level - 1, :count], table[level - 1, half:half + count], out=table[level, :count])
    return table


def lower_star_barcode(c: CanonicalSignal) -> Barcode:
    """Compute the 0-dimensional barcode of the sublevel filtration.

    Works on canonical order keys, so ties in raw value are unambiguous. Local
    minima and interior local maxima alternate along the signal: minima
    mu_0..mu_m and saddles s_0..s_{m-1}, with s_k between mu_k and mu_{k+1}.
    When s_k enters, the component on each side reaches out to the nearest
    saddle of higher key; binary lifting on a sparse max-table of saddle
    keys finds both for all saddles at once. Each component's birth is the
    lowest-key minimum in its range (at index key % n), one sparse min-table
    query. The younger birth dies at the saddle (elder rule); a merge between
    equal raw values would yield a zero-length bar and is dropped. Bars come
    in ascending saddle key with the essential bar last, the order of a sweep
    over the vertices. With m <= n/2 saddles the work is O(n + m log m): each
    table takes about log2(m) array passes to build and the lifting as many
    again. The only loops run once per table level.
    """
    n = len(c)
    if n == 0:
        raise BarcodeError("empty signal")
    key = c.key
    padded = np.concatenate(([_ABOVE], key, [_ABOVE]))  # ends border on higher ground
    left_higher = padded[:-2] > key
    right_higher = padded[2:] > key
    saddles = np.flatnonzero(~(left_higher | right_higher))
    top = key[saddles]
    m = top.size
    # Saddle k sits at index k + 1 of the barrier array, between two
    # sentinels that no key reaches. lo/hi grow over the saddles lower
    # than it: a window is taken when its maximum is below top[k]. A
    # window index clipped to either end of its row names a window that
    # holds a sentinel, so it is refused.
    tops = _sparse_table(np.concatenate(([_ABOVE], top, [_ABOVE])), np.maximum)
    lo = np.arange(1, m + 1)
    hi = lo.copy()
    for level in range(tops.shape[0] - 1, -1, -1):
        width = 1 << level
        row = tops[level, :m + 3 - width]
        lo -= (row.take(lo - width, mode="clip") < top) * width
        hi += (row.take(hi + 1, mode="clip") < top) * width
    # The left component holds minima lo-1..k, the right one k+1..hi.
    bottoms = _sparse_table(key[left_higher & right_higher], np.minimum).ravel()

    def lowest(first: np.ndarray, last: np.ndarray) -> np.ndarray:
        level = np.frexp(last - first + 1)[1].astype(np.intp) - 1  # floor(log2(length)), exact
        row = level * (m + 1)
        return np.minimum(bottoms[row + first], bottoms[row + last + 1 - (1 << level)])

    k = np.arange(m)
    younger = np.maximum(lowest(lo - 1, k), lowest(k + 1, hi))
    by_saddle = np.argsort(top)
    births = c.samples[younger[by_saddle] % n]
    deaths = c.samples[saddles[by_saddle]]
    keep = deaths > births  # equal raw values give a zero-length bar: drop
    births, deaths = births[keep], deaths[keep]
    essential = c.samples[key.argmin()]  # not samples.min(): that may give the other signed zero
    return Barcode(births=np.append(births, essential), deaths=np.append(deaths, INFINITE),
                   f_max=float(c.samples.max()))


def barcode_bruteforce_oracle(c: CanonicalSignal) -> Barcode:
    """Same contract as :func:`lower_star_barcode`, by quadratic re-scan.

    At every threshold step the present-vertex mask is re-scanned from
    scratch: the runs adjacent to the new vertex are recovered by walking the
    mask, and each run's birth vertex is recomputed as its canonical minimum.
    Independent of the range queries of the fast path.
    """
    n = len(c)
    if n == 0:
        raise BarcodeError("empty signal")
    if n > _ORACLE_MAX_LEN:
        raise BarcodeError(f"oracle input too long ({n} > {_ORACLE_MAX_LEN})")
    samples = c.samples
    key = c.key
    order = np.argsort(key)

    present = np.zeros(n, dtype=bool)
    births: list[float] = []
    deaths: list[float] = []

    for v in map(int, order):
        present[v] = True
        has_left = v > 0 and present[v - 1]
        has_right = v < n - 1 and present[v + 1]
        if has_left and has_right:
            lo = v - 1
            while lo > 0 and present[lo - 1]:
                lo -= 1
            hi = v + 1
            while hi < n - 1 and present[hi + 1]:
                hi += 1
            left_run = np.arange(lo, v)
            right_run = np.arange(v + 1, hi + 1)
            left_birth = int(left_run[np.argmin(key[left_run])])
            right_birth = int(right_run[np.argmin(key[right_run])])
            younger = left_birth if key[left_birth] > key[right_birth] else right_birth
            birth = float(samples[younger])
            death = float(samples[v])
            if death > birth:
                births.append(birth)
                deaths.append(death)

    births.append(float(samples[int(order[0])]))
    deaths.append(INFINITE)
    return Barcode(births=np.array(births), deaths=np.array(deaths), f_max=float(samples.max()))


def persistent_entropy(b: Barcode) -> float:
    """Shannon entropy (nats) of the normalized bar lengths.

    An infinite death is replaced by f_max + 1 before measuring lengths;
    zero-length bars, and bars too short to register against the total,
    contribute nothing (0*ln 0 := 0). Returns 0 for a single-bar barcode,
    whatever its values. A total length that overflows float64, as the bars
    of a signal spanning -1e308 to 1e308 have, raises BarcodeError.
    """
    if len(b) == 0:
        raise BarcodeError("empty barcode")
    if len(b) == 1:
        return 0.0
    with np.errstate(over="ignore"):  # an overflow gives inf, refused below
        lengths = np.where(b.deaths == INFINITE, b.f_max + 1.0, b.deaths) - b.births
        lengths = lengths[lengths > 0.0]
        total = lengths.sum()
    if not np.isfinite(total):
        raise BarcodeError("total bar length overflows float64")
    if total <= 0.0:
        raise BarcodeError("all bar lengths are zero")
    p = lengths / total
    p = p[p > 0.0]  # a length / total that underflows to 0 adds 0 * ln 0 := 0
    return float(-(p * np.log(p)).sum()) + 0.0  # normalize -0.0 when one bar holds all the length


def signal_barcode(s: Signal, target_len: int = DEFAULT_TARGET_LEN) -> Barcode:
    """Subsample, canonicalize and compute the barcode in one step."""
    return lower_star_barcode(canonicalize(subsample(s, min(target_len, len(s)))))


def signal_entropy(s: Signal, target_len: int = DEFAULT_TARGET_LEN) -> float:
    """Persistent entropy of a signal after subsampling to target_len."""
    return persistent_entropy(signal_barcode(s, target_len))


def barcode_to_csv(b: Barcode) -> str:
    """Serialize a barcode as 'birth,death' lines; INFINITE is written 'inf'."""
    return csv_text([("birth", "death"), *b.as_multiset()])
