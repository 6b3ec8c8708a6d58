"""0-dimensional sublevel-set persistence of 1-D signals and its entropy.

The filtration is the lower-star filtration of the path graph on the samples:
vertices enter at their height, each edge enters with its higher endpoint.
Components are born at local minima; when two components meet at a local
maximum the one with the older (lower) birth survives and the younger dies
(elder rule). Exactly one bar never dies; it is born at the global minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BarcodeError
from .signal import DEFAULT_TARGET_LEN, CanonicalSignal, Signal, canonicalize, subsample

INFINITE = math.inf

_ORACLE_MAX_LEN = 4096


@dataclass(frozen=True)
class Barcode:
    """Bars [births[i], deaths[i]) plus the maximum filtration value.

    ``births`` and ``deaths`` are read-only float64 arrays of equal length;
    the essential bar's death is INFINITE.
    """

    births: np.ndarray
    deaths: np.ndarray
    f_max: float

    def __post_init__(self) -> None:
        births = np.asarray(self.births, dtype=np.float64)
        deaths = np.asarray(self.deaths, dtype=np.float64)
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


def lower_star_barcode(c: CanonicalSignal) -> Barcode:
    """Compute the 0-dimensional barcode of the sublevel filtration.

    Sweeps vertices in canonical order; each new vertex either starts a run,
    extends an adjacent run, or merges the two runs beside it. A run is kept
    only at its two end vertices, which point at each other and carry the
    run's birth vertex. Merges apply the elder rule using canonical rank, so
    ties in raw value are unambiguous; a merge between equal raw values would
    yield a zero-length bar and is dropped. O(n): the vertex order is the
    inverse of the tie_rank permutation.
    """
    n = len(c)
    if n == 0:
        raise BarcodeError("empty signal")
    samples = c.samples.tolist()
    rank = c.tie_rank.tolist()
    order = np.empty(n, dtype=np.intp)
    order[c.tie_rank] = np.arange(n)

    # For a run end, the vertex at its other end (-1: not yet present) and
    # the run's birth vertex. Interior entries go stale and are never read.
    other_end = [-1] * n
    birth_at = [0] * n
    births: list[float] = []
    deaths: list[float] = []

    for v in order.tolist():
        has_left = v > 0 and other_end[v - 1] >= 0
        has_right = v < n - 1 and other_end[v + 1] >= 0
        if has_left and has_right:
            # v is a saddle: elder (lower canonical birth) survives.
            lo, hi = other_end[v - 1], other_end[v + 1]
            bl, br = birth_at[v - 1], birth_at[v + 1]
            elder, younger = (bl, br) if rank[bl] < rank[br] else (br, bl)
            if samples[v] > samples[younger]:  # equal raw values give a zero-length bar: drop
                births.append(samples[younger])
                deaths.append(samples[v])
            other_end[lo], other_end[hi], other_end[v] = hi, lo, lo
            birth_at[lo] = birth_at[hi] = elder
        elif has_left:
            lo = other_end[v - 1]
            other_end[lo], other_end[v] = v, lo
            birth_at[v] = birth_at[v - 1]
        elif has_right:
            hi = other_end[v + 1]
            other_end[hi], other_end[v] = v, hi
            birth_at[v] = birth_at[v + 1]
        else:
            other_end[v] = v
            birth_at[v] = v

    births.append(samples[int(order[0])])
    deaths.append(INFINITE)
    return Barcode(births=np.array(births), deaths=np.array(deaths), f_max=float(c.samples.max()))


def barcode_bruteforce_oracle(c: CanonicalSignal) -> Barcode:
    """Same contract as :func:`lower_star_barcode`, by quadratic re-scan.

    At every threshold step the present-vertex mask is re-scanned from
    scratch: the runs adjacent to the new vertex are recovered by walking the
    mask, and each run's birth vertex is recomputed as its canonical minimum.
    Independent of the union/run bookkeeping of the fast path.
    """
    n = len(c)
    if n == 0:
        raise BarcodeError("empty signal")
    if n > _ORACLE_MAX_LEN:
        raise BarcodeError(f"oracle input too long ({n} > {_ORACLE_MAX_LEN})")
    samples = c.samples
    rank = c.tie_rank
    order = np.argsort(rank)

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
            left_birth = int(left_run[np.argmin(rank[left_run])])
            right_birth = int(right_run[np.argmin(rank[right_run])])
            younger = left_birth if rank[left_birth] > rank[right_birth] else right_birth
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
    zero-length bars contribute nothing (0*ln 0 := 0). Returns 0 for a
    single-bar barcode.
    """
    if len(b) == 0:
        raise BarcodeError("empty barcode")
    lengths = np.where(b.deaths == INFINITE, b.f_max + 1.0, b.deaths) - b.births
    lengths = lengths[lengths > 0.0]
    total = lengths.sum()
    if total <= 0.0:
        raise BarcodeError("all bar lengths are zero")
    p = lengths / total
    return float(-(p * np.log(p)).sum()) + 0.0  # normalize -0.0 for the single-bar case


def signal_barcode(s: Signal, target_len: int = DEFAULT_TARGET_LEN) -> Barcode:
    """Subsample, canonicalize and compute the barcode in one step."""
    return lower_star_barcode(canonicalize(subsample(s, min(target_len, len(s)))))


def signal_entropy(s: Signal, target_len: int = DEFAULT_TARGET_LEN) -> float:
    """Persistent entropy of a signal after subsampling to target_len."""
    return persistent_entropy(signal_barcode(s, target_len))


def barcode_to_csv(b: Barcode) -> str:
    """Serialize a barcode as 'birth,death' lines, INFINITE as 'inf'."""
    lines = ["birth,death"]
    for birth, death in b.as_multiset():
        death_str = "inf" if death == INFINITE else repr(death)
        lines.append(f"{birth!r},{death_str}")
    return "\n".join(lines) + "\n"
