import math

import numpy as np
import pytest

from entropic.errors import BarcodeError
from entropic.persistence import (
    INFINITE,
    Barcode,
    barcode_bruteforce_oracle,
    barcode_to_csv,
    lower_star_barcode,
    persistent_entropy,
    signal_entropy,
)
from entropic.signal import Signal, canonicalize


def barcode_of(values):
    return lower_star_barcode(canonicalize(Signal(np.asarray(values, dtype=float))))


def count_local_minima(rank):
    n = len(rank)
    return sum(
        1
        for i in range(n)
        if (i == 0 or rank[i] < rank[i - 1]) and (i == n - 1 or rank[i] < rank[i + 1])
    )


class TestBarcode:
    def test_arrays_are_read_only_float64(self):
        b = Barcode(births=[0, 1], deaths=[INFINITE, 2], f_max=2.0)
        assert b.births.dtype == b.deaths.dtype == np.float64
        assert len(b) == 2
        with pytest.raises(ValueError):
            b.births[0] = 5.0

    @pytest.mark.parametrize("deaths", [[INFINITE, 1.0], [INFINITE, 0.5]])
    def test_finite_death_must_exceed_birth(self, deaths):
        with pytest.raises(BarcodeError, match="must exceed birth 1.0"):
            Barcode(births=[0.0, 1.0], deaths=deaths, f_max=2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(BarcodeError):
            Barcode(births=[0.0, 1.0], deaths=[INFINITE], f_max=2.0)


class TestLowerStarBarcode:
    def test_w_shape(self):
        b = barcode_of([1, 5, 2, 6, 3])
        assert b.as_multiset() == ((1.0, INFINITE), (2.0, 5.0), (3.0, 6.0))
        assert b.f_max == 6.0

    def test_monotone_single_bar(self):
        b = barcode_of([1, 2, 3])
        assert b.as_multiset() == ((1.0, INFINITE),)
        assert b.f_max == 3.0

    def test_elder_rule_at_tied_saddles(self):
        b = barcode_of([2, 1, 2, 0, 2])
        assert b.as_multiset() == ((0.0, INFINITE), (1.0, 2.0))

    def test_single_vertex(self):
        b = barcode_of([7])
        assert b.as_multiset() == ((7.0, INFINITE),)

    def test_two_vertices_edge_merges_nothing(self):
        assert barcode_of([1, 2]).as_multiset() == ((1.0, INFINITE),)

    def test_empty_rejected(self):
        from entropic.signal import CanonicalSignal

        empty = CanonicalSignal(samples=np.array([]), tie_rank=np.array([], dtype=np.intp))
        with pytest.raises(BarcodeError):
            lower_star_barcode(empty)

    def test_bar_census_equals_local_minima(self):
        # Exact census needs distinct raw values; merges between tied raw
        # values emit zero-length bars that are dropped, so ties give <=.
        rng = np.random.default_rng(5)
        for trial in range(50):
            if trial % 2:
                vals = rng.normal(size=int(rng.integers(2, 60)))
            else:
                vals = rng.integers(0, 8, size=int(rng.integers(2, 60))).astype(float)
            c = canonicalize(Signal(vals))
            b = lower_star_barcode(c)
            minima = count_local_minima(c.tie_rank)
            if len(np.unique(vals)) == len(vals):
                assert len(b) == minima
            else:
                assert len(b) <= minima
            assert int(np.sum(b.deaths == INFINITE)) == 1
            assert b.deaths[-1] == INFINITE  # essential bar last, as summed by the entropy

    def test_births_are_minima_deaths_are_maxima(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=100)
        c = canonicalize(Signal(vals))
        rank = c.tie_rank
        n = len(vals)
        minima = {
            vals[i]
            for i in range(n)
            if (i == 0 or rank[i] < rank[i - 1]) and (i == n - 1 or rank[i] < rank[i + 1])
        }
        maxima = {
            vals[i]
            for i in range(n)
            if (i == 0 or rank[i] > rank[i - 1]) and (i == n - 1 or rank[i] > rank[i + 1])
        }
        b = lower_star_barcode(c)
        for birth, death in zip(b.births, b.deaths):
            assert birth in minima
            if death != INFINITE:
                assert death in maxima


def reference_lower_star_barcode(c):
    """The union-of-runs sweep that lower_star_barcode replaced, kept verbatim.

    Sweeps vertices in canonical order; each new vertex either starts a run,
    extends an adjacent run, or merges the two runs beside it. A run is kept
    only at its two end vertices, which point at each other and carry the
    run's birth vertex. lower_star_barcode must return byte-identical arrays.
    """
    n = len(c)
    samples = c.samples.tolist()
    rank = c.tie_rank.tolist()
    order = np.empty(n, dtype=np.intp)
    order[c.tie_rank] = np.arange(n)

    other_end = [-1] * n
    birth_at = [0] * n
    births: list[float] = []
    deaths: list[float] = []

    for v in order.tolist():
        has_left = v > 0 and other_end[v - 1] >= 0
        has_right = v < n - 1 and other_end[v + 1] >= 0
        if has_left and has_right:
            lo, hi = other_end[v - 1], other_end[v + 1]
            bl, br = birth_at[v - 1], birth_at[v + 1]
            elder, younger = (bl, br) if rank[bl] < rank[br] else (br, bl)
            if samples[v] > samples[younger]:
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


def alternating(n):
    x = np.full(n, 1e9)
    x[0::2] = -2.0 * np.arange((n + 1) // 2)
    return x


def far_reach(m, leftward):
    """m saddles, each higher than all before it (leftward) or after it.

    The last (first) saddle merges a component whose lowest minimum lies at
    the far end of the signal; with m = 2**k - 3 its reach needs every
    level of the sparse table.
    """
    minima = 10.0 + np.arange(m + 1)
    minima[0], minima[m] = (0.0, 5.0) if leftward else (5.0, 0.0)
    saddles = 100.0 + (np.arange(m) if leftward else -np.arange(m))
    x = np.empty(2 * m + 1)
    x[0::2], x[1::2] = minima, saddles
    return x


def bit_identity_cases():
    rng = np.random.default_rng(12)
    cases = [(f"far_reach_{side}_{m}", far_reach(m, side == "left"))
             for m in (5, 13, 29, 61) for side in ("left", "right")]
    cases += [
        ("n1", [7.0]),
        ("n2_up", [1.0, 2.0]),
        ("n2_down", [2.0, 1.0]),
        ("n2_tied", [3.0, 3.0]),
        ("n3_peak", [1.0, 3.0, 2.0]),
        ("n3_valley", [3.0, 1.0, 2.0]),
        ("n3_tied_peak", [2.0, 2.0, 2.0]),
        ("signed_zeros", [0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 0.0, -0.0]),
        ("increasing", np.arange(1000.0)),
        ("decreasing", -np.arange(1000.0)),
        ("constant", np.full(1000, 0.25)),
        ("alternating_1e4", alternating(10_000)),
        ("alternating_1e5", alternating(100_000)),
        ("white_noise_1e4", rng.standard_normal(10_000)),
        ("random_walk_1e4", rng.standard_normal(10_000).cumsum()),
        ("quantized_walk_1e4",
         np.round(rng.standard_normal(10_000).cumsum() / 4.0) + rng.integers(-2, 3, 10_000)),
    ]
    for trial in range(40):
        n = int(rng.integers(1, 400))
        cases.append((f"tie_heavy_{trial}", rng.integers(0, 1 + trial % 6, size=n).astype(float)))
    return [pytest.param(values, id=name) for name, values in cases]


@pytest.mark.parametrize("values", bit_identity_cases())
def test_barcode_is_bit_identical_to_reference(values):
    c = canonicalize(Signal(np.asarray(values, dtype=float)))
    got = lower_star_barcode(c)
    want = reference_lower_star_barcode(c)
    assert got.births.tobytes() == want.births.tobytes()
    assert got.deaths.tobytes() == want.deaths.tobytes()
    assert got.f_max == want.f_max
    assert persistent_entropy(got).hex() == persistent_entropy(want).hex()


class TestOracle:
    def test_matches_fast_path_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(2, 65))
            vals = (
                rng.integers(0, 6, size=n).astype(float)  # plenty of ties
                if trial % 2
                else rng.normal(size=n)
            )
            c = canonicalize(Signal(vals))
            assert lower_star_barcode(c).as_multiset() == barcode_bruteforce_oracle(c).as_multiset()

    def test_single_vertex(self):
        b = barcode_bruteforce_oracle(canonicalize(Signal(np.array([7.0]))))
        assert b.as_multiset() == ((7.0, INFINITE),)

    def test_rejects_long_input(self):
        c = canonicalize(Signal(np.arange(5000, dtype=float)))
        with pytest.raises(BarcodeError):
            barcode_bruteforce_oracle(c)


class TestPersistentEntropy:
    def test_single_bar_is_zero(self):
        b = Barcode(births=np.array([1.0]), deaths=np.array([INFINITE]), f_max=3.0)
        assert persistent_entropy(b) == 0.0

    def test_equal_bars_hit_log_n(self):
        b = Barcode(births=np.arange(4.0), deaths=np.arange(4.0) + 1.0, f_max=4.0)
        assert persistent_entropy(b) == pytest.approx(math.log(4), abs=1e-12)

    def test_worked_example(self):
        b = Barcode(births=np.array([0.0, 1.0]), deaths=np.array([INFINITE, 2.0]), f_max=2.0)
        assert persistent_entropy(b) == pytest.approx(0.5623351, abs=1e-6)

    def test_entropy_bounded_by_log_bar_count(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            vals = rng.normal(size=int(rng.integers(3, 200)))
            b = lower_star_barcode(canonicalize(Signal(vals)))
            e = persistent_entropy(b)
            assert 0.0 <= e <= math.log(len(b)) + 1e-12

    def test_affine_invariance_with_jointly_scaled_closing(self):
        # The shipped closing rule m = f_max + 1 is deliberately not scale
        # free; closing with m = f_max + a instead must make entropy exactly
        # affine invariant.
        rng = np.random.default_rng(10)
        vals = rng.normal(size=300)
        a, shift = 3.7, -2.0

        def entropy_closed(barcode, closing_gap):
            closed = np.where(barcode.deaths == INFINITE, barcode.f_max + closing_gap, barcode.deaths)
            lengths = closed - barcode.births
            p = lengths / lengths.sum()
            return float(-(p * np.log(p)).sum())

        base = lower_star_barcode(canonicalize(Signal(vals)))
        scaled = lower_star_barcode(canonicalize(Signal(a * vals + shift)))
        assert entropy_closed(scaled, a) == pytest.approx(entropy_closed(base, 1.0), abs=1e-9)

    def test_empty_barcode_rejected(self):
        with pytest.raises(BarcodeError):
            persistent_entropy(Barcode(births=np.array([]), deaths=np.array([]), f_max=0.0))


class TestSignalEntropy:
    def test_monotone_is_zero(self):
        assert signal_entropy(Signal(np.linspace(0, 1, 500)), 100) == 0.0

    def test_worked_example(self):
        s = Signal(np.array([1.0, 5, 2, 6, 3]))
        assert signal_entropy(s, 5) == pytest.approx(1.0397208, abs=1e-6)

    def test_target_len_capped_at_signal_length(self):
        s = Signal(np.array([1.0, 5, 2, 6, 3]))
        assert signal_entropy(s, 10000) == signal_entropy(s, 5)

    def test_stability_under_small_jitter(self):
        rng = np.random.default_rng(11)
        f = rng.uniform(0, 1, 500)
        base = signal_entropy(Signal(f), 500)
        for amp in (1e-4, 1e-6):
            diffs = [
                abs(signal_entropy(Signal(f + rng.uniform(-amp, amp, 500)), 500) - base)
                for _ in range(10)
            ]
            assert np.median(diffs) <= 0.05


class TestCsvExport:
    def test_sorted_rows_and_inf_marker(self):
        b = barcode_of([1, 5, 2, 6, 3])
        text = barcode_to_csv(b)
        assert text == "birth,death\n1.0,inf\n2.0,5.0\n3.0,6.0\n"
