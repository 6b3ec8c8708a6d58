import csv
import io
import itertools
import math
import struct
import warnings

import numpy as np
import pytest

from conftest import make_matrix
from entropic.dataset import NON_NEUTRAL, _read_csv, audio_columns, entropy_table_csv, pairwise_table_csv
from entropic.errors import StatsError
from entropic.persistence import INFINITE, Barcode, barcode_to_csv
from entropic.stats import (
    ActorInfo,
    BoxplotSummary,
    EntropyMatrix,
    _quartiles,
    boxplot_by_audio,
    boxplot_csv,
    correlation_csv,
    correlation_matrix,
    csv_text,
    sex_grouped_correlation_means,
    sex_means_csv,
    summarize,
)


def pearson(a, b) -> float:
    """The Pearson correlation of two sequences, as correlation_matrix gives
    it for a matrix of two rows."""
    return float(correlation_matrix(any_shape_matrix(np.array([a, b], dtype=np.float64)))[0, 1])


class TestPearson:
    def test_exact_positive_dependence(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_negative_dependence(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        assert pearson(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=30), rng.normal(size=30)
        assert pearson(3.0 * a + 7.0, b) == pytest.approx(pearson(a, b), abs=1e-12)

    def test_constant_sequence_rejected(self):
        with pytest.raises(StatsError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        for a in ([], [1.0]):
            for fn in (pearson, reference_pearson):
                with pytest.raises(StatsError, match="at least 2 points"):
                    fn(a, a)

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(17)
        for case in range(300):
            a, b = rng.normal(size=(2, int(rng.integers(2, 90))))
            if case % 3 == 0:
                a, b = np.round(a, 1), np.round(b, 1)
                a[:2] = b[:2] = [-1.0, 1.0]
            scale = 10.0 ** rng.integers(-6, 7)
            a, b = a * scale + rng.normal() * 100, b * scale
            got, want = pearson(a.tolist(), b.tolist()), reference_pearson(a.tolist(), b.tolist())
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), case


def reference_pearson(a, b):
    """pearson as it was before it shared its arithmetic with
    correlation_matrix, kept as the reference it must match bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        raise StatsError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise StatsError("need at least 2 points")
    da = a - a.mean()
    db = b - b.mean()
    var_a = (da * da).sum()
    var_b = (db * db).sum()
    if var_a == 0.0 or var_b == 0.0:
        raise StatsError("correlation undefined for a constant sequence")
    return float((da * db).sum() / np.sqrt(var_a * var_b))


class TestCorrelationMatrix:
    def test_identical_rows_give_unit_offdiagonal(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=60)
        values = np.tile(row, (24, 1)) + rng.normal(0, 1e-9, (24, 60))
        values[0] = values[1]  # exactly identical pair
        corr = correlation_matrix(make_matrix(values))
        assert corr[0, 1] == pytest.approx(1.0)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        corr = correlation_matrix(make_matrix(rng.normal(size=(24, 60))))
        assert np.allclose(corr, corr.T, atol=1e-12)
        assert np.all(np.diag(corr) == 1.0)

    def test_incomplete_matrix_rejected(self):
        values = np.ones((2, 60))
        values[1, 0] = np.nan
        m = EntropyMatrix(
            values=values,
            actor_meta=(ActorInfo(1, "male"), ActorInfo(2, "female")),
            audio_meta=tuple(audio_columns()),
        )
        assert not m.complete
        with pytest.raises(StatsError, match="incomplete"):
            correlation_matrix(m)

    def test_constant_row_rejected(self):
        values = np.random.default_rng(5).normal(size=(24, 60))
        values[7] = 2.5
        with pytest.raises(StatsError, match="constant"):
            correlation_matrix(make_matrix(values))
        with pytest.raises(StatsError, match="constant"):
            reference_correlation_matrix(make_matrix(values))

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(11)
        for case in range(300):
            n, length = int(rng.integers(1, 13)), int(rng.integers(3, 70))
            values = rng.normal(size=(n, length))
            if case % 3 == 0:
                values = np.round(values, 1)  # repeated values
                values[:, :2] = [-1.0, 1.0]  # and no constant row
            values = values * 10.0 ** rng.integers(-6, 7) + rng.normal() * 100
            if case % 5 == 0 and n > 1:
                values[1] = values[0]  # an exactly identical pair
            if case % 7 == 0:
                values = np.asfortranarray(values)  # rows not contiguous
            m = any_shape_matrix(values)
            got, want = correlation_matrix(m), reference_correlation_matrix(m)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), case

    def test_row_scaled_by_a_power_of_two_keeps_every_bit(self):
        """An actor's entropies far from the others give their true
        correlations: no overflow, no underflow, and no warning."""
        values = np.random.default_rng(8).normal(8.0, 0.1, (3, 60))
        m = make_matrix(values)
        want = correlation_csv(correlation_matrix(m), m.actor_meta)
        for k in range(-900, 901):
            scaled = values.copy()
            scaled[1] *= 2.0 ** k
            m = make_matrix(scaled)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert correlation_csv(correlation_matrix(m), m.actor_meta) == want, k

    def test_too_short_rows_rejected_like_reference(self):
        m = any_shape_matrix(np.array([[1.0], [2.0]]))
        for fn in (correlation_matrix, reference_correlation_matrix):
            with pytest.raises(StatsError, match="at least 2 points"):
                fn(m)
        single = any_shape_matrix(np.array([[3.0, 3.0, 3.0]]))
        assert np.array_equal(correlation_matrix(single), reference_correlation_matrix(single))


def any_shape_matrix(values):
    """An EntropyMatrix of any shape; the metadata is placeholder."""
    from entropic.stats import ActorInfo, AudioInfo, EntropyMatrix

    return EntropyMatrix(
        values=values,
        actor_meta=tuple(ActorInfo(i + 1, "male") for i in range(values.shape[0])),
        audio_meta=(AudioInfo("happy", "normal", 1, 1),) * values.shape[1],
    )


def reference_correlation_matrix(m):
    """The double loop over pearson that correlation_matrix replaced, with
    pearson's own former arithmetic, kept as the reference it must match bit
    for bit."""
    if not m.complete:
        raise StatsError("entropy matrix has incomplete rows")
    values = m.values
    n = values.shape[0]
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = reference_pearson(values[i], values[j])
            out[i, j] = out[j, i] = r
    return out


class TestSexGroupedMeans:
    def test_constant_correlation(self):
        n = 6
        corr = np.full((n, n), 0.7)
        np.fill_diagonal(corr, 1.0)
        sexes = ["male", "female"] * 3
        means = sex_grouped_correlation_means(corr, sexes)
        for key in means:
            assert means[key] == pytest.approx(0.7)

    def test_block_constant_matrix(self):
        sexes = ["male"] * 3 + ["female"] * 3
        corr = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                corr[i, j] = 0.5 if sexes[i] == sexes[j] else 0.1
        np.fill_diagonal(corr, 1.0)
        means = sex_grouped_correlation_means(corr, sexes)
        assert means[("male", "male")] == pytest.approx(0.5)
        assert means[("female", "female")] == pytest.approx(0.5)
        assert means[("male", "female")] == pytest.approx(0.1)
        assert means[("female", "male")] == pytest.approx(0.1)

    def test_singleton_group_flagged_nan(self):
        corr = np.array([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0]])
        means = sex_grouped_correlation_means(corr, ["male", "female", "female"])
        assert np.isnan(means[("male", "male")])
        assert means[("female", "female")] == pytest.approx(0.4)

    def test_one_sex_label_per_row(self):
        with pytest.raises(StatsError, match="^correlation matrix / sex labels shape mismatch$"):
            sex_grouped_correlation_means(np.eye(2), ["male"])

    def test_asymmetric_matrix_rejected(self):
        corr = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(StatsError):
            sex_grouped_correlation_means(corr, ["male", "female"])


class TestEntropyMatrix:
    def test_values_must_be_2d(self):
        with pytest.raises(StatsError, match="^entropy matrix must be 2-D$"):
            EntropyMatrix(values=np.zeros(60), actor_meta=(), audio_meta=tuple(audio_columns()))

    def test_shape_must_match_metadata(self):
        with pytest.raises(StatsError, match="^entropy matrix shape does not match metadata$"):
            EntropyMatrix(values=np.zeros((2, 60)), actor_meta=(ActorInfo(1, "male"),),
                          audio_meta=tuple(audio_columns()))

    def test_caller_array_stays_writable_and_apart(self):
        values = np.ones((2, 60))
        m = make_matrix(values)
        assert values.flags.writeable
        values[0, 0] = 5.0
        assert m.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0


class TestBoxplot:
    def test_empty_group_rejected(self):
        with pytest.raises(StatsError, match="^cannot summarize an empty group$"):
            summarize([])

    def test_constant_column(self):
        s = summarize([3.0] * 10)
        assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 3.0
        assert s.outliers == ()

    def test_interpolated_quantiles_1_to_24(self):
        s = summarize(np.arange(1.0, 25.0))
        assert s.q1 == pytest.approx(6.75)
        assert s.median == pytest.approx(12.5)
        assert s.q3 == pytest.approx(18.25)

    def test_outliers_beyond_tukey_fences(self):
        values = list(np.linspace(0, 1, 20)) + [50.0, -50.0]
        s = summarize(values)
        assert set(s.outliers) == {50.0, -50.0}
        iqr = s.q3 - s.q1
        for o in s.outliers:
            assert o < s.q1 - 1.5 * iqr or o > s.q3 + 1.5 * iqr

    def test_mean_of_huge_cells_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert summarize([1e308, 1e308, 1e308, 8.0]).mean == 7.5e307

    def test_opposite_cells_at_the_float64_limit(self):
        """Two actors with -1e308 and 1e308 in one column: before, q1 read
        inf, the median and q3 -inf, and both cells were outliers."""
        values = np.random.default_rng(12).normal(8.0, 0.1, (2, 60))
        values[:, 0] = [-1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = boxplot_csv(boxplot_by_audio(make_matrix(values))).splitlines()
        assert lines[1] == "neutral-normal-1-1,neutral,-1e+308,-5e+307,0.0,5e+307,1e+308,0.0,"

    def test_columns_near_the_float64_limit_match_np_quantile_scaled(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            x = rng.uniform(-1.0, 1.0, int(rng.integers(1, 70))) * np.finfo(np.float64).max
            q1, med, q3 = np.quantile(x / 8.0, [0.25, 0.5, 0.75]) * 8.0  # exact scaling, no overflow
            iqr = q3 / 8.0 - q1 / 8.0
            outside = (x / 8.0 < q1 / 8.0 - 1.5 * iqr) | (x / 8.0 > q3 / 8.0 + 1.5 * iqr)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = summarize(x)
            assert (s.q1, s.median, s.q3) == (q1, med, q3)
            assert s.outliers == tuple(np.sort(x[outside]).tolist())
            assert np.isfinite(s.mean)

    def test_cell_far_below_the_others_keeps_its_bits(self):
        s = summarize([1e-300, 1e-300, 3e-300, 1e300])
        assert (s.minimum, s.q1, s.median) == (1e-300, 1e-300, 2e-300)

    def test_ordering_chain(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = summarize(rng.normal(size=int(rng.integers(1, 60))))
            assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum

    def test_by_audio_shape(self):
        rng = np.random.default_rng(5)
        out = boxplot_by_audio(make_matrix(rng.normal(size=(24, 60))))
        assert len(out) == 60
        emotions = [meta.emotion for meta, _ in out]
        assert emotions[:4] == ["neutral"] * 4


def quartile_cases():
    """Sizes 1 to 200: continuous values over many magnitudes, ties, and signed zeros."""
    rng = np.random.default_rng(31)
    for n in range(1, 201):
        yield rng.normal(size=n)
        yield rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        yield rng.integers(-2, 3, size=n).astype(np.float64)
        yield rng.choice([-0.0, 0.0, 1.0], size=n)
        yield rng.choice([-0.0, 0.0], size=n)


class TestQuartilesMatchNumpy:
    def test_bit_identical_to_np_quantile(self):
        for x in quartile_cases():
            want = np.quantile(x, [0.25, 0.5, 0.75])
            got = np.array(_quartiles(x), dtype=np.float64)
            assert got.tobytes() == want.tobytes(), x

    def test_both_interpolation_branches_are_taken(self):
        # Here a + (b - a) * t rounds differently from numpy's t >= 0.5 branch,
        # b - (b - a) * (1 - t), at the median (t = 0.5) and q3 (t = 0.75).
        x = np.array([0.08, 0.47, 0.03, 0.96, 0.05, 0.21])
        s = np.sort(x)
        for q, (i, t) in zip((0.5, 0.75), ((2, 0.5), (3, 0.75))):
            a, b = s[i], s[i + 1]
            assert a + (b - a) * t != b - (b - a) * (1 - t) == np.quantile(x, q)
        assert np.array(_quartiles(x)).tobytes() == np.quantile(x, [0.25, 0.5, 0.75]).tobytes()

    def test_nan_becomes_every_quartile(self):
        assert all(np.isnan(_quartiles(np.array([1.0, np.nan, 2.0]))))

    def test_summarize_keeps_np_quantile(self):
        x = np.random.default_rng(32).normal(size=24)
        q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
        s = summarize(x)
        assert (s.q1, s.median, s.q3) == (float(q1), float(med), float(q3))


class TestCsvOutputs:
    def test_correlation_csv_header(self):
        rng = np.random.default_rng(6)
        m = make_matrix(rng.normal(size=(24, 60)))
        text = correlation_csv(correlation_matrix(m), m.actor_meta)
        lines = text.strip().split("\n")
        assert lines[0] == "actor," + ",".join(str(i) for i in range(1, 25))
        assert len(lines) == 25

    def test_sex_means_csv(self):
        text = sex_means_csv({("male", "male"): 0.43, ("male", "female"): 0.23})
        assert "sex_a,sex_b,mean_correlation" in text
        assert "male,male,0.43" in text

    def test_boxplot_csv_columns(self):
        rng = np.random.default_rng(7)
        m = make_matrix(rng.normal(size=(24, 60)))
        text = boxplot_csv(boxplot_by_audio(m))
        lines = text.strip().split("\n")
        assert lines[0] == "group,emotion,min,q1,median,q3,max,mean,outliers"
        assert len(lines) == 61


SPECIAL = (math.inf, math.nan, -0.0, 5e-324, 1e308, -math.inf, -5e-324, 0.1)


def special_writers() -> dict:
    """Each writer's CSV text of SPECIAL, with the floats it holds in order
    and how many leading columns of each row are not floats."""
    corr = np.array([np.roll(SPECIAL, i) for i in range(len(SPECIAL))])
    actors = [ActorInfo(i + 1, "male") for i in range(len(corr))]
    pairs = list(itertools.combinations(NON_NEUTRAL, 2))
    accuracies = [SPECIAL[i % len(SPECIAL)] for i in range(len(pairs))]
    table = np.resize(SPECIAL, (2, 60))
    bars = Barcode(births=[-1e308, -0.0, 5e-324, 0.1], deaths=[-5e-324, 5e-324, 1e308, INFINITE],
                   f_max=1e308)
    return {
        "correlation": (correlation_csv(corr, actors), corr.ravel().tolist(), 1),
        "sex_means": (sex_means_csv({(f"s{i}", "x"): v for i, v in enumerate(SPECIAL)}), list(SPECIAL), 2),
        "boxplot": (boxplot_csv([(audio_columns()[0], BoxplotSummary(*SPECIAL[:6], outliers=SPECIAL))]),
                    [*SPECIAL[:6], *SPECIAL], 2),
        "pairwise": (pairwise_table_csv(dict(zip(pairs, accuracies))), accuracies, 1),
        # A cell that is not finite is a missing entropy, written empty.
        "entropy_table": (entropy_table_csv(make_matrix(table)),
                          [v for v in table.ravel().tolist() if math.isfinite(v)], 2),
        "barcode": (barcode_to_csv(bars), [v for bar in bars.as_multiset() for v in bar], 0),
    }


WRITERS = special_writers()


@pytest.mark.parametrize("name", WRITERS)
def test_every_writer_round_trips_floats_bit_for_bit(name):
    text, floats, skip = WRITERS[name]
    rows = list(csv.reader(io.StringIO(text)))
    got = [float(v) for row in rows[1:] for cell in row[skip:] if cell for v in cell.split(";")]
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in floats]
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("field", ["a\rb.csv", "a\nb.csv", "a\r\nb.csv", "a,b.csv", 'a"b.csv'])
def test_csv_text_round_trips_through_the_reader(tmp_path, field):
    rows = [["path", "entropy"], [field, 1.0]]
    text = csv_text(rows)
    (tmp_path / "t.csv").write_text(text, newline="")
    header, body = _read_csv(tmp_path / "t.csv", "table")
    assert [header, *(row for _, row in body)] == [["path", "entropy"], [field, "1.0"]]
    assert text.endswith(",1.0\n")
    if "\r" not in field:  # csv.writer's bytes with a "\n" terminator
        plain = io.StringIO()
        csv.writer(plain, lineterminator="\n").writerows(rows)
        assert text == plain.getvalue()
