"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 7 needs the real 24-actor speech corpus; point ENTROPIC_RAVDESS_DIR
at its root to enable it, otherwise it is skipped (diagnostic, not CI-gating).
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import make_blobs, make_matrix, scaled_kernel
from entropic.dataset import (
    EMOTIONS,
    ExperimentConfig,
    build_entropy_table,
    build_experiment1,
    build_experiment2,
    build_experiment3,
    run_experiment,
    scan_ravdess_tree,
)
from entropic.persistence import (
    INFINITE,
    Barcode,
    barcode_bruteforce_oracle,
    lower_star_barcode,
    persistent_entropy,
    signal_entropy,
)
from entropic.signal import Signal, canonicalize
from entropic.stats import correlation_matrix, sex_grouped_correlation_means
from entropic.svm import (
    KernelSpec,
    LabeledPoint,
    accuracy,
    kfold_cross_validate,
    train_binary,
)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        if trial % 3 == 0:
            values = rng.integers(0, 5, size=n).astype(float)  # deliberate duplicates
        elif trial % 3 == 1:
            values = rng.normal(size=n)
        else:
            values = np.round(rng.uniform(0, 1, size=n), 1)  # mixed ties
        c = canonicalize(Signal(values))
        fast = lower_star_barcode(c).as_multiset()
        slow = barcode_bruteforce_oracle(c).as_multiset()
        assert fast == slow, f"mismatch on {values!r}"
    elapsed = time.time() - start
    assert elapsed < 2.0, f"oracle sweep took {elapsed:.2f}s"
    report(1, f"1000 random barcodes identical to the oracle in {elapsed:.2f}s")


def test_criterion_2_entropy_identities():
    single = Barcode(births=np.array([1.0]), deaths=np.array([INFINITE]), f_max=3.0)
    assert persistent_entropy(single) == 0.0
    for n in (2, 4, 16, 256):
        births = np.arange(float(n))
        e = persistent_entropy(Barcode(births=births, deaths=births + 1.0, f_max=float(n)))
        assert abs(e - math.log(n)) <= 1e-12
    two_bar = Barcode(births=np.array([0.0, 1.0]), deaths=np.array([INFINITE, 2.0]), f_max=2.0)
    assert persistent_entropy(two_bar) == pytest.approx(0.5623351, abs=1e-6)
    w = signal_entropy(Signal(np.array([1.0, 5, 2, 6, 3])), 5)
    assert w == pytest.approx(1.0397208, abs=1e-6)
    report(2, "single-bar zero, ln(n) at equal bars, worked examples to 1e-6")


def test_criterion_3_stability():
    rng = np.random.default_rng(103)
    start = time.time()
    amplitudes = (1e-2, 1e-4, 1e-6)
    medians = {}
    signals = [rng.uniform(0.0, 1.0, 1000) for _ in range(100)]
    for amp in amplitudes:
        diffs = []
        for f in signals:
            g = f + rng.uniform(-amp, amp, 1000)  # range of f is ~1, so amp is relative
            diffs.append(abs(signal_entropy(Signal(f), 1000) - signal_entropy(Signal(g), 1000)))
        medians[amp] = float(np.median(diffs))
    elapsed = time.time() - start
    assert medians[1e-2] >= medians[1e-4] >= medians[1e-6]
    assert medians[1e-6] <= 0.05
    assert elapsed < 10.0, f"stability sweep took {elapsed:.2f}s"
    report(3, f"median |dE| = {medians} in {elapsed:.2f}s")


def test_criterion_4_svm_correctness():
    # (a) analytic two-point problem
    two = [LabeledPoint(np.array([-1.0]), "A"), LabeledPoint(np.array([1.0]), "B")]
    m = train_binary(two, KernelSpec("linear"), C=10.0)
    assert abs(m.bias) <= 1e-6
    assert abs(m.decision_values([0.0])[0]) <= 1e-6

    # (b) separable blobs: perfect training accuracy and KKT residuals
    X, labels = make_blobs(seed=104)
    data = [LabeledPoint(x, lab) for x, lab in zip(X, labels)]
    tol = 1e-3
    model = train_binary(data, KernelSpec("linear"), C=10.0, tol=tol)
    assert accuracy(model.predict(X), labels) == 1.0
    y = np.array([-1.0 if lab == model.class_pair[0] else 1.0 for lab in labels])
    f = model.decision_values(X)
    alpha = np.zeros(len(data))
    sv_index = {tuple(sv): a for sv, a in zip(model.support_vectors, model.alpha)}
    for i, p in enumerate(data):
        alpha[i] = abs(sv_index.get(tuple(p.features), 0.0))
    for a, yi, fi in zip(alpha, y, f):
        margin = yi * fi
        if a <= 1e-9:
            assert margin >= 1 - tol - 1e-6
        elif a >= 10.0 - 1e-9:
            assert margin <= 1 + tol + 1e-6
        else:
            assert abs(margin - 1) <= tol + 1e-6

    # (c) constant rescaling of the gaussian kernel leaves predictions fixed
    test_points = np.random.default_rng(105).normal(2.0, 3.0, (200, 2))
    plain = train_binary(data, KernelSpec("gaussian", sigma=2.0), C=10.0).predict(test_points)
    with scaled_kernel(5.0):
        scaled = train_binary(data, KernelSpec("gaussian", sigma=2.0), C=10.0).predict(test_points)
    assert plain == scaled
    report(4, "analytic solution, KKT residuals and rescaling invariance hold")


def test_criterion_5_null_model_calibration():
    rng = np.random.default_rng(106)
    values = make_matrix(rng.uniform(0.0, 5.0, (24, 60)))

    points = build_experiment1(values)
    shuffled_labels = [p.label for p in points]
    rng.shuffle(shuffled_labels)
    shuffled = [
        LabeledPoint(p.features, lab) for p, lab in zip(points, shuffled_labels)
    ]
    cv = kfold_cross_validate(shuffled, KernelSpec("linear"), C=1.0, k=5, seed=106)
    p0 = 1 / 8
    band = 3 * math.sqrt(p0 * (1 - p0) / len(points))
    assert abs(cv.mean_accuracy - p0) <= band, f"{cv.mean_accuracy} outside 1/8 +- {band:.4f}"

    separable = make_matrix(
        np.stack(
            [
                np.array([EMOTIONS.index(c.emotion) + rng.uniform(0, 0.2) for c in values.audio_meta])
                for _ in range(24)
            ]
        )
    )
    result = run_experiment(1, separable, ExperimentConfig(seed=0))
    assert result.accuracies["cv_mean"] == 1.0
    report(5, f"shuffled-label accuracy {cv.mean_accuracy:.4f} in 1/8 +- {band:.4f}; separable 1.0")


def test_criterion_6_census():
    rng = np.random.default_rng(107)
    m = make_matrix(rng.uniform(0.0, 5.0, (24, 60)))
    assert len(build_experiment1(m)) == 1440
    assert len(build_experiment2(m)) == 60
    assert len(build_experiment3(m)) == 168
    result = run_experiment(3, m, ExperimentConfig(seed=0, k=3))
    assert len(result.pairwise) == 21
    report(6, "censuses 1440 / 60 / 168 and a 21-cell pairwise table")


@pytest.mark.skipif(
    not os.environ.get("ENTROPIC_RAVDESS_DIR"),
    reason="diagnostic: set ENTROPIC_RAVDESS_DIR to the corpus root to enable",
)
def test_criterion_7_paper_reproduction():
    root = os.environ["ENTROPIC_RAVDESS_DIR"]
    records = scan_ravdess_tree(root)
    assert len(records) == 1440, f"expected 1440 recordings, found {len(records)}"
    start = time.time()
    table = build_entropy_table(records, target_len=10000, jobs=os.cpu_count() or 1)
    elapsed = time.time() - start
    assert table.matrix.complete, f"missing files: {table.failures[:5]}"
    assert elapsed < 120.0, f"entropy extraction took {elapsed:.0f}s"

    exp1 = run_experiment(1, table.matrix, ExperimentConfig(seed=0))
    assert abs(exp1.accuracies["cv_mean"] - 0.203) <= 0.10

    exp2 = run_experiment(2, table.matrix, ExperimentConfig(seed=0))
    assert exp2.accuracies["full"] >= 0.85

    exp3 = run_experiment(3, table.matrix, ExperimentConfig(seed=0))
    assert exp3.pairwise[("calm", "angry")] >= 0.70
    assert abs(exp3.accuracies["pairwise_mean"] - 0.698) <= 0.10

    corr = correlation_matrix(table.matrix)
    means = sex_grouped_correlation_means(corr, [a.sex for a in table.matrix.actor_meta])
    within = (means[("male", "male")], means[("female", "female")])
    cross = means[("male", "female")]
    assert min(within) > cross
    assert abs(means[("male", "male")] - 0.43) <= 0.15
    assert abs(means[("female", "female")] - 0.49) <= 0.15
    assert abs(cross - 0.23) <= 0.15
    report(7, f"paper-number reproduction within loose tolerances ({elapsed:.0f}s extraction)")


def test_criterion_8_subsampling_consistency():
    rng = np.random.default_rng(108)
    n = 100_000
    t = np.linspace(0.0, 1.0, n)
    rel_changes = []
    for _ in range(50):
        x = np.zeros(n)
        for _ in range(5):  # audio-like: smooth oscillations, well oversampled
            freq = rng.uniform(5.0, 300.0)
            x += rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        s = Signal(x / np.abs(x).max())
        full = signal_entropy(s, n)
        sub = signal_entropy(s, 10000)
        rel_changes.append(abs(full - sub) / abs(full))
    median = float(np.median(rel_changes))
    assert median <= 0.10, f"median relative change {median:.4f}"
    report(8, f"median relative entropy change {median:.2e} at 10x subsampling")
