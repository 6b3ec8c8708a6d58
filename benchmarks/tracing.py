"""In-process pass over a workload, with optional per-layer spans.

Run as a script, this starts a fresh interpreter's pass: it imports the
program, optionally wraps its public functions, runs the workload's command
lines through the click entry point at --jobs 1 (spans cannot cross a process
pool) and writes the spans and counters to a JSON file at the end.

    python3 benchmarks/tracing.py WORKLOAD DATA_DIR OUT_DIR RESULT_JSON 0|1

Spans are recorded only here, by replacing each function at the module
attribute where its callers look it up; the program itself is unchanged.
Imported as a module, it turns a result file into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

# (module, attribute, span name). The span name's prefix is the layer.
SITES = [
    ("entropic.cli", "load_wav", "signal.load_wav"),
    ("entropic.dataset", "load_wav", "signal.load_wav"),
    ("entropic.cli", "load_csv_signal", "signal.load_csv_signal"),
    ("entropic.dataset", "load_csv_signal", "signal.load_csv_signal"),
    ("entropic.persistence", "subsample", "signal.subsample"),
    ("entropic.persistence", "canonicalize", "signal.canonicalize"),
    ("entropic.cli", "signal_barcode", "persistence.signal_barcode"),
    ("entropic.persistence", "signal_barcode", "persistence.signal_barcode"),
    ("entropic.dataset", "signal_entropy", "persistence.signal_entropy"),
    ("entropic.persistence", "lower_star_barcode", "persistence.lower_star_barcode"),
    ("entropic.cli", "persistent_entropy", "persistence.persistent_entropy"),
    ("entropic.persistence", "persistent_entropy", "persistence.persistent_entropy"),
    ("entropic.cli", "barcode_to_csv", "persistence.barcode_to_csv"),
    ("entropic.svm", "kernel_matrix", "svm.kernel_matrix"),
    ("entropic.svm", "train_binary", "svm.train_binary"),
    ("entropic.svm", "train_multiclass", "svm.train_multiclass"),
    ("entropic.svm", "kfold_cross_validate", "svm.kfold_cross_validate"),
    ("entropic.svm", "select_best_kernel", "svm.select_best_kernel"),
    ("entropic.svm", "stratified_folds", "svm.stratified_folds"),
    ("entropic.svm", "accuracy", "svm.accuracy"),
    ("entropic.svm", "median_pairwise_distance", "svm.median_pairwise_distance"),
    ("entropic.svm", "SvmModel.decision_values", "svm.predict"),
    ("entropic.svm", "SvmModel.predict", "svm.predict"),
    ("entropic.svm", "MulticlassModel.predict", "svm.predict"),
    ("entropic.stats", "correlation_matrix", "stats.correlation_matrix"),
    ("entropic.stats", "sex_grouped_correlation_means", "stats.sex_grouped_correlation_means"),
    ("entropic.stats", "boxplot_by_audio", "stats.boxplot_by_audio"),
    ("entropic.stats", "correlation_csv", "stats.correlation_csv"),
    ("entropic.stats", "sex_means_csv", "stats.sex_means_csv"),
    ("entropic.stats", "boxplot_csv", "stats.boxplot_csv"),
    ("entropic.dataset", "scan_ravdess_tree", "dataset.scan_ravdess_tree"),
    ("entropic.dataset", "read_entropy_table", "dataset.read_entropy_table"),
    ("entropic.dataset", "build_entropy_table", "dataset.build_entropy_table"),
    ("entropic.dataset", "build_experiment1", "dataset.build_experiment1"),
    ("entropic.dataset", "build_experiment2", "dataset.build_experiment2"),
    ("entropic.dataset", "build_experiment3", "dataset.build_experiment3"),
    ("entropic.dataset", "run_experiment", "dataset.run_experiment"),
    ("entropic.dataset", "pairwise_table_csv", "dataset.pairwise_table_csv"),
]

LAYERS = ("signal", "persistence", "svm", "stats", "dataset", "cli")


class Tracer:
    """Records spans (name, parent, start, end, request) and layer counters in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self.counters = {"load_wav_bytes": 0, "barcode_samples": 0, "bars": 0,
                         "gram_cells": 0, "entropy_table_failures": 0}
        self.fits: list[tuple] = []  # (bound train_binary arguments, returned model)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter_ns(), 0, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter_ns()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib
        import inspect
        import os

        import numpy as np

        bind_train = inspect.signature(importlib.import_module("entropic.svm").train_binary).bind
        c = self.counters

        def rows(a) -> int:
            return np.atleast_2d(a).shape[0]

        def count(key, amount):
            c[key] += amount

        observers = {
            "signal.load_wav": lambda a, k, r: count("load_wav_bytes", os.path.getsize(a[0])),
            "persistence.lower_star_barcode": lambda a, k, r: (count("barcode_samples", len(a[0])),
                                                               count("bars", len(r))),
            "svm.kernel_matrix": lambda a, k, r: count("gram_cells", rows(a[1]) * rows(a[2])),
            "svm.train_binary": lambda a, k, r: self.fits.append((bind_train(*a, **k), r)),
            "dataset.build_entropy_table": lambda a, k, r: count("entropy_table_failures", len(r.failures)),
        }
        for module_name, attr, name in SITES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observers.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def fit_quality(self) -> dict:
        """Convergence of every recorded binary fit, recomputed from the model and its data."""
        gaps = [kkt_gap(bound, model) for bound, model in self.fits]
        tols = [bound.arguments.get("tol", 1e-3) for bound, _ in self.fits]
        return {
            "fits": len(gaps),
            "unconverged": sum(g > t for g, t in zip(gaps, tols)),
            "kkt_gap_max": max(gaps, default=0.0),
        }


def kkt_gap(bound, model) -> float:
    """Maximal KKT violation of a returned SvmModel on its training points.

    The dual variables are recovered by matching the model's support vectors,
    in order, to training points with the same features and label sign; the
    gap is max over the 'up' set minus min over the 'low' set of y - f, the
    quantity the trainer compares with tol.
    """
    import numpy as np

    data = bound.arguments["data"]
    C = bound.arguments.get("C", 1.0)
    X = np.stack([p.features for p in data])
    neg, _ = model.class_pair
    y = np.array([-1.0 if p.label == neg else 1.0 for p in data])
    alpha = np.zeros(len(y))
    k = 0
    for i in range(len(y)):
        if (k < len(model.alpha) and np.sign(model.alpha[k]) == y[i]
                and np.array_equal(X[i], model.support_vectors[k])):
            alpha[i] = abs(model.alpha[k])
            k += 1
    if k != len(model.alpha):
        return math.inf  # support vectors do not come from the training set
    f = model.decision_values(X) - model.bias
    eps = 1e-12 * C
    up = ((y > 0) & (alpha < C - eps)) | ((y < 0) & (alpha > eps))
    low = ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < C - eps))
    viol = y - f
    if not up.any() or not low.any():
        return 0.0
    return float(viol[up].max() - viol[low].min())


def run_pass(workload: str, data: Path, out: Path, result_path: Path, trace: bool) -> None:
    """One in-process pass; the wall time includes importing the program."""
    t0 = time.perf_counter_ns()
    import click

    from entropic.cli import main
    import workloads

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    exit_codes = []
    for request, argv in enumerate(workloads.commands(workload, data, out, jobs=1)):
        if tracer:
            tracer.request = request
        try:
            main.main(args=argv, prog_name="entropic", standalone_mode=False)
            exit_codes.append(0)
        except SystemExit as exc:
            exit_codes.append(exc.code if isinstance(exc.code, int) else 1)
        except click.ClickException as exc:
            exc.show()
            exit_codes.append(exc.exit_code)
        except Exception:  # the console script would die with a traceback and exit code 1
            traceback.print_exc()
            exit_codes.append(1)
    wall_ns = time.perf_counter_ns() - t0
    doc = {"wall_ns": wall_ns, "exit_codes": exit_codes}
    if tracer:
        tracer.uninstall()
        doc.update(spans=tracer.spans, counters=tracer.counters, fits=tracer.fit_quality())
    result_path.write_text(json.dumps(doc))


# --- per-layer metrics from a traced result -------------------------------------------

# name -> (unit, better, what it should move). Timings come from the traced pass.
PER_LAYER = {
    "signal.self_s": ("s", "lower", "wall_s, cpu_s on corpus_wav and signals_long"),
    "signal.load_wav.calls": ("count", "higher", "sample count of the load_wav percentiles"),
    "signal.load_wav.p50_ms": ("ms", "lower", "wall_s, items_per_s on corpus_wav"),
    "signal.load_wav.p99_ms": ("ms", "lower", "wall_s, items_per_s on corpus_wav"),
    "signal.load_wav.mb_per_s": ("MB/s", "higher", "wall_s, items_per_s on corpus_wav (file bytes)"),
    "signal.load_csv_signal.p50_ms": ("ms", "lower", "wall_s on signals_long; not run on corpus_wav"),
    "signal.subsample.p50_ms": ("ms", "lower", "wall_s on corpus_wav"),
    "signal.canonicalize.p50_ms": ("ms", "lower", "wall_s on corpus_wav"),
    "persistence.self_s": ("s", "lower", "wall_s, cpu_s on corpus_wav and signals_long"),
    "persistence.lower_star_barcode.calls": ("count", "higher", "sample count of the barcode percentiles"),
    "persistence.lower_star_barcode.p50_ms": ("ms", "lower", "wall_s, cpu_s, items_per_s on corpus_wav, signals_long; not table_svm"),
    "persistence.lower_star_barcode.p99_ms": ("ms", "lower", "wall_s, cpu_s, items_per_s on corpus_wav, signals_long; not table_svm"),
    "persistence.lower_star_barcode.ns_per_sample": ("ns", "lower", "wall_s, cpu_s, items_per_s on corpus_wav, signals_long"),
    "persistence.samples": ("count", "lower", "barcode input size; must repeat exactly"),
    "persistence.bars": ("count", "lower", "bars emitted; must repeat exactly"),
    "persistence.persistent_entropy.p50_ms": ("ms", "lower", "wall_s, peak_rss_mb on signals_long"),
    "persistence.barcode_to_csv.ms": ("ms", "lower", "wall_s, peak_rss_mb on signals_long"),
    "svm.self_s": ("s", "lower", "wall_s, cpu_s on table_svm"),
    "svm.kernel_matrix.calls": ("count", "lower", "wall_s on table_svm; exact count"),
    "svm.kernel_matrix.cells": ("count", "lower", "wall_s on table_svm; exact count, cut by a shared Gram matrix"),
    "svm.kernel_matrix.self_s": ("s", "lower", "wall_s on table_svm"),
    "svm.train_binary.calls": ("count", "lower", "fits per pass, fixed by the configuration"),
    "svm.train_binary.self_s": ("s", "lower", "wall_s on table_svm; not corpus_wav"),
    "svm.train_binary.p50_ms": ("ms", "lower", "wall_s on table_svm; not corpus_wav"),
    "svm.train_binary.p99_ms": ("ms", "lower", "wall_s on table_svm; not corpus_wav"),
    "svm.train_binary.unconverged_ratio": ("ratio", "lower", "guards accuracy on table_svm; base: train_binary.calls"),
    "svm.train_binary.kkt_gap_max": ("gap", "lower", "guards accuracy on table_svm"),
    "svm.kfold_cross_validate.self_s": ("s", "lower", "wall_s on table_svm"),
    "svm.select_best_kernel.s": ("s", "lower", "wall_s on table_svm"),
    "svm.predict.self_s": ("s", "lower", "wall_s on table_svm"),
    "svm.accuracy_mean": ("ratio", "higher", "mean reported accuracy on corpus_wav and table_svm; must not drop"),
    "stats.self_s": ("s", "lower", "wall_s on table_svm"),
    "stats.correlation_matrix.ms": ("ms", "lower", "wall_s on table_svm (under 2%)"),
    "stats.sex_grouped_correlation_means.ms": ("ms", "lower", "wall_s on table_svm (under 2%)"),
    "stats.boxplot_by_audio.ms": ("ms", "lower", "wall_s on table_svm (under 2%)"),
    "dataset.self_s": ("s", "lower", "wall_s, cpu_s on corpus_wav"),
    "dataset.scan_ravdess_tree.ms": ("ms", "lower", "wall_s on corpus_wav"),
    "dataset.read_entropy_table.ms": ("ms", "lower", "wall_s on table_svm"),
    "dataset.build_entropy_table.self_s": ("s", "lower", "wall_s, cpu_s on corpus_wav (fan-out and placement)"),
    "dataset.run_experiment.s": ("s", "lower", "wall_s on corpus_wav and table_svm"),
    "dataset.failures": ("count", "lower", "per-file failures on corpus_wav; must be 0"),
    "cli.self_s": ("s", "lower", "setup_s, wall_s on every workload"),
    "trace.wall_s": ("s", "lower", "traced pass wall time; layer self times plus cli.self_s sum to it"),
    "trace.overhead_ratio": ("ratio", "lower", "traced over untraced in-process pass; base: untraced wall"),
}


def _p50(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _p99(xs: list[float]) -> float:
    """The 99th percentile, or 0 when fewer than ten samples lie beyond it."""
    rank = math.ceil(0.99 * len(xs))
    return sorted(xs)[rank - 1] if len(xs) - rank >= 10 else 0.0


def span_times(spans: list[list]) -> tuple[dict, dict, float]:
    """Per-name durations and self times (seconds), and the time root spans cover."""
    children = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    covered = 0
    for (name, parent, start, end, _), child in zip(spans, children):
        durations.setdefault(name, []).append((end - start) / 1e9)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child) / 1e9
        if parent < 0:
            covered += end - start
    return durations, self_s, covered / 1e9


def layer_metrics(traced: dict, untraced_wall_ns: int, accuracy: float | None) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass; 0 where the layer did not run."""
    durations, self_s, covered = span_times(traced["spans"])
    wall = traced["wall_ns"] / 1e9
    c, fits = traced["counters"], traced["fits"]

    def d(name):
        return durations.get(name, [])

    def ms(xs):
        return 1e3 * xs

    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) for layer in LAYERS}
    layer_self["cli"] = wall - covered
    wav_s = sum(d("signal.load_wav"))
    barcode = d("persistence.lower_star_barcode")
    fit_times = d("svm.train_binary")
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "signal.load_wav.calls": len(d("signal.load_wav")),
        "signal.load_wav.p50_ms": ms(_p50(d("signal.load_wav"))),
        "signal.load_wav.p99_ms": ms(_p99(d("signal.load_wav"))),
        "signal.load_wav.mb_per_s": c["load_wav_bytes"] / 1e6 / wav_s if wav_s else 0.0,
        "signal.load_csv_signal.p50_ms": ms(_p50(d("signal.load_csv_signal"))),
        "signal.subsample.p50_ms": ms(_p50(d("signal.subsample"))),
        "signal.canonicalize.p50_ms": ms(_p50(d("signal.canonicalize"))),
        "persistence.lower_star_barcode.calls": len(barcode),
        "persistence.lower_star_barcode.p50_ms": ms(_p50(barcode)),
        "persistence.lower_star_barcode.p99_ms": ms(_p99(barcode)),
        "persistence.lower_star_barcode.ns_per_sample": 1e9 * sum(barcode) / c["barcode_samples"] if barcode else 0.0,
        "persistence.samples": c["barcode_samples"],
        "persistence.bars": c["bars"],
        "persistence.persistent_entropy.p50_ms": ms(_p50(d("persistence.persistent_entropy"))),
        "persistence.barcode_to_csv.ms": ms(sum(d("persistence.barcode_to_csv"))),
        "svm.kernel_matrix.calls": len(d("svm.kernel_matrix")),
        "svm.kernel_matrix.cells": c["gram_cells"],
        "svm.kernel_matrix.self_s": self_s.get("svm.kernel_matrix", 0.0),
        "svm.train_binary.calls": len(fit_times),
        "svm.train_binary.self_s": self_s.get("svm.train_binary", 0.0),
        "svm.train_binary.p50_ms": ms(_p50(fit_times)),
        "svm.train_binary.p99_ms": ms(_p99(fit_times)),
        "svm.train_binary.unconverged_ratio": fits["unconverged"] / fits["fits"] if fits["fits"] else 0.0,
        "svm.train_binary.kkt_gap_max": fits["kkt_gap_max"],
        "svm.kfold_cross_validate.self_s": self_s.get("svm.kfold_cross_validate", 0.0),
        "svm.select_best_kernel.s": sum(d("svm.select_best_kernel")),
        "svm.predict.self_s": self_s.get("svm.predict", 0.0),
        "svm.accuracy_mean": accuracy or 0.0,
        "stats.correlation_matrix.ms": ms(sum(d("stats.correlation_matrix"))),
        "stats.sex_grouped_correlation_means.ms": ms(sum(d("stats.sex_grouped_correlation_means"))),
        "stats.boxplot_by_audio.ms": ms(sum(d("stats.boxplot_by_audio"))),
        "dataset.scan_ravdess_tree.ms": ms(sum(d("dataset.scan_ravdess_tree"))),
        "dataset.read_entropy_table.ms": ms(sum(d("dataset.read_entropy_table"))),
        "dataset.build_entropy_table.self_s": self_s.get("dataset.build_entropy_table", 0.0),
        "dataset.run_experiment.s": sum(d("dataset.run_experiment")),
        "dataset.failures": c["entropy_table_failures"],
        "trace.wall_s": wall,
        "trace.overhead_ratio": traced["wall_ns"] / untraced_wall_ns,
    })
    return {name: float(m[name]) for name in PER_LAYER}


if __name__ == "__main__":
    workload, data, out, result = sys.argv[1:5]
    run_pass(workload, Path(data), Path(out), Path(result), trace=sys.argv[5] == "1")
