"""The three workloads: their inputs, CLI commands, item counts and output checks.

A workload is a list of `entropic` command lines run one after another
(closed loop, one client). The same command lines run in a subprocess for
the timed passes and in-process for the traced pass.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

NAMES = ("corpus_wav", "signals_long", "table_svm")

# Why each workload exists; mirrored in BENCHMARK.json, which lists corpus_wav and table_svm.
WHY = {
    "corpus_wav": "1440-WAV corpus through experiment 2 at --jobs 2: WAV decode, barcode and process fan-out",
    "signals_long": "1e5-sample CSV signals incl. the adversarial alternating one: CSV parser and long barcodes, no SVM",
    "table_svm": "weak-signal 24x60 entropy table (12 actors for experiments 3 and 1): SMO, Gram matrices, CV, grid search",
}

JOBS = min(2, os.cpu_count() or 1)  # worker processes of the --jobs fan-out
LONG_LEN = 100_000  # --target-len on signals_long: no subsampling
NON_NEUTRAL = ("calm", "happy", "sad", "angry", "fearful", "disgust", "surprised")
EMOTION_PAIRS = [f"{a}|{b}" for i, a in enumerate(NON_NEUTRAL) for b in NON_NEUTRAL[i + 1:]]
N_CLASSES = 8
N_FOLDS = 5
KERNEL_GRID_CELLS = 8 * 4  # default_kernel_grid x DEFAULT_C_GRID


def commands(workload: str, data: Path, out: Path, jobs: int) -> list[list[str]]:
    """The `entropic` argument lists of one pass over the workload."""
    if workload == "corpus_wav":
        return [["experiment", "2", str(data), "--jobs", str(jobs), "--out-dir", str(out)]]
    if workload == "signals_long":
        csvs = sorted(str(p) for p in data.glob("*.csv"))
        return [
            ["entropy", *csvs, "--target-len", str(LONG_LEN), "--out-dir", str(out)],
            ["barcode", str(data / "alternating_long_a.csv"), "--target-len", str(LONG_LEN),
             "--out-dir", str(out)],
        ]
    table, head = str(data / "table.csv"), str(data / "table_head.csv")
    return [
        ["experiment", "3", head, "--out-dir", str(out)],
        ["experiment", "1", head, "--C", "10", "--out-dir", str(out)],
        ["kernels", "2", table, "--out-dir", str(out)],
        ["stats", table, "--out-dir", str(out)],
    ]


def items(workload: str, data: Path) -> int:
    """Items one pass completes: recordings, signal computations or binary SVM fits."""
    if workload == "corpus_wav":
        return sum(1 for _ in data.rglob("*.wav"))
    if workload == "signals_long":
        return sum(1 for _ in data.glob("*.csv")) + 1  # every signal, plus the barcode command
    ovo = N_CLASSES * (N_CLASSES - 1) // 2  # one-vs-one fits per multiclass model
    # experiment 3: 21 binary pairs; experiment 1: one multiclass model; kernels 2: one per grid cell.
    return N_FOLDS * (len(EMOTION_PAIRS) + ovo + KERNEL_GRID_CELLS * ovo)


class Checks:
    """Counts attempted and failed operations of one run.

    An operation is one CLI command (fails on a non-zero exit), one per-file
    computation (fails when reported as a per-file failure) or one output
    check (fails when the output differs from what is expected).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{failed}/{attempted} {what}")


def read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _json(path: Path):
    text = read_text(path)
    try:
        return json.loads(text) if text is not None else None
    except json.JSONDecodeError:
        return None


def _in_unit(values) -> bool:
    return bool(values) and all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in values)


def check_outputs(workload: str, out: Path, reference: dict, checks: Checks) -> float | None:
    """Check one pass's output files against the reference; return its mean accuracy."""
    if workload == "signals_long":
        _check_signals(out, reference, checks)
        return None

    got, expected = snapshot(out), reference["files"]
    for name in sorted(set(got) | set(expected)):
        checks.expect(got.get(name) == expected.get(name), f"{name} differs from the in-process --jobs 1 result")
    if workload == "corpus_wav":
        doc = _json(out / "experiment2.json")
        return _mean(doc["accuracies"].values()) if doc else None

    return _check_table(out, checks)


def _check_signals(out: Path, reference: dict, checks: Checks) -> None:
    """Every signal's bar count and entropy (by repr) equal the library's; barcode.csv too."""
    rows = (read_text(out / "entropy.csv") or "").splitlines()
    checks.expect(rows[:1] == ["path,samples,subsampled_to,bars,entropy"], "entropy.csv header")
    got = {fields[0]: fields[3:] for fields in (row.split(",") for row in rows[1:])}
    expected = reference["entropies"]
    for path, (bars, entropy) in expected.items():
        checks.expect(got.get(path) == [str(bars), entropy],
                      f"bars or entropy of {Path(path).name} differ from the library's")
    checks.expect(len(got) == len(expected), "entropy.csv has extra rows")
    checks.expect(read_text(out / "barcode.csv") == reference["barcode.csv"],
                  "barcode.csv differs from in-process barcode_to_csv")


def _check_table(out: Path, checks: Checks) -> float | None:
    exp3, exp1, kern = (_json(out / name) for name in ("experiment3.json", "experiment1.json", "kernels.json"))
    pairwise = (exp3 or {}).get("pairwise", {})
    checks.expect(sorted(pairwise) == sorted(EMOTION_PAIRS) and _in_unit(list(pairwise.values())),
                  "experiment3.json lacks a pairwise cell or has an accuracy outside [0, 1]")
    folds = (exp1 or {}).get("fold_accuracies", [])
    cv_mean = (exp1 or {}).get("accuracies", {}).get("cv_mean")
    checks.expect(len(folds) == N_FOLDS and _in_unit(folds + [cv_mean]),
                  "experiment1.json fold accuracies missing or outside [0, 1]")
    grid = (kern or {}).get("table", [])
    checks.expect(len(grid) == KERNEL_GRID_CELLS and _in_unit([row[2] for row in grid]),
                  "kernels.json grid incomplete or accuracy outside [0, 1]")
    if not (exp3 and exp1 and kern):
        return None
    return _mean([exp3["accuracies"]["pairwise_mean"], cv_mean, kern["best"]["mean_accuracy"]])


def snapshot(out: Path) -> dict[str, str]:
    """Every output file below a directory, by relative path."""
    return {str(p.relative_to(out)): p.read_text(encoding="utf-8") for p in sorted(out.rglob("*")) if p.is_file()}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)
