"""Corpus ingestion and the three classification experiments.

Handles manifest / RAVDESS-style filename parsing, computes the per-recording
entropy matrix, and builds the three feature layouts: single entropies (1),
per-audio actor vectors (2) and per-actor emotion vectors (3).
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import svm
from .errors import DatasetError
from .signal import DEFAULT_TARGET_LEN, load_csv_signal, load_wav
from .persistence import signal_entropy
from .stats import ActorInfo, AudioInfo, EntropyMatrix

EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fearful", "disgust", "surprised")
INTENSITIES = ("normal", "strong")
N_ACTORS = 24

_EMOTION_CODE = {i + 1: name for i, name in enumerate(EMOTIONS)}
_RAVDESS_NAME = re.compile(r"^(\d{2})-(\d{2})-(\d{2})-(\d{2})-(\d{2})-(\d{2})-(\d{2})\.wav$")


@dataclass(frozen=True)
class RecordingMeta:
    """Manifest row mapping an audio file to its corpus coordinates."""

    path: str
    actor_id: int
    sex: str
    emotion: str
    intensity: str
    statement: int
    repetition: int

    def __post_init__(self) -> None:
        if not 1 <= self.actor_id <= N_ACTORS:
            raise DatasetError(f"actor_id {self.actor_id} out of range 1..{N_ACTORS}")
        if self.sex not in ("male", "female"):
            raise DatasetError(f"unknown sex: {self.sex!r}")
        if self.emotion not in EMOTIONS:
            raise DatasetError(f"unknown emotion: {self.emotion!r}")
        if self.intensity not in INTENSITIES:
            raise DatasetError(f"unknown intensity: {self.intensity!r}")
        if self.emotion == "neutral" and self.intensity != "normal":
            raise DatasetError("neutral recordings exist at normal intensity only")
        if self.statement not in (1, 2) or self.repetition not in (1, 2):
            raise DatasetError("statement and repetition must be 1 or 2")

    def coordinate(self) -> tuple:
        return (self.actor_id, self.emotion, self.intensity, self.statement, self.repetition)


def audio_columns() -> list[AudioInfo]:
    """The canonical 60-column audio layout: 4 neutral + 8 per other emotion,
    ordered by (emotion code, intensity, statement, repetition)."""
    cols = []
    for emotion in EMOTIONS:
        intensities = ("normal",) if emotion == "neutral" else INTENSITIES
        for intensity in intensities:
            for statement in (1, 2):
                for repetition in (1, 2):
                    cols.append(AudioInfo(emotion, intensity, statement, repetition))
    return cols


_COLUMN_INDEX = {c: i for i, c in enumerate(audio_columns())}


def parse_ravdess_filename(name: str) -> RecordingMeta:
    """Decode the 7-field hyphenated naming convention of the corpus.

    Field 3 is the emotion code (01..08), field 4 the intensity, fields 5/6
    statement and repetition, field 7 the actor (odd male, even female).
    """
    base = os.path.basename(str(name))
    match = _RAVDESS_NAME.match(base)
    if match is None:
        raise DatasetError(f"malformed recording name: {base!r}")
    fields = [int(g) for g in match.groups()]
    emotion_code, intensity_code, statement, repetition, actor = fields[2:]
    if emotion_code not in _EMOTION_CODE:
        raise DatasetError(f"emotion code {emotion_code:02d} outside 01-08 in {base!r}")
    if intensity_code not in (1, 2):
        raise DatasetError(f"intensity code {intensity_code:02d} invalid in {base!r}")
    return RecordingMeta(
        path=str(name),
        actor_id=actor,
        sex="male" if actor % 2 == 1 else "female",
        emotion=_EMOTION_CODE[emotion_code],
        intensity=INTENSITIES[intensity_code - 1],
        statement=statement,
        repetition=repetition,
    )


MANIFEST_HEADER = ["path", "actor_id", "sex", "emotion", "intensity", "statement", "repetition"]


def parse_manifest(path) -> list[RecordingMeta]:
    """Read a manifest CSV and reject duplicate corpus coordinates."""
    records = []
    seen: dict[tuple, int] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != MANIFEST_HEADER:
                raise DatasetError(
                    f"manifest header must be {','.join(MANIFEST_HEADER)}, got {reader.fieldnames}"
                )
            for lineno, row in enumerate(reader, start=2):
                try:
                    rec = RecordingMeta(
                        path=row["path"],
                        actor_id=int(row["actor_id"]),
                        sex=row["sex"],
                        emotion=row["emotion"],
                        intensity=row["intensity"],
                        statement=int(row["statement"]),
                        repetition=int(row["repetition"]),
                    )
                except (TypeError, ValueError) as exc:
                    raise DatasetError(f"{path}:{lineno}: {exc}")
                except DatasetError as exc:
                    raise DatasetError(f"{path}:{lineno}: {exc}")
                coord = rec.coordinate()
                if coord in seen:
                    raise DatasetError(
                        f"{path}:{lineno}: duplicate recording coordinates {coord} "
                        f"(first seen at line {seen[coord]})"
                    )
                seen[coord] = lineno
                records.append(rec)
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}")
    return records


def scan_ravdess_tree(root) -> list[RecordingMeta]:
    """Collect RAVDESS-named .wav files below a directory."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"not a directory: {root}")
    records = []
    seen: dict[tuple, str] = {}
    for wav in sorted(root.rglob("*.wav")):
        rec = replace(parse_ravdess_filename(wav.name), path=str(wav))
        coord = rec.coordinate()
        if coord in seen:
            raise DatasetError(f"duplicate recording coordinates {coord}: {seen[coord]} and {wav}")
        seen[coord] = str(wav)
        records.append(rec)
    if not records:
        raise DatasetError(f"no RAVDESS-named .wav files under {root}")
    return records


def _entropy_of_file(path: str, target_len: int) -> tuple[bool, float | str]:
    """(True, entropy) for one recording, or (False, the reason it failed)."""
    try:
        signal = load_csv_signal(path) if path.endswith(".csv") else load_wav(path, target_len)
        return True, signal_entropy(signal, target_len)
    except Exception as exc:  # one bad file must not stop the run
        return False, str(exc)


@dataclass(frozen=True)
class EntropyTableResult:
    matrix: EntropyMatrix
    failures: tuple[tuple[str, str], ...]  # (path, error message)


def build_entropy_table(
    records: Sequence[RecordingMeta],
    target_len: int = DEFAULT_TARGET_LEN,
    jobs: int = 1,
) -> EntropyTableResult:
    """Compute one persistent entropy per recording, arranged actors x audios.

    Rows follow ascending actor id, columns the canonical 60-audio layout.
    Per-file failures are collected (not fatal) and leave their cells NaN;
    jobs > 1 fans the per-file work out to at most as many worker processes
    as there are files and CPUs this process may run on.
    """
    if not records:
        raise DatasetError("no recordings")
    actor_ids = sorted({r.actor_id for r in records})
    actor_row = {a: i for i, a in enumerate(actor_ids)}
    sexes = {r.actor_id: r.sex for r in records}
    columns = audio_columns()

    values = np.full((len(actor_ids), len(columns)), np.nan)
    failures: list[tuple[str, str]] = []

    paths = [r.path for r in records]
    lengths = [target_len] * len(records)
    # The pool starts all its workers at once, so more than there are files
    # or CPUs this process may run on would only cost process starts.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(records), cpus)
    if workers > 1:
        # A few chunks per worker, not one task per file: each task is a
        # round trip through the pool's queues.
        chunksize = -(-len(records) // (4 * workers))
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_entropy_of_file, paths, lengths, chunksize=chunksize))
        except concurrent.futures.BrokenExecutor as exc:
            raise DatasetError(f"a worker process died: {exc}")
    else:
        outcomes = map(_entropy_of_file, paths, lengths)

    for rec, (ok, outcome) in zip(records, outcomes):
        if ok:
            col = _COLUMN_INDEX[AudioInfo(rec.emotion, rec.intensity, rec.statement, rec.repetition)]
            values[actor_row[rec.actor_id], col] = outcome
        else:
            failures.append((rec.path, outcome))

    matrix = EntropyMatrix(
        values=values,
        actor_meta=tuple(ActorInfo(a, sexes[a]) for a in actor_ids),
        audio_meta=tuple(columns),
    )
    return EntropyTableResult(matrix=matrix, failures=tuple(sorted(failures)))


def missing_cells(m: EntropyMatrix) -> list[tuple[int, str]]:
    """(actor_id, column key) pairs that are absent from an incomplete matrix."""
    return [(m.actor_meta[i].actor_id, m.audio_meta[j].column_key())
            for i, j in np.argwhere(~np.isfinite(m.values))]


def _require_complete(m: EntropyMatrix) -> None:
    if not m.complete:
        cells = missing_cells(m)
        shown = ", ".join(f"actor {a}: {c}" for a, c in cells[:10])
        more = "" if len(cells) <= 10 else f" (+{len(cells) - 10} more)"
        raise DatasetError(f"entropy matrix incomplete; missing {shown}{more}")


def build_experiment1(m: EntropyMatrix, include_neutral: bool = True) -> list[svm.LabeledPoint]:
    """One 1-D point per recording, labeled by emotion."""
    _require_complete(m)
    points = []
    for i, actor in enumerate(m.actor_meta):
        for j, meta in enumerate(m.audio_meta):
            if not include_neutral and meta.emotion == "neutral":
                continue
            points.append(
                svm.LabeledPoint(
                    features=np.array([m.values[i, j]]),
                    label=meta.emotion,
                    provenance=(actor.actor_id, meta.emotion, j),
                )
            )
    return points


def build_experiment2(m: EntropyMatrix) -> list[svm.LabeledPoint]:
    """One point per audio column: the vector of entropies over all actors."""
    _require_complete(m)
    points = []
    for j, meta in enumerate(m.audio_meta):
        points.append(
            svm.LabeledPoint(
                features=m.values[:, j].copy(),
                label=meta.emotion,
                provenance=(meta.emotion, j),
            )
        )
    return points


def build_experiment3(m: EntropyMatrix) -> list[svm.LabeledPoint]:
    """One point per (actor, non-neutral emotion): that actor's 8 entropies
    for the emotion, ordered by (intensity, statement, repetition).

    Neutral has only 4 recordings and cannot fill the 8 features, so it is
    excluded.
    """
    _require_complete(m)
    points = []
    for i, actor in enumerate(m.actor_meta):
        for emotion in EMOTIONS:
            if emotion == "neutral":
                continue
            cols = [j for j, meta in enumerate(m.audio_meta) if meta.emotion == emotion]
            points.append(
                svm.LabeledPoint(
                    features=m.values[i, cols].copy(),
                    label=emotion,
                    provenance=(actor.actor_id, emotion),
                )
            )
    return points


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment runners; echoed into every result."""

    seed: int = 0
    k: int = 5
    C: float = 1.0
    tol: float = 1e-3
    target_len: int = DEFAULT_TARGET_LEN
    kernel: svm.KernelSpec | None = None  # None: the experiment's default kernel
    include_neutral: bool = True

    def snapshot(self, effective_kernel: svm.KernelSpec) -> dict:
        return {
            "seed": self.seed,
            "k": self.k,
            "C": self.C,
            "tol": self.tol,
            "target_len": self.target_len,
            "kernel": effective_kernel.describe(),
            "include_neutral": self.include_neutral,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """Accuracies from one experiment run plus its reproducibility snapshot."""

    experiment: int
    kernel: str
    accuracies: dict[str, float]
    fold_accuracies: tuple[float, ...] = ()
    pairwise: dict[tuple[str, str], float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "kernel": self.kernel,
            "accuracies": self.accuracies,
            "fold_accuracies": list(self.fold_accuracies),
            "pairwise": {f"{a}|{b}": v for (a, b), v in sorted(self.pairwise.items())},
            "config": self.config,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def run_experiment(exp_id: int, m: EntropyMatrix, config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Run one of the three experiments on a complete entropy matrix.

    1: k-fold CV over 1-D entropy points, linear kernel by default.
    2: stratified 40/20 train/test split over per-audio actor vectors,
       gaussian kernel (median-heuristic sigma) by default; reports train,
       test and full-dataset accuracy.
    3: per emotion pair, k-fold CV over per-actor 8-feature vectors with a
       (x.y + 1)^2 polynomial kernel by default; emits the pairwise table.
    """
    if exp_id == 1:
        points = build_experiment1(m, include_neutral=config.include_neutral)
        kernel = config.kernel or svm.KernelSpec("linear")
        cv = svm.kfold_cross_validate(
            points, kernel, C=config.C, tol=config.tol, k=config.k, seed=config.seed
        )
        return ExperimentResult(
            experiment=1,
            kernel=kernel.describe(),
            accuracies={"cv_mean": cv.mean_accuracy},
            fold_accuracies=cv.fold_accuracies,
            config=config.snapshot(kernel),
        )

    if exp_id == 2:
        points = build_experiment2(m)
        X = np.stack([p.features for p in points])
        labels = [p.label for p in points]
        kernel = config.kernel or svm.KernelSpec(
            "gaussian", sigma=svm.median_pairwise_distance(X)
        )
        n_train = max(1, round(len(points) * 2 / 3))
        train_idx, test_idx = svm.stratified_split(labels, n_train, config.seed)
        train_pts = [points[i] for i in train_idx]
        model = svm.train_multiclass(train_pts, kernel, C=config.C, tol=config.tol)
        acc = {
            "train": svm.accuracy(model.predict(X[train_idx]), [labels[i] for i in train_idx]),
            "test": svm.accuracy(model.predict(X[test_idx]), [labels[i] for i in test_idx]),
            "full": svm.accuracy(model.predict(X), labels),
        }
        return ExperimentResult(
            experiment=2,
            kernel=kernel.describe(),
            accuracies=acc,
            config=config.snapshot(kernel),
        )

    if exp_id == 3:
        points = build_experiment3(m)
        kernel = config.kernel or svm.KernelSpec("polynomial")
        emotions = [e for e in EMOTIONS if e != "neutral"]
        pairwise: dict[tuple[str, str], float] = {}
        for a_idx in range(len(emotions)):
            for b_idx in range(a_idx + 1, len(emotions)):
                a, b = emotions[a_idx], emotions[b_idx]
                subset = [p for p in points if p.label in (a, b)]
                cv = svm.kfold_cross_validate(
                    subset, kernel, C=config.C, tol=config.tol, k=config.k, seed=config.seed
                )
                pairwise[(a, b)] = cv.mean_accuracy
        mean_acc = float(np.mean(list(pairwise.values())))
        return ExperimentResult(
            experiment=3,
            kernel=kernel.describe(),
            accuracies={"pairwise_mean": mean_acc},
            pairwise=pairwise,
            config=config.snapshot(kernel),
        )

    raise DatasetError(f"unknown experiment id: {exp_id}")


def pairwise_table_csv(pairwise: dict[tuple[str, str], float]) -> str:
    """Upper-triangular emotion-pair accuracy table as CSV."""
    emotions = [e for e in EMOTIONS if e != "neutral"]
    lines = ["emotion," + ",".join(emotions[1:])]
    for i, a in enumerate(emotions[:-1]):
        cells = []
        for b in emotions[1:]:
            j = emotions.index(b)
            cells.append(repr(pairwise[(a, b)]) if j > i else "")
        lines.append(a + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def entropy_table_csv(m: EntropyMatrix) -> str:
    """Entropy matrix as CSV; columns keyed emotion-intensity-statement-repetition."""
    header = "actor_id,sex," + ",".join(meta.column_key() for meta in m.audio_meta)
    lines = [header]
    for actor, row in zip(m.actor_meta, m.values):
        cells = ",".join("" if not np.isfinite(v) else repr(float(v)) for v in row)
        lines.append(f"{actor.actor_id},{actor.sex},{cells}")
    return "\n".join(lines) + "\n"


def read_entropy_table(path) -> EntropyMatrix:
    """Parse the CSV written by :func:`entropy_table_csv`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DatasetError(f"cannot read entropy table {path}: {exc}")
    if not rows or rows[0][:2] != ["actor_id", "sex"]:
        raise DatasetError(f"{path}: not an entropy table CSV")
    audio_meta = []
    for key in rows[0][2:]:
        try:
            emotion, intensity, statement, repetition = key.rsplit("-", 3)
            audio_meta.append(AudioInfo(emotion, intensity, int(statement), int(repetition)))
        except ValueError:
            raise DatasetError(f"{path}: bad column key {key!r}")
    actors = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(audio_meta) + 2:
            raise DatasetError(f"{path}:{lineno}: expected {len(audio_meta) + 2} cells")
        try:
            actors.append(ActorInfo(int(row[0]), row[1]))
            values.append([float(c) if c else float("nan") for c in row[2:]])
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")
    return EntropyMatrix(
        values=np.array(values, dtype=np.float64),
        actor_meta=tuple(actors),
        audio_meta=tuple(audio_meta),
    )
