"""Corpus ingestion and the three classification experiments.

Handles manifest / RAVDESS-style filename parsing, computes the per-recording
entropy matrix, and builds the three feature layouts: single entropies (1),
per-audio actor vectors (2) and per-actor emotion vectors (3).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import svm
from .errors import DatasetError, SignalError
from .signal import DEFAULT_TARGET_LEN, load_csv_signal, load_wav
from .persistence import signal_entropy
from .stats import ActorInfo, AudioInfo, EntropyMatrix, csv_text, require_complete

EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fearful", "disgust", "surprised")
# The classes of experiment 3; see build_experiment3 for why neutral is not one.
NON_NEUTRAL = EMOTIONS[1:]
INTENSITIES = ("normal", "strong")
N_ACTORS = 24

_EMOTION_CODE = {i + 1: name for i, name in enumerate(EMOTIONS)}
_RAVDESS_NAME = re.compile(r"^(\d{2})-(\d{2})-(\d{2})-(\d{2})-(\d{2})-(\d{2})-(\d{2})\.wav$")
# The first four fields of a RAVDESS name: each one's name, the codes of the
# audio-only speech recordings this corpus holds, and those codes in words.
_CODES = (("modality", {3}, "03 (audio-only)"), ("vocal channel", {1}, "01 (speech)"),
          ("emotion", _EMOTION_CODE, "01-08"), ("intensity", {1, 2}, "01 or 02"))


def _check_actor(actor_id: int, sex: str) -> None:
    try:
        number = operator.index(actor_id)
    except TypeError:
        number = None
    if number is None or isinstance(actor_id, bool):  # a bool is an int, but not an actor id
        raise DatasetError(f"actor_id must be an integer, got {actor_id!r}")
    if not 1 <= number <= N_ACTORS:
        raise DatasetError(f"actor_id {actor_id} out of range 1..{N_ACTORS}")
    if sex not in ("male", "female"):
        raise DatasetError(f"unknown sex: {sex!r}")


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
        _check_actor(self.actor_id, self.sex)
        try:
            known = self.audio() in _COLUMN_INDEX
        except TypeError:  # an unhashable field, say a list
            known = False
        if not known:
            raise DatasetError(f"not an audio column of the corpus: {self.audio().column_key()}")

    def audio(self) -> AudioInfo:
        return AudioInfo(self.emotion, self.intensity, self.statement, self.repetition)


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

    Fields 1 to 4 are coded as _CODES says: modality 03 and vocal channel 01
    (audio-only speech), then emotion and intensity. Fields 5/6 are statement
    and repetition, field 7 the actor (odd male, even female).
    """
    base = os.path.basename(str(name))
    match = _RAVDESS_NAME.match(base)
    if match is None:
        raise DatasetError(f"malformed recording name: {base!r}")
    fields = [int(g) for g in match.groups()]
    for code, (field_name, codes, words) in zip(fields, _CODES):
        if code not in codes:
            raise DatasetError(f"{field_name} code {code:02d} is not {words} in {base!r}")
    emotion_code, intensity_code, statement, repetition, actor = fields[2:]
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


def _read_csv(path, what: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of a CSV file that may start with a UTF-8 BOM, and each
    later row with the physical line it ends on; blank rows are skipped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {what} {path}: {exc}")
    return (rows[0][1] if rows else []), rows[1:]


def parse_manifest(path) -> list[RecordingMeta]:
    """Read a manifest CSV; a repeated coordinate is left to build_entropy_table."""
    header, rows = _read_csv(path, "manifest")
    if header != MANIFEST_HEADER:
        raise DatasetError(f"manifest header must be {','.join(MANIFEST_HEADER)}, got {header}")
    records = []
    for lineno, row in rows:
        try:
            if len(row) != len(header):
                raise DatasetError(f"expected {len(header)} fields, got {len(row)}")
            file, actor, sex, emotion, intensity, statement, repetition = row
            records.append(RecordingMeta(file, int(actor), sex, emotion, intensity,
                                         int(statement), int(repetition)))
        except (ValueError, DatasetError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")
    return records


def scan_ravdess_tree(root) -> list[RecordingMeta]:
    """Collect RAVDESS-named .wav files below a directory, in sorted path
    order; a repeated coordinate is left to build_entropy_table."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"not a directory: {root}")
    records = [parse_ravdess_filename(str(wav)) for wav in sorted(root.rglob("*.wav"))]
    if not records:
        raise DatasetError(f"no RAVDESS-named .wav files under {root}")
    return records


def file_error(path: str, exc: Exception) -> str:
    """The message of a failure on one input file, naming its path once.

    A SignalError comes from a loader (at target lengths >= 2), which names it."""
    return str(exc) if isinstance(exc, SignalError) else f"{path}: {exc}"


def _entropy_of_file(path: str, target_len: int) -> tuple[bool, float | str]:
    """(True, entropy) for one recording, or (False, the reason it failed)."""
    try:
        signal = load_csv_signal(path) if path.endswith(".csv") else load_wav(path, target_len)
        return True, signal_entropy(signal, target_len)
    except Exception as exc:  # one bad file must not stop the run
        return False, file_error(path, exc)


def _keep_freed_heap() -> None:
    """Let glibc keep freed heap instead of trimming it, from now on in this process.

    Nothing is kept alive between files, so by default glibc may give the
    top of the heap back to the kernel after each one and the next file
    faults it all in again. These are the largest values glibc's own dynamic
    adjustment reaches on 64-bit (trim is twice the mmap threshold). Where
    libc cannot be loaded or has no mallopt, the process runs as it would
    have: a pool initializer that raises would break the pool.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


class EntropyTableResult(NamedTuple):
    matrix: EntropyMatrix
    failures: tuple[tuple[str, str], ...]  # (path, error message)


def build_entropy_table(
    records: Sequence[RecordingMeta],
    target_len: int = DEFAULT_TARGET_LEN,
    jobs: int = 1,
) -> EntropyTableResult:
    """Compute one persistent entropy per recording, arranged actors x audios.

    Rows follow ascending actor id, columns the canonical 60-audio layout.
    A cell with two records, or an actor with two sexes, is refused with
    both paths before any file is decoded. Per-file failures are collected
    (not fatal) and leave their cells NaN; jobs > 1 fans the per-file work
    out to at most as many worker processes as there are files and usable CPUs.
    """
    if not records:
        raise DatasetError("no recordings")
    if target_len < 2:
        raise DatasetError(f"target_len must be at least 2, got {target_len}")
    cells: dict[tuple, str] = {}
    actors: dict[int, RecordingMeta] = {}  # each actor's first record
    for rec in records:
        cell = (rec.actor_id, rec.audio())
        if cell in cells:
            raise DatasetError(f"duplicate recording of actor {rec.actor_id}, "
                               f"{cell[1].column_key()}: {cells[cell]} and {rec.path}")
        cells[cell] = rec.path
        first = actors.setdefault(rec.actor_id, rec)
        if first.sex != rec.sex:
            raise DatasetError(f"actor {rec.actor_id} is {first.sex} in {first.path} "
                               f"and {rec.sex} in {rec.path}")
    actor_ids = sorted(actors)
    actor_row = {a: i for i, a in enumerate(actor_ids)}
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
        import concurrent.futures  # loaded only by a run that starts a pool

        # A few chunks per worker, not one task per file: each task is a
        # round trip through the pool's queues.
        chunksize = -(-len(records) // (4 * workers))
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_keep_freed_heap
            ) as pool:
                outcomes = list(pool.map(_entropy_of_file, paths, lengths, chunksize=chunksize))
        except concurrent.futures.BrokenExecutor as exc:
            raise DatasetError(f"a worker process died: {exc}")
    else:
        if len(records) > 1:
            _keep_freed_heap()
        outcomes = map(_entropy_of_file, paths, lengths)

    for rec, (ok, outcome) in zip(records, outcomes):
        if ok:
            values[actor_row[rec.actor_id], _COLUMN_INDEX[rec.audio()]] = outcome
        else:
            failures.append((rec.path, outcome))

    matrix = EntropyMatrix(
        values=values,
        actor_meta=tuple(ActorInfo(a, actors[a].sex) for a in actor_ids),
        audio_meta=tuple(columns),
    )
    return EntropyTableResult(matrix=matrix, failures=tuple(sorted(failures)))


def build_experiment1(m: EntropyMatrix) -> list[svm.LabeledPoint]:
    """One 1-D point per recording, labeled by emotion."""
    require_complete(m, DatasetError)
    points = []
    for row in m.values:
        for value, meta in zip(row, m.audio_meta):
            points.append(svm.LabeledPoint(features=np.array([value]), label=meta.emotion))
    return points


def build_experiment2(m: EntropyMatrix) -> list[svm.LabeledPoint]:
    """One point per audio column: the vector of entropies over all actors."""
    require_complete(m, DatasetError)
    points = []
    for j, meta in enumerate(m.audio_meta):
        points.append(svm.LabeledPoint(features=m.values[:, j].copy(), label=meta.emotion))
    return points


def build_experiment3(m: EntropyMatrix) -> list[svm.LabeledPoint]:
    """One point per (actor, non-neutral emotion): that actor's 8 entropies
    for the emotion, ordered by (intensity, statement, repetition).

    Neutral has only 4 recordings and cannot fill the 8 features, so it is
    excluded.
    """
    require_complete(m, DatasetError)
    points = []
    for row in m.values:
        for emotion in NON_NEUTRAL:
            cols = [j for j, meta in enumerate(m.audio_meta) if meta.emotion == emotion]
            points.append(svm.LabeledPoint(features=row[cols], label=emotion))
    return points


def experiment_points(exp_id: int, m: EntropyMatrix) -> list[svm.LabeledPoint]:
    """The labeled points of experiment 1, 2 or 3. The builder is looked up at
    each call, so one wrapped at the module attribute is the one that runs."""
    builder = {1: build_experiment1, 2: build_experiment2, 3: build_experiment3}.get(exp_id)
    if builder is None:
        raise DatasetError(f"unknown experiment id: {exp_id}")
    return builder(m)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment runners; echoed into every result."""

    seed: int = 0
    k: int = 5
    C: float = 1.0
    tol: float = 1e-3
    target_len: int = DEFAULT_TARGET_LEN
    kernel: svm.KernelSpec | None = None  # None: the experiment's default kernel

    def __post_init__(self) -> None:
        svm.check_solver_params(self.C, self.tol)

    def snapshot(self, effective_kernel: svm.KernelSpec) -> dict:
        return {**asdict(self), "kernel": effective_kernel.describe()}


_EMPTY: Mapping = MappingProxyType({})  # a default that no result can write into


class ExperimentResult(NamedTuple):
    """Accuracies from one experiment run plus its reproducibility snapshot."""

    experiment: int
    kernel: str
    accuracies: dict[str, float]
    fold_accuracies: tuple[float, ...] = ()
    pairwise: Mapping[tuple[str, str], float] = _EMPTY
    config: Mapping = _EMPTY
    fits: Mapping = _EMPTY  # the run's binary fits, as svm.fit_roll_up rolls them up
    pairwise_fits: Mapping[tuple[str, str], Mapping] = _EMPTY  # experiment 3's, per pair

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "kernel": self.kernel,
            "accuracies": self.accuracies,
            "fold_accuracies": list(self.fold_accuracies),
            "pairwise": {f"{a}|{b}": v for (a, b), v in sorted(self.pairwise.items())},
            "config": dict(self.config),
            "fits": dict(self.fits),
            "pairwise_fits": {f"{a}|{b}": dict(v) for (a, b), v in sorted(self.pairwise_fits.items())},
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
    points = experiment_points(exp_id, m)
    X = np.stack([p.features for p in points])
    labels = [p.label for p in points]
    if config.kernel is not None:
        kernel = config.kernel
    elif exp_id == 2:
        kernel = svm.KernelSpec("gaussian", sigma=svm.median_pairwise_distance(X))
    else:
        kernel = svm.KernelSpec("linear" if exp_id == 1 else "polynomial")
    head = {"experiment": exp_id, "kernel": kernel.describe(), "config": config.snapshot(kernel)}

    def cv(data: list[svm.LabeledPoint]) -> svm.CvResult:
        return svm.kfold_cross_validate(
            data, kernel, C=config.C, tol=config.tol, k=config.k, seed=config.seed
        )

    if exp_id == 1:
        folds = cv(points)
        return ExperimentResult(**head, accuracies={"cv_mean": folds.mean_accuracy},
                                fold_accuracies=folds.fold_accuracies, fits=svm.fit_roll_up([folds]))
    if exp_id == 2:
        n_train = max(1, round(len(points) * 2 / 3))
        train_idx, test_idx = svm.stratified_split(labels, n_train, config.seed)
        train_pts = [points[i] for i in train_idx]
        model = svm.train_multiclass(train_pts, kernel, C=config.C, tol=config.tol)
        predicted = model.predict(X)  # each row's prediction does not depend on the other rows
        acc = {name: svm.accuracy([predicted[i] for i in idx], [labels[i] for i in idx])
               for name, idx in (("train", train_idx), ("test", test_idx), ("full", range(len(labels))))}
        return ExperimentResult(**head, accuracies=acc, fits=svm.fit_roll_up(model.models))
    pairs = {(a, b): cv([p for p in points if p.label in (a, b)])
             for a, b in itertools.combinations(NON_NEUTRAL, 2)}
    pairwise = {pair: result.mean_accuracy for pair, result in pairs.items()}
    mean_acc = float(np.mean(list(pairwise.values())))
    return ExperimentResult(**head, accuracies={"pairwise_mean": mean_acc}, pairwise=pairwise,
                            fits=svm.fit_roll_up(list(pairs.values())),
                            pairwise_fits={pair: svm.fit_roll_up([result]) for pair, result in pairs.items()})


def pairwise_table_csv(pairwise: dict[tuple[str, str], float]) -> str:
    """Upper-triangular emotion-pair accuracy table as CSV."""
    return csv_text([["emotion", *NON_NEUTRAL[1:]],
                     *([a, *[""] * i, *(pairwise[(a, b)] for b in NON_NEUTRAL[i + 1:])]
                       for i, a in enumerate(NON_NEUTRAL[:-1]))])


def entropy_table_csv(m: EntropyMatrix) -> str:
    """Entropy matrix as CSV; columns keyed emotion-intensity-statement-repetition."""
    return csv_text([["actor_id", "sex", *(meta.column_key() for meta in m.audio_meta)],
                     *([actor.actor_id, actor.sex, *(v if math.isfinite(v) else "" for v in row)]
                       for actor, row in zip(m.actor_meta, m.values.tolist()))])


def read_entropy_table(path) -> EntropyMatrix:
    """Parse the CSV written by :func:`entropy_table_csv`.

    The header must name the canonical 60 audio columns in order, and each
    row a distinct actor as a manifest would. An empty cell is a missing
    entropy (NaN); any other cell must hold a finite number.
    """
    header, rows = _read_csv(path, "entropy table")
    if header[:2] != ["actor_id", "sex"]:
        raise DatasetError(f"{path}: not an entropy table CSV")
    columns = tuple(audio_columns())
    if header[2:] != [c.column_key() for c in columns]:
        raise DatasetError(f"{path}: the columns after actor_id,sex must be the "
                           f"{len(columns)} audio columns in canonical order")
    if not rows:
        raise DatasetError(f"{path}: no actor rows")
    actors = []
    values = []
    seen: dict[int, int] = {}
    for lineno, row in rows:
        try:
            if len(row) != len(header):
                raise DatasetError(f"expected {len(header)} fields, got {len(row)}")
            actor = ActorInfo(int(row[0]), row[1])
            _check_actor(*actor)
            values.append([float(c) if c else math.nan for c in row[2:]])
            for value, text, column in zip(values[-1], row[2:], columns):
                if text and not math.isfinite(value):
                    raise DatasetError(f"{column.column_key()}: entropy must be finite, got {text!r}")
        except (ValueError, DatasetError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")
        if actor.actor_id in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate actor {actor.actor_id} "
                               f"(first seen at line {seen[actor.actor_id]})")
        seen[actor.actor_id] = lineno
        actors.append(actor)
    return EntropyMatrix(
        values=values,
        actor_meta=tuple(actors),
        audio_meta=columns,
    )
