import ctypes
import itertools
import json
import os
import subprocess
import sys
import wave
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from conftest import make_matrix
from click.testing import CliRunner

from entropic import dataset, svm
from entropic.cli import main
from entropic.errors import DatasetError
from entropic.stats import EntropyMatrix, missing_cells, require_complete
from entropic.svm import KernelSpec
from entropic.dataset import (
    EMOTIONS,
    ExperimentConfig,
    ExperimentResult,
    RecordingMeta,
    NON_NEUTRAL,
    audio_columns,
    build_entropy_table,
    build_experiment1,
    build_experiment2,
    build_experiment3,
    entropy_table_csv,
    pairwise_table_csv,
    parse_manifest,
    parse_ravdess_filename,
    read_entropy_table,
    run_experiment,
    scan_ravdess_tree,
)


def four_old_rules(emotion, intensity, statement, repetition) -> bool:
    """The checks that RecordingMeta made before it asked whether a record's
    audio is one of the 60 columns; kept as the reference for that test."""
    return (emotion in EMOTIONS and intensity in ("normal", "strong")
            and not (emotion == "neutral" and intensity != "normal")
            and statement in (1, 2) and repetition in (1, 2))


class TestRecordingMeta:
    def test_neutral_strong_rejected(self):
        with pytest.raises(DatasetError):
            RecordingMeta("x.wav", 1, "male", "neutral", "strong", 1, 1)

    def test_actor_out_of_range(self):
        with pytest.raises(DatasetError):
            RecordingMeta("x.wav", 25, "male", "happy", "normal", 1, 1)

    @pytest.mark.parametrize("actor_id,message", [
        (1.5, "actor_id must be an integer, got 1.5"),
        (True, "actor_id must be an integer, got True"),
        ([1], "actor_id must be an integer, got [1]"),
        (25, "actor_id 25 out of range 1..24"),
    ], ids=["fraction", "bool", "list", "above_24"])
    def test_actor_id_is_an_integer_in_range(self, actor_id, message):
        # A row written with actor 1.5 or True is one that read_entropy_table refuses.
        with pytest.raises(DatasetError) as info:
            RecordingMeta("x.wav", actor_id, "male", "happy", "normal", 1, 1)
        assert str(info.value) == message
        assert RecordingMeta("x.wav", np.int64(24), "male", "happy", "normal", 1, 1).actor_id == 24

    def test_unknown_emotion(self):
        with pytest.raises(DatasetError):
            RecordingMeta("x.wav", 1, "male", "bored", "normal", 1, 1)

    def test_unknown_sex(self):
        with pytest.raises(DatasetError, match="^unknown sex: 'robot'$"):
            RecordingMeta("x.wav", 1, "robot", "happy", "normal", 1, 1)

    def test_layout_membership_is_the_four_old_rules(self):
        emotions = (*EMOTIONS, "bored", "Happy")
        intensities = ("normal", "strong", "loud")
        statements = (1, 2, 0, 3, True, 2.0)
        repetitions = (1, 2, -1, False, 1.0, 1.5, 2.5)
        combinations = list(itertools.product(emotions, intensities, statements, repetitions))
        assert len(combinations) == 1260
        accepted = 0
        for emotion, intensity, statement, repetition in combinations:
            args = ("x.wav", 1, "male", emotion, intensity, statement, repetition)
            if four_old_rules(emotion, intensity, statement, repetition):
                assert RecordingMeta(*args).audio() in audio_columns()
                accepted += 1
            else:
                key = f"{emotion}-{intensity}-{statement}-{repetition}"
                with pytest.raises(DatasetError, match=f"not an audio column of the corpus: {key}$"):
                    RecordingMeta(*args)
        # 15 (emotion, intensity) pairs; statements 1, 2, True and 2.0; repetitions 1, 2 and 1.0
        assert accepted == 15 * 4 * 3

    @pytest.mark.parametrize("fields", [
        (["happy"], "normal", 1, 1), ("happy", {"normal"}, 1, 1), ("happy", "normal", [1], 1),
        ("happy", "normal", 1, np.array([1, 2])),
    ], ids=["emotion_list", "intensity_set", "statement_list", "repetition_array"])
    def test_unhashable_field_is_a_dataset_error(self, fields):
        with pytest.raises(DatasetError, match="not an audio column"):
            RecordingMeta("x.wav", 1, "male", *fields)


class TestParseRavdessFilename:
    def test_documented_example(self):
        meta = parse_ravdess_filename("03-01-06-01-02-01-12.wav")
        assert meta.actor_id == 12
        assert meta.sex == "female"
        assert meta.emotion == "fearful"
        assert meta.intensity == "normal"
        assert meta.statement == 2
        assert meta.repetition == 1

    def test_neutral_strong_rejected(self):
        with pytest.raises(DatasetError):
            parse_ravdess_filename("03-01-01-02-01-01-01.wav")

    def test_malformed_name(self):
        with pytest.raises(DatasetError, match="malformed"):
            parse_ravdess_filename("hello.wav")

    def test_emotion_code_out_of_range(self):
        with pytest.raises(DatasetError, match="emotion code"):
            parse_ravdess_filename("03-01-09-01-01-01-01.wav")

    @pytest.mark.parametrize("name,message", [
        ("01-01-03-01-01-01-01.wav", "modality code 01 is not 03 (audio-only)"),
        ("02-01-03-01-01-01-01.wav", "modality code 02 is not 03 (audio-only)"),
        ("03-02-03-01-01-01-01.wav", "vocal channel code 02 is not 01 (speech)"),
        ("03-01-09-01-01-01-01.wav", "emotion code 09 is not 01-08"),
        ("03-01-03-03-01-01-01.wav", "intensity code 03 is not 01 or 02"),
    ], ids=["audio_video", "video_only", "song", "emotion", "intensity"])
    def test_refused_code_is_named(self, name, message):
        with pytest.raises(DatasetError) as err:
            parse_ravdess_filename(name)
        assert str(err.value) == f"{message} in {name!r}"

    def test_odd_actor_is_male(self):
        assert parse_ravdess_filename("03-01-03-01-01-01-11.wav").sex == "male"


class TestParseManifest:
    HEADER = "path,actor_id,sex,emotion,intensity,statement,repetition\n"

    def test_valid_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER + "a.wav,1,male,angry,strong,1,2\n")
        records = parse_manifest(p)
        assert records == [RecordingMeta("a.wav", 1, "male", "angry", "strong", 1, 2)]

    def test_unknown_emotion_named(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER + "a.wav,1,male,bored,normal,1,1\n")
        with pytest.raises(DatasetError, match="bored"):
            parse_manifest(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,actor\na.wav,1\n")
        with pytest.raises(DatasetError, match="header"):
            parse_manifest(p)

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("\n" + self.HEADER + "\r\n\na.wav,1,male,angry,strong,1,2\n\n")
        assert parse_manifest(p) == [RecordingMeta("a.wav", 1, "male", "angry", "strong", 1, 2)]

    @pytest.mark.parametrize("before", ["\n\n", '"a\nb.wav",1,male,angry,strong,1,2\n'],
                             ids=["blank_lines", "two_line_row"])
    def test_error_names_the_physical_line(self, tmp_path, before):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER + before + "c.wav,x,male,angry,strong,1,2\n")
        with pytest.raises(DatasetError) as err:
            parse_manifest(p)
        assert str(err.value) == f"{p}:4: invalid literal for int() with base 10: 'x'"

    @pytest.mark.parametrize("row", ["a.wav,1,male", "a.wav,1,male,angry,strong,1,2,extra"])
    def test_row_must_have_seven_fields(self, tmp_path, row):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER + row + "\n")
        with pytest.raises(DatasetError) as err:
            parse_manifest(p)
        assert str(err.value) == f"{p}:2: expected 7 fields, got {row.count(',') + 1}"


class TestAudioColumns:
    def test_census(self):
        cols = audio_columns()
        assert len(cols) == 60
        assert sum(1 for c in cols if c.emotion == "neutral") == 4
        for emotion in EMOTIONS[1:]:
            assert sum(1 for c in cols if c.emotion == emotion) == 8


def _exit_worker(path, target_len):
    os._exit(3)


def fake_cpus(monkeypatch, affinity, count):
    """Pretend this process may run on `affinity` CPUs of the `count` the host
    has; an affinity of None means the OS has no affinity mask."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def write_corpus(tmp_path, actors, samples_by_emotion=None):
    """Synthetic CSV-signal corpus covering the full 60-column layout."""
    records = []
    for actor in actors:
        for col in audio_columns():
            name = f"a{actor}-{col.column_key()}.csv"
            path = tmp_path / name
            if samples_by_emotion is None:
                samples = [1.0, 5.0, 2.0, 6.0, 3.0]
            else:
                samples = samples_by_emotion[col.emotion]
            path.write_text("".join(f"{v}\n" for v in samples))
            records.append(
                RecordingMeta(
                    path=str(path),
                    actor_id=actor,
                    sex="male" if actor % 2 == 1 else "female",
                    emotion=col.emotion,
                    intensity=col.intensity,
                    statement=col.statement,
                    repetition=col.repetition,
                )
            )
    return records


def refuse_to_decode(monkeypatch) -> list:
    """Stub out decoding; returns the list of the paths a run asks to decode."""
    decoded = []
    monkeypatch.setattr(dataset, "_entropy_of_file", lambda path, target_len: decoded.append(path))
    return decoded


class TestBuildEntropyTable:
    def test_monotone_recordings_give_zero(self, tmp_path):
        records = []
        for actor in (1, 2):
            for col in audio_columns()[:4]:  # the 4 neutral slots
                p = tmp_path / f"a{actor}-{col.column_key()}.csv"
                p.write_text("1.0\n2.0\n3.0\n")
                records.append(
                    RecordingMeta(str(p), actor, "male" if actor == 1 else "female",
                                  col.emotion, col.intensity, col.statement, col.repetition)
                )
        result = build_entropy_table(records)
        filled = result.matrix.values[np.isfinite(result.matrix.values)]
        assert np.allclose(filled, 0.0)
        assert not result.matrix.complete  # only 4 of 60 columns present
        assert result.failures == ()

    def test_known_signal_everywhere(self, tmp_path):
        records = write_corpus(tmp_path, actors=[1, 2])
        result = build_entropy_table(records)
        assert result.matrix.complete
        assert np.allclose(result.matrix.values, 1.0397208, atol=1e-6)

    def test_one_frame_wav_has_entropy_zero(self, tmp_path):
        with wave.open(str(tmp_path / "03-01-05-01-01-01-01.wav"), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.array([1234], dtype="<i2").tobytes())
        result = build_entropy_table(scan_ravdess_tree(tmp_path))
        assert result.failures == ()
        assert missing_cells(result.matrix) == [
            (1, c.column_key()) for c in audio_columns() if c != ("angry", "normal", 1, 1)]
        assert np.nansum(result.matrix.values) == 0.0

    def test_failures_collected_not_fatal(self, tmp_path):
        records = write_corpus(tmp_path, actors=[1])
        (tmp_path / f"a1-{audio_columns()[0].column_key()}.csv").write_text("abc\n")
        result = build_entropy_table(records)
        assert len(result.failures) == 1
        assert not result.matrix.complete
        assert missing_cells(result.matrix) == [(1, "neutral-normal-1-1")]

    @pytest.mark.parametrize("target_len", [1, 0, -3])
    def test_target_len_below_two_is_refused_before_any_file_is_read(self, tmp_path, monkeypatch,
                                                                    target_len):
        records = write_corpus(tmp_path, actors=[1])
        decoded = refuse_to_decode(monkeypatch)
        with pytest.raises(DatasetError, match=f"^target_len must be at least 2, got {target_len}$"):
            build_entropy_table(records, target_len=target_len)
        assert decoded == []

    def test_duplicate_coordinates_rejected(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        p.write_text(
            TestParseManifest.HEADER
            + "a.wav,1,male,angry,strong,1,2\n"
            + "b.wav,1,male,angry,strong,1,2\n"
        )
        records = parse_manifest(p)
        assert [r.path for r in records] == ["a.wav", "b.wav"]
        decoded = refuse_to_decode(monkeypatch)
        with pytest.raises(DatasetError, match="duplicate") as err:
            build_entropy_table(records)
        assert "a.wav and b.wav" in str(err.value)
        assert "angry-strong-1-2" in str(err.value)
        assert decoded == []

    def test_duplicate_coordinates_name_both_paths(self, tmp_path, monkeypatch):
        from scipy.io import wavfile

        paths = []
        for folder in ("Actor_01", "copy"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "03-01-01-01-01-01-01.wav")
            wavfile.write(paths[-1], 8000, np.array([0, 100, -100, 50], dtype=np.int16))
        records = scan_ravdess_tree(tmp_path)
        assert [r.path for r in records] == [str(p) for p in paths]
        decoded = refuse_to_decode(monkeypatch)
        with pytest.raises(DatasetError, match="duplicate") as err:
            build_entropy_table(records)
        assert all(str(p) in str(err.value) for p in paths)
        assert decoded == []

    def test_actor_with_two_sexes_rejected(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        p.write_text(
            TestParseManifest.HEADER
            + "a.wav,1,male,angry,strong,1,2\n"
            + "b.wav,2,female,angry,strong,1,2\n"
            + "c.wav,1,female,happy,normal,1,1\n"
        )
        decoded = refuse_to_decode(monkeypatch)
        with pytest.raises(DatasetError, match="actor 1 is male in a.wav and female in c.wav"):
            build_entropy_table(parse_manifest(p))
        assert decoded == []

    def test_same_record_twice_rejected(self, tmp_path, monkeypatch):
        records = write_corpus(tmp_path, actors=[1])
        decoded = refuse_to_decode(monkeypatch)
        with pytest.raises(DatasetError, match="duplicate") as err:
            build_entropy_table(records + [records[7]])
        assert f"{records[7].path} and {records[7].path}" in str(err.value)
        assert decoded == []

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        fake_cpus(monkeypatch, 2, 2)  # a pool of 2 even on one core
        rng = np.random.default_rng(13)
        signals = {e: rng.normal(size=40).tolist() for e in EMOTIONS}
        records = write_corpus(tmp_path, actors=[1, 2], samples_by_emotion=signals)
        (tmp_path / f"a2-{audio_columns()[30].column_key()}.csv").write_text("1.0\nabc\n")
        serial = build_entropy_table(records, jobs=1)
        parallel = build_entropy_table(records, jobs=2)
        assert np.array_equal(serial.matrix.values, parallel.matrix.values, equal_nan=True)
        assert len(serial.failures) == 1
        assert serial.failures == parallel.failures
        assert not serial.matrix.complete and not parallel.matrix.complete
        assert missing_cells(serial.matrix) == missing_cells(parallel.matrix) == [
            (2, audio_columns()[30].column_key())]

    def test_dead_worker_is_a_dataset_error(self, tmp_path, monkeypatch):
        records = write_corpus(tmp_path, actors=[1])
        fake_cpus(monkeypatch, 2, 2)  # on one core the pool is skipped
        monkeypatch.setattr(dataset, "_entropy_of_file", _exit_worker)
        with pytest.raises(DatasetError, match="worker process died"):
            build_entropy_table(records, jobs=2)

    @pytest.mark.parametrize("jobs,affinity,cores,files,workers", [
        (5000, None, 4, 10, 4),
        (5000, None, 64, 10, 10),
        (3, None, 64, 10, 3),
        (2, None, 64, 60, 2),
        (5000, None, 1, 10, None),
        (5000, None, None, 10, None),
        (1, None, 64, 10, None),
        (5000, 2, 64, 60, 2),  # pinned to 2 of 64 cores
        (5000, 1, 64, 10, None),
        (5000, 8, 64, 10, 8),
    ])
    def test_jobs_bounded_by_files_and_cores(self, tmp_path, monkeypatch, jobs, affinity, cores,
                                             files, workers):
        pools = []

        class SerialPool:
            """Records how it was asked to fan out; maps in this process."""

            def __init__(self, max_workers, initializer=None):
                self.max_workers = max_workers
                self.initializer = initializer  # not called: pytest's allocator stays as it is
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                self.chunksize = chunksize
                return map(fn, *iterables)

        records = write_corpus(tmp_path, actors=[1])[:files]
        serial = build_entropy_table(records)
        fake_cpus(monkeypatch, affinity, cores)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        result = build_entropy_table(records, jobs=jobs)
        if workers is None:
            assert pools == []  # one worker: no pool at all
        else:
            assert [p.max_workers for p in pools] == [workers]
            assert pools[0].chunksize == -(-files // (4 * workers))
            assert [p.initializer for p in pools] == [dataset._keep_freed_heap]
        assert np.array_equal(result.matrix.values, serial.matrix.values, equal_nan=True)


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestKeepFreedHeap:
    def test_sets_trim_and_mmap_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        opened = []
        libc = SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc)
        assert dataset._keep_freed_heap() is None
        assert opened == [None]
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_libc_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert dataset._keep_freed_heap() is None

    def test_unloadable_libc_is_left_alone(self, monkeypatch):
        def refuse(name):
            raise OSError("no libc here")
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert dataset._keep_freed_heap() is None

    @pytest.mark.parametrize("files,calls", [(1, 0), (2, 1), (60, 1)])
    def test_serial_path_keeps_freed_heap_once_for_several_files(self, tmp_path, monkeypatch,
                                                                 files, calls):
        # The serial loop runs in the calling process, which then pays the
        # same trim-and-fault cycle per file as a pool worker would.
        made = []
        monkeypatch.setattr(dataset, "_entropy_of_file", lambda *a: made.append(a) or (True, 1.0))
        monkeypatch.setattr(dataset, "_keep_freed_heap", lambda: made.append("keep"))
        records = write_corpus(tmp_path, actors=[1])[:files]
        build_entropy_table(records, jobs=1)
        assert made == ["keep"] * calls + [(r.path, dataset.DEFAULT_TARGET_LEN) for r in records]

    @pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
    def test_pool_workers_do_not_fault_the_heap_in_per_file(self, tmp_path):
        # Without the worker start, glibc trims each worker's heap after
        # every file and the next one faults it back in: about 100 minor
        # faults per file on this corpus, against about 16 with it. The
        # recordings are shaped like the benchmark's: a tone whose pitch,
        # and noise whose level, depend on the emotion.
        pitch = dict(zip(EMOTIONS, (120, 110, 190, 100, 210, 240, 140, 230)))
        noise = dict(zip(EMOTIONS, (0.30, 0.25, 0.45, 0.20, 0.60, 0.50, 0.35, 0.55)))
        rate, n = 48000, 168000  # 3.5 s
        t = np.arange(n) / rate
        envelope = np.sqrt(np.sin(np.pi * np.arange(n) / n))
        rng = np.random.default_rng(5)
        for actor in (1, 2, 3):
            for col in audio_columns()[:50]:
                code = EMOTIONS.index(col.emotion) + 1
                intensity = 1 if col.intensity == "normal" else 2
                name = f"03-01-{code:02d}-{intensity:02d}-{col.statement:02d}-{col.repetition:02d}-{actor:02d}.wav"
                tone = np.sin(2 * np.pi * pitch[col.emotion] * (1.0 if actor % 2 else 1.6) * t)
                x = 9000 * (envelope * tone + 2 * noise[col.emotion] * (rng.random(n) - 0.5))
                with wave.open(str(tmp_path / name), "wb") as wf:
                    wf.setnchannels(1)
                    wf.setsampwidth(2)
                    wf.setframerate(rate)
                    wf.writeframes(np.rint(x).astype("<i2").tobytes())
        # A fresh interpreter, so that its allocator has not been tuned by
        # large frees the way this one has, and RUSAGE_CHILDREN counts the
        # pool workers only. A first pool on two files takes the faults that
        # come once per run (copy-on-write pages, first-use imports), so that
        # they do not hide the per-file count.
        code = f"""
import os, resource
os.sched_getaffinity = lambda pid: {{0, 1}}  # a pool of two even on one core
from entropic.dataset import build_entropy_table, scan_ravdess_tree
records = scan_ravdess_tree({str(tmp_path)!r})
build_entropy_table(records[:2], jobs=2)
start = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
result = build_entropy_table(records, jobs=2)
assert not result.failures, result.failures
print((resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - start) / len(records))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(dataset.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 40


class ReferencePoint(NamedTuple):
    """The fields a labeled point had, provenance included."""

    features: np.ndarray
    label: object
    provenance: tuple | None = None


# The builders, the pairwise table and the config snapshot as they were
# before the emotion list and the config fields each had one definition;
# only the point class is ReferencePoint.


def reference_build_experiment1(m) -> list[ReferencePoint]:
    require_complete(m, DatasetError)
    points = []
    for i, actor in enumerate(m.actor_meta):
        for j, meta in enumerate(m.audio_meta):
            points.append(
                ReferencePoint(
                    features=np.array([m.values[i, j]]),
                    label=meta.emotion,
                    provenance=(actor.actor_id, meta.emotion, j),
                )
            )
    return points


def reference_build_experiment2(m) -> list[ReferencePoint]:
    require_complete(m, DatasetError)
    points = []
    for j, meta in enumerate(m.audio_meta):
        points.append(
            ReferencePoint(
                features=m.values[:, j].copy(),
                label=meta.emotion,
                provenance=(meta.emotion, j),
            )
        )
    return points


def reference_build_experiment3(m) -> list[ReferencePoint]:
    require_complete(m, DatasetError)
    points = []
    for i, actor in enumerate(m.actor_meta):
        for emotion in EMOTIONS:
            if emotion == "neutral":
                continue
            cols = [j for j, meta in enumerate(m.audio_meta) if meta.emotion == emotion]
            points.append(
                ReferencePoint(
                    features=m.values[i, cols].copy(),
                    label=emotion,
                    provenance=(actor.actor_id, emotion),
                )
            )
    return points


def reference_experiment3_pairs() -> list[tuple[str, str]]:
    emotions = [e for e in EMOTIONS if e != "neutral"]
    pairs = []
    for a_idx in range(len(emotions)):
        for b_idx in range(a_idx + 1, len(emotions)):
            pairs.append((emotions[a_idx], emotions[b_idx]))
    return pairs


def reference_pairwise_table_csv(pairwise: dict[tuple[str, str], float]) -> str:
    emotions = [e for e in EMOTIONS if e != "neutral"]
    lines = ["emotion," + ",".join(emotions[1:])]
    for i, a in enumerate(emotions[:-1]):
        cells = []
        for b in emotions[1:]:
            j = emotions.index(b)
            cells.append(repr(pairwise[(a, b)]) if j > i else "")
        lines.append(a + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def reference_snapshot(config: ExperimentConfig, effective_kernel: KernelSpec) -> dict:
    return {
        "seed": config.seed,
        "k": config.k,
        "C": config.C,
        "tol": config.tol,
        "target_len": config.target_len,
        "kernel": effective_kernel.describe(),
    }


def reference_run_experiment(exp_id, m, config=ExperimentConfig()) -> ExperimentResult:
    """run_experiment as it was before experiment_points, with one branch per
    experiment that picks its builder, default kernel and result head."""
    if exp_id == 1:
        points = build_experiment1(m)
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
        pairwise: dict[tuple[str, str], float] = {}
        for a, b in itertools.combinations(NON_NEUTRAL, 2):
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


def random_entropy_matrix(seed: int, n_actors: int):
    rng = np.random.default_rng(seed)
    return make_matrix(rng.normal(8.0, rng.uniform(1e-3, 3.0), (n_actors, 60)))


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_builders(self, seed):
        m = random_entropy_matrix(seed, n_actors=(24, 12, 5)[seed % 3])
        cases = [
            (build_experiment1(m), reference_build_experiment1(m)),
            (build_experiment2(m), reference_build_experiment2(m)),
            (build_experiment3(m), reference_build_experiment3(m)),
        ]
        for got, want in cases:
            assert [p.label for p in got] == [p.label for p in want]
            for g, w in zip(got, want):
                assert g.features.dtype == np.float64
                assert g.features.tobytes() == np.asarray(w.features, dtype=np.float64).tobytes()

    def test_experiment3_pairs_in_reference_order(self, separable_matrix):
        result = run_experiment(3, separable_matrix, ExperimentConfig(seed=0, k=3))
        assert list(result.pairwise) == reference_experiment3_pairs()
        assert list(NON_NEUTRAL) == [e for e in EMOTIONS if e != "neutral"]

    @pytest.mark.parametrize("seed", range(4))
    def test_pairwise_table_csv(self, seed):
        rng = np.random.default_rng(seed)
        pairwise = {pair: float(v) for pair, v in
                    zip(reference_experiment3_pairs(), rng.uniform(0.0, 1.0, 21))}
        assert dataset.pairwise_table_csv(pairwise) == reference_pairwise_table_csv(pairwise)

    @pytest.mark.parametrize("config,kernel", [
        (ExperimentConfig(), KernelSpec("linear")),
        (ExperimentConfig(seed=13, k=3, C=0.1, tol=1e-4, target_len=500),
         KernelSpec("gaussian", sigma=0.0132)),
        (ExperimentConfig(kernel=KernelSpec("polynomial", degree=3, offset=0.0)),
         KernelSpec("polynomial", degree=3, offset=0.0)),
    ])
    def test_snapshot(self, config, kernel):
        got, want = config.snapshot(kernel), reference_snapshot(config, kernel)
        assert got == want
        assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(want, indent=2, sort_keys=True)

    # Experiment 3 takes about 33 s at 24 actors on weak-signal data, so 3 to 6
    # actors. The degree-3 polynomial leaves out experiment 1: its 1-D fits
    # crawl, 20 to 55 s per run here.
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("config,exp_ids", [
        (ExperimentConfig(), (1, 2, 3)),
        (ExperimentConfig(seed=13, k=3, C=0.1, tol=1e-4), (1, 2, 3)),
        (ExperimentConfig(kernel=KernelSpec("polynomial", degree=3, offset=0.0)), (2, 3)),
    ], ids=["default", "seed13-k3-C0.1", "polynomial-d3-c0"])
    def test_run_experiment(self, seed, config, exp_ids):
        m = random_entropy_matrix(seed, n_actors=3 + seed)
        for exp_id in exp_ids:
            got, want = run_experiment(exp_id, m, config), reference_run_experiment(exp_id, m, config)
            assert got.to_json() == want.to_json(), exp_id


class TestExperimentBuilders:
    def test_census_1440_60_168(self, random_matrix):
        exp1 = build_experiment1(random_matrix)
        exp2 = build_experiment2(random_matrix)
        exp3 = build_experiment3(random_matrix)
        assert len(exp1) == 1440 and all(p.features.size == 1 for p in exp1)
        assert len(exp2) == 60 and all(p.features.size == 24 for p in exp2)
        assert len(exp3) == 168 and all(p.features.size == 8 for p in exp3)

    def test_exp1_label_partition(self, random_matrix):
        labels = [p.label for p in build_experiment1(random_matrix)]
        assert labels.count("neutral") == 96
        for emotion in EMOTIONS[1:]:
            assert labels.count(emotion) == 192

    def test_exp2_label_counts(self, random_matrix):
        labels = [p.label for p in build_experiment2(random_matrix)]
        assert labels.count("neutral") == 4
        for emotion in EMOTIONS[1:]:
            assert labels.count(emotion) == 8

    def test_exp3_excludes_neutral(self, random_matrix):
        labels = {p.label for p in build_experiment3(random_matrix)}
        assert "neutral" not in labels
        assert len(labels) == 7

    def test_incomplete_matrix_rejected(self, tmp_path):
        records = write_corpus(tmp_path, actors=[1])
        (tmp_path / f"a1-{audio_columns()[0].column_key()}.csv").unlink()
        result = build_entropy_table(records)
        with pytest.raises(DatasetError, match="incomplete"):
            build_experiment1(result.matrix)


class TestRunExperiment:
    def test_exp1_separable_reaches_one(self, separable_matrix):
        result = run_experiment(1, separable_matrix, ExperimentConfig(seed=0))
        assert result.accuracies["cv_mean"] == 1.0
        assert result.kernel == "linear"
        assert result.config["seed"] == 0

    def test_exp2_accuracies_reported(self, separable_matrix):
        result = run_experiment(2, separable_matrix, ExperimentConfig(seed=0))
        assert set(result.accuracies) == {"train", "test", "full"}
        for v in result.accuracies.values():
            assert 0.0 <= v <= 1.0
        assert result.kernel.startswith("gaussian")

    def test_exp2_predicts_every_point_once(self, monkeypatch, random_matrix):
        predict, rows = svm.MulticlassModel.predict, []
        monkeypatch.setattr(svm.MulticlassModel, "predict", lambda model, X: rows.append(len(X)) or predict(model, X))
        run_experiment(2, random_matrix)
        assert rows == [60]

    def test_exp3_pairwise_table(self, separable_matrix):
        result = run_experiment(3, separable_matrix, ExperimentConfig(seed=0))
        assert len(result.pairwise) == 21
        assert result.accuracies["pairwise_mean"] == 1.0
        assert result.kernel.startswith("polynomial(d=2")

    def test_reproducible_under_fixed_config(self, random_matrix):
        cfg = ExperimentConfig(seed=13, k=3)
        a = run_experiment(2, random_matrix, cfg)
        b = run_experiment(2, random_matrix, cfg)
        assert a == b

    def test_unknown_id_rejected(self, random_matrix):
        with pytest.raises(DatasetError):
            run_experiment(4, random_matrix)

    def test_builders_are_looked_up_at_call_time(self, monkeypatch, tmp_path, separable_matrix):
        """A builder wrapped at the module attribute, as a tracer wraps it, is
        the one that experiment and kernels run."""
        calls = []

        def counted(m):
            calls.append(m)
            return build_experiment2(m)

        monkeypatch.setattr(dataset, "build_experiment2", counted)
        run_experiment(2, separable_matrix)
        assert len(calls) == 1
        table = tmp_path / "t.csv"
        table.write_text(entropy_table_csv(separable_matrix))
        result = CliRunner().invoke(main, ["kernels", "2", str(table), "--k", "3"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 2

    def test_result_json_round_trip(self, separable_matrix):
        result = run_experiment(3, separable_matrix, ExperimentConfig(seed=0, k=3))
        doc = json.loads(result.to_json())
        assert doc["experiment"] == 3
        assert len(doc["pairwise"]) == 21
        assert doc["config"]["seed"] == 0

    def test_pairwise_csv_shape(self, separable_matrix):
        result = run_experiment(3, separable_matrix, ExperimentConfig(seed=0, k=3))
        lines = pairwise_table_csv(result.pairwise).strip().split("\n")
        assert lines[0] == "emotion,happy,sad,angry,fearful,disgust,surprised"
        assert len(lines) == 7  # header + 6 rows (last emotion has no row)


class TestEntropyTableCsv:
    def test_round_trip(self, random_matrix, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(entropy_table_csv(random_matrix))
        restored = read_entropy_table(path)
        assert np.allclose(restored.values, random_matrix.values)
        assert restored.actor_meta == random_matrix.actor_meta
        assert restored.audio_meta == random_matrix.audio_meta

    def test_nan_cells_and_actor_subsets_stay_valid(self, random_matrix, tmp_path):
        rows = [1, 4, 9, 23]  # actors 2, 5, 10 and 24
        values = random_matrix.values[rows].copy()
        values[0, 5] = values[3, 59] = np.nan
        subset = EntropyMatrix(values=values,
                               actor_meta=tuple(random_matrix.actor_meta[i] for i in rows),
                               audio_meta=random_matrix.audio_meta)
        path = tmp_path / "table.csv"
        path.write_text(entropy_table_csv(subset))
        restored = read_entropy_table(path)
        assert np.array_equal(restored.values, values, equal_nan=True)
        assert restored.actor_meta == subset.actor_meta
        assert restored.audio_meta == tuple(audio_columns())

    def test_rejects_non_table(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(DatasetError):
            read_entropy_table(p)

    def test_blank_lines_are_skipped(self, random_matrix, tmp_path):
        header, first, rest = entropy_table_csv(random_matrix).split("\n", 2)
        path = tmp_path / "table.csv"
        path.write_text(f"\n{header}\n{first}\n\n{rest}\n")
        restored = read_entropy_table(path)
        assert np.array_equal(restored.values, random_matrix.values)
        assert restored.actor_meta == random_matrix.actor_meta

    @pytest.mark.parametrize("edit,message", [
        (lambda first: first + "\n\n" + first, "4: duplicate actor 1 (first seen at line 2)"),
        (lambda first: first.rsplit(",", 1)[0], "2: expected 62 fields, got 61"),
    ], ids=["duplicate_after_blank_line", "short_row"])
    def test_error_names_the_physical_line(self, random_matrix, tmp_path, edit, message):
        header, first, _ = entropy_table_csv(random_matrix).split("\n", 2)
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{edit(first)}\n")
        with pytest.raises(DatasetError) as err:
            read_entropy_table(path)
        assert str(err.value) == f"{path}:{message}"


class TestScanTree:
    def test_collects_named_wavs(self, tmp_path):
        from scipy.io import wavfile

        d = tmp_path / "Actor_01"
        d.mkdir()
        wavfile.write(d / "03-01-03-01-01-01-01.wav", 8000,
                      np.array([0, 16384, -32768, 100], dtype=np.int16))
        records = scan_ravdess_tree(tmp_path)
        assert len(records) == 1
        assert records[0].emotion == "happy"
        assert records[0].path.endswith("03-01-03-01-01-01-01.wav")

    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            scan_ravdess_tree(tmp_path)

    def test_file_is_not_a_directory(self, tmp_path):
        f = tmp_path / "03-01-03-01-01-01-01.wav"
        f.write_bytes(b"")
        with pytest.raises(DatasetError) as err:
            scan_ravdess_tree(f)
        assert str(err.value) == f"not a directory: {f}"

    def test_song_beside_its_speech_recording_is_refused(self, tmp_path):
        # Both names decode to actor 1's happy-normal-1-1 speech recording
        # unless the vocal channel is read.
        (tmp_path / "Actor_01").mkdir()
        for name in ("03-01-03-01-01-01-01.wav", "03-02-03-01-01-01-01.wav"):
            (tmp_path / "Actor_01" / name).write_bytes(b"")
        with pytest.raises(DatasetError) as err:
            scan_ravdess_tree(tmp_path)
        assert str(err.value) == "vocal channel code 02 is not 01 (speech) in '03-02-03-01-01-01-01.wav'"
