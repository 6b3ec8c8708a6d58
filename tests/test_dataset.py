import json
import os

import numpy as np
import pytest

from conftest import make_matrix
from entropic import dataset
from entropic.errors import DatasetError
from entropic.dataset import (
    EMOTIONS,
    ExperimentConfig,
    RecordingMeta,
    audio_columns,
    build_entropy_table,
    build_experiment1,
    build_experiment2,
    build_experiment3,
    entropy_table_csv,
    missing_cells,
    pairwise_table_csv,
    parse_manifest,
    parse_ravdess_filename,
    read_entropy_table,
    run_experiment,
    scan_ravdess_tree,
)


class TestRecordingMeta:
    def test_neutral_strong_rejected(self):
        with pytest.raises(DatasetError):
            RecordingMeta("x.wav", 1, "male", "neutral", "strong", 1, 1)

    def test_actor_out_of_range(self):
        with pytest.raises(DatasetError):
            RecordingMeta("x.wav", 25, "male", "happy", "normal", 1, 1)

    def test_unknown_emotion(self):
        with pytest.raises(DatasetError):
            RecordingMeta("x.wav", 1, "male", "bored", "normal", 1, 1)


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

    def test_duplicate_coordinates_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            self.HEADER
            + "a.wav,1,male,angry,strong,1,2\n"
            + "b.wav,1,male,angry,strong,1,2\n"
        )
        with pytest.raises(DatasetError, match="duplicate"):
            parse_manifest(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,actor\na.wav,1\n")
        with pytest.raises(DatasetError, match="header"):
            parse_manifest(p)


class TestAudioColumns:
    def test_census(self):
        cols = audio_columns()
        assert len(cols) == 60
        assert sum(1 for c in cols if c.emotion == "neutral") == 4
        for emotion in EMOTIONS[1:]:
            assert sum(1 for c in cols if c.emotion == emotion) == 8


def _exit_worker(path, target_len):
    os._exit(3)


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

    def test_failures_collected_not_fatal(self, tmp_path):
        records = write_corpus(tmp_path, actors=[1])
        (tmp_path / f"a1-{audio_columns()[0].column_key()}.csv").write_text("abc\n")
        result = build_entropy_table(records)
        assert len(result.failures) == 1
        assert not result.matrix.row_complete[0]
        assert missing_cells(result.matrix) == [(1, "neutral-normal-1-1")]

    def test_parallel_matches_serial(self, tmp_path):
        rng = np.random.default_rng(13)
        signals = {e: rng.normal(size=40).tolist() for e in EMOTIONS}
        records = write_corpus(tmp_path, actors=[1, 2], samples_by_emotion=signals)
        (tmp_path / f"a2-{audio_columns()[30].column_key()}.csv").write_text("1.0\nabc\n")
        serial = build_entropy_table(records, jobs=1)
        parallel = build_entropy_table(records, jobs=2)
        assert np.array_equal(serial.matrix.values, parallel.matrix.values, equal_nan=True)
        assert len(serial.failures) == 1
        assert serial.failures == parallel.failures
        assert serial.matrix.row_complete == parallel.matrix.row_complete == (True, False)

    def test_dead_worker_is_a_dataset_error(self, tmp_path, monkeypatch):
        records = write_corpus(tmp_path, actors=[1])
        monkeypatch.setattr(dataset, "_entropy_of_file", _exit_worker)
        with pytest.raises(DatasetError, match="worker process died"):
            build_entropy_table(records, jobs=2)


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

    def test_exp1_neutral_flag(self, random_matrix):
        assert len(build_experiment1(random_matrix, include_neutral=False)) == 1344

    def test_provenance_is_unique(self, random_matrix):
        for build in (build_experiment1, build_experiment2, build_experiment3):
            provs = [p.provenance for p in build(random_matrix)]
            assert len(provs) == len(set(provs))

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

    def test_rejects_non_table(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(DatasetError):
            read_entropy_table(p)


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

    def test_duplicate_coordinates_name_both_paths(self, tmp_path):
        from scipy.io import wavfile

        paths = []
        for folder in ("Actor_01", "copy"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "03-01-01-01-01-01-01.wav")
            wavfile.write(paths[-1], 8000, np.array([0, 100, -100, 50], dtype=np.int16))
        with pytest.raises(DatasetError, match="duplicate") as err:
            scan_ravdess_tree(tmp_path)
        assert all(str(p) in str(err.value) for p in paths)

    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            scan_ravdess_tree(tmp_path)
