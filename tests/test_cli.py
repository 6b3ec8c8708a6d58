import json
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import entropic
from conftest import make_matrix
from entropic.cli import DEFAULTS, _config_value_ok, main
from entropic.dataset import ExperimentConfig, entropy_table_csv
from entropic.svm import KernelSpec


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def sig_csv(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("1.0\n5.0\n2.0\n6.0\n3.0\n")
    return p


@pytest.fixture
def table_csv(tmp_path, separable_matrix):
    p = tmp_path / "table.csv"
    p.write_text(entropy_table_csv(separable_matrix))
    return p


class TestEntropyCommand:
    def test_single_file(self, runner, sig_csv):
        result = runner.invoke(main, ["entropy", str(sig_csv)])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "path,samples,subsampled_to,bars,entropy"
        path, samples, sub, bars, entropy = lines[1].split(",")
        assert (samples, sub, bars) == ("5", "5", "3")
        assert float(entropy) == pytest.approx(1.0397208, abs=1e-6)

    def test_monotone_zero(self, runner, tmp_path):
        p = tmp_path / "mono.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        result = runner.invoke(main, ["entropy", str(p)])
        assert result.output.strip().split("\n")[1].endswith(",1,0.0")

    def test_partial_failure_exit_one(self, runner, sig_csv, tmp_path):
        result = runner.invoke(main, ["entropy", str(sig_csv), str(tmp_path / "missing.csv")])
        assert result.exit_code == 1
        assert "sig.csv,5" in result.output  # good row still emitted

    def test_missing_args_exit_two(self, runner):
        assert runner.invoke(main, ["entropy"]).exit_code == 2

    def test_config_precedence(self, runner, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("".join(f"{v}\n" for v in np.random.default_rng(0).normal(size=50)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_len": 10}))
        from_file = runner.invoke(main, ["entropy", str(p), "--config", str(cfg)])
        assert from_file.output.strip().split("\n")[1].split(",")[2] == "10"
        flag_wins = runner.invoke(
            main, ["entropy", str(p), "--config", str(cfg), "--target-len", "20"]
        )
        assert flag_wins.output.strip().split("\n")[1].split(",")[2] == "20"

    def test_unknown_config_key_exit_two(self, runner, sig_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert runner.invoke(main, ["entropy", str(sig_csv), "--config", str(cfg)]).exit_code == 2

    @pytest.mark.parametrize("value", ["abc", 3.5, True])
    def test_wrong_config_type_exit_two(self, runner, sig_csv, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_len": value}))
        result = runner.invoke(main, ["entropy", str(sig_csv), "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "'target_len' has a value of the wrong type" in result.output

    def test_config_types_checked_as_before(self):
        values = [None, True, False, 0, 3, -1, 2**70, 3.5, 1.0, float("nan"), "abc", "", [], {}, [1]]
        for key in DEFAULTS:
            for value in values:
                assert _config_value_ok(key, value) == reference_config_value_ok(key, value), (key, value)

    def test_env_var_names_the_command(self, sig_csv):
        def subsampled_to(env):
            result = CliRunner(env=env).invoke(main, ["entropy", str(sig_csv)])
            assert result.exit_code == 0, result.output
            return result.output.strip().split("\n")[1].split(",")[2]

        assert subsampled_to({"ENTROPIC_TARGET_LEN": "3"}) == "5"  # no command: ignored
        assert subsampled_to({"ENTROPIC_ENTROPY_TARGET_LEN": "3"}) == "3"

    def test_out_dir(self, runner, sig_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["entropy", str(sig_csv), "--out-dir", str(out)])
        assert result.exit_code == 0
        assert (out / "entropy.csv").exists()


_INT_KEYS = ("target_len", "seed", "k", "degree", "jobs")
_NULLABLE_KEYS = ("kernel", "sigma")


def reference_config_value_ok(key: str, value) -> bool:
    """The --config type check with the key lists it had before it read the
    types from DEFAULTS; it must accept and reject the same values."""
    if value is None:
        return key in _NULLABLE_KEYS
    if isinstance(value, bool):
        return False
    if key == "kernel":
        return isinstance(value, str)
    if key in _INT_KEYS:
        return isinstance(value, int)
    return isinstance(value, (int, float))


def test_defaults_come_from_the_library():
    library = ExperimentConfig()
    for key in ("target_len", "seed", "k", "C", "tol"):
        assert DEFAULTS[key] == getattr(library, key)
    assert DEFAULTS["kernel"] is None  # a name flag; None: the experiment's own kernel
    poly = KernelSpec("polynomial")
    assert (DEFAULTS["degree"], DEFAULTS["offset"]) == (poly.degree, poly.offset) == (2, 1.0)


def test_polynomial_flag_is_the_library_polynomial(runner, table_csv, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "2", str(table_csv), "--kernel", "polynomial",
                                  "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "experiment2.json").read_text())
    assert doc["kernel"] == KernelSpec("polynomial").describe() == "polynomial(d=2, c=1.0)"


@pytest.mark.parametrize("args", [
    ["experiment", "1", "TABLE", "--grid-search"],
    ["stats", "TABLE", "--config", "CFG"],
])
def test_removed_options_are_usage_errors(runner, table_csv, tmp_path, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    args = [{"TABLE": str(table_csv), "CFG": str(cfg)}.get(a, a) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output


class TestBarcodeCommand:
    def test_rows(self, runner, sig_csv):
        result = runner.invoke(main, ["barcode", str(sig_csv)])
        assert result.exit_code == 0
        assert result.output == "birth,death\n1.0,inf\n2.0,5.0\n3.0,6.0\n"

    def test_unreadable_input(self, runner, tmp_path):
        result = runner.invoke(main, ["barcode", str(tmp_path / "nope.csv")])
        assert result.exit_code == 1


class TestExperimentCommand:
    def test_exp1_on_entropy_table(self, runner, table_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["experiment", "1", str(table_csv), "--out-dir", str(out), "--seed", "0"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "experiment1.json").read_text())
        assert doc["accuracies"]["cv_mean"] == 1.0
        assert doc["config"]["seed"] == 0

    def test_exp3_writes_pairwise_csv(self, runner, table_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["experiment", "3", str(table_csv), "--out-dir", str(out), "--k", "3"]
        )
        assert result.exit_code == 0, result.output
        assert (out / "experiment3_pairwise.csv").exists()
        doc = json.loads((out / "experiment3.json").read_text())
        assert len(doc["pairwise"]) == 21

    def test_deterministic_outputs(self, runner, table_csv, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            runner.invoke(main, ["experiment", "2", str(table_csv), "--out-dir", str(out)])
            outs.append((out / "experiment2.json").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_source_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["experiment", "1", str(tmp_path / "nope.xyz")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("config,flags", [
        ('{"C": NaN}', []),
        ('{"C": Infinity}', []),
        (None, ["--C", "nan"]),
        ('{"tol": NaN}', []),
        (None, ["--kernel", "gaussian", "--sigma", "inf"]),
    ])
    def test_non_finite_parameter_is_an_error(self, runner, table_csv, tmp_path, config, flags):
        args = ["experiment", "2", str(table_csv), "--out-dir", str(tmp_path / "out")] + flags
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            args += ["--config", str(tmp_path / "cfg.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "error:" in result.output and "finite" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


class TestStatsCommand:
    def test_block_constant_sex_means(self, runner, tmp_path):
        # Male rows follow one template, female rows another: within-sex
        # correlation 1.0 up to tiny noise, cross-sex far lower.
        rng = np.random.default_rng(0)
        male = rng.normal(size=60)
        female = rng.normal(size=60)
        values = np.empty((24, 60))
        for i in range(24):
            base = male if (i + 1) % 2 == 1 else female
            values[i] = base + rng.normal(0, 1e-6, 60)
        table = tmp_path / "table.csv"
        table.write_text(entropy_table_csv(make_matrix(values)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["stats", str(table), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        means = {}
        for line in (out / "sex_means.csv").read_text().strip().split("\n")[1:]:
            ga, gb, v = line.split(",")
            means[(ga, gb)] = float(v)
        assert means[("male", "male")] == pytest.approx(1.0, abs=1e-3)
        assert means[("female", "female")] == pytest.approx(1.0, abs=1e-3)
        assert abs(means[("male", "female")]) < 0.5
        assert (out / "correlation.csv").exists()
        assert (out / "boxplot.csv").exists()

    def test_missing_table_exit_two(self, runner, tmp_path):
        assert runner.invoke(main, ["stats", str(tmp_path / "nope.csv")]).exit_code == 2


def rewrite_table(table_csv, edit):
    """Copy of an entropy table with edit(rows) applied to its rows of cells."""
    rows = [line.split(",") for line in table_csv.read_text().strip().split("\n")]
    edit(rows)
    bad = table_csv.with_name("bad.csv")
    bad.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return bad


def corrupt_first_row(table_csv, field, text):
    """Copy of an entropy table whose first data row has one field replaced."""
    def edit(rows):
        rows[1][field] = text
    return rewrite_table(table_csv, edit)


@pytest.mark.parametrize("command", [["experiment", "2"], ["stats"]])
@pytest.mark.parametrize("field,text", [(0, "1.5"), (5, "abc"), (0, "25"), (0, "0"), (1, "x")],
                         ids=["actor_id", "cell", "actor_above_24", "actor_zero", "sex"])
def test_malformed_table_is_an_error_not_a_traceback(table_csv, command, field, text):
    bad = corrupt_first_row(table_csv, field, text)
    env = dict(os.environ, PYTHONPATH=str(Path(entropic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "entropic.cli", *command, str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {bad}:2: ")
    assert "Traceback" not in proc.stderr


class TestKernelsCommand:
    def test_grid_report_for_exp2(self, runner, table_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["kernels", "2", str(table_csv), "--out-dir", str(out), "--k", "3"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "kernels.json").read_text())
        assert doc["best"]["mean_accuracy"] > 0.5
        assert len(doc["table"]) == 8 * 4  # 8 kernels x 4 C values

    def test_config_echoes_tol(self, runner, table_csv, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"tol": 0.01}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["kernels", "2", str(table_csv), "--out-dir", str(out), "--k", "3",
                                      "--config", str(tmp_path / "cfg.json")])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "kernels.json").read_text())
        assert doc["config"] == {"seed": 0, "k": 3, "target_len": 10000, "tol": 0.01}


def write_wav_tree(root, seed=0):
    """Two RAVDESS-named 16-bit mono WAVs of one actor; returns their paths."""
    rng = np.random.default_rng(seed)
    (root / "Actor_01").mkdir(parents=True)
    paths = []
    for name in ("03-01-01-01-01-01-01.wav", "03-01-03-01-01-01-01.wav"):
        paths.append(root / "Actor_01" / name)
        with wave.open(str(paths[-1]), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(rng.integers(-3000, 3000, 500).astype("<i2").tobytes())
    return paths


def test_wav_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency. It is blocked in the process, and a
    # module named scipy that fails to import shadows it for pool workers
    # started from a fresh interpreter.
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "scipy.py").write_text("raise ImportError('scipy is not a runtime dependency')\n")
    wavs = write_wav_tree(tmp_path / "corpus")
    code = f"""
import os, sys
sys.modules["scipy"] = None
os.sched_getaffinity = lambda pid: {{0, 1}}  # a pool of two even on one core
import numpy as np
from entropic.cli import main
from entropic.dataset import build_entropy_table, scan_ravdess_tree
result = build_entropy_table(scan_ravdess_tree({str(tmp_path / "corpus")!r}), target_len=100, jobs=2)
assert not result.failures, result.failures
print("cells", int(np.isfinite(result.matrix.values).sum()))
main(["entropy", {str(wavs[0])!r}])
"""
    src_dir = Path(entropic.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(blocked), str(src_dir)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "cells 2"
    assert lines[1] == "path,samples,subsampled_to,bars,entropy"
    assert lines[2].startswith(f"{wavs[0]},500,500,")


def _invoke_with(runner, args, key, value, via, tmp_path):
    """Run a command with one option given as a flag, a --config key or an
    ENTROPIC_<COMMAND>_<OPTION> environment variable."""
    if via == "flag":
        return runner.invoke(main, args + [f"--{key.replace('_', '-')}", str(value)])
    if via == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        return runner.invoke(main, args + ["--config", str(cfg)])
    env = {f"ENTROPIC_{args[0].upper()}_{key.upper()}": str(value)}
    return CliRunner(env=env).invoke(main, args)


@pytest.mark.parametrize("via", ["flag", "config", "env"])
@pytest.mark.parametrize("command", [["entropy"], ["barcode"], ["experiment", "2"], ["kernels", "2"]])
@pytest.mark.parametrize("value", [1, 0, -3])
def test_target_len_below_two_is_a_usage_error(runner, tmp_path, via, command, value):
    wavs = write_wav_tree(tmp_path / "corpus")
    inputs = [str(wavs[0])] if command[0] in ("entropy", "barcode") else [str(tmp_path / "corpus")]
    result = _invoke_with(runner, command + inputs, "target_len", value, via, tmp_path)
    assert result.exit_code == 2, result.output
    assert result.output.count(f"--target-len must be at least 2, got {value}") == 1
    assert "error:" not in result.output and "warning:" not in result.output  # no file was read


def fail_if_input_is_read(monkeypatch):
    def load(*args):
        raise AssertionError("the input was read")
    monkeypatch.setattr("entropic.cli._load_matrix", load)
    monkeypatch.setattr("entropic.cli._load_signal", load)


# A negative seed, and a CV fold count below 2, are refused before any input is read.
@pytest.mark.parametrize("via", ["flag", "config", "env"])
@pytest.mark.parametrize("command", [
    (["experiment", "2"], "seed", -1, 0),
    (["kernels", "2"], "seed", -1, 0),
    (["experiment", "1"], "k", 1, 2),
    (["kernels", "1"], "k", 1, 2),
])
def test_negative_seed_is_a_usage_error(runner, table_csv, tmp_path, monkeypatch, via, command):
    args, key, value, low = command
    fail_if_input_is_read(monkeypatch)
    result = _invoke_with(runner, args + [str(table_csv)], key, value, via, tmp_path)
    assert result.exit_code == 2, result.output
    assert f"--{key} must be at least {low}, got {value}" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args,message", [
    (["experiment", "2", "--kernel", "gaussian", "--sigma", "0"], "sigma must be positive"),
    (["experiment", "2", "--kernel", "gaussian", "--sigma", "-1"], "sigma must be positive"),
    (["experiment", "3", "--kernel", "polynomial", "--degree", "0"], "degree must be >= 1"),
    (["experiment", "1", "--kernel", "gaussian"], "requires --sigma"),
], ids=["sigma_zero", "sigma_negative", "degree_zero", "sigma_missing"])
def test_kernel_parameter_out_of_range_is_a_usage_error(runner, table_csv, tmp_path, monkeypatch,
                                                         args, message):
    fail_if_input_is_read(monkeypatch)
    result = runner.invoke(main, args[:2] + [str(table_csv), "--out-dir", str(tmp_path / "out")]
                           + args[2:])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


def test_non_finite_sigma_is_found_before_the_input_is_read(runner, table_csv, monkeypatch):
    fail_if_input_is_read(monkeypatch)
    result = runner.invoke(main, ["experiment", "2", str(table_csv), "--kernel", "gaussian",
                                  "--sigma", "nan"])
    assert result.exit_code == 1, result.output
    assert "error: gaussian sigma must be positive and finite, got nan" in result.output


# C and tol are checked when the run's ExperimentConfig is built, before any input is read.
@pytest.mark.parametrize("args,config,message", [
    (["experiment", "2", "--C", "0"], None, "C must be positive and finite, got 0.0"),
    (["experiment", "2", "--C", "-1"], None, "C must be positive and finite, got -1.0"),
    (["experiment", "2", "--C", "nan"], None, "C must be positive and finite, got nan"),
    (["experiment", "2"], {"tol": 0}, "tol must be positive and finite, got 0"),
    (["kernels", "2"], {"tol": 0}, "tol must be positive and finite, got 0"),
], ids=["C_zero", "C_negative", "C_nan", "tol_zero", "kernels_tol_zero"])
def test_bad_C_or_tol_is_found_before_the_input_is_read(runner, table_csv, tmp_path, monkeypatch,
                                                        args, config, message):
    fail_if_input_is_read(monkeypatch)
    args = args[:2] + [str(table_csv), "--out-dir", str(tmp_path / "out")] + args[2:]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "cfg.json")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {message}\n"
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


# A command's --config keys are its own options, and tol for experiment and
# kernels; the values here would all be valid for experiment.
_OTHER_COMMANDS_KEYS = {"seed": 1, "k": 3, "jobs": 2, "C": 1.0, "tol": 0.01, "kernel": "gaussian",
                        "sigma": 0.5, "degree": 3, "offset": 0.0}


@pytest.mark.parametrize("command,key", [
    *(("kernels 2", key) for key in ("C", "kernel", "sigma", "degree", "offset")),
    *((command, key) for command in ("entropy", "barcode") for key in ("seed", "k", "jobs", "C", "tol")),
])
def test_config_key_of_another_command_is_a_usage_error(runner, table_csv, sig_csv, tmp_path,
                                                        monkeypatch, command, key):
    fail_if_input_is_read(monkeypatch)
    source = table_csv if command.startswith("kernels") else sig_csv
    (tmp_path / "cfg.json").write_text(json.dumps({key: _OTHER_COMMANDS_KEYS[key]}))
    result = runner.invoke(main, command.split() + [str(source), "--config", str(tmp_path / "cfg.json")])
    assert result.exit_code == 2, result.output
    assert f"unknown config keys: [{key!r}]" in result.output


def test_experiment_takes_every_config_key(runner, table_csv, tmp_path):
    config = {**_OTHER_COMMANDS_KEYS, "target_len": 10000, "degree": 2}
    assert config.keys() == DEFAULTS.keys()
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", "2", str(table_csv), "--out-dir", str(out),
                                  "--config", str(tmp_path / "cfg.json")])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "experiment2.json").read_text())
    assert doc["config"]["kernel"] == "gaussian(sigma=0.5)"
    assert (doc["config"]["C"], doc["config"]["k"], doc["config"]["tol"]) == (1.0, 3, 0.01)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("name", ["rbf", "poly", "sigmoid"])
def test_kernel_name_outside_the_families_is_a_usage_error(runner, table_csv, tmp_path, via, name):
    # --config once also took the aliases rbf and poly; it now takes the --kernel names only.
    args = ["experiment", "2", str(table_csv), "--sigma", "0.5"]
    if via == "flag":
        result = runner.invoke(main, args + ["--kernel", name])
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"kernel": name}))
        result = runner.invoke(main, args + ["--config", str(tmp_path / "cfg.json")])
    assert result.exit_code == 2, result.output
    assert "error:" not in result.output


def _duplicate_actor(rows):
    rows.append(rows[1])


def _duplicate_column(rows):
    for row in rows:
        row.append(row[-1])


def _eight_columns(rows):
    rows[:] = [row[:2 + 8] for row in rows]


def _bored_column(rows):
    _duplicate_column(rows)
    rows[0][-1] = "bored-normal-1-1"


NON_CORPUS_TABLES = {  # case: (edit, part of the error message)
    "duplicate_actor": (_duplicate_actor, "duplicate actor 1 (first seen at line 2)"),
    "duplicate_column": (_duplicate_column, "canonical order"),
    "eight_columns": (_eight_columns, "canonical order"),
    "bored_column": (_bored_column, "canonical order"),
}


@pytest.mark.parametrize("command", [["experiment", "1"], ["experiment", "2"], ["experiment", "3"],
                                     ["kernels", "3"], ["stats"]])
@pytest.mark.parametrize("case", NON_CORPUS_TABLES)
def test_table_outside_the_corpus_layout_is_an_error(runner, table_csv, tmp_path, command, case):
    edit, message = NON_CORPUS_TABLES[case]
    bad = rewrite_table(table_csv, edit)
    result = runner.invoke(main, command + [str(bad), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"error: {bad}:") and message in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert not (tmp_path / "out").exists()
