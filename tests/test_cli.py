import csv
import io
import json
import multiprocessing
import os
import re
import shutil
import socket
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import click
import pytest
from click.testing import CliRunner

import entropic
from conftest import make_matrix
from entropic import dataset as ds
from entropic.cli import main
from entropic.dataset import (
    EMOTIONS,
    ExperimentConfig,
    audio_columns,
    build_experiment2,
    entropy_table_csv,
    read_entropy_table,
)
from entropic.persistence import signal_entropy
from entropic.signal import DEFAULT_TARGET_LEN, load_csv_signal
from entropic.svm import KernelSpec, select_best_kernel


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

    def test_config_precedence(self, tmp_path):
        # Defaults < ENTROPIC_<COMMAND>_<OPTION> < flags.
        p = tmp_path / "s.csv"
        p.write_text("".join(f"{v}\n" for v in np.random.default_rng(0).normal(size=50)))
        runner = CliRunner(env={"ENTROPIC_ENTROPY_TARGET_LEN": "10"})
        from_env = runner.invoke(main, ["entropy", str(p)])
        assert from_env.output.strip().split("\n")[1].split(",")[2] == "10"
        flag_wins = runner.invoke(main, ["entropy", str(p), "--target-len", "20"])
        assert flag_wins.output.strip().split("\n")[1].split(",")[2] == "20"

    def test_unknown_config_key_exit_two(self, runner, sig_csv):
        result = runner.invoke(main, ["entropy", str(sig_csv), "--bogus", "1"])
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and "--bogus" in result.output

    @pytest.mark.parametrize("value", ["abc", 3.5, True])
    def test_wrong_config_type_exit_two(self, runner, sig_csv, value):
        for via in ("flag", "env"):
            result = _invoke_with(runner, ["entropy", str(sig_csv)], "target_len", value, via)
            assert result.exit_code == 2, result.output
            assert f"Invalid value for '--target-len': '{value}' is not a valid integer" in result.output

    def test_env_var_names_the_command(self, sig_csv):
        def subsampled_to(env):
            result = CliRunner(env=env).invoke(main, ["entropy", str(sig_csv)])
            assert result.exit_code == 0, result.output
            return result.output.strip().split("\n")[1].split(",")[2]

        assert subsampled_to({"ENTROPIC_TARGET_LEN": "3"}) == "5"  # no command: ignored
        assert subsampled_to({"ENTROPIC_ENTROPY_TARGET_LEN": "3"}) == "3"

    def test_path_with_comma_or_quote_is_quoted(self, runner, sig_csv, tmp_path):
        odd = []
        for name in ("a,b.csv", 'q"uote.csv', "new\nline.csv"):
            odd.append(tmp_path / "commadir" / name)
            odd[-1].parent.mkdir(exist_ok=True)
            odd[-1].write_bytes(sig_csv.read_bytes())
        result = runner.invoke(main, ["entropy", str(sig_csv), *map(str, odd)])
        assert result.exit_code == 0, result.output
        lines = result.output.split("\n")
        plain = lines[1].split(",")[1:]
        assert lines[2] == ",".join([f'"{odd[0]}"', *plain])
        assert lines[3] == ",".join(['"' + str(odd[1]).replace('"', '""') + '"', *plain])
        assert lines[4] == f'"{odd[2].parent}/new'  # the quoted field goes on to the next line
        rows = list(csv.reader(io.StringIO(result.output)))
        assert [row[0] for row in rows[1:]] == [str(sig_csv), *map(str, odd)]
        assert all(row[1:] == plain for row in rows[1:])
        entropy = signal_entropy(load_csv_signal(str(sig_csv)))
        assert float(plain[-1]).hex() == entropy.hex()  # read back bit for bit

    def test_one_sample_signal_has_entropy_zero(self, runner, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0.5\n")
        result = runner.invoke(main, ["entropy", str(p)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1] == f"{p},1,1,1,0.0"
        result = runner.invoke(main, ["barcode", str(p)])
        assert result.exit_code == 0, result.output
        assert result.output == "birth,death\n0.5,inf\n"

    def test_out_dir(self, runner, sig_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["entropy", str(sig_csv), "--out-dir", str(out)])
        assert result.exit_code == 0
        assert (out / "entropy.csv").exists()


def option_defaults(command):
    """The value of each option of a command that is given none of them."""
    cmd = main.commands[command]
    args = ["1" if p.name == "exp_id" else "X" for p in cmd.params if isinstance(p, click.Argument)]
    values = cmd.make_context(command, args).params
    return {p.name: values[p.name] for p in cmd.params if isinstance(p, click.Option)}


def test_defaults_come_from_the_library():
    library = ExperimentConfig()
    for command in ("entropy", "barcode"):
        assert option_defaults(command) == {"target_len": DEFAULT_TARGET_LEN, "out_dir": None}
    grid = {"out_dir": None, "jobs": 1, **{key: getattr(library, key)
                                           for key in ("target_len", "seed", "k", "tol")}}
    assert option_defaults("kernels") == grid
    assert option_defaults("experiment") == {**grid, "C": library.C,
                                             "kernel": None}  # None: the experiment's own kernel


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
    *([*command, "--config", "CFG"] for command in (["entropy", "SIGNAL"], ["barcode", "SIGNAL"],
                                                    ["experiment", "2", "TABLE"], ["kernels", "2", "TABLE"])),
    # The kernel's parameters are part of the --kernel text.
    ["experiment", "2", "TABLE", "--kernel", "gaussian", "--sigma", "0.5"],
    ["experiment", "3", "TABLE", "--degree", "3"],
    ["experiment", "1", "TABLE", "--kernel", "polynomial", "--offset", "0"],
])
def test_removed_options_are_usage_errors(runner, sig_csv, table_csv, tmp_path, monkeypatch, args):
    fail_if_input_is_read(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    args = [{"SIGNAL": str(sig_csv), "TABLE": str(table_csv), "CFG": str(cfg)}.get(a, a) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output


@pytest.mark.parametrize("exp_id,actors", [("3", 3), ("3", 6), ("2", 6)])
def test_kernels_winner_replays_through_experiment(runner, random_matrix, tmp_path, exp_id, actors):
    table = tmp_path / "table.csv"  # the winners here: two gaussians and polynomial(d=3, c=0.0)
    table.write_text(entropy_table_csv(make_matrix(random_matrix.values[:actors])))
    seed = "3" if (exp_id, actors) == ("3", 6) else "0"  # linear wins experiment 3 on 6 actors at seed 0
    grid = runner.invoke(main, ["kernels", exp_id, str(table), "--k", "3", "--seed", seed])
    assert grid.exit_code == 0, grid.output
    best = json.loads(grid.output)["best"]
    assert best["kernel"] != "linear"
    result = runner.invoke(main, ["experiment", exp_id, str(table), "--k", "3", "--seed", seed,
                                  "--kernel", best["kernel"], "--C", repr(best["C"])])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output if exp_id == "2" else result.output.split("\nemotion,")[0])
    assert doc["kernel"] == doc["config"]["kernel"] == best["kernel"]
    assert doc["config"]["C"] == best["C"]


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

    @pytest.mark.parametrize("flags,env", [
        (["--C", "inf"], {}),
        (["--C", "nan"], {}),
        ([], {"ENTROPIC_EXPERIMENT_C": "nan"}),
        (["--tol", "nan"], {}),
        (["--kernel", "gaussian(sigma=inf)"], {}),
    ], ids=["C_inf", "C_nan", "C_nan_env", "tol_nan", "sigma_inf"])
    def test_non_finite_parameter_is_an_error(self, table_csv, tmp_path, monkeypatch, flags, env):
        fail_if_input_is_read(monkeypatch)
        args = ["experiment", "2", str(table_csv), "--out-dir", str(tmp_path / "out")] + flags
        result = CliRunner(env=env).invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Error: Invalid value for '--" in result.output and "finite" in result.output
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


@pytest.mark.parametrize("command", [["experiment", "3"], ["stats"]])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "NaN", "-1e400"])
def test_non_finite_cell_is_an_error_naming_its_line_and_column(runner, table_csv, tmp_path, command, text):
    bad = corrupt_first_row(table_csv, 5, text)  # the fourth audio column
    key = audio_columns()[3].column_key()
    result = runner.invoke(main, command + [str(bad), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {bad}:2: {key}: entropy must be finite, got {text!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["experiment", "1"], ["kernels", "2"], ["stats"]])
def test_table_with_no_actor_rows_is_an_error(runner, table_csv, tmp_path, command):
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(table_csv.read_text().split("\n")[0] + "\n")
    result = runner.invoke(main, command + [str(header_only), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {header_only}: no actor rows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["experiment", "3"], ["kernels", "2"], ["stats"]])
def test_missing_entropy_is_named_by_actor_and_column(runner, table_csv, tmp_path, command):
    def edit(rows):
        rows[1][5] = rows[3][2 + 59] = ""
    bad = rewrite_table(table_csv, edit)
    keys = [audio_columns()[3].column_key(), audio_columns()[59].column_key()]
    result = runner.invoke(main, command + [str(bad), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == (f"error: entropy matrix incomplete; missing actor 1: {keys[0]}, "
                             f"actor 3: {keys[1]}\n")
    assert not (tmp_path / "out").exists()


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
        pairs = 8 * 7 // 2  # one-vs-one models per fold
        assert len(doc["cells"]) == len(doc["table"])
        for cell in doc["cells"]:
            assert set(cell) == {"fits", "iterations", "kkt_gap", "unconverged"}
            assert cell["fits"] == 3 * pairs
            assert 0 <= cell["unconverged"] <= cell["fits"]
            assert cell["kkt_gap"] <= 1e-3 or cell["unconverged"] > 0

    def test_cells_roll_up_the_grid_search(self, runner, table_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["kernels", "2", str(table_csv), "--out-dir", str(out), "--k", "3"])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "kernels.json").read_text())
        want = select_best_kernel(build_experiment2(read_entropy_table(table_csv)), k=3, seed=0)
        assert doc["cells"] == [{"fits": cv.fits, "iterations": cv.iterations, "kkt_gap": cv.kkt_gap,
                                 "unconverged": cv.unconverged} for cv in want.cells]
        assert [row[2] for row in doc["table"]] == [cv.mean_accuracy for cv in want.cells]

    def test_config_echoes_tol(self, runner, table_csv):
        args = ["kernels", "2", str(table_csv), "--k", "3"]
        for result in (runner.invoke(main, args + ["--tol", "0.01"]),
                       CliRunner(env={"ENTROPIC_KERNELS_TOL": "0.01"}).invoke(main, args)):
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
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


def write_full_wav_tree(root):
    """One actor's 60 RAVDESS-named recordings, 200 random 16-bit samples each."""
    rng = np.random.default_rng(1)
    (root / "Actor_01").mkdir(parents=True)
    for col in audio_columns():
        code = EMOTIONS.index(col.emotion) + 1
        intensity = 1 if col.intensity == "normal" else 2
        name = f"03-01-{code:02d}-{intensity:02d}-{col.statement:02d}-{col.repetition:02d}-01.wav"
        with wave.open(str(root / "Actor_01" / name), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(rng.integers(-3000, 3000, 200).astype("<i2").tobytes())


# Modules that none of these commands needs, and their cost to a process:
# numpy.random about 6 MB resident, numpy.ma 1.25 MB, concurrent.futures
# 0.6 MB. pytest has loaded some of them already, so each command runs in a
# fresh interpreter.
UNNEEDED_MODULES = ("numpy.random", "numpy.ma", "concurrent.futures")


@pytest.mark.parametrize("args", [
    ["experiment", "1", "TABLE"], ["experiment", "2", "TABLE"], ["experiment", "3", "TABLE"],
    ["kernels", "2", "TABLE"], ["kernels", "3", "TABLE"], ["experiment", "2", "CORPUS", "--jobs", "1"],
    ["stats", "TABLE"],
], ids=lambda args: "-".join(args[:3]).lower())
def test_commands_do_not_load_unneeded_modules(table_csv, tmp_path, args):
    if "CORPUS" in args:
        write_full_wav_tree(tmp_path / "corpus")
    sources = {"TABLE": str(table_csv), "CORPUS": str(tmp_path / "corpus")}
    args = [sources.get(a, a) for a in args] + ["--out-dir", str(tmp_path / "out")]
    code = f"""
import sys
from entropic.cli import main
try:
    main({args!r})
finally:
    print("loaded:", *[m for m in {UNNEEDED_MODULES!r} if m in sys.modules], file=sys.stderr)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(entropic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "loaded:"


# Python 3.14 starts pool workers by forkserver on Linux, and macOS by spawn; the other
# --jobs tests run the default start method, fork on Linux before 3.14.
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_jobs_2_gives_the_jobs_1_output_under_each_start_method(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    write_full_wav_tree(tmp_path / "corpus")
    env = dict(os.environ, PYTHONPATH=str(Path(entropic.__file__).parents[1]))
    stdout = []
    for jobs in ("1", "2"):
        code = f"""
import multiprocessing, os
multiprocessing.set_start_method({method!r})
os.sched_getaffinity = lambda pid: {{0, 1}}  # a pool of two even on one core
from entropic.cli import main
main(["experiment", "2", {str(tmp_path / "corpus")!r}, "--jobs", {jobs!r}])
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        stdout.append(proc.stdout)
    assert stdout[0] == stdout[1] and stdout[0].startswith(b"{")


# The package exports only __version__, so importing a module loads that
# module and the modules it imports, no others.
@pytest.mark.parametrize("module,loaded", [
    ("entropic", []),
    ("entropic.errors", ["errors"]),
    ("entropic.signal", ["errors", "signal"]),
    ("entropic.stats", ["errors", "stats"]),
    ("entropic.svm", ["errors", "svm"]),
    ("entropic.persistence", ["errors", "persistence", "signal", "stats"]),
    ("entropic.dataset", ["dataset", "errors", "persistence", "signal", "stats", "svm"]),
    ("entropic.cli", ["cli", "dataset", "errors", "persistence", "signal", "stats", "svm"]),
])
def test_importing_a_module_loads_only_what_it_uses(module, loaded):
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'entropic'))"
    env = dict(os.environ, PYTHONPATH=str(Path(entropic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["entropic"] + [f"entropic.{m}" for m in loaded]


# A Gram matrix beyond float64: (x.y + 1)^1000 overflows, and exp(-d^2 / 2e-320) is
# the identity. Each is one outcome with no numpy warning; the first is refused.
@pytest.mark.parametrize("kernel,code", [("polynomial(d=1000, c=1.0)", 1), ("gaussian(sigma=1e-160)", 0)])
def test_kernel_beyond_float64_prints_no_warning(table_csv, kernel, code):
    env = dict(os.environ, PYTHONPATH=str(Path(entropic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", "from entropic.cli import main; main()",
                           "experiment", "3", str(table_csv), "--kernel", kernel],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr
    if code:
        assert proc.stderr == f"error: {kernel} kernel matrix is not finite on these features\n"


def _invoke_with(runner, args, key, value, via):
    """Run a command with one option given as a flag or an
    ENTROPIC_<COMMAND>_<OPTION> environment variable."""
    if via == "flag":
        return runner.invoke(main, args + [f"--{key.replace('_', '-')}", str(value)])
    env = {f"ENTROPIC_{args[0].upper()}_{key.upper()}": str(value)}
    return CliRunner(env=env).invoke(main, args)


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", [["entropy"], ["barcode"], ["experiment", "2"], ["kernels", "2"]])
@pytest.mark.parametrize("value", [1, 0, -3])
def test_target_len_below_two_is_a_usage_error(runner, tmp_path, via, command, value):
    wavs = write_wav_tree(tmp_path / "corpus")
    inputs = [str(wavs[0])] if command[0] in ("entropy", "barcode") else [str(tmp_path / "corpus")]
    result = _invoke_with(runner, command + inputs, "target_len", value, via)
    assert result.exit_code == 2, result.output
    assert result.output.count(f"Invalid value for '--target-len': {value} is not in the range x>=2.") == 1
    assert "error:" not in result.output and "warning:" not in result.output  # no file was read


def fail_if_input_is_read(monkeypatch):
    def load(*args):
        raise AssertionError("the input was read")
    monkeypatch.setattr("entropic.cli._load_matrix", load)
    monkeypatch.setattr("entropic.cli._load_signal", load)


# A negative seed, a CV fold count below 2 and fewer than one job are refused before
# any input is read.
@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", [
    (["experiment", "2"], "seed", -1, 0),
    (["kernels", "2"], "seed", -1, 0),
    (["experiment", "1"], "k", 1, 2),
    (["kernels", "1"], "k", 1, 2),
    (["experiment", "1"], "jobs", 0, 1),
    (["kernels", "3"], "jobs", -5, 1),
])
def test_negative_seed_is_a_usage_error(runner, table_csv, tmp_path, monkeypatch, via, command):
    args, key, value, low = command
    fail_if_input_is_read(monkeypatch)
    result = _invoke_with(runner, args + [str(table_csv)], key, value, via)
    assert result.exit_code == 2, result.output
    assert result.output.count(f"Invalid value for '--{key}': {value} is not in the range x>={low}.") == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args,message", [
    (["experiment", "2", "--kernel", "gaussian(sigma=0)"], "sigma must be positive"),
    (["experiment", "2", "--kernel", "gaussian(sigma=-1)"], "sigma must be positive"),
    (["experiment", "3", "--kernel", "polynomial(d=0, c=1.0)"], "degree must be >= 1"),
    (["experiment", "1", "--kernel", "gaussian"], "or gaussian(sigma=S), got 'gaussian'"),
], ids=["sigma_zero", "sigma_negative", "degree_zero", "sigma_missing"])
def test_kernel_parameter_out_of_range_is_a_usage_error(runner, table_csv, tmp_path, monkeypatch,
                                                         args, message):
    fail_if_input_is_read(monkeypatch)
    result = runner.invoke(main, args[:2] + [str(table_csv), "--out-dir", str(tmp_path / "out")]
                           + args[2:])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("digits", [400, 5000])  # beyond float64; the second beyond what int() reads
def test_degree_beyond_float64_is_a_usage_error(runner, table_csv, monkeypatch, digits):
    fail_if_input_is_read(monkeypatch)
    kernel = f"polynomial(d={'9' * digits}, c=1.0)"
    result = runner.invoke(main, ["experiment", "3", str(table_csv), "--kernel", kernel])
    assert result.exit_code == 2, result.output
    assert ("Error: Invalid value for '--kernel': polynomial degree must be >= 1 and an int that float64 holds"
            in result.output)


def test_non_finite_sigma_is_found_before_the_input_is_read(runner, table_csv, monkeypatch):
    fail_if_input_is_read(monkeypatch)
    result = runner.invoke(main, ["experiment", "2", str(table_csv), "--kernel", "gaussian(sigma=nan)"])
    assert result.exit_code == 2, result.output
    assert ("Error: Invalid value for '--kernel': gaussian sigma must be positive and finite, "
            "as must 2 sigma^2, got nan" in result.output)


# click refuses a C or tol that is not positive and finite, before any input is read.
@pytest.mark.parametrize("args,message", [
    (["experiment", "2", "--C", "0"], "'--C': must be positive and finite, got 0.0"),
    (["experiment", "2", "--C", "-1"], "'--C': must be positive and finite, got -1.0"),
    (["experiment", "2", "--C", "nan"], "'--C': must be positive and finite, got nan"),
    (["experiment", "2", "--tol", "0"], "'--tol': must be positive and finite, got 0.0"),
    (["kernels", "2", "--tol", "0"], "'--tol': must be positive and finite, got 0.0"),
], ids=["C_zero", "C_negative", "C_nan", "tol_zero", "kernels_tol_zero"])
def test_bad_C_or_tol_is_found_before_the_input_is_read(runner, table_csv, tmp_path, monkeypatch,
                                                        args, message):
    fail_if_input_is_read(monkeypatch)
    args = args[:2] + [str(table_csv), "--out-dir", str(tmp_path / "out")] + args[2:]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.count(f"Error: Invalid value for {message}\n") == 1
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


# A command takes only its own options; the values here would all be valid for experiment.
_OTHER_COMMANDS_KEYS = {"seed": 1, "k": 3, "jobs": 2, "C": 1.0, "tol": 0.01,
                        "kernel": "gaussian(sigma=0.5)"}


@pytest.mark.parametrize("command,key", [
    *(("kernels 2", key) for key in ("C", "kernel", "sigma", "degree", "offset")),
    *((command, key) for command in ("entropy", "barcode") for key in ("seed", "k", "jobs", "C", "tol")),
])
def test_config_key_of_another_command_is_a_usage_error(runner, table_csv, sig_csv, monkeypatch,
                                                        command, key):
    fail_if_input_is_read(monkeypatch)
    source = table_csv if command.startswith("kernels") else sig_csv
    value = _OTHER_COMMANDS_KEYS.get(key, 1)  # sigma, degree and offset are options of no command
    result = runner.invoke(main, command.split() + [str(source), f"--{key}", str(value)])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and f"--{key}" in result.output


def test_experiment_takes_every_config_key(table_csv):
    config = {**_OTHER_COMMANDS_KEYS, "target_len": 10000}
    assert option_defaults("experiment").keys() == {*config, "out_dir"}
    env = {f"ENTROPIC_EXPERIMENT_{key.upper()}": str(value) for key, value in config.items()}
    result = CliRunner(env=env).invoke(main, ["experiment", "2", str(table_csv)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["config"]["kernel"] == "gaussian(sigma=0.5)"
    assert (doc["config"]["C"], doc["config"]["k"], doc["config"]["tol"]) == (1.0, 3, 0.01)
    assert (doc["config"]["seed"], doc["config"]["target_len"]) == (1, 10000)


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("name", ["rbf", "poly", "sigmoid"])
def test_kernel_name_outside_the_families_is_a_usage_error(runner, table_csv, via, name):
    result = _invoke_with(runner, ["experiment", "2", str(table_csv)], "kernel", name, via)
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


def write_manifest(tmp_path, rows):
    """A manifest whose rows name the two WAVs of write_wav_tree as w0 and w1."""
    wavs = write_wav_tree(tmp_path / "corpus")
    lines = [",".join(ds.MANIFEST_HEADER)]
    lines += [row.replace("w0", str(wavs[0])).replace("w1", str(wavs[1])) for row in rows]
    (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
    return tmp_path / "m.csv", wavs


def _manifest_duplicate(tmp_path):
    source, (w0, w1) = write_manifest(tmp_path, ["w0,1,male,happy,normal,1,1",
                                                 "w1,1,male,happy,normal,1,1"])
    return source, f"duplicate recording of actor 1, happy-normal-1-1: {w0} and {w1}"


def _manifest_two_sexes(tmp_path):
    source, (w0, w1) = write_manifest(tmp_path, ["w0,1,male,neutral,normal,1,1",
                                                 "w1,1,female,happy,normal,1,1"])
    return source, f"actor 1 is male in {w0} and female in {w1}"


def _tree_duplicate(tmp_path):
    wavs = write_wav_tree(tmp_path / "corpus")
    (tmp_path / "corpus" / "copy").mkdir()
    copy = tmp_path / "corpus" / "copy" / wavs[0].name
    copy.write_bytes(wavs[0].read_bytes())
    return tmp_path / "corpus", f"duplicate recording of actor 1, neutral-normal-1-1: {wavs[0]} and {copy}"


@pytest.mark.parametrize("command", [["experiment", "2"], ["kernels", "3"]])
@pytest.mark.parametrize("make", [_manifest_duplicate, _manifest_two_sexes, _tree_duplicate],
                         ids=lambda make: make.__name__[1:])
def test_inconsistent_corpus_is_refused_before_any_file_is_decoded(runner, tmp_path, monkeypatch,
                                                                   command, make):
    source, message = make(tmp_path)
    decoded = []
    load_wav = ds.load_wav
    monkeypatch.setattr(ds, "load_wav", lambda *args: decoded.append(args[0]) or load_wav(*args))
    result = runner.invoke(main, command + [str(source), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {message}\n"
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert decoded == []
    assert not (tmp_path / "out").exists()
    # The two recordings alone are decoded: the patched load_wav is the one a run calls.
    if (tmp_path / "corpus" / "copy").exists():
        shutil.rmtree(tmp_path / "corpus" / "copy")
    result = runner.invoke(main, command + [str(tmp_path / "corpus")])
    assert result.exit_code == 1 and "entropy matrix incomplete" in result.output, result.output
    assert len(decoded) == 2


@pytest.mark.parametrize("command", [["entropy", "SIGNAL"], ["barcode", "SIGNAL"],
                                     ["experiment", "3", "TABLE"], ["stats", "TABLE"],
                                     ["kernels", "2", "TABLE"]])
def test_out_dir_that_cannot_be_written_is_an_error(runner, sig_csv, table_csv, command):
    out = sig_csv / "sub"  # below a regular file
    args = [{"SIGNAL": str(sig_csv), "TABLE": str(table_csv)}.get(a, a) for a in command]
    result = runner.invoke(main, args + ["--out-dir", str(out)])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert lines[-1].startswith(f"error: cannot write {out}{os.sep}") and "Not a directory" in lines[-1]
    assert isinstance(result.exception, SystemExit)  # no traceback


# One valid value other than the default for each option.
_OPTION_VALUES = {"target_len": "3", "seed": "1", "k": "2", "jobs": "2", "tol": "0.01",
                  "kernel": "polynomial(d=3, c=0.0)", "C": "10", "out_dir": "OUT"}
_SOURCES = {"entropy": ["SIGNAL"], "barcode": ["SIGNAL"], "experiment": ["2", "TABLE"],
            "kernels": ["2", "TABLE"]}


@pytest.mark.parametrize("command,option", [
    (command, param.name) for command in _SOURCES
    for param in main.commands[command].params if isinstance(param, click.Option)])
def test_flag_and_env_variable_give_the_same_output(sig_csv, table_csv, tmp_path, command, option):
    out = tmp_path / "out"
    value = str(out) if _OPTION_VALUES[option] == "OUT" else _OPTION_VALUES[option]
    sources = {"SIGNAL": str(sig_csv), "TABLE": str(table_csv)}
    args = [command] + [sources.get(a, a) for a in _SOURCES[command]]
    if command == "kernels" and option != "k":
        args += ["--k", "2"]  # two folds keep the grid search short

    def run(args, env=None):
        result = CliRunner(env=env).invoke(main, args)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        return result.exit_code, result.output, files

    flag = run(args + [f"--{option.replace('_', '-')}", value])
    assert flag[0] == 0, flag
    assert run(args, {f"ENTROPIC_{command.upper()}_{option.upper()}": value}) == flag
    if option != "jobs":  # no output shows how many processes read the input
        assert run(args) != flag


def test_readme_lists_every_option():
    """The backticked --options of the README's CLI section are the five commands' options.

    So a flag added, renamed or removed without its README line fails; an
    option that is gone is named in plain text, outside backticks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    listed = {option for span in spans for option in re.findall(r"--[A-Za-z][\w-]*", span)}
    assert len(main.commands) == 5
    options = {opt for command in main.commands.values() for param in command.params
               if isinstance(param, click.Option) for opt in param.opts}
    assert listed == options


BOM = b"\xef\xbb\xbf"  # as a spreadsheet's "CSV UTF-8" export starts a file


@pytest.mark.parametrize("command", [["experiment", "1", "--C", "10"], ["stats"]], ids=["experiment", "stats"])
def test_table_with_blank_lines_reads_as_without(runner, tmp_path, separable_matrix, command):
    text = entropy_table_csv(make_matrix(separable_matrix.values[:4]))
    header, rest = text.split("\n", 1)
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text(text)
    blank.write_text(f"\n{header}\n\n{rest}\n")
    want = runner.invoke(main, command[:2] + [str(plain)] + command[2:])
    assert want.exit_code == 0, want.output
    result = runner.invoke(main, command[:2] + [str(blank)] + command[2:])
    assert (result.exit_code, result.output) == (0, want.output)


@pytest.mark.parametrize("command", [["experiment", "3"], ["kernels", "2", "--k", "3"], ["stats"]],
                         ids=["experiment", "kernels", "stats"])
def test_table_with_a_byte_order_mark_reads_as_without(runner, table_csv, command):
    marked = table_csv.with_name("marked.csv")
    marked.write_bytes(BOM + table_csv.read_bytes())
    plain = runner.invoke(main, command[:2] + [str(table_csv)] + command[2:])
    assert plain.exit_code == 0, plain.output
    result = runner.invoke(main, command[:2] + [str(marked)] + command[2:])
    assert (result.exit_code, result.output) == (0, plain.output)


def write_manifest_of_tree(tmp_path) -> str:
    """Write the full WAV tree and return a plain manifest of it."""
    write_full_wav_tree(tmp_path / "corpus")
    records = ds.scan_ravdess_tree(tmp_path / "corpus")
    rows = [ds.MANIFEST_HEADER] + [[r.path, r.actor_id, r.sex, r.emotion, r.intensity, r.statement,
                                    r.repetition] for r in records]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def test_manifest_with_a_byte_order_mark_reads_as_without(runner, tmp_path):
    text = write_manifest_of_tree(tmp_path).encode()
    (tmp_path / "plain.csv").write_bytes(text)
    (tmp_path / "marked.csv").write_bytes(BOM + text)
    plain = runner.invoke(main, ["experiment", "2", str(tmp_path / "plain.csv")])
    assert plain.exit_code == 0, plain.output
    result = runner.invoke(main, ["experiment", "2", str(tmp_path / "marked.csv")])
    assert (result.exit_code, result.output) == (0, plain.output)


def quote_all(path):
    """Copy of a CSV file with every field quoted, as csv.QUOTE_ALL writes it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    quoted = path.with_name("quoted.csv")
    with open(quoted, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    return quoted


@pytest.mark.parametrize("command", [["experiment", "1", "--C", "10"], ["experiment", "3"]],
                         ids=["experiment1", "experiment3"])
def test_table_with_every_field_quoted_reads_as_without(runner, table_csv, command):
    quoted = quote_all(table_csv)
    assert quoted.read_text().startswith('"actor_id","sex",')
    plain = runner.invoke(main, command[:2] + [str(table_csv)] + command[2:])
    assert plain.exit_code == 0, plain.output
    result = runner.invoke(main, command[:2] + [str(quoted)] + command[2:])
    assert (result.exit_code, result.output) == (0, plain.output)


def test_manifest_with_every_field_quoted_reads_as_without(runner, tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(write_manifest_of_tree(tmp_path))
    quoted = quote_all(plain)
    want = runner.invoke(main, ["experiment", "2", str(plain)])
    assert want.exit_code == 0, want.output
    result = runner.invoke(main, ["experiment", "2", str(quoted)])
    assert (result.exit_code, result.output) == (0, want.output)


# A source whose first row cannot be read goes to the manifest reader, as any
# first row but actor_id,sex does, and that reader names the fault.
@pytest.mark.parametrize("kind", ["field_above_limit", "socket"])
def test_first_row_that_cannot_be_read_is_one_error_line(runner, tmp_path, kind):
    source = tmp_path / "source.csv"
    if kind == "socket":  # exists and is no directory, but open() fails
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(source))
        reason = f"[Errno 6] No such device or address: '{source}'"
    else:
        source.write_text("x" * 131_073 + "\n")
        reason = "field larger than field limit (131072)"
    result = runner.invoke(main, ["experiment", "3", str(source)])
    assert (result.exit_code, result.output) == (1, f"error: cannot read manifest {source}: {reason}\n")


@pytest.mark.parametrize("command", ["entropy", "barcode"])
@pytest.mark.parametrize("name,data,message", [
    ("bad.csv", b"1.0\nabc\n", "{p}: non-numeric value at line 2: 'abc'"),
    ("bad.wav", b"RIFF", "not a RIFF, RIFX or RF64 WAVE file: {p}"),
    ("missing.csv", None, "cannot read signal file {p}: [Errno 2] No such file or directory: '{p}'"),
], ids=["csv", "wav", "missing"])
def test_a_file_that_cannot_be_read_is_named_once(runner, tmp_path, command, name, data, message):
    p = tmp_path / name
    if data is not None:
        p.write_bytes(data)
    result = runner.invoke(main, [command, str(p)])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {message.format(p=p)}\n"


def test_entropy_beyond_float64_is_an_error_naming_the_file(runner, tmp_path):
    wide, flat = tmp_path / "wide.csv", tmp_path / "flat.csv"
    wide.write_text("-1e308\n1e308\n0\n")
    flat.write_text("1e308\n1e308\n")  # one bar: entropy 0
    result = runner.invoke(main, ["entropy", str(wide), str(flat)])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {wide}: total bar length overflows float64\n"
    assert result.stdout == f"path,samples,subsampled_to,bars,entropy\n{flat},2,2,1,0.0\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_each_corpus_warning_names_its_file_once(runner, tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a pool of two
    wide = tmp_path / "wide.csv"
    wide.write_text("-1e308\n1e308\n0\n")
    source, (w0, w1) = write_manifest(tmp_path, ["w0,1,male,neutral,normal,1,1",
                                                 "w1,1,male,calm,normal,1,1",
                                                 f"{wide},1,male,happy,normal,1,1"])
    w1.write_bytes(b"RIFF")
    result = runner.invoke(main, ["experiment", "2", str(source), "--jobs", jobs])
    assert result.exit_code == 1 and "entropy matrix incomplete" in result.output, result.output
    assert [line for line in result.stderr.splitlines() if line.startswith("warning:")] == [
        f"warning: not a RIFF, RIFX or RF64 WAVE file: {w1}",
        f"warning: {wide}: total bar length overflows float64"]
