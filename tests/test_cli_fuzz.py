"""Malformed input of every kind reaches the user as an exit code, never a traceback.

Each test drives `main` through CliRunner with one kind of generated input:
manifests, entropy tables, ENTROPIC_<COMMAND>_<OPTION> environment variables,
CSV signals, WAV files whose header is mutated or cut short, and an --out-dir
below a regular file. The exit code must be 0, 1 or 2, and the only
exception that may leave a command is SystemExit. The examples are
derandomized, so a run is repeatable, and bounded to keep the suite fast.
"""

import struct
import tempfile
from pathlib import Path

import click
import numpy as np
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_matrix
from entropic.cli import main
from entropic.dataset import MANIFEST_HEADER, entropy_table_csv

fuzz = settings(max_examples=40, deadline=None, derandomize=True, database=None)

TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
CELL = st.one_of(TEXT, st.sampled_from(["", "1", "24", "25", "0", "-1", "male", "female", "x",
                                        "neutral", "happy", "normal", "strong", "2", "nan",
                                        "inf", "1e999", "8.1", "a.wav", "b.csv", "1e308",
                                        "-1e308", "1.7976931348623157e308",
                                        "x" * 131_073]))  # above the csv module's field limit
# A file's bytes: well-formed text, or any bytes, invalid UTF-8 included.
RAW = st.one_of(st.binary(max_size=64), TEXT.map(str.encode))


def run(files: dict, args, env=None) -> None:
    """Write files into a fresh directory and run the command on them; an
    argument @name stands for the file of that name."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a[1:]) if a.startswith("@") else a for a in args]
        result = CliRunner(env=env).invoke(main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.output, result.exc_info)
    assert "Traceback" not in result.output


def table_rows(n_actors: int) -> list[list[str]]:
    values = np.random.default_rng(n_actors).normal(8.0, 0.1, (n_actors, 60))
    return [line.split(",") for line in entropy_table_csv(make_matrix(values)).splitlines()]


def signal_bytes(n: int = 64) -> bytes:
    return "".join(f"{float(v)!r}\n" for v in np.random.default_rng(n).normal(size=n)).encode()


@st.composite
def manifests(draw) -> bytes:
    header = draw(st.one_of(st.just(MANIFEST_HEADER), st.lists(CELL, max_size=8)))
    rows = draw(st.lists(st.one_of(
        st.lists(CELL, min_size=7, max_size=7),
        st.lists(CELL, max_size=9),
        st.builds(lambda actor, emotion, intensity: ["a.wav", actor, "male", emotion, intensity, "1", "1"],
                  CELL, CELL, CELL),
        # Valid rows, which repeat a coordinate or give actor 1 both sexes.
        st.builds(lambda path, sex, repetition: [path, "1", sex, "happy", "normal", "1", repetition],
                  st.sampled_from(["a.wav", "b.csv"]), st.sampled_from(["male", "female"]),
                  st.sampled_from(["1", "2"])),
    ), max_size=4))
    return "\n".join(",".join(row) for row in [header, *rows]).encode() + draw(st.sampled_from([b"", b"\n", b"\xff"]))


# The examples are inputs that once gave a traceback.
@fuzz
@given(manifest=manifests(), command=st.sampled_from([["experiment", "2"], ["kernels", "3"]]))
@example(manifest=",".join(MANIFEST_HEADER).encode() + b"\n\xff", command=["experiment", "2"])
@example(manifest=b"x" * 131_073 + b"\n", command=["experiment", "2"])
@example(manifest=",".join(MANIFEST_HEADER).encode() + b"\na.wav,1,male,happy,normal,1,1" * 2,
         command=["experiment", "2"])
@example(manifest=",".join(MANIFEST_HEADER).encode() + b"\nb.csv,1,male,happy,normal,1,1"
         + b"\na.wav,1,female,happy,normal,1,2", command=["kernels", "3"])
def test_malformed_manifest(manifest, command):
    run({"m.csv": manifest, "a.wav": b"RIFF", "b.csv": signal_bytes()}, command + ["@m.csv"])


@st.composite
def tables(draw) -> bytes:
    rows = table_rows(draw(st.integers(2, 4)))
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "drop_cell", "add_cell", "drop_row", "copy_row"]))
        if edit == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELL)
        elif edit == "drop_cell" and rows[r]:
            rows[r].pop(draw(st.integers(0, len(rows[r]) - 1)))
        elif edit == "add_cell":
            rows[r].append(draw(CELL))
        elif edit == "drop_row" and len(rows) > 1:
            rows.pop(r)
        elif edit == "copy_row":
            rows.append(list(rows[r]))
    text = "\n".join(",".join(row) for row in rows).encode()
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def edited_table(*edits: tuple[int, int, str]) -> bytes:
    """table_rows(3) with each (line, cell, text) edit; line 1 is actor 1, cell 2 the first audio."""
    rows = table_rows(3)
    for line, cell, text in edits:
        rows[line][cell] = text
    return "\n".join(",".join(row) for row in rows).encode()


@fuzz
@given(table=tables(), command=st.sampled_from([["stats"], ["experiment", "3"], ["experiment", "2"]]))
@example(table=b"actor_id,sex,\xff\n", command=["stats"])
@example(table=edited_table((1, 2, "1e200")), command=["stats"])
# Actor 1's row mean and the first column's mean overflow when summed unscaled.
@example(table=edited_table((1, 2, "1e308"), (1, 3, "1e308"), (2, 2, "1e308"), (3, 2, "1e308")),
         command=["stats"])
@example(table=b"actor_id,sex," + b"x" * 131_073 + b"\n", command=["experiment", "3"])
def test_malformed_entropy_table(table, command):
    run({"t.csv": table}, command + ["@t.csv"])


# Any text an environment can hold (not NUL), values at the edges of the options' types,
# and kernels as the outputs write them, with near-misses.
ENV_VALUE = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=12),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "0", "-1", "True", "2", "0.5",
                     "linear", "polynomial", "gaussian", "polynomial(d=3, c=0.0)",
                     "polynomial(d=2, c=1.0)", "gaussian(sigma=0.5)", "gaussian(sigma=0.3227166362893834)",
                     "gaussian(sigma=)", "polynomial(d=2,c=1)", "gaussian(sigma=1e400)",
                     "gaussian(sigma=nan)", "gaussian(sigma=-1.0)", "polynomial(d=0, c=1.0)",
                     "polynomial(d=2.0, c=1.0)", "polynomial(d=2, c=-1e400)", "linear()",
                     "gaussian(sigma=5e-324)", "gaussian(sigma=1e200)"]),
)
ENV_COMMANDS = [["entropy", "@s.csv"], ["barcode", "@s.csv"], ["experiment", "3", "@t.csv"],
                ["experiment", "2", "@t.csv"], ["kernels", "3", "@t.csv"]]


@st.composite
def variables(draw) -> tuple[list[str], dict]:
    """A command and some of its ENTROPIC_<COMMAND>_<OPTION> variables; --out-dir is
    left out, because it names where to write."""
    command = draw(st.sampled_from(ENV_COMMANDS))
    options = [p.name for p in main.commands[command[0]].params
               if isinstance(p, click.Option) and p.name != "out_dir"]
    values = draw(st.dictionaries(st.sampled_from(options), ENV_VALUE, max_size=4))
    return command, {f"ENTROPIC_{command[0].upper()}_{key.upper()}": v for key, v in values.items()}


@fuzz
@given(variables=variables())
@example(variables=(["experiment", "3", "@t.csv"], {"ENTROPIC_EXPERIMENT_C": "1e400"}))
@example(variables=(["experiment", "3", "@t.csv"], {"ENTROPIC_EXPERIMENT_KERNEL": "gaussian(sigma=1e400)"}))
@example(variables=(["experiment", "3", "@t.csv"],
                    {"ENTROPIC_EXPERIMENT_KERNEL": "polynomial(d=2, c=-1e400)"}))
@example(variables=(["experiment", "3", "@t.csv"], {"ENTROPIC_EXPERIMENT_KERNEL": "gaussian(sigma=1e200)"}))
@example(variables=(["experiment", "3", "@t.csv"],
                    {"ENTROPIC_EXPERIMENT_KERNEL": "polynomial(d=1000, c=1.0)"}))
@example(variables=(["experiment", "3", "@t.csv"], {"ENTROPIC_EXPERIMENT_KERNEL": "gaussian(sigma=1e-160)"}))
def test_config_values(variables):
    """A command's settings come from its variables, whatever text they hold."""
    command, env = variables
    table = "\n".join(",".join(row) for row in table_rows(3)).encode()
    run({"s.csv": signal_bytes(), "t.csv": table}, command, env)


@fuzz
@given(signal=st.one_of(RAW, st.lists(CELL, max_size=20).map(lambda lines: "\n".join(lines).encode())),
       command=st.sampled_from([["entropy"], ["barcode"], ["entropy", "--target-len", "3"]]))
@example(signal=b"-1e308\n1e308\n0\n", command=["entropy"])  # bar lengths beyond float64
@example(signal=b"1e308\n1e308\n", command=["entropy"])
def test_csv_signal(signal, command):
    run({"s.csv": signal}, command[:1] + ["@s.csv"] + command[1:])


def wav_bytes(tag: int, channels: int, bits: int, n: int = 40) -> bytes:
    width = max(1, bits // 8)
    data = np.random.default_rng(bits).integers(0, 256, n * channels * width, dtype=np.uint8).tobytes()
    fmt = struct.pack("<HHIIHH", tag, channels, 8000, 8000 * channels * width, channels * width, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


@st.composite
def wavs(draw) -> bytes:
    tag, bits = draw(st.sampled_from([(1, 8), (1, 16), (1, 24), (1, 32), (3, 32), (3, 64)]))
    raw = bytearray(wav_bytes(tag, draw(st.integers(1, 2)), bits))
    for _ in range(draw(st.integers(0, 4))):  # the header is the first 44 bytes
        raw[draw(st.integers(0, 47))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del raw[draw(st.integers(0, len(raw))):]
    return bytes(raw)


@fuzz
@given(wav=wavs(), command=st.sampled_from([["entropy"], ["barcode"], ["entropy", "--target-len", "5"]]))
def test_mutated_or_truncated_wav(wav, command):
    run({"w.wav": wav}, command[:1] + ["@w.wav"] + command[1:])


@fuzz
@given(command=st.sampled_from([["entropy", "@s.csv"], ["barcode", "@s.csv"], ["experiment", "3", "@t.csv"],
                                ["stats", "@t.csv"]]),
       out_dir=st.sampled_from(["@s.csv/out", "@t.csv/a/b"]))
def test_out_dir_below_a_regular_file(command, out_dir):
    table = "\n".join(",".join(row) for row in table_rows(3)).encode()
    run({"s.csv": signal_bytes(), "t.csv": table}, command + ["--out-dir", out_dir])
