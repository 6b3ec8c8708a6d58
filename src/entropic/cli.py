"""Batch command-line surface.

Subcommands: entropy, barcode, experiment, stats, kernels. `kernels N` is the
kernel/C grid search for each of the three experiments; `experiment N` runs
one experiment with one kernel and C; its `--kernel` reads a kernel as every
output writes it (KernelSpec.parse). Option precedence is built-in defaults
< ENTROPIC_<COMMAND>_<OPTION> environment variables < explicit flags; the
defaults are ExperimentConfig's, and `--help` shows them. A variable sets a
flag of one subcommand, e.g. ENTROPIC_ENTROPY_TARGET_LEN=3 for `entropy
--target-len 3` (click auto-envvar), and click checks it as it checks the
flag; a bare ENTROPIC_TARGET_LEN is ignored. The effective configuration is
echoed into every primary output. A signal, table or manifest may start with
a UTF-8 BOM.

Exit codes: 0 success, 1 partial per-file failure or an error of the run
(one `error:` line), 2 invalid invocation. Every refused option value, from
a flag or a variable, is exit 2 with click's "Invalid value for '--k'" line,
before any input is read. A file that fails, say one whose bar lengths
overflow float64, gets one `error:` (or, in a corpus, `warning:`) line that
names it once.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import dataset as ds
from . import stats as st
from . import svm
from .errors import EntropicError, TrainingError
from .persistence import barcode_to_csv, persistent_entropy, signal_barcode
from .signal import DEFAULT_TARGET_LEN, load_csv_signal, load_wav

_EXPERIMENT = ds.ExperimentConfig()


def _kernel(ctx, param, text: str | None) -> svm.KernelSpec | None:
    """--kernel as KernelSpec.parse reads it; None for the experiment's own kernel."""
    try:
        return None if text is None else svm.KernelSpec.parse(text)
    except TrainingError as exc:
        raise click.BadParameter(str(exc))


def _positive_finite(ctx, param, value: float) -> float:
    """--C or --tol as ExperimentConfig takes it."""
    if not 0 < value < np.inf:
        raise click.BadParameter(f"must be positive and finite, got {value}")
    return value


def _load_signal(path: str):
    return load_csv_signal(path) if path.endswith(".csv") else load_wav(path)


def _write(out_dir: str | None, name: str, text: str) -> None:
    """Write one output file to --out-dir, or to stdout without one."""
    if not out_dir:
        sys.stdout.write(text)
        return
    path = Path(out_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise EntropicError(f"cannot write {path}: {exc}")
    click.echo(f"wrote {path}", err=True)


_OUT_DIR = click.Option(["--out-dir"], type=click.Path(file_okay=False),
                        help="Write outputs here instead of stdout.")


_TARGET_LEN = click.Option(["--target-len"], type=click.IntRange(min=2), default=DEFAULT_TARGET_LEN,
                           help="Subsample length.")
_SIGNAL_OPTIONS = (_TARGET_LEN, _OUT_DIR)
# The arguments and options that `experiment` and `kernels` share.
_EXPERIMENT_PARAMS = (
    click.Argument(["exp_id"], type=click.IntRange(1, 3)),
    click.Argument(["source"], type=click.Path()),
    _TARGET_LEN,
    _OUT_DIR,
    click.Option(["--seed"], type=click.IntRange(min=0), default=_EXPERIMENT.seed),
    click.Option(["--k"], type=click.IntRange(min=2), default=_EXPERIMENT.k, help="CV fold count."),
    click.Option(["--jobs"], type=click.IntRange(min=1), default=1),
    click.Option(["--tol"], type=float, default=_EXPERIMENT.tol, callback=_positive_finite,
                 help="SMO stopping tolerance on the KKT gap."),
)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):  # an EntropicError a command lets through exits 1
        try:
            return super().invoke(ctx)
        except EntropicError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main, context_settings={"auto_envvar_prefix": "ENTROPIC", "show_default": True})
def main() -> None:
    """Persistent-entropy features and SVM classification for 1-D signals."""


@main.command(params=[click.Argument(["inputs"], nargs=-1, required=True, type=click.Path()),
                     *_SIGNAL_OPTIONS])
def entropy(inputs, target_len, out_dir) -> None:
    """Compute persistent entropy for each input WAV/CSV signal."""
    rows = [["path", "samples", "subsampled_to", "bars", "entropy"]]
    for path in inputs:
        try:
            s = _load_signal(path)
            b = signal_barcode(s, target_len)
            rows.append([path, len(s), min(target_len, len(s)), len(b), persistent_entropy(b)])
        except EntropicError as exc:
            click.echo(f"error: {ds.file_error(path, exc)}", err=True)
    _write(out_dir, "entropy.csv", st.csv_text(rows))
    if len(rows) <= len(inputs):  # the header and a row per input that did not fail
        sys.exit(1)


@main.command(params=[click.Argument(["input_path"], metavar="INPUT", type=click.Path()),
                     *_SIGNAL_OPTIONS])
def barcode(input_path, target_len, out_dir) -> None:
    """Compute the persistence barcode of one signal as CSV."""
    try:
        b = signal_barcode(_load_signal(input_path), target_len)
    except EntropicError as exc:
        click.echo(f"error: {ds.file_error(input_path, exc)}", err=True)
        sys.exit(1)
    _write(out_dir, "barcode.csv", barcode_to_csv(b))


def _load_matrix(source: str, target_len: int, jobs: int) -> st.EntropyMatrix:
    path = Path(source)
    if path.is_dir():
        records = ds.scan_ravdess_tree(path)
    elif path.suffix == ".csv" and path.exists():
        try:  # the first non-blank row, in the readers' dialect; they report what it cannot read
            with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
                first = next(filter(None, csv.reader(fh)), [])
        except (OSError, csv.Error):
            first = []
        if first[:2] == ["actor_id", "sex"]:  # read_entropy_table's test
            return ds.read_entropy_table(path)
        records = ds.parse_manifest(path)
    else:
        raise click.UsageError(f"manifest, entropy table or corpus directory expected: {source}")
    result = ds.build_entropy_table(records, target_len=target_len, jobs=jobs)
    for _, msg in result.failures:  # each names its file
        click.echo(f"warning: {msg}", err=True)
    return result.matrix


@main.command(params=[
    *_EXPERIMENT_PARAMS,
    click.Option(["--kernel"], callback=_kernel,
                 help="linear, polynomial, polynomial(d=D, c=C) or gaussian(sigma=S), as the "
                      "outputs write it; default: the experiment's own kernel."),
    click.Option(["--C", "C"], type=float, default=_EXPERIMENT.C, callback=_positive_finite),
])
def experiment(exp_id, source, target_len, out_dir, seed, k, jobs, tol, kernel, C) -> None:
    """Run experiment 1, 2 or 3 on a manifest, entropy table or corpus tree."""
    config = ds.ExperimentConfig(seed=seed, k=k, C=C, tol=tol, target_len=target_len, kernel=kernel)
    result = ds.run_experiment(exp_id, _load_matrix(source, target_len, jobs), config)
    _write(out_dir, f"experiment{exp_id}.json", result.to_json() + "\n")
    if exp_id == 3:
        _write(out_dir, "experiment3_pairwise.csv", ds.pairwise_table_csv(result.pairwise))


@main.command(params=[click.Argument(["table"], type=click.Path(exists=True)), _OUT_DIR])
def stats(table, out_dir) -> None:
    """Correlation, sex-grouped means and box-plot summaries of an entropy table."""
    matrix = ds.read_entropy_table(table)
    corr = st.correlation_matrix(matrix)
    sexes = [a.sex for a in matrix.actor_meta]
    means = st.sex_grouped_correlation_means(corr, sexes)
    boxes = st.boxplot_by_audio(matrix)
    for (ga, gb), value in means.items():
        if np.isnan(value):
            click.echo(f"warning: mean for ({ga},{gb}) undefined (group too small)", err=True)
    _write(out_dir, "correlation.csv", st.correlation_csv(corr, matrix.actor_meta))
    _write(out_dir, "sex_means.csv", st.sex_means_csv(means))
    _write(out_dir, "boxplot.csv", st.boxplot_csv(boxes))


@main.command(params=list(_EXPERIMENT_PARAMS))
def kernels(exp_id, source, target_len, out_dir, seed, k, jobs, tol) -> None:
    """Kernel/C grid search over an experiment's feature set, by k-fold CV."""
    points = ds.experiment_points(exp_id, _load_matrix(source, target_len, jobs))
    result = svm.select_best_kernel(points, tol=tol, k=k, seed=seed)
    doc = {
        "experiment": exp_id,
        "best": {"kernel": result.kernel.describe(), "C": result.C,
                 "mean_accuracy": result.mean_accuracy},
        "table": [list(row) for row in result.table],
        # Each table row's binary fits over all folds: how many, their SMO
        # pair updates, their largest final KKT gap and how many missed tol.
        "cells": [{"fits": cv.fits, "iterations": cv.iterations, "kkt_gap": cv.kkt_gap,
                   "unconverged": cv.unconverged} for cv in result.cells],
        "config": {"seed": seed, "k": k, "target_len": target_len, "tol": tol},
    }
    _write(out_dir, "kernels.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
