"""Batch command-line surface.

Subcommands: entropy, barcode, experiment, stats, kernels. `kernels N` is the
kernel/C grid search for each of the three experiments; `experiment N` runs
one experiment with one kernel and C. Option precedence is built-in defaults
< --config JSON file < explicit flags. The defaults are those of
ExperimentConfig and KernelSpec (polynomial: degree 2, offset 1). A --config
key is one of the command's flag names with underscores (target_len for
--target-len), or tol for experiment and kernels; any other key exits 2.
stats reads no config. An environment variable ENTROPIC_<COMMAND>_<OPTION>
sets a flag of one subcommand, e.g. ENTROPIC_ENTROPY_TARGET_LEN=3 for
`entropy --target-len 3` (click auto-envvar); a bare ENTROPIC_TARGET_LEN is
ignored. The effective configuration is echoed into every primary output.

Exit codes: 0 success, 1 partial per-file failure or an error of the run
(one `error:` line), 2 invalid invocation.
"""

from __future__ import annotations

import json
import math
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
_POLYNOMIAL = svm.KernelSpec("polynomial")
DEFAULTS = {
    **{key: getattr(_EXPERIMENT, key) for key in ("target_len", "seed", "k", "C", "tol")},
    "kernel": None,  # a kernel name; None: the experiment's default kernel
    "sigma": None,  # a gaussian --kernel needs an explicit --sigma
    "degree": _POLYNOMIAL.degree,
    "offset": _POLYNOMIAL.offset,
    "jobs": 1,
}
# The smallest valid value of an option, checked once before any input is read.
_MINIMUM = {"target_len": 2, "seed": 0, "k": 2}


def _config_value_ok(key: str, value) -> bool:
    """Whether a --config value has the type its flag would give it.

    The default's type decides: an int default takes ints and a float one
    any number a float can hold; a None default also takes None. kernel
    takes a name.
    """
    default = DEFAULTS[key]
    if value is None:
        return default is None
    if isinstance(value, bool):
        return False
    if key == "kernel":
        return isinstance(value, str)
    if isinstance(default, int):
        return isinstance(value, int)
    return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max


def _effective_config(config_path: str | None, flags: dict, *file_only: str) -> dict:
    """A command's options; its config keys are the keys of ``flags`` and ``file_only``."""
    cfg = {key: DEFAULTS[key] for key in (*flags, *file_only)}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise click.UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise click.UsageError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if not _config_value_ok(key, value):
                raise click.UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")
        cfg.update(file_cfg)
    cfg.update({k: v for k, v in flags.items() if v is not None})
    for key, low in _MINIMUM.items():
        if key in cfg and cfg[key] < low:
            raise click.UsageError(f"--{key.replace('_', '-')} must be at least {low}, got {cfg[key]}")
    return cfg


def _kernel_from_config(cfg: dict) -> svm.KernelSpec | None:
    """The configured kernel; None for the experiment's default.

    A name or parameter that KernelSpec refuses is a usage error, except a
    non-finite sigma: that stays an error of the run, as a non-finite C is.
    """
    name, sigma = cfg["kernel"], cfg["sigma"]
    if name is None:
        return None
    if name == "gaussian" and sigma is None:
        raise click.UsageError("gaussian kernel requires --sigma")
    try:
        if name == "polynomial":
            return svm.KernelSpec(name, degree=int(cfg["degree"]), offset=float(cfg["offset"]))
        if name == "gaussian":
            return svm.KernelSpec(name, sigma=float(sigma))
        return svm.KernelSpec(name)
    except TrainingError as exc:
        if name == "gaussian" and not math.isfinite(sigma):
            raise
        raise click.UsageError(str(exc))


def _load_signal(path: str):
    return load_csv_signal(path) if path.endswith(".csv") else load_wav(path)


def _write(out_dir: str | None, name: str, text: str) -> None:
    """Write one output file to --out-dir, or to stdout without one."""
    if not out_dir:
        sys.stdout.write(text)
        return
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    click.echo(f"wrote {path}", err=True)


_OUT_DIR = click.Option(["--out-dir"], type=click.Path(file_okay=False),
                        help="Write outputs here instead of stdout.")
_SIGNAL_OPTIONS = (
    click.Option(["--config", "config_path"], type=click.Path(),
                 help="JSON config file; flags override its values."),
    click.Option(["--target-len"], type=int, help=f"Subsample length (default {DEFAULT_TARGET_LEN})."),
    _OUT_DIR,
)
# The arguments and options that `experiment` and `kernels` share.
_EXPERIMENT_PARAMS = (
    click.Argument(["exp_id"], type=click.IntRange(1, 3)),
    click.Argument(["source"], type=click.Path()),
    *_SIGNAL_OPTIONS,
    click.Option(["--seed"], type=int),
    click.Option(["--k"], type=int, help="CV fold count."),
    click.Option(["--jobs"], type=int),
)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):  # an EntropicError a command lets through exits 1
        try:
            return super().invoke(ctx)
        except EntropicError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main, context_settings={"auto_envvar_prefix": "ENTROPIC"})
def main() -> None:
    """Persistent-entropy features and SVM classification for 1-D signals."""


@main.command(params=[click.Argument(["inputs"], nargs=-1, required=True, type=click.Path()),
                     *_SIGNAL_OPTIONS])
def entropy(inputs, config_path, out_dir, **flags) -> None:
    """Compute persistent entropy for each input WAV/CSV signal."""
    cfg = _effective_config(config_path, flags)
    lines = ["path,samples,subsampled_to,bars,entropy"]
    failed = False
    for path in inputs:
        try:
            s = _load_signal(path)
            b = signal_barcode(s, cfg["target_len"])
            e = persistent_entropy(b)
            lines.append(f"{path},{len(s)},{min(cfg['target_len'], len(s))},{len(b)},{e!r}")
        except EntropicError as exc:
            click.echo(f"error: {path}: {exc}", err=True)
            failed = True
    _write(out_dir, "entropy.csv", "\n".join(lines) + "\n")
    if failed:
        sys.exit(1)


@main.command(params=[click.Argument(["input_path"], metavar="INPUT", type=click.Path()),
                     *_SIGNAL_OPTIONS])
def barcode(input_path, config_path, out_dir, **flags) -> None:
    """Compute the persistence barcode of one signal as CSV."""
    cfg = _effective_config(config_path, flags)
    try:
        b = signal_barcode(_load_signal(input_path), cfg["target_len"])
    except EntropicError as exc:
        click.echo(f"error: {input_path}: {exc}", err=True)
        sys.exit(1)
    _write(out_dir, "barcode.csv", barcode_to_csv(b))


def _load_matrix(source: str, cfg: dict) -> st.EntropyMatrix:
    path = Path(source)
    if path.is_dir():
        records = ds.scan_ravdess_tree(path)
    elif path.suffix == ".csv" and path.exists():
        with open(path, encoding="utf-8", errors="replace") as fh:  # the readers report bad UTF-8
            first = fh.readline()
        if first.startswith("actor_id,sex,"):
            return ds.read_entropy_table(path)
        records = ds.parse_manifest(path)
    else:
        raise click.UsageError(f"manifest, entropy table or corpus directory expected: {source}")
    result = ds.build_entropy_table(records, target_len=cfg["target_len"], jobs=cfg["jobs"])
    for p, msg in result.failures:
        click.echo(f"warning: {p}: {msg}", err=True)
    return result.matrix


def _experiment_config(cfg: dict, **fields) -> ds.ExperimentConfig:
    # Built before any input is read, so that a bad parameter costs no decoding.
    return ds.ExperimentConfig(seed=cfg["seed"], k=cfg["k"], tol=cfg["tol"],
                               target_len=cfg["target_len"], **fields)


@main.command(params=[
    *_EXPERIMENT_PARAMS,
    click.Option(["--kernel"], type=click.Choice(svm.KERNEL_FAMILIES)),
    click.Option(["--C", "C"], type=float),
    click.Option(["--sigma"], type=float),
    click.Option(["--degree"], type=int),
    click.Option(["--offset"], type=float),
])
def experiment(exp_id, source, config_path, out_dir, **flags) -> None:
    """Run experiment 1, 2 or 3 on a manifest, entropy table or corpus tree."""
    cfg = _effective_config(config_path, flags, "tol")
    config = _experiment_config(cfg, C=cfg["C"], kernel=_kernel_from_config(cfg))
    result = ds.run_experiment(exp_id, _load_matrix(source, cfg), config)
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
def kernels(exp_id, source, config_path, out_dir, **flags) -> None:
    """Kernel/C grid search over an experiment's feature set, by k-fold CV."""
    cfg = _effective_config(config_path, flags, "tol")
    config = _experiment_config(cfg)
    builder = {1: ds.build_experiment1, 2: ds.build_experiment2, 3: ds.build_experiment3}
    points = builder[exp_id](_load_matrix(source, cfg))
    result = svm.select_best_kernel(points, tol=config.tol, k=config.k, seed=config.seed)
    doc = {
        "experiment": exp_id,
        "best": {"kernel": result.kernel.describe(), "C": result.C,
                 "mean_accuracy": result.mean_accuracy},
        "table": [list(row) for row in result.table],
        "config": {"seed": config.seed, "k": config.k, "target_len": config.target_len,
                   "tol": config.tol},
    }
    _write(out_dir, "kernels.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
