"""Batch command-line surface.

Subcommands: entropy, barcode, experiment, stats, kernels. `kernels N` is the
kernel/C grid search for each of the three experiments; `experiment N` runs
one experiment with one kernel and C. Option precedence is built-in defaults
< --config JSON file < explicit flags. The defaults are those of
ExperimentConfig and KernelSpec (polynomial: degree 2, offset 1). A --config
key is a flag name with underscores (target_len for --target-len); stats
reads no config. An environment variable ENTROPIC_<COMMAND>_<OPTION> sets a
flag of one subcommand, e.g. ENTROPIC_ENTROPY_TARGET_LEN=3 for
`entropy --target-len 3` (click auto-envvar); a bare ENTROPIC_TARGET_LEN is
ignored. The effective configuration is echoed into every primary output.

Exit codes: 0 success, 1 partial per-file failure, 2 invalid invocation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import dataset as ds
from . import stats as st
from . import svm
from .errors import EntropicError
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
_MINIMUM = {"target_len": 2, "seed": 0}


def _config_value_ok(key: str, value) -> bool:
    """Whether a --config value has the type its flag would give it.

    The default's type decides: an int default takes ints and a float one
    any number; a None default also takes None. kernel takes a name.
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
    return isinstance(value, (int, float))


def _effective_config(config_path: str | None, flags: dict) -> dict:
    cfg = dict(DEFAULTS)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
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
        if cfg[key] < low:
            raise click.UsageError(f"--{key.replace('_', '-')} must be at least {low}, got {cfg[key]}")
    return cfg


def _kernel_from_config(cfg: dict) -> svm.KernelSpec | None:
    name = cfg.get("kernel")
    if name is None:
        return None
    if name == "linear":
        return svm.KernelSpec("linear")
    if name in ("polynomial", "poly"):
        return svm.KernelSpec("polynomial", degree=int(cfg["degree"]), offset=float(cfg["offset"]))
    if name in ("gaussian", "rbf"):
        sigma = cfg.get("sigma")
        if sigma is None:
            raise click.UsageError("gaussian kernel requires --sigma")
        return svm.KernelSpec("gaussian", sigma=float(sigma))
    raise click.UsageError(f"unknown kernel: {name!r}")


def _load_signal(path: str):
    return load_csv_signal(path) if path.endswith(".csv") else load_wav(path)


def _write(out_dir: Path | None, name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out_dir / name}", err=True)


config_option = click.option("--config", "config_path", type=click.Path(), default=None,
                             help="JSON config file; flags override its values.")
target_len_option = click.option("--target-len", type=int, default=None,
                                 help=f"Subsample length (default {DEFAULT_TARGET_LEN}).")
out_dir_option = click.option("--out-dir", type=click.Path(file_okay=False), default=None,
                              help="Write outputs here instead of stdout.")


@click.group(context_settings={"auto_envvar_prefix": "ENTROPIC"})
def main() -> None:
    """Persistent-entropy features and SVM classification for 1-D signals."""


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
@config_option
@target_len_option
@out_dir_option
def entropy(inputs, config_path, target_len, out_dir) -> None:
    """Compute persistent entropy for each input WAV/CSV signal."""
    cfg = _effective_config(config_path, {"target_len": target_len})
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
    _write(Path(out_dir) if out_dir else None, "entropy.csv", "\n".join(lines) + "\n")
    if failed:
        sys.exit(1)


@main.command()
@click.argument("input_path", metavar="INPUT", type=click.Path())
@config_option
@target_len_option
@out_dir_option
def barcode(input_path, config_path, target_len, out_dir) -> None:
    """Compute the persistence barcode of one signal as CSV."""
    cfg = _effective_config(config_path, {"target_len": target_len})
    try:
        b = signal_barcode(_load_signal(input_path), cfg["target_len"])
    except EntropicError as exc:
        click.echo(f"error: {input_path}: {exc}", err=True)
        sys.exit(1)
    _write(Path(out_dir) if out_dir else None, "barcode.csv", barcode_to_csv(b))


def _load_matrix(source: str, cfg: dict) -> tuple[st.EntropyMatrix, tuple]:
    path = Path(source)
    if path.is_dir():
        records = ds.scan_ravdess_tree(path)
    elif path.suffix == ".csv" and path.exists():
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
        if first.startswith("actor_id,sex,"):
            return ds.read_entropy_table(path), ()
        records = ds.parse_manifest(path)
    else:
        raise click.UsageError(f"manifest, entropy table or corpus directory expected: {source}")
    result = ds.build_entropy_table(records, target_len=cfg["target_len"], jobs=cfg["jobs"])
    for p, msg in result.failures:
        click.echo(f"warning: {p}: {msg}", err=True)
    return result.matrix, result.failures


@main.command()
@click.argument("exp_id", type=click.IntRange(1, 3))
@click.argument("source", type=click.Path())
@config_option
@target_len_option
@out_dir_option
@click.option("--seed", type=int, default=None)
@click.option("--k", type=int, default=None, help="CV fold count.")
@click.option("--kernel", type=click.Choice(["linear", "polynomial", "gaussian"]), default=None)
@click.option("--C", "C", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--degree", type=int, default=None)
@click.option("--offset", type=float, default=None)
@click.option("--jobs", type=int, default=None)
def experiment(exp_id, source, config_path, target_len, out_dir, seed, k, kernel,
               C, sigma, degree, offset, jobs) -> None:
    """Run experiment 1, 2 or 3 on a manifest, entropy table or corpus tree."""
    cfg = _effective_config(config_path, {
        "target_len": target_len, "seed": seed, "k": k, "kernel": kernel,
        "C": C, "sigma": sigma, "degree": degree, "offset": offset, "jobs": jobs,
    })
    try:
        matrix, _ = _load_matrix(source, cfg)
        config = ds.ExperimentConfig(
            seed=cfg["seed"], k=cfg["k"], C=cfg["C"], tol=cfg["tol"],
            target_len=cfg["target_len"], kernel=_kernel_from_config(cfg),
        )
        result = ds.run_experiment(exp_id, matrix, config)
    except EntropicError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    out = Path(out_dir) if out_dir else None
    _write(out, f"experiment{exp_id}.json", result.to_json() + "\n")
    if exp_id == 3:
        _write(out, "experiment3_pairwise.csv", ds.pairwise_table_csv(result.pairwise))


@main.command()
@click.argument("table", type=click.Path(exists=True))
@out_dir_option
def stats(table, out_dir) -> None:
    """Correlation, sex-grouped means and box-plot summaries of an entropy table."""
    try:
        matrix = ds.read_entropy_table(table)
        corr = st.correlation_matrix(matrix)
        sexes = [a.sex for a in matrix.actor_meta]
        means = st.sex_grouped_correlation_means(corr, sexes)
        boxes = st.boxplot_by_audio(matrix)
    except EntropicError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for (ga, gb), value in means.items():
        if np.isnan(value):
            click.echo(f"warning: mean for ({ga},{gb}) undefined (group too small)", err=True)
    out = Path(out_dir) if out_dir else None
    _write(out, "correlation.csv", st.correlation_csv(corr, matrix.actor_meta))
    _write(out, "sex_means.csv", st.sex_means_csv(means))
    _write(out, "boxplot.csv", st.boxplot_csv(boxes))


@main.command()
@click.argument("exp_id", type=click.IntRange(1, 3))
@click.argument("source", type=click.Path())
@config_option
@target_len_option
@out_dir_option
@click.option("--seed", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--jobs", type=int, default=None)
def kernels(exp_id, source, config_path, target_len, out_dir, seed, k, jobs) -> None:
    """Kernel/C grid search over an experiment's feature set, by k-fold CV."""
    cfg = _effective_config(config_path, {
        "target_len": target_len, "seed": seed, "k": k, "jobs": jobs,
    })
    try:
        matrix, _ = _load_matrix(source, cfg)
        builder = {1: ds.build_experiment1, 2: ds.build_experiment2, 3: ds.build_experiment3}
        points = builder[exp_id](matrix)
        result = svm.select_best_kernel(points, tol=cfg["tol"], k=cfg["k"], seed=cfg["seed"])
    except EntropicError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    doc = {
        "experiment": exp_id,
        "best": {"kernel": result.kernel.describe(), "C": result.C,
                 "mean_accuracy": result.mean_accuracy},
        "table": [list(row) for row in result.table],
        "config": {"seed": cfg["seed"], "k": cfg["k"], "target_len": cfg["target_len"]},
    }
    _write(Path(out_dir) if out_dir else None, "kernels.json",
           json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
