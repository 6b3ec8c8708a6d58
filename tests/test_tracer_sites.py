"""The benchmark's tracer must find every function it wraps, and see every fit.

`benchmarks/tracing.py` replaces each (module, attribute) in its SITES with a
timed wrapper, looking the attribute up in the owner's own __dict__. A
refactor that renames a function, or drops an import a site names (say
`entropic.cli.load_wav`), would otherwise break `run.py --trace 1` only. The
trace also counts the calls to `entropic.svm.train_binary` and recomputes each
fit's KKT gap from its `data`, so every binary fit must be such a call; a
warm fit is one that is handed its class pair's path. Its other observers
read the results of the sites they wrap (`len(result.failures)`, the
barcode's length), so those must keep what they read.
"""

import importlib
import importlib.util
import math
import wave
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from entropic import dataset, persistence, svm
from entropic.signal import Signal, load_wav

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_sites():
    return load_tracing().SITES


def test_every_site_resolves_as_the_tracer_looks_it_up():
    sites = load_sites()
    assert sites
    for module_name, attr, span in sites:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, f"{module_name}.{attr} (span {span}) is gone"
        assert callable(owner.__dict__[attr]), f"{module_name}.{attr} is not a function"



THREE_CLASSES = [svm.LabeledPoint(x, lab) for x, lab in
                 zip(*make_blobs(seed=3, n_per_class=6, centers=((0, 0), (2, 0), (0, 2))))]
TWO_CLASSES = THREE_CLASSES[:12]
KERNELS = (svm.KernelSpec("linear"), svm.KernelSpec("gaussian", sigma=1.0))


def traced_fits(call):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    for bound, model in tracer.fits:
        data = bound.arguments["data"]
        assert isinstance(data, list) and all(isinstance(p, svm.LabeledPoint) for p in data)
        assert {p.label for p in data} == set(model.class_pair)
    quality = tracer.fit_quality()
    assert quality["fits"] == len(tracer.fits) and quality["unconverged"] == 0
    return result, tracer.fits


def fit_bits(model):
    return model.alpha.tobytes(), model.support_vectors.tobytes(), repr((model.bias, model.iterations,
                                                                         model.kkt_gap))


@pytest.mark.parametrize("Cs", [(0.1, 1.0, 10.0), (10.0, 1.0)])
def test_grid_fits_are_traced_train_binary_calls(Cs):
    k, pairs = 3, math.comb(3, 2)
    result, fits = traced_fits(lambda: svm.select_best_kernel(THREE_CLASSES, KERNELS, Cs, k=k))
    assert len(fits) == len(KERNELS) * len(Cs) * k * pairs
    ascending = list(Cs) == sorted(Cs)
    paths = [bound.arguments["path"] for bound, _ in fits]
    for i, path in enumerate(paths):  # kernel, fold, class pair, then C
        warm = ascending and i % len(Cs) > 0
        assert isinstance(path, svm._Path) and (path is paths[i - 1]) == warm
    # One path per class pair's ascending run: a new one for each pair, and after C decreases.
    assert len(set(map(id, paths))) == len(fits) // (len(Cs) if ascending else 1)
    per_kernel = len(fits) // len(KERNELS)
    for cell, cv in enumerate(result.cells):
        kernel_fits = fits[cell // len(Cs) * per_kernel:][:per_kernel]
        models = [model for _, model in kernel_fits[cell % len(Cs)::len(Cs)]]
        assert cv.fits == len(models) == k * pairs
        assert cv.iterations == sum(m.iterations for m in models)
        assert cv.kkt_gap == max(m.kkt_gap for m in models)
        assert cv.unconverged == sum(not m.converged for m in models)


@pytest.mark.parametrize("call,count", [
    (lambda: svm.kfold_cross_validate(THREE_CLASSES, KERNELS[1], C=1.0, k=3), 3 * 3),
    (lambda: svm.kfold_cross_validate(TWO_CLASSES, KERNELS[0], C=1.0, k=4), 4 * 1),
    (lambda: svm.train_multiclass(THREE_CLASSES, KERNELS[0], C=1.0), 3),
], ids=["kfold", "kfold_binary", "multiclass"])
def test_single_C_fits_are_cold_traced_train_binary_calls(call, count):
    _, fits = traced_fits(call)
    assert len(fits) == count
    paths = [bound.arguments["path"] for bound, _ in fits]
    assert len(set(map(id, paths))) == count  # a distinct path per fit
    for bound, model in fits:  # each as a pathless fit gives it
        args = {name: value for name, value in bound.arguments.items() if name != "path"}
        assert fit_bits(svm.train_binary(**args)) == fit_bits(model)


def test_observers_count_what_the_sites_return(tmp_path):
    actor = tmp_path / "Actor_01"
    actor.mkdir()
    good, bad = actor / "03-01-05-01-01-01-01.wav", actor / "03-01-05-01-01-02-01.wav"
    with wave.open(str(good), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(np.random.default_rng(5).integers(-3000, 3000, 3000).astype("<i2").tobytes())
    bad.write_bytes(b"RIFF not a wave file")
    short = Signal(np.sin(np.arange(50.0)))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        table = dataset.build_entropy_table(dataset.scan_ravdess_tree(tmp_path), target_len=1000)
        barcode = persistence.signal_barcode(short)
    finally:
        tracer.uninstall()
    assert len(table.failures) == 1 and table.failures[0][0] == str(bad)
    good_bars = len(persistence.signal_barcode(load_wav(str(good), 1000), 1000))
    assert tracer.counters["entropy_table_failures"] == 1
    assert tracer.counters["load_wav_bytes"] == good.stat().st_size  # the bad file's load raised
    assert tracer.counters["barcode_samples"] == 1000 + len(short)
    assert tracer.counters["bars"] == good_bars + len(barcode)
