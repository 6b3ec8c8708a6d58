"""The benchmark's tracer must find every function it wraps, and see every fit.

`benchmarks/tracing.py` replaces each (module, attribute) in its SITES with a
timed wrapper, looking the attribute up in the owner's own __dict__. A
refactor that renames a function, or drops an import a site names (say
`entropic.cli.load_wav`), would otherwise break `run.py --trace 1` only. The
trace also counts the calls to `entropic.svm.train_binary` and recomputes each
fit's KKT gap from its `data`, so every binary fit must be such a call.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from conftest import make_blobs
from entropic import svm

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


@pytest.mark.parametrize("Cs", [(0.1, 1.0, 10.0), (10.0, 1.0)])
def test_grid_fits_are_traced_train_binary_calls(Cs):
    k, pairs = 3, math.comb(3, 2)
    result, fits = traced_fits(lambda: svm.select_best_kernel(THREE_CLASSES, KERNELS, Cs, k=k))
    assert len(fits) == len(KERNELS) * len(Cs) * k * pairs
    ascending = list(Cs) == sorted(Cs)
    for i, (bound, model) in enumerate(fits):  # kernel, fold, class pair, then C
        warm = ascending and i % len(Cs) > 0
        assert bound.arguments.get("start") is (fits[i - 1][1] if warm else None)
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
    assert all(bound.arguments.get("start") is None for bound, _ in fits)
