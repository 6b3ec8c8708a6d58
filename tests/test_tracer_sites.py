"""The benchmark's tracer must find every function it wraps.

`benchmarks/tracing.py` replaces each (module, attribute) in its SITES with a
timed wrapper, looking the attribute up in the owner's own __dict__. A
refactor that renames a function, or drops an import a site names (say
`entropic.cli.load_wav`), would otherwise break `run.py --trace 1` only.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


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
