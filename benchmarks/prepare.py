"""Prepare one benchmark run: generate the seeded inputs and the reference outputs.

    python3 benchmarks/prepare.py WORKLOAD SEED CACHE_DIR WORK_DIR

Runs in its own interpreter so that the orchestrating process stays small:
a child inherits its parent's resident-set high-water mark across fork and
exec, which would otherwise leak into the measured peak RSS of the program.
The reference of `corpus_wav` and `table_svm` is the output of the same
commands run in this process at --jobs 1 (the untraced pass of
tracing.py); that of `signals_long` is every signal's bar count and entropy
from the library. It is built anew on every run, so it always comes from the
program under test. Writes the input directory, the generation and reference
times, the reference and the oracle checks to WORK_DIR/prepare.json. Exits
with code 3 when the checkout has no program to benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import inputs
from workloads import LONG_LEN

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def load_program() -> None:
    """Import the checkout's own program, or exit with code 3."""
    if not (SRC / "entropic" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'entropic'} is missing", file=sys.stderr)
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    import entropic

    if Path(entropic.__file__).resolve().parent != (SRC / "entropic").resolve():
        print(f"error: imported entropic from {entropic.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(3)


def in_process_reference(workload: str, data: Path, work: Path) -> dict:
    """The output files of the workload's commands run in this process at --jobs 1."""
    import tracing
    import workloads

    out = work / "reference"
    tracing.run_pass(workload, data, out, work / "reference.json", trace=False)
    exit_codes = json.loads((work / "reference.json").read_text())["exit_codes"]
    return {"files": workloads.snapshot(out), "exit_codes": exit_codes}


def signals_reference(data: Path) -> dict:
    """Bars and entropy of every signal, and the barcode CSV, computed in this process by the library."""
    from entropic.persistence import barcode_to_csv, persistent_entropy, signal_barcode
    from entropic.signal import load_csv_signal

    values = {}
    for path in sorted(str(p) for p in data.glob("*.csv")):
        b = signal_barcode(load_csv_signal(path), LONG_LEN)
        values[path] = [len(b), repr(persistent_entropy(b))]
    barcode = barcode_to_csv(signal_barcode(load_csv_signal(data / "alternating_long_a.csv"), LONG_LEN))
    return {"entropies": values, "barcode.csv": barcode}


def oracle_checks(data: Path) -> list[tuple[str, bool]]:
    """Does the fast barcode equal the brute-force oracle on a 4096-sample prefix of every shape?"""
    from entropic.persistence import barcode_bruteforce_oracle, lower_star_barcode
    from entropic.signal import Signal, canonicalize, load_csv_signal

    results = []
    for path in sorted(data.glob("*_short.csv")):
        c = canonicalize(Signal(load_csv_signal(path).samples[:4096]))
        results.append((path.name, lower_star_barcode(c).as_multiset() == barcode_bruteforce_oracle(c).as_multiset()))
    return results


def warm_page_cache(data: Path) -> None:
    for path in data.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                while fh.read(1 << 20):
                    pass


def prepare(workload: str, seed: int, cache: Path, work: Path) -> dict:
    """Inputs come from the cache when the seed repeats; the reference is built anew on every run."""
    t0 = time.perf_counter()
    data = getattr(inputs, workload)(cache, seed)
    generate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    if workload == "signals_long":
        reference = signals_reference(data)
    else:
        reference = in_process_reference(workload, data, work)
    oracle = oracle_checks(data) if workload == "signals_long" else []
    warm_page_cache(data)
    return {"data": str(data), "generate_s": generate_s, "reference_s": time.perf_counter() - t0,
            "reference": reference, "oracle": oracle}


if __name__ == "__main__":
    load_program()
    workload, seed, cache, work = sys.argv[1:5]
    result = prepare(workload, int(seed), Path(cache), Path(work))
    (Path(work) / "prepare.json").write_text(json.dumps(result))
