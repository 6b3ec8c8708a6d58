"""Run the entropic benchmark on one workload, or on all of them.

    python3 benchmarks/run.py --workload corpus_wav --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py [--trace 1]      # every workload; per-layer metrics with --trace 1

The program is the `entropic` CLI of the checkout this file sits in (its
`src/`), started as a fresh interpreter per command, exactly as the installed
console script would start it. Inputs are generated from --seed below
`.bench_cache/`. With --trace 0 the workload's commands are timed in passes,
one client in a closed loop, until --seconds have elapsed; with --trace 1 one
untraced and one traced in-process pass run at --jobs 1 and per-layer metrics
are reported. The end-to-end times are scaled by a calibration that tracks
the speed of the shared machine (see timed_passes and calibrate.py).
Every pass's outputs are checked; a failed check counts as a failed operation.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

# name -> (unit, better, regression bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

CLI = "import sys; from entropic.cli import main; sys.exit(main())"
SETUP_STARTS_FIRST = 3  # set-up starts before the first pass, then SETUP_STARTS_AFTER after each
SETUP_STARTS_AFTER = 1
COMMAND_TIMEOUT_S = 150
# What calibrate.py takes when the machine runs at its usual speed. Times are
# reported in seconds of a machine on which it takes exactly this long (see
# timed_passes); the constant sets only the scale and never changes.
CALIBRATION_REF_S = 0.4


# One thread per process in the numeric libraries: with --jobs 2 on two cores,
# each worker's BLAS threads would otherwise contend with the other worker, and
# their spin-waiting shows as noise in wall and CPU time.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """The environment for the program: its source on the path, no ENTROPIC_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENTROPIC_")}
    env.update(SINGLE_THREADED, PYTHONPATH=str(SRC))
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run a process tree to completion.

    Returns its exit code, wall seconds, CPU seconds (user + system, all
    reaped descendants included) and the largest resident set of any process
    in the tree in MB, from wait4's resource usage.
    """
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=fh, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def in_process_pass(workload: str, data: Path, out: Path, trace: bool, checks) -> dict:
    """One in-process pass at --jobs 1 in a fresh interpreter; returns its result document."""
    fresh_dir(out)
    result = out.parent / f"{out.name}.json"
    code, _, _, _ = run_process([sys.executable, str(HERE / "tracing.py"), workload, str(data), str(out),
                                 str(result), "1" if trace else "0"], out.parent / f"{out.name}.log")
    checks.expect(code == 0, f"in-process pass exited with {code}")
    doc = json.loads(result.read_text()) if code == 0 else {"wall_ns": 1, "exit_codes": [code]}
    checks.count(len(doc["exit_codes"]), sum(c != 0 for c in doc["exit_codes"]), "in-process commands failed")
    return doc


def prepare(workload: str, seed: int, work: Path, checks) -> dict:
    """Generate the inputs and build the reference outputs in a child process (see prepare.py)."""
    code, _, _, _ = run_process([sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(CACHE),
                                 str(work)], work / "prepare.log")
    if code == 3:
        sys.exit((work / "prepare.log").read_text().strip())
    if code != 0:
        sys.exit(f"error: preparing {workload} failed; see {work / 'prepare.log'}")
    prepared = json.loads((work / "prepare.json").read_text())
    exit_codes = prepared["reference"].get("exit_codes", [])
    checks.count(len(exit_codes), sum(c != 0 for c in exit_codes), "in-process reference commands failed")
    for name, ok in prepared["oracle"]:
        checks.expect(ok, f"barcode of {name}[:4096] differs from the oracle")
    return prepared


def setup_starts(n: int, log: Path, checks) -> list[float]:
    """Wall times of n fresh-interpreter starts of `entropic --help`."""
    times = []
    for _ in range(n):
        code, wall, _, _ = run_process([sys.executable, "-c", CLI, "--help"], log)
        checks.expect(code == 0, f"entropic --help exited with {code}")
        times.append(wall)
    return times


def calibration() -> float:
    """Mean seconds the fixed work of calibrate.py took just now, run at once on each core.

    One copy per core: the cores of a shared machine slow down separately, and
    a pass uses both (--jobs 2 workers, or one process the scheduler moves).
    """
    procs = [subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], stdout=subprocess.PIPE, text=True,
                              env=child_env()) for _ in range(workloads.JOBS)]
    try:
        outputs = [proc.communicate(timeout=COMMAND_TIMEOUT_S)[0] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        sys.exit("error: benchmarks/calibrate.py failed")
    return statistics.mean(float(out) for out in outputs)


def timed_passes(workload: str, data: Path, work: Path, seconds: float, reference: dict, checks) -> dict:
    """Run passes of the workload's CLI commands until --seconds have elapsed.

    The clock starts after the unmeasured warm-up start and covers the passes,
    the set-up starts and the calibrations. Set-up starts and calibrations are
    taken before the first pass and after every pass, so that their medians
    cover the same stretch of time as the passes. Every metric is the median
    over passes. Times are then scaled by CALIBRATION_REF_S over the median
    calibration: the machine's speed drifts by up to 1.5x over minutes on a
    shared host, and the scaled times cancel most of that drift, while the
    program's own speed, which the calibration does not depend on, shows in
    full.
    """
    n_items = workloads.items(workload, data)
    walls, cpus, rsses, accuracies = [], [], [], []
    setup_log = work / "setup.log"
    setup_starts(1, setup_log, checks)  # not counted: fills the page cache
    deadline = time.perf_counter() + seconds
    setups = setup_starts(SETUP_STARTS_FIRST, setup_log, checks)
    calibrations = [calibration()]
    while not walls or time.perf_counter() < deadline:
        out = fresh_dir(work / "pass")
        log = work / "pass.log"
        log.unlink(missing_ok=True)
        cpu = rss = 0.0
        t0 = time.perf_counter()
        for argv in workloads.commands(workload, data, out, jobs=workloads.JOBS):
            code, _, c, r = run_process([sys.executable, "-c", CLI, *argv], log)
            cpu += c
            rss = max(rss, r)
            checks.expect(code == 0, f"`entropic {argv[0]}` exited with {code}")
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu)
        rsses.append(rss)
        if workload == "corpus_wav":
            checks.count(n_items, log.read_text(errors="replace").count("warning: "), "per-file failures")
        accuracies.append(workloads.check_outputs(workload, out, reference, checks))
        setups += setup_starts(SETUP_STARTS_AFTER, setup_log, checks)
        calibrations.append(calibration())
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(n_items / w for w in walls),
        "cpu_s": statistics.median(cpus),
    }
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    return {
        "walls": walls,
        "accuracy": accuracies[0],
        "calibration_s": statistics.median(calibrations),
        "raw": raw,
        "metrics": {
            "setup_s": raw["setup_s"] * scale,
            "wall_s": raw["wall_s"] * scale,
            "items_per_s": raw["items_per_s"] / scale,
            "cpu_s": raw["cpu_s"] * scale,
            "peak_rss_mb": statistics.median(rsses),
        },
    }


def traced_run(workload: str, data: Path, work: Path, reference: dict, checks) -> dict[str, float]:
    """An untraced and a traced in-process pass; per-layer metrics from the traced one."""
    plain = in_process_pass(workload, data, work / "untraced", False, checks)
    traced = in_process_pass(workload, data, work / "traced", True, checks)
    workloads.check_outputs(workload, work / "untraced", reference, checks)
    accuracy = workloads.check_outputs(workload, work / "traced", reference, checks)
    if "spans" not in traced:
        return {name: 0.0 for name in tracing.PER_LAYER}
    metrics = tracing.layer_metrics(traced, plain["wall_ns"], accuracy)
    checks.expect(metrics["dataset.failures"] == 0, "per-file failures in the traced pass")
    if workload == "table_svm":
        checks.expect(metrics["svm.train_binary.calls"] == workloads.items(workload, data),
                      "binary fits differ from the count fixed by the configuration")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks = workloads.Checks()
    work = fresh_dir(CACHE / "runs" / workload)
    prepared = prepare(workload, seed, work, checks)
    data, reference = Path(prepared["data"]), prepared["reference"]
    info = {"generate_s": prepared["generate_s"], "reference_s": prepared["reference_s"]}
    if trace:
        metrics = traced_run(workload, data, work, reference, checks)
    else:
        timed = timed_passes(workload, data, work, seconds, reference, checks)
        metrics = timed["metrics"]
        info["passes"] = len(timed["walls"])
        info["pass_wall_s"] = timed["walls"]
        info["calibration_s"] = timed["calibration_s"]
        info.update({f"unscaled {name}": value for name, value in timed["raw"].items()})
        info["accuracy_mean"] = timed["accuracy"]
    return {"workload": workload, "checks": checks, "metrics": metrics, "info": info}


def report(result: dict, trace: bool) -> None:
    """Print every metric by name with its unit, then the extra figures and failed checks."""
    name, metrics, checks, info = result["workload"], result["metrics"], result["checks"], result["info"]
    table = tracing.PER_LAYER if trace else END_TO_END
    for metric, value in metrics.items():
        unit, moves = table[metric][0], table[metric][2] if trace else ""
        print(f"{name:13s} {metric:42s} {value:14.6g} {unit:6s} {moves}".rstrip())
    for key, value in info.items():
        if isinstance(value, list):
            print(f"{name:13s} {'(info) ' + key:42s} " + " ".join(f"{v:.4f}" for v in value))
        elif value is not None:
            print(f"{name:13s} {'(info) ' + key:42s} {value:14.6g}")
    print(f"{name:13s} {'(info) error_rate':42s} {checks.failed / checks.attempted:14.6g} "
          f"failed/attempted = {checks.failed}/{checks.attempted} operations")
    if trace:
        layers = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        total = sum(layers.values())
        for layer, value in layers.items():
            print(f"{name:13s} {'(share) ' + layer:42s} {100 * value / total:13.1f}% of {total:.3f} s")
        print(f"{name:13s} {'(sum) layer self times incl. cli':42s} {total:14.6g} s "
              f"= trace.wall_s {metrics['trace.wall_s']:.6g} s")
    for message in checks.messages:
        print(f"{name:13s} FAILED CHECK: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        report(result, bool(args.trace))
    attempted = sum(r["checks"].attempted for r in results)
    failed = sum(r["checks"].failed for r in results)
    table = tracing.PER_LAYER if args.trace else END_TO_END
    metrics = {
        (m if len(results) == 1 else f"{r['workload']}.{m}"): {"value": v, "unit": table[m][0]}
        for r in results for m, v in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
