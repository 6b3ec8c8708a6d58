"""Time a fixed amount of interpreter-bound work, to measure how fast the machine runs now.

    python3 benchmarks/calibrate.py      # prints the seconds the work took

On a shared virtual machine the speed of a core changes by up to 1.5x over
minutes, as other tenants come and go; every measured time moves with it.
The work here does not depend on the program under test and is the same
kind as the program's hot loops: a Python sweep that merges runs of
neighbours (as the barcode does) and a loop of small NumPy operations (as
SMO does). run.py times it between passes and scales the times it reports
by how much slower or faster than usual this work ran in the same run.
"""

from __future__ import annotations

import time

import numpy as np

SWEEP_N = 300_000
SMO_STEPS = 6_000


def sweep(n: int) -> int:
    """Add vertices in a fixed scrambled order, merging adjacent runs; returns the merge count."""
    run_at: list[list[int] | None] = [None] * n
    merges = 0
    for v in ((i * 7919) % n for i in range(n)):
        left = run_at[v - 1] if v > 0 else None
        right = run_at[v + 1] if v < n - 1 else None
        if left is None and right is None:
            run_at[v] = [v, v]
        elif right is None:
            left[1] = v
            run_at[v] = left
        elif left is None:
            right[0] = v
            run_at[v] = right
        else:
            left[0], left[1] = min(left[0], right[0]), max(left[1], right[1])
            run_at[left[0]] = run_at[left[1]] = run_at[v] = left
            merges += 1
    return merges


def smo_steps(steps: int) -> float:
    """Steps shaped like the SMO working-set selection and update on 64 points."""
    rng = np.random.default_rng(0)
    K = rng.standard_normal((64, 64))
    y = np.sign(rng.standard_normal(64))
    alpha = np.zeros(64)
    f = np.zeros(64)
    for _ in range(steps):
        up = ((y > 0) & (alpha < 1.0)) | ((y < 0) & (alpha > 0.0))
        viol = y - f
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(up, np.inf, viol)))
        alpha[i] = min(1.0, alpha[i] + 1e-3)
        f += 1e-4 * (K[:, i] - K[:, j])
    return float(f.sum())


def measure() -> float:
    t0 = time.perf_counter()
    sweep(SWEEP_N)
    smo_steps(SMO_STEPS)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(measure()))
