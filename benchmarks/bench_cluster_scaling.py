"""Bench: sweep scaling on the lease engine.

A 16-cell grid runs serially and through :class:`ParallelExecutor` (the
engine behind ``--jobs N`` and ``--cluster``) at 1, 2 and 4 workers, and the
timings feed ``BENCH_cluster_scaling.json``.  Result payloads must be
identical across every run.  Speedups are hardware-dependent (a single-core
container shows ~1×), so the gates (≥1.8× at 2 workers over 1, 1-worker
overhead over serial ≤5%) only fail the bench when
``REPRO_BENCH_ENFORCE_SPEEDUP=1`` (set by the CI cluster job on multi-core
runners).  The bench sets no BLAS thread count; it records the variables as
it found them, since a worker's default BLAS pool can oversubscribe cores.
"""

from __future__ import annotations

import json
import os
import time

from bench_common import write_bench_json
from repro.experiments import (
    ParallelExecutor,
    ScaleSettings,
    SerialExecutor,
    plan_study,
    results_equivalent,
    run_study_plan,
)
from repro.faults import FaultType

#: Small enough for a bench, with 16 cells so workers have enough
#: independent units to overlap.
TINY = ScaleSettings(
    name="bench-tiny",
    dataset_sizes={"pneumonia": (60, 40), "gtsrb": (86, 43)},
    epochs=4,
    batch_size=16,
    repeats=1,
    seed=7,
)

GRID = dict(
    models=("convnet",),
    datasets=("pneumonia", "gtsrb"),
    fault_types=(FaultType.MISLABELLING, FaultType.REMOVAL),
    rates=(0.1, 0.2, 0.3, 0.4),
    techniques=["baseline"],
)  # 2 datasets × 2 faults × 4 rates = 16 cells

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _enforce_speedups() -> bool:
    return os.environ.get("REPRO_BENCH_ENFORCE_SPEEDUP") == "1" and (
        os.cpu_count() or 1
    ) >= 2


def _run(executor) -> tuple[float, list]:
    """Cold-run the grid on ``executor``; returns (seconds, results)."""
    plan = plan_study(scale=TINY, **GRID)
    start = time.perf_counter()
    report = run_study_plan(plan, executor=executor)
    elapsed = time.perf_counter() - start
    assert report.ok and len(report.results) == len(plan)
    return elapsed, report.results


def test_cluster_scaling_trajectory():
    # Disk caching would let later runs replay earlier training and fake
    # the scaling curve; force cold runs.
    os.environ.pop("REPRO_CACHE_DIR", None)

    # One untimed sweep first: the process that runs first pays allocator
    # and cpu-frequency warm-up that would skew whichever measured run led.
    _run(SerialExecutor())

    serial_s, serial_results = _run(SerialExecutor())
    seconds = {}
    for workers in (1, 2, 4):
        seconds[workers], results = _run(ParallelExecutor(jobs=workers))
        # Scheduling must never change the science.
        assert results_equivalent(serial_results, results)

    one_s, two_s = seconds[1], seconds[2]
    speedup = round(one_s / two_s, 3)
    overhead_vs_serial = round(one_s / serial_s - 1.0, 3)

    payload = {
        "scale": TINY.name,
        "grid_cells": len(plan_study(scale=TINY, **GRID)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "serial_seconds": round(serial_s, 3),
        "points": [
            {"workers": workers, "seconds": round(s, 3),
             "speedup_vs_serial": round(serial_s / s, 3)}
            for workers, s in seconds.items()
        ],
        "speedup_at_2_workers": speedup,
        "overhead_vs_serial_at_1_worker": overhead_vs_serial,
        "speedup_enforced": _enforce_speedups(),
    }
    out = write_bench_json("BENCH_cluster_scaling.json", "cluster_scaling", payload)
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {out}]")

    if _enforce_speedups():
        assert speedup >= 1.8, (
            f"2-worker cluster sweep only {speedup}× faster than 1 worker"
        )
        assert overhead_vs_serial <= 0.05, (
            f"1-worker sweep {overhead_vs_serial:+.1%} vs serial (budget: +5%)"
        )


if __name__ == "__main__":
    test_cluster_scaling_trajectory()
