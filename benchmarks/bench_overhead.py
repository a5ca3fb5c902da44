"""Bench: runtime overhead analysis (paper §IV-E).

The paper reports: inference overhead 1× for every technique except
ensembles (5×, five models); training overhead lowest for label smoothing
(~1×), ~1.5× for knowledge distillation, high for label correction, and
highest (~5×) for ensembles.
"""

from __future__ import annotations

import time

from bench_common import write_bench_json
from repro.experiments import ExperimentRunner, overhead_table, render_overheads, run_resilient_study
from repro.faults import FaultType
from repro.telemetry import read_trace, validate_trace


def test_overhead_multipliers(benchmark, runner, save_result):
    overheads = benchmark.pedantic(
        overhead_table,
        args=(runner,),
        kwargs={"dataset": "gtsrb", "model": "convnet", "fault_rate": 0.1},
        rounds=1,
        iterations=1,
    )

    # Label smoothing: cheapest protection (~1x training, 1x inference).
    ls = overheads["label_smoothing"]
    assert ls.training_overhead < 2.0
    assert 0.3 < ls.inference_overhead < 3.0

    # Knowledge distillation: teacher + early-stopped student (between 1.2x
    # and ~2.5x training), no inference overhead.
    kd = overheads["knowledge_distillation"]
    assert 1.2 < kd.training_overhead < 3.0

    # Label correction: costlier than label smoothing (secondary model).
    assert overheads["label_correction"].training_overhead > ls.training_overhead

    # Ensembles: by far the highest training cost (five diverse models, some
    # much deeper than the baseline convnet) and ~5x inference cost.
    ens = overheads["ensemble"]
    assert ens.training_overhead > 4.0
    assert ens.inference_overhead > 2.5

    save_result("overhead", render_overheads(overheads))


def test_telemetry_overhead(tmp_path):
    """Tracing a sweep must cost well under 5% wall-clock.

    Runs the same small study grid twice on fresh runners (no disk cache, so
    both runs really train), once untraced and once tracing to a JSONL file,
    and records the comparison in ``benchmarks/results/BENCH_telemetry_overhead.json``.
    """
    grid = dict(
        models=("convnet",),
        datasets=("pneumonia",),
        fault_types=(FaultType.MISLABELLING, FaultType.REMOVAL),
        rates=(0.1, 0.3),
        techniques=["baseline", "label_smoothing"],
    )  # 8 cells

    def sweep(trace=None):
        start = time.perf_counter()
        report = run_resilient_study(ExperimentRunner("smoke"), trace=trace, **grid)
        assert report.ok
        return time.perf_counter() - start

    sweep()  # warm-up: page caches, numpy init, dataset synthesis paths
    trace_path = tmp_path / "trace.jsonl"
    off_s = sweep()
    on_s = sweep(trace=trace_path)

    events = read_trace(trace_path)
    stats = validate_trace(events)
    assert stats["spans"] > 0

    overhead_frac = (on_s - off_s) / off_s
    payload = {
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "overhead_frac": round(overhead_frac, 4),
        "events": stats["events"],
        "spans": stats["spans"],
        "cells": 8,
    }
    write_bench_json("BENCH_telemetry_overhead.json", "telemetry_overhead", payload)
    print(f"\ntelemetry overhead: off={off_s:.2f}s on={on_s:.2f}s "
          f"({100 * overhead_frac:+.1f}%), {stats['events']} events")
    # The real budget is <5%; assert with slack because single-round CI
    # timings are noisy — the JSON records the measured number.
    assert overhead_frac < 0.25


def test_kernel_tap_overhead():
    """The disabled kernel-tap path must cost < 2% of inference wall-clock.

    The tap (``repro.nn.functional.kernel_tap_scope``) is the hardware-fault
    injector's hook into every tap site's forward output.  The op registry
    reads it once per site op, right after the op's ``apply``
    (``register_op(..., site=...)`` in ``repro.nn.ops``); no kernel body
    reads it.  When no injection context is armed that is one
    execution-context read (``repro.nn.context``) per site op, and this
    bench gates that cost: forward passes with no tap installed are timed
    against forward passes under an armed *identity* tap — an upper bound
    on the disabled check, since the armed path runs the read, the branch,
    and a no-op call.  Results land in
    ``benchmarks/results/BENCH_hardware_tap_overhead.json``.
    """
    import numpy as np

    from repro.models.registry import build_model
    from repro.nn import Tensor, no_grad
    from repro.nn.functional import kernel_tap_scope

    model = build_model(
        "convnet", image_shape=(3, 16, 16), num_classes=10, seed=0
    ).eval()
    batch = np.random.default_rng(0).random((32, 3, 16, 16)).astype(np.float32)

    def forward() -> None:
        with no_grad():
            model(Tensor(batch))

    def timed_block(loops: int = 5) -> float:
        start = time.perf_counter()
        for _ in range(loops):
            forward()
        return time.perf_counter() - start

    # Interleaved min-of-N: each repeat times one disabled and one armed
    # block back to back, so a slow spell on a shared CI runner cannot land
    # on one side only.
    forward()  # warm-up: workspace allocation, numpy init
    disabled_s = armed_s = float("inf")
    for _ in range(7):
        disabled_s = min(disabled_s, timed_block())
        with kernel_tap_scope(lambda site, array: None):
            armed_s = min(armed_s, timed_block())

    overhead_frac = (armed_s - disabled_s) / disabled_s
    payload = {
        "disabled_s": round(disabled_s, 6),
        "armed_identity_s": round(armed_s, 6),
        "overhead_frac": round(overhead_frac, 6),
        "budget_frac": 0.02,
    }
    write_bench_json(
        "BENCH_hardware_tap_overhead.json", "hardware_tap_overhead", payload
    )
    print(f"\nkernel tap overhead: disabled={disabled_s:.4f}s "
          f"armed-identity={armed_s:.4f}s ({100 * overhead_frac:+.2f}%)")
    # Budget is <2%; the armed-identity comparison is an upper bound on the
    # disabled-path check, and min-of-N keeps the measurement tight.
    assert overhead_frac < 0.02


def test_metrics_overhead():
    """The disabled live-metrics path must cost < 2% of training wall-clock.

    When no registry is armed, ``get_metrics()`` returns the null singleton
    and the trainer's per-epoch instrumentation is a single ``enabled``
    check.  This bench gates that cost the same way the kernel-tap bench
    does: a fit with metrics disabled is timed against a fit under an armed
    :class:`MetricsRegistry` — an upper bound on the disabled check, since
    the armed path also pays the counter increments and histogram
    observations.  Results land in
    ``benchmarks/results/BENCH_metrics_overhead.json``.
    """
    import numpy as np

    from repro.models.registry import build_model
    from repro.nn import Adam, CrossEntropy, Trainer
    from repro.telemetry import MetricsRegistry, metrics_scope

    rng = np.random.default_rng(0)
    n, classes = 512, 10
    x = rng.standard_normal((n, 3, 16, 16)).astype(np.float32)
    y = np.eye(classes, dtype=np.float32)[rng.integers(0, classes, n)]

    def fit() -> None:
        model = build_model("convnet", image_shape=(3, 16, 16), num_classes=classes, seed=0)
        trainer = Trainer(model, CrossEntropy(), Adam(model.parameters(), lr=0.01),
                          epochs=3, batch_size=32, rng=np.random.default_rng(0))
        trainer.fit(x, y)

    def timed_fit() -> float:
        start = time.perf_counter()
        fit()
        return time.perf_counter() - start

    # Interleaved min-of-N: each round times both modes back to back, so
    # machine drift on a shared CI runner cannot bias one side.
    fit()  # warm-up: workspace allocation, numpy init
    disabled_s = armed_s = float("inf")
    for _ in range(5):
        disabled_s = min(disabled_s, timed_fit())
        with metrics_scope(MetricsRegistry()):
            armed_s = min(armed_s, timed_fit())

    overhead_frac = (armed_s - disabled_s) / disabled_s
    payload = {
        "disabled_s": round(disabled_s, 6),
        "armed_registry_s": round(armed_s, 6),
        "overhead_frac": round(overhead_frac, 6),
        "budget_frac": 0.02,
    }
    write_bench_json("BENCH_metrics_overhead.json", "metrics_overhead", payload)
    print(f"\nmetrics overhead: disabled={disabled_s:.4f}s "
          f"armed-registry={armed_s:.4f}s ({100 * overhead_frac:+.2f}%)")
    # Budget is <2%; the armed-registry comparison is an upper bound on the
    # disabled-path check, and min-of-N keeps the measurement tight.
    assert overhead_frac < 0.02
