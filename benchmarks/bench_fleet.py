"""Bench: fleet throughput scaling + p99 latency SLO + overload shedding.

Serves the bench ConvNet (GTSRB geometry) through four regimes and writes
``benchmarks/results/BENCH_fleet.json``:

* ``single_replica`` — what ``repro-study serve --replicas 1`` runs: a
  fleet of one in-process thread replica (``auto`` backend) at chunk 32,
  closed-loop clients;
* ``fleet`` / ``fleet_thread`` — ``FLEET_REPLICAS`` process / thread
  replicas behind the router, same schedule, same closed-loop concurrency.
  The router's chunk (32) is each replica's forward batch; shared-memory
  weights mean the replicas cost one copy of the arrays, and process
  replicas sidestep the GIL;
* ``overload`` — an under-provisioned, deliberately slowed fleet driven
  far past capacity: admission control must shed the excess *immediately*
  (429-path) while every accepted request still completes.

The first three regimes run ``RUNS`` times each; a row records the run
with the median throughput plus every run's throughput (``runs_rps``), and
``speedup`` / ``speedup_thread`` compare median throughputs.

Gates:

- **p99 SLO (always enforced)** — fleet p99 must stay within
  ``SLO_P99_MS`` and no accepted request may be lost, in every run of both
  fleet backends and in the overload phase.  Latency is a correctness property of the
  admission design, not a hardware lottery: a bounded queue plus shedding
  keeps p99 flat no matter the offered load.
- **>= 3x single-replica throughput (multicore only)** — enforced when
  ``REPRO_BENCH_ENFORCE_SPEEDUP=1`` and >= 4 cores are present (the CI
  fleet-smoke job); recorded but not gated on the 1-core containers where
  four replicas time-slice one core.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench_common import write_bench_json
from repro.models.registry import build_model
from repro.serve import FleetSettings, ModelKey, ModelRegistry, ServingFleet
from tests.serve.loadgen import FleetTarget, make_schedule, run_closed_loop

GATE_MIN_SPEEDUP = 3.0
SLO_P99_MS = 500.0
FLEET_REPLICAS = 4
RUNS = 3

KEY = ModelKey(model="convnet", dataset="gtsrb")
N_REQUESTS = 512
CONCURRENCY = 32
CLIENTS = tuple(f"client-{i}" for i in range(8))


def _registry() -> ModelRegistry:
    registry = ModelRegistry()
    module = build_model("convnet", image_shape=(3, 16, 16), num_classes=43, seed=0)
    registry.register_module(KEY, module)
    return registry


def _inputs() -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal((64, 3, 16, 16)).astype(np.float32)


def _schedule(n: int = N_REQUESTS, rate: float = 10_000.0, seed: int = 0):
    return make_schedule(
        n, rate=rate, clients=CLIENTS, samples=64, seed=seed
    )


def _median_row(runs: "list[dict]") -> dict:
    """The median-throughput run, plus every run's throughput."""
    row = dict(sorted(runs, key=lambda r: r["throughput_rps"])[len(runs) // 2])
    row["runs_rps"] = [r["throughput_rps"] for r in runs]
    return row


def _bench_single_replica(inputs: np.ndarray) -> dict:
    with ServingFleet(_registry(), FleetSettings(replicas=1, chunk=32)) as fleet:
        fleet.predict(KEY, inputs[:32])  # warm-up
        target = FleetTarget(fleet, KEY, inputs, timeout_s=60.0)
        report = run_closed_loop(target, _schedule(), concurrency=CONCURRENCY)
        backend = fleet.describe()["backend"]
    assert report.lost == 0 and report.errors == 0, report.summary()
    return {**report.summary(), "replicas": 1, "backend": backend}


def _bench_fleet(inputs: np.ndarray, backend: str) -> dict:
    settings = FleetSettings(
        replicas=FLEET_REPLICAS,
        backend=backend,
        max_queue=8192,
        chunk=32,
        replica_cap=64,
    )
    with ServingFleet(_registry(), settings) as fleet:
        fleet.predict(KEY, inputs[:16])  # warm-up (all replicas reachable)
        target = FleetTarget(fleet, KEY, inputs, timeout_s=60.0)
        report = run_closed_loop(target, _schedule(seed=1), concurrency=CONCURRENCY)
        described = fleet.describe()
    assert report.lost == 0 and report.errors == 0, report.summary()
    summary = report.summary()
    summary["replicas"] = FLEET_REPLICAS
    summary["backend"] = described["backend"]
    summary["evictions"] = described["evictions"]
    return summary


def _bench_overload(inputs: np.ndarray) -> dict:
    """Drive a slowed 1-replica fleet far past capacity; shedding must hold."""
    # Bounded admission is what makes the p99 SLO hold under any offered
    # load: accepted backlog <= max_queue + replica_cap = 24 requests, and
    # at ~80 req/s capacity that is a ~300 ms worst case — inside the SLO.
    settings = FleetSettings(
        replicas=1,
        backend="thread",
        max_queue=16,
        chunk=4,
        replica_cap=8,
    )
    with ServingFleet(_registry(), settings) as fleet:
        fleet.predict(KEY, inputs[0])  # warm-up
        fleet.slow_replica(0, delay_s=0.05)  # ~80 req/s capacity
        target = FleetTarget(fleet, KEY, inputs, timeout_s=60.0)
        schedule = _schedule(n=256, rate=20_000.0, seed=2)
        report = run_closed_loop(target, schedule, concurrency=64)
    summary = report.summary()
    assert report.shed > 0, f"overload never shed: {summary}"
    assert report.lost == 0 and report.errors == 0, summary
    assert report.ok == report.accepted, summary
    return summary


def _enforce_speedup() -> bool:
    return os.environ.get("REPRO_BENCH_ENFORCE_SPEEDUP") == "1" and (
        os.cpu_count() or 1
    ) >= 4


def test_fleet_perf():
    inputs = _inputs()
    runs = [  # interleaved, so host drift hits every regime alike
        (_bench_single_replica(inputs), _bench_fleet(inputs, "auto"),
         _bench_fleet(inputs, "thread"))
        for _ in range(RUNS)
    ]
    single_runs, fleet_runs, thread_runs = (list(rows) for rows in zip(*runs))
    single, fleet, fleet_thread = map(_median_row, (single_runs, fleet_runs, thread_runs))
    overload = _bench_overload(inputs)
    speedup, speedup_thread = (
        row["throughput_rps"] / single["throughput_rps"]
        if single["throughput_rps"] else 0.0
        for row in (fleet, fleet_thread)
    )
    payload = {
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "slo_p99_ms": SLO_P99_MS,
        "speedup_enforced": _enforce_speedup(),
        "model": KEY.id,
        "requests": N_REQUESTS,
        "concurrency": CONCURRENCY,
        "replicas": FLEET_REPLICAS,
        "runs": RUNS,
        "single_replica": single,
        "fleet": fleet,
        "fleet_thread": fleet_thread,
        "overload": overload,
        "speedup": round(speedup, 3),
        "speedup_thread": round(speedup_thread, 3),
    }
    out = write_bench_json("BENCH_fleet.json", "fleet", payload)
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {out}]")

    # The SLO gate is unconditional: bounded admission keeps p99 flat even
    # on starved hardware, and overload answers (shed or served) promptly.
    # Every fleet run is gated, not just the median rows recorded above.
    for row in (*fleet_runs, *thread_runs, overload):
        assert row["p99_ms"] <= SLO_P99_MS, (row, payload)
        assert row["lost"] == 0, (row, payload)
    if _enforce_speedup():
        assert speedup >= GATE_MIN_SPEEDUP, payload
