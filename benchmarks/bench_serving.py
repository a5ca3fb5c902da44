"""Bench: micro-batched serving throughput vs single-request inference.

Serves a ConvNet (GTSRB geometry) through what ``repro-study serve
--replicas 1`` runs — a :class:`~repro.serve.ServingFleet` of one
in-process thread replica — in two regimes and writes
``benchmarks/results/BENCH_serving.json``:

* ``single_request`` — a sequential client, one sample per request, the
  router's chunk capped at 1: every forward pass carries the full per-call
  overhead (plan replay, router and replica thread hops);
* ``micro_batched`` — concurrent clients streaming samples into the same
  kind of fleet with chunk 32: one forward pass per chunk amortises that
  overhead across the chunk while row-stable kernels keep every response
  bitwise-identical to the single-request answers.

Both regimes report throughput and per-request p50/p95/p99 latency.  The
percentiles come from the same :class:`repro.telemetry.Histogram` +
:func:`latency_summary_ms` pair that backs the fleet's ``/stats``
endpoint, so the bench numbers and the live endpoint agree by
construction.  The gate requires micro-batching to reach >= 3x the
single-request throughput (raw batch-32 forwards measured ~5x per sample
with eager forwards and ~3.4x with forward plans, which cut the per-call
overhead batching amortises; the sequential client's two thread hops per
request widen the margin).

A third table, ``forward_ms``, times one forward per registry network at
batch 1 and 8 two ways: the eager forward ``predict_logits`` ran before
forward plans, and the plan replay it runs now.  Blocks of
``FORWARD_CALLS`` calls alternate between the two, ``FORWARD_REPEATS``
times; each cell reports the median and the min–max spread of the per-call
milliseconds, plus the bytes the plan's liveness arena holds.  Both paths
must return the same bits.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from bench_common import write_bench_json
from repro.models.registry import build_model, model_names
from repro.nn import Tape, Tensor, compile_forward, no_grad, row_stable_inference, tape_scope
from repro.serve import FleetSettings, ModelKey, ModelRegistry, ServableModel, ServingFleet
from repro.telemetry import Histogram, latency_summary_ms

GATE_MIN_SPEEDUP = 3.0

KEY = ModelKey(model="convnet", dataset="gtsrb")
N_SAMPLES = 256
CLIENTS = 8

FORWARD_BATCHES = (1, 8)
FORWARD_REPEATS = 7
FORWARD_CALLS = 20


def _latency_summary(latencies_ms: "list[float]") -> dict:
    """p50/p95/p99 via the fleet's own histogram machinery (``/stats``)."""
    hist = Histogram("bench_request_latency_seconds")
    for ms in latencies_ms:
        hist.observe(ms / 1e3)
    return latency_summary_ms(hist)


def _make_fleet(chunk: int) -> ServingFleet:
    """A fleet of one (``auto`` runs it as a thread) that never sheds the bench."""
    registry = ModelRegistry()
    module = build_model("convnet", image_shape=(3, 16, 16), num_classes=43, seed=0)
    registry.register_module(KEY, module)
    return ServingFleet(registry, FleetSettings(replicas=1, chunk=chunk, max_queue=N_SAMPLES))


def _inputs() -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal((N_SAMPLES, 3, 16, 16)).astype(np.float32)


def _bench_single_request(x: np.ndarray) -> dict:
    """Sequential client, one sample per request, no coalescing possible."""
    latencies: list[float] = []
    with _make_fleet(chunk=1) as fleet:
        fleet.predict(KEY, x[0])  # warm-up
        started = time.perf_counter()
        for sample in x:
            t0 = time.perf_counter()
            fleet.predict(KEY, sample)
            latencies.append((time.perf_counter() - t0) * 1e3)
        elapsed = time.perf_counter() - started
        stats = fleet.stats_snapshot()
    return {
        "throughput_per_s": round(len(x) / elapsed, 1),
        **_latency_summary(latencies),
        "mean_batch": stats["mean_batch"],
    }


def _bench_micro_batched(x: np.ndarray) -> dict:
    """Concurrent clients streaming samples; the router chunks them."""
    per_client = len(x) // CLIENTS
    latencies: list[float] = []
    lock = threading.Lock()
    with _make_fleet(chunk=32) as fleet:
        fleet.predict(KEY, x[:32])  # warm-up

        def client(shard: np.ndarray) -> None:
            # Stream: submit everything, then collect — the open-loop load
            # pattern that keeps a queue for the router to chunk.
            submitted = [
                (time.perf_counter(), fleet.submit(KEY, sample))
                for sample in shard
            ]
            times = []
            for t0, future in submitted:
                future.result(timeout=30)
                times.append((time.perf_counter() - t0) * 1e3)
            with lock:
                latencies.extend(times)

        threads = [
            threading.Thread(target=client, args=(x[i * per_client:(i + 1) * per_client],))
            for i in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = fleet.stats_snapshot()
        max_batch = fleet.metrics.get("fleet_batch_size").max
    return {
        "throughput_per_s": round(CLIENTS * per_client / elapsed, 1),
        **_latency_summary(latencies),
        "mean_batch": stats["mean_batch"],
        "max_batch": int(max_batch),
        "fleet_latency_ms": stats["latency_ms"],
        "clients": CLIENTS,
    }


def _spread(samples: "list[float]") -> dict:
    return {
        "median": round(float(np.median(samples)), 4),
        "min": round(min(samples), 4),
        "max": round(max(samples), 4),
    }


def _plan_bytes(module, x: np.ndarray) -> int:
    """Bytes one plan of ``module`` at ``x``'s shape holds after its first run."""
    tape = Tape(forward_only=True)
    with no_grad(), row_stable_inference(), tape_scope(tape):
        logits = module(Tensor(x))
    plan = compile_forward(tape, x, logits)
    plan.run(x)
    return plan.nbytes


def _bench_forward_table() -> "list[dict]":
    """Eager forward vs plan replay, per registry network and batch size."""
    rows = []
    for name in model_names(include_extensions=True):
        shape = (12,) if name == "mlp" else (3, 16, 16)
        module = build_model(name, image_shape=shape, num_classes=43, seed=0)
        servable = ServableModel(ModelKey(model=name, dataset="gtsrb"), module)
        for batch in FORWARD_BATCHES:
            x = np.random.default_rng(batch).standard_normal((batch, *shape)).astype(np.float32)

            def eager() -> np.ndarray:
                with no_grad(), row_stable_inference():
                    return module(Tensor(x)).data

            def planned() -> np.ndarray:
                return servable.predict_logits(x)

            planned()  # records and plans this shape
            assert np.array_equal(planned().view(np.uint32), eager().view(np.uint32)), name
            times: "dict[str, list[float]]" = {"eager": [], "plan": []}
            for _ in range(FORWARD_REPEATS):
                for label, forward in (("eager", eager), ("plan", planned)):
                    started = time.perf_counter()
                    for _ in range(FORWARD_CALLS):
                        forward()
                    times[label].append((time.perf_counter() - started) / FORWARD_CALLS * 1e3)
            eager_ms, plan_ms = _spread(times["eager"]), _spread(times["plan"])
            rows.append({
                "model": name,
                "batch": batch,
                "eager_ms": eager_ms,
                "plan_ms": plan_ms,
                "speedup": round(eager_ms["median"] / plan_ms["median"], 3),
                "plan_bytes": _plan_bytes(module, x),
            })
    return rows


def test_serving_perf():
    x = _inputs()
    single = _bench_single_request(x)
    batched = _bench_micro_batched(x)
    speedup = batched["throughput_per_s"] / single["throughput_per_s"]
    forward = _bench_forward_table()
    payload = {
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "model": KEY.id,
        "samples": N_SAMPLES,
        "single_request": single,
        "micro_batched": batched,
        "speedup": round(speedup, 3),
        "forward_repeats": FORWARD_REPEATS,
        "forward_calls": FORWARD_CALLS,
        "forward_ms": forward,
    }
    out = write_bench_json("BENCH_serving.json", "serving", payload)
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {out}]")

    assert speedup >= GATE_MIN_SPEEDUP, payload
