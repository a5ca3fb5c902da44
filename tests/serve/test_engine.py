"""Batched-equivalence and behaviour tests for the micro-batching engine.

The central claim of the serving subsystem: **batching is invisible**.  For
every coalescing the engine might choose — batch caps of 1, 3, or 8, single
or concurrent clients, one or many workers — the logits returned for a
sample are bitwise-identical to a one-at-a-time ``predict_logits`` call
through the training stack.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import BatchSettings, EngineClosedError, ServingEngine
from repro.telemetry import (
    MetricsRegistry,
    RecordingTelemetry,
    metrics_scope,
    span_tree,
    validate_trace,
)

from .conftest import KEY, NUM_CLASSES


def make_engine(registry, **kwargs) -> ServingEngine:
    defaults = dict(max_batch_size=8, max_latency_ms=2.0, workers=1)
    defaults.update(kwargs)
    return ServingEngine(registry, BatchSettings(**defaults))


class TestBatchedEquivalence:
    @pytest.mark.parametrize("max_batch_size", [1, 3, 8])
    def test_bitwise_equal_at_every_batch_cap(
        self, registry, inputs, reference, max_batch_size
    ):
        with make_engine(registry, max_batch_size=max_batch_size) as engine:
            out = engine.predict(KEY, inputs)
        np.testing.assert_array_equal(out, reference)

    def test_batches_replay_forward_plans(self, registry, inputs, reference):
        metrics = MetricsRegistry()
        with metrics_scope(metrics), make_engine(registry, workers=2) as engine:
            out = engine.predict(KEY, inputs)
        np.testing.assert_array_equal(out, reference)
        assert metrics.get("serve_forward_plans_total").value >= 1
        assert metrics.get("serve_forward_plan_fallbacks_total").value == 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_concurrent_clients_bitwise_equal(
        self, registry, inputs, reference, workers
    ):
        """Many client threads; samples coalesce across clients arbitrarily."""
        clients = 4
        per_client = len(inputs) // clients
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        with make_engine(
            registry, max_batch_size=8, max_latency_ms=5.0, workers=workers
        ) as engine:

            def client(index: int) -> None:
                shard = inputs[index * per_client : (index + 1) * per_client]
                try:
                    results[index] = engine.predict(KEY, shard)
                except BaseException as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for index in range(clients):
            np.testing.assert_array_equal(
                results[index],
                reference[index * per_client : (index + 1) * per_client],
            )

    def test_single_sample_predict(self, registry, inputs, reference):
        with make_engine(registry) as engine:
            row = engine.predict(KEY, inputs[5])
        assert row.ndim == 1
        np.testing.assert_array_equal(row, reference[5])


class TestEngineBehaviour:
    def test_batches_actually_coalesce(self, registry, inputs):
        """Pre-submitted samples must not all run as singleton batches."""
        with make_engine(registry, max_batch_size=8, max_latency_ms=20.0) as engine:
            futures = [engine.submit(KEY, sample) for sample in inputs]
            for future in futures:
                future.result(timeout=30)
            stats = engine.stats.snapshot()
        assert stats["requests"] == len(inputs)
        assert stats["max_batch"] > 1
        assert stats["batches"] < len(inputs)

    def test_batch_cap_is_respected(self, registry, inputs):
        with make_engine(registry, max_batch_size=3, max_latency_ms=20.0) as engine:
            futures = [engine.submit(KEY, sample) for sample in inputs]
            for future in futures:
                future.result(timeout=30)
            assert engine.stats.max_batch <= 3

    def test_unknown_model_fails_on_submit(self, registry, inputs):
        with make_engine(registry) as engine:
            with pytest.raises(KeyError, match="no model registered"):
                engine.submit("cifar10/vgg16/baseline/none", inputs[0])

    def test_submit_after_close_raises(self, registry, inputs):
        # close() is terminal: a late submit must raise the typed
        # EngineClosedError (never enqueue a request nobody will serve).
        engine = make_engine(registry).start()
        engine.close()
        with pytest.raises(EngineClosedError, match="closed"):
            engine.submit(KEY, inputs[0])

    def test_submit_after_close_without_start_raises(self, registry, inputs):
        # Even an engine closed before ever starting refuses submissions
        # with the terminal error, not the recoverable "not running" one.
        engine = make_engine(registry)
        engine.close()
        with pytest.raises(EngineClosedError, match="closed"):
            engine.submit(KEY, inputs[0])
        with pytest.raises(EngineClosedError, match="closed"):
            engine.start()

    def test_submit_close_race_never_hangs_a_future(self, registry, inputs):
        # Regression for the submit()-after-close race: hammer submit from
        # several threads while the engine closes; every future obtained
        # must complete (result or error) — none may hang unserved.
        for _ in range(5):
            engine = make_engine(registry, max_latency_ms=0.1).start()
            futures, barrier = [], threading.Barrier(4)
            lock = threading.Lock()

            def submitter() -> None:
                barrier.wait()
                for i in range(20):
                    try:
                        future = engine.submit(KEY, inputs[i % len(inputs)])
                    except EngineClosedError:
                        return  # refused cleanly — the fix under test
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=submitter) for _ in range(3)]
            for thread in threads:
                thread.start()
            barrier.wait()
            engine.close()
            for thread in threads:
                thread.join()
            for future in futures:
                # A timeout here IS the regression: a request accepted by
                # submit() that close() never served.
                try:
                    row = future.result(timeout=5)
                except EngineClosedError:
                    continue  # failed over cleanly at close
                assert row.shape == (NUM_CLASSES,)

    def test_close_fails_pending_futures(self, registry, inputs):
        engine = make_engine(registry, max_batch_size=64, max_latency_ms=60_000.0)
        engine.start()
        future = engine.submit(KEY, inputs[0])
        # One queued sample, a huge latency window, a batch that will never
        # fill: close() must fail it rather than hang the caller...
        engine.close()
        with pytest.raises(RuntimeError, match="closed|engine"):
            future.result(timeout=5)

    def test_inference_error_fails_whole_batch(self, registry):
        bad = np.zeros((2, 1, 8, 8), dtype=np.float32)  # wrong channel count
        with make_engine(registry, max_latency_ms=5.0) as engine:
            futures = [engine.submit(KEY, sample) for sample in bad]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=30)
            assert engine.stats.errors >= 1

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchSettings(max_batch_size=0)
        with pytest.raises(ValueError, match="max_latency_ms"):
            BatchSettings(max_latency_ms=-1.0)
        with pytest.raises(ValueError, match="workers"):
            BatchSettings(workers=0)


class TestEngineTelemetry:
    def test_trace_is_valid_and_nested(self, registry, inputs, reference):
        telemetry = RecordingTelemetry()
        with ServingEngine(
            registry,
            BatchSettings(max_batch_size=4, max_latency_ms=2.0, workers=2),
            telemetry=telemetry,
        ) as engine:
            out = engine.predict(KEY, inputs)
        np.testing.assert_array_equal(out, reference)

        events = telemetry.events
        summary = validate_trace(events)
        assert summary["spans"] >= 2  # the root + at least one batch
        (root,) = span_tree(events)
        assert root.name == "serve"
        batch_spans = [c for c in root.children if c.name == "serve_batch"]
        assert batch_spans, "serve_batch spans must nest under the root"
        assert sum(s.attrs["batch"] for s in batch_spans) == len(inputs)
        for span in batch_spans:
            assert [g.name for g in span.children] == ["serve_infer"]
