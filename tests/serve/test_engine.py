"""Batched-equivalence and behaviour tests for single-replica serving.

``repro-study serve`` with one replica runs a :class:`ServingFleet` of one
in-process thread replica: the router's chunk is the batch.  The central
claim of the serving subsystem still holds there: **batching is
invisible**.  For every chunking the router might choose — chunk caps of 1,
3, or 8, single or concurrent clients — the logits returned for a sample
are bitwise-identical to a one-at-a-time ``predict_logits`` call through the
training stack (the ``reference`` fixture).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.serve import FleetSettings, ModelKey, ModelRegistry, ServingFleet, ShedError
from repro.telemetry import (
    MetricsRegistry,
    RecordingTelemetry,
    metrics_scope,
    span_tree,
    validate_trace,
)

from .conftest import KEY, NUM_CLASSES, Exploding


def make_fleet(registry, chunk: int = 8, telemetry=None) -> ServingFleet:
    """What ``serve --replicas 1`` runs: ``auto`` resolves to one thread replica."""
    return ServingFleet(registry, FleetSettings(replicas=1, chunk=chunk), telemetry=telemetry)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_bitwise_equal_at_every_batch_cap(self, registry, inputs, reference, chunk):
        with make_fleet(registry, chunk=chunk) as fleet:
            assert fleet.describe()["backend"] == "thread"
            out = fleet.predict(KEY, inputs)
        np.testing.assert_array_equal(out, reference)

    def test_batches_replay_forward_plans(self, registry, inputs, reference):
        metrics = MetricsRegistry()
        with metrics_scope(metrics), make_fleet(registry) as fleet:
            out = fleet.predict(KEY, inputs)
        np.testing.assert_array_equal(out, reference)
        assert metrics.get("serve_forward_plans_total").value >= 1
        assert metrics.get("serve_forward_plan_fallbacks_total").value == 0

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_concurrent_clients_bitwise_equal(self, registry, inputs, reference, chunk):
        """Many client threads; samples share chunks across clients arbitrarily."""
        clients = 4
        per_client = len(inputs) // clients
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        with make_fleet(registry, chunk=chunk) as fleet:

            def client(index: int) -> None:
                shard = inputs[index * per_client : (index + 1) * per_client]
                try:
                    results[index] = fleet.predict(KEY, shard, client=f"c{index}")
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
        with make_fleet(registry) as fleet:
            row = fleet.predict(KEY, inputs[5])
        assert row.ndim == 1
        np.testing.assert_array_equal(row, reference[5])


class TestEngineBehaviour:
    def test_batches_actually_coalesce(self, registry, inputs):
        """Pre-queued samples must not all run as singleton chunks."""
        with make_fleet(registry, chunk=8) as fleet:
            with fleet.router._cond:  # hold dispatch until every sample is queued
                futures = [fleet.submit(KEY, sample) for sample in inputs]
            for future in futures:
                future.result(timeout=30)
            stats = fleet.stats_snapshot()
        assert stats["requests"] == len(inputs)
        assert stats["mean_batch"] > 1
        assert stats["batches"] < len(inputs)

    def test_batch_cap_is_respected(self, registry, inputs):
        with make_fleet(registry, chunk=3) as fleet:
            with fleet.router._cond:
                futures = [fleet.submit(KEY, sample) for sample in inputs]
            for future in futures:
                future.result(timeout=30)
            assert fleet.metrics.get("fleet_batch_size").max <= 3

    def test_unknown_model_fails_on_submit(self, registry, inputs):
        with make_fleet(registry) as fleet:
            with pytest.raises(KeyError, match="no model registered"):
                fleet.submit("cifar10/vgg16/baseline/none", inputs[0])

    def test_submit_after_close_raises(self, registry, inputs):
        # close() is terminal: a late submit must say the fleet is closed
        # (never enqueue a request nobody will serve).
        fleet = make_fleet(registry).start()
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit(KEY, inputs[0])

    def test_submit_after_close_without_start_raises(self, registry, inputs):
        # Even a fleet closed before ever starting refuses submissions with
        # the terminal error, not the recoverable "not running" one.
        fleet = make_fleet(registry)
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit(KEY, inputs[0])
        with pytest.raises(RuntimeError, match="closed"):
            fleet.start()

    def test_submit_close_race_never_hangs_a_future(self, registry, inputs):
        # Hammer submit from several threads while the fleet closes; every
        # future obtained must complete (result or shed) — none may hang
        # unserved.
        for _ in range(5):
            fleet = make_fleet(registry).start()
            futures, refusals, barrier = [], [], threading.Barrier(4)
            lock = threading.Lock()

            def submitter() -> None:
                barrier.wait()
                for i in range(20):
                    try:
                        future = fleet.submit(KEY, inputs[i % len(inputs)])
                    except RuntimeError as exc:  # closed, or shed at shutdown
                        with lock:
                            refusals.append(str(exc))
                        return
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=submitter) for _ in range(3)]
            for thread in threads:
                thread.start()
            barrier.wait()
            fleet.close()
            for thread in threads:
                thread.join()
            for refusal in refusals:  # refused cleanly, with the reason
                assert "closed" in refusal or "shutdown" in refusal, refusal
            for future in futures:
                # A timeout here IS the regression: a request accepted by
                # submit() that close() never answered.
                try:
                    row = future.result(timeout=5)
                except ShedError as exc:
                    assert exc.reason == "shutdown"
                    continue  # shed cleanly at close
                assert row.shape == (NUM_CLASSES,)

    def test_close_fails_pending_futures(self, registry, inputs):
        fleet = make_fleet(registry).start()
        # The replica's forward stalls until the replica stops, so the
        # request is still unanswered when close() runs: close() must shed
        # it rather than hang the caller.
        fleet.slow_replica(0, delay_s=60.0)
        future = fleet.submit(KEY, inputs[0])
        fleet.close()
        with pytest.raises(RuntimeError, match="shutdown"):
            future.result(timeout=5)

    def test_inference_error_fails_whole_batch(self, registry):
        bad = np.zeros((2, 1, 8, 8), dtype=np.float32)  # wrong channel count
        with make_fleet(registry) as fleet:
            with fleet.router._cond:  # both samples in one chunk
                futures = [fleet.submit(KEY, sample) for sample in bad]
            for future in futures:
                with pytest.raises(RuntimeError, match="ValueError"):
                    future.result(timeout=30)
            assert fleet.stats_snapshot()["errors"] == len(bad)

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="chunk"):
            FleetSettings(replicas=1, chunk=0)
        with pytest.raises(ValueError, match="replicas"):
            FleetSettings(replicas=0)
        with pytest.raises(ValueError, match="backend"):
            FleetSettings(replicas=1, backend="engine")
        # Checked before start() packs the weights, not by the router after.
        with pytest.raises(ValueError, match="max_queue"):
            FleetSettings(replicas=1, max_queue=0)
        with pytest.raises(ValueError, match="replica_cap"):
            FleetSettings(replicas=1, replica_cap=0)
        with pytest.raises(ValueError, match="shed policy"):
            FleetSettings(replicas=1, shed_policy="drop-all")


class TestEngineTelemetry:
    def test_trace_is_valid_and_nested(self, registry, inputs, reference):
        telemetry = RecordingTelemetry()
        with make_fleet(registry, chunk=4, telemetry=telemetry) as fleet:
            out = fleet.predict(KEY, inputs)
        np.testing.assert_array_equal(out, reference)

        events = telemetry.events
        summary = validate_trace(events)
        assert summary["spans"] >= 2  # the root + at least one batch
        (root,) = span_tree(events)
        assert root.name == "fleet"
        batch_spans = [c for c in root.children if c.name == "serve_batch"]
        assert batch_spans, "serve_batch spans must nest under the root"
        assert sum(s.attrs["batch"] for s in batch_spans) == len(inputs)
        for span in batch_spans:
            assert span.attrs["model"] == KEY.id
            assert 1 <= span.attrs["batch"] <= 4
            assert span.attrs["infer_s"] > 0
            assert "outcome" not in span.attrs

    def test_failed_chunk_span_carries_the_outcome(self, registry, inputs):
        bad = ModelKey(model="convnet", dataset="gtsrb", technique="exploding")
        mixed = ModelRegistry()
        mixed.register_module(KEY, registry.get(KEY).module)
        mixed.register_module(bad, Exploding())
        telemetry = RecordingTelemetry()
        with make_fleet(mixed, telemetry=telemetry) as fleet:
            with fleet.router._cond:  # both samples in one chunk
                futures = [fleet.submit(bad, sample) for sample in inputs[:2]]
            for future in futures:
                with pytest.raises(RuntimeError, match="forward exploded"):
                    future.result(timeout=30)
        (root,) = span_tree(telemetry.events)
        [span] = [c for c in root.children if c.name == "serve_batch"]
        assert (span.attrs["model"], span.attrs["batch"]) == (bad.id, 2)
        assert (span.attrs["outcome"], span.attrs["error"]) == ("error", "ValueError")

    def test_close_mid_traffic_keeps_the_trace_valid(self, registry, inputs):
        # Replica threads funnel spans while close() ends the root span: a
        # span finishing after close is dropped, never written past the root.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                telemetry = RecordingTelemetry()
                fleet = ServingFleet(
                    registry, FleetSettings(replicas=2, backend="thread", chunk=2),
                    telemetry=telemetry,
                ).start()
                futures = [fleet.submit(KEY, sample) for sample in inputs]
                fleet.close()
                for future in futures:
                    try:
                        future.result(timeout=10)
                    except ShedError:
                        pass
                events = telemetry.events
                validate_trace(events)
                (root,) = span_tree(events)
                assert all(c.name == "serve_batch" for c in root.children)
                assert events[-1]["ev"] == "span_end" and events[-1]["name"] == "fleet"
        finally:
            sys.setswitchinterval(switch)

    def test_untraced_replicas_record_nothing(self, registry, inputs):
        with make_fleet(registry) as fleet:
            fleet.predict(KEY, inputs[:2])
            assert fleet._slots[0].handle._trace is None
