"""HTTP endpoint tests: routes, JSON shapes, error paths, concurrency.

The server binds to port 0 (OS-assigned) so tests never collide with a real
service or each other, in front of what ``serve`` runs by default: a fleet
of one thread replica.  Responses on ``/predict`` must carry the same
bitwise logits as in-process inference — the HTTP layer adds JSON transport,
not numerics.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import FleetSettings, ServingFleet
from repro.serve.server import ServingServer

from .conftest import KEY


def single_replica(registry) -> ServingFleet:
    """``serve``'s defaults: one replica (a thread under ``auto``), chunk 8."""
    return ServingFleet(registry, FleetSettings(replicas=1))


@pytest.fixture()
def server(registry):
    fleet = single_replica(registry).start()
    http = ServingServer(fleet, port=0)
    thread = threading.Thread(
        target=http.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield http
    finally:
        http.shutdown()
        thread.join(timeout=5)
        http.server_close()
        fleet.close()


def get(server: ServingServer, path: str) -> dict:
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return json.loads(response.read())


def post(server: ServingServer, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def post_error(server: ServingServer, path: str, payload: dict) -> tuple[int, dict]:
    try:
        post(server, path, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    raise AssertionError("expected an HTTP error")


class TestRoutes:
    def test_healthz(self, server):
        assert get(server, "/healthz") == {"status": "ok", "models": 1, "replicas": 1}

    def test_models_catalog(self, server):
        payload = get(server, "/models")
        assert [m["key"] for m in payload["models"]] == [KEY.id]

    def test_stats_shape(self, server):
        stats = get(server, "/stats")
        assert {"requests", "batches", "errors", "mean_batch"} <= set(stats)

    def test_fleet_of_one(self, server):
        payload = get(server, "/fleet")
        assert payload["backend"] == "thread"
        assert [r["alive"] for r in payload["replicas"]] == [True]

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/nope")
        assert excinfo.value.code == 404


class TestPredict:
    def test_logits_bitwise_equal(self, server, inputs, reference):
        payload = post(
            server, "/predict", {"model": KEY.id, "inputs": inputs[:5].tolist()}
        )
        assert payload["model"] == KEY.id
        assert payload["count"] == 5
        got = np.asarray(payload["logits"], dtype=np.float32)
        np.testing.assert_array_equal(got, reference[:5])
        assert payload["labels"] == reference[:5].argmax(axis=1).tolist()

    def test_single_sample_and_proba(self, server, inputs):
        payload = post(
            server, "/predict",
            {"model": KEY.id, "inputs": inputs[0].tolist(), "return": "proba"},
        )
        assert payload["count"] == 1
        proba = np.asarray(payload["proba"])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-5)

    def test_concurrent_clients_bitwise_equal(self, server, inputs, reference):
        clients = 4
        per_client = len(inputs) // clients
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def client(index: int) -> None:
            shard = inputs[index * per_client : (index + 1) * per_client]
            try:
                payload = post(
                    server, "/predict", {"model": KEY.id, "inputs": shard.tolist()}
                )
                results[index] = np.asarray(payload["logits"], dtype=np.float32)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
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

    def test_unknown_model_is_400(self, server, inputs):
        code, body = post_error(
            server, "/predict",
            {"model": "cifar10/vgg16/baseline/none", "inputs": inputs[0].tolist()},
        )
        assert code == 400
        assert "no model registered" in body["error"]

    def test_missing_fields_are_400(self, server, inputs):
        code, body = post_error(server, "/predict", {"inputs": inputs[0].tolist()})
        assert code == 400 and "model" in body["error"]
        code, body = post_error(server, "/predict", {"model": KEY.id})
        assert code == 400 and "inputs" in body["error"]

    def test_wrong_rank_is_400(self, server):
        code, body = post_error(
            server, "/predict", {"model": KEY.id, "inputs": [[1.0, 2.0]]}
        )
        assert code == 400
        assert "dims" in body["error"]

    def test_bad_return_kind_is_400(self, server, inputs):
        code, body = post_error(
            server, "/predict",
            {"model": KEY.id, "inputs": inputs[0].tolist(), "return": "embeddings"},
        )
        assert code == 400
        assert "return kind" in body["error"]


class TestMetricsEndpoint:
    def test_metrics_prometheus_text(self, server, inputs):
        from repro.telemetry import parse_prometheus_text

        post(server, "/predict", {"model": KEY.id, "inputs": inputs[:4].tolist()})
        request = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        parsed = parse_prometheus_text(text)  # validates +Inf buckets, counts
        assert parsed["fleet_requests_total"]["value"] >= 4
        assert parsed["fleet_batch_size"]["count"] >= 1
        assert parsed["fleet_errors_total"]["value"] == 0
        latency = parsed["fleet_request_latency_seconds"]
        assert latency["type"] == "histogram"
        assert latency["count"] >= 4
        assert f'fleet_request_latency_seconds_bucket{{le="+Inf"}}' in text

    def test_metrics_json(self, server, inputs):
        post(server, "/predict", {"model": KEY.id, "inputs": inputs[:2].tolist()})
        snapshot = get(server, "/metrics?format=json")
        assert snapshot["fleet_requests_total"]["type"] == "counter"
        assert snapshot["fleet_requests_total"]["value"] >= 2
        hist = snapshot["fleet_request_latency_seconds"]
        assert hist["type"] == "histogram"
        assert hist["count"] == sum(hist["counts"])
        assert len(hist["counts"]) == len(hist["buckets"]) + 1  # +Inf overflow

    def test_stats_percentiles_match_histogram(self, server, inputs):
        """/stats p50/p95/p99 come from the same histograms /metrics serves."""
        from repro.telemetry import Histogram, latency_summary_ms

        post(server, "/predict", {"model": KEY.id, "inputs": inputs[:8].tolist()})
        stats = get(server, "/stats")
        assert {"p50_ms", "p95_ms", "p99_ms"} == set(stats["latency_ms"])
        assert {"p50", "p95", "p99", "counts", "buckets"} <= set(stats["batch_size"])

        # Rebuild the histograms from the served snapshot and recompute the
        # summaries with the shared implementation — they must agree exactly.
        snapshot = get(server, "/metrics?format=json")
        served = snapshot["fleet_request_latency_seconds"]
        hist = Histogram("rebuilt", buckets=served["buckets"])
        hist.merge(served)
        rebuilt = latency_summary_ms(hist)
        # The live histogram may have absorbed more requests between the two
        # GETs only if another test ran concurrently; the suite is serial, so
        # the snapshots agree.
        assert stats["latency_ms"] == rebuilt
        sizes = snapshot["fleet_batch_size"]
        assert stats["batch_size"]["counts"] == sizes["counts"]
        assert stats["batch_size"]["buckets"] == sizes["buckets"]
        assert stats["batches"] == sizes["count"] >= 1
        assert sum(sizes["counts"]) == sizes["count"]


class TestRequestTimeout:
    def test_slow_prediction_returns_503(self, registry, inputs):
        fleet = single_replica(registry).start()
        fleet.slow_replica(0, delay_s=2.0)  # every forward stalls, until close
        http = ServingServer(fleet, port=0, request_timeout_s=0.1)
        thread = threading.Thread(
            target=http.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            code, body = post_error(
                http, "/predict", {"model": KEY.id, "inputs": inputs[0].tolist()}
            )
            assert code == 503
            assert "timed out" in body["error"]
            # The server survives the timeout and keeps answering.
            assert get(http, "/healthz")["status"] == "ok"
        finally:
            http.shutdown()
            thread.join(timeout=5)
            http.server_close()
            fleet.close()

    def test_timeout_validation(self, registry):
        fleet = single_replica(registry)
        with pytest.raises(ValueError, match="request_timeout_s"):
            ServingServer(fleet, port=0, request_timeout_s=0.0)


class TestShutdown:
    def test_shutdown_route_stops_the_server(self, registry):
        fleet = single_replica(registry).start()
        http = ServingServer(fleet, port=0)
        thread = threading.Thread(
            target=http.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            assert post(http, "/shutdown", {}) == {"status": "shutting down"}
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            http.server_close()
            fleet.close()
