"""Fleet tests: shared weights, bitwise equivalence, chaos, and HTTP 429s.

The chaos suite is the PR's test-archetype core: kill a replica mid-traffic
(thread backend: abrupt engine close; process backend: SIGKILL) and assert
the invariants the router guarantees — **zero lost accepted requests** and
**bitwise-identical responses** no matter which replica, batch, or respawn
served a sample.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.nn import Module, Parameter
from repro.nn.shared import SharedBlock
from repro.serve import (
    FleetSettings,
    ModelKey,
    ModelRegistry,
    ServingFleet,
    ServingServer,
    ShedError,
)

from .conftest import KEY, NUM_CLASSES
from .loadgen import FleetTarget, make_schedule, run_closed_loop


def make_fleet(registry, **kwargs) -> ServingFleet:
    defaults = dict(replicas=2, backend="thread", health_interval_s=0.05)
    defaults.update(kwargs)
    return ServingFleet(registry, FleetSettings(**defaults))


class Exploding(Module):
    """A servable model whose forward pass always raises."""

    def __init__(self) -> None:
        super().__init__()
        self.weight = Parameter(np.zeros(1, dtype=np.float32))

    def forward(self, x):
        raise ValueError("forward exploded")


# ----------------------------------------------------------------------
# Shared-memory weights
# ----------------------------------------------------------------------

class TestSharedWeights:
    def test_attach_is_zero_copy_and_read_only(self, registry):
        import copy

        template = registry.get(KEY).module
        weights = SharedBlock.from_module(template)
        try:
            clone = copy.deepcopy(template)
            views = weights.attach(clone)
            assert views, "expected parameter/buffer views"
            for name, param in clone.named_parameters():
                assert not param.data.flags.writeable
                with pytest.raises(ValueError):
                    param.data[...] = 0.0
            # Same bytes as the template, but not the template's arrays.
            originals = dict(template.named_parameters())
            for name, param in clone.named_parameters():
                assert np.array_equal(param.data, originals[name].data)
                assert param.data.base is not originals[name].data
        finally:
            weights.close()

    def test_replicas_share_one_block(self, registry, inputs, reference):
        # N thread replicas of the same model must all point into the same
        # shared block — same underlying buffer address for each parameter.
        fleet = make_fleet(registry, replicas=3)
        with fleet:
            block = fleet._blocks[KEY]
            slots = list(fleet._slots.values())
            assert len(slots) == 3
            first_params = dict(
                slots[0].handle.registry.get(KEY).module.named_parameters()
            )
            for slot in slots[1:]:
                for name, param in slot.handle.registry.get(KEY).module.named_parameters():
                    a = param.data
                    b = first_params[name].data
                    assert np.shares_memory(a, b), f"{name} not shared"
            out = fleet.predict(KEY, inputs[:6])
            assert np.array_equal(out, reference[:6])


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------

class TestFleetEquivalence:
    @pytest.mark.parametrize("replicas", [1, 2, 4])
    def test_bitwise_equal_to_single_engine(
        self, registry, inputs, reference, replicas
    ):
        with make_fleet(registry, replicas=replicas) as fleet:
            out = fleet.predict(KEY, inputs)
            assert out.dtype == reference.dtype
            assert np.array_equal(out, reference)

    def test_equal_under_concurrent_clients(self, registry, inputs, reference):
        with make_fleet(registry, replicas=3) as fleet:
            results: dict = {}
            errors: list = []

            def client(name: str, offset: int) -> None:
                try:
                    picks = [(offset + 3 * j) % len(inputs) for j in range(8)]
                    out = np.stack(
                        [fleet.predict(KEY, inputs[p], client=name) for p in picks]
                    )
                    results[name] = (picks, out)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(f"c{i}", i)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for picks, out in results.values():
                assert np.array_equal(out, reference[picks])

    def test_process_backend_equivalence(self, registry, inputs, reference):
        with make_fleet(registry, replicas=2, backend="process") as fleet:
            out = fleet.predict(KEY, inputs[:8])
            assert np.array_equal(out, reference[:8])


# ----------------------------------------------------------------------
# Chaos
# ----------------------------------------------------------------------

class TestChaos:
    def test_thread_replica_kill_mid_traffic_loses_nothing(
        self, registry, inputs, reference
    ):
        # The headline chaos test: kill a replica while traffic flows.
        # Every accepted request must still be answered — correctly.
        with make_fleet(registry, replicas=3, max_queue=4096) as fleet:
            target = FleetTarget(fleet, KEY, inputs, timeout_s=30.0)
            schedule = make_schedule(
                120, rate=500.0, clients=("a", "b"), samples=len(inputs), seed=7
            )
            report_box: dict = {}

            def drive() -> None:
                report_box["report"] = run_closed_loop(target, schedule, concurrency=8)

            driver = threading.Thread(target=drive)
            driver.start()
            time.sleep(0.05)  # let traffic build before the kill
            fleet.kill_replica(0)
            driver.join(timeout=60)
            assert not driver.is_alive(), "load run hung after replica kill"
            report = report_box["report"]
            assert report.lost == 0
            assert report.errors == 0
            assert report.ok == report.accepted  # all accepted answered
            for outcome in report.outcomes:
                if outcome.status == "ok":
                    expected = int(np.argmax(reference[outcome.spec.sample]))
                    assert outcome.labels == (expected,)
            # The health monitor noticed and respawned into the slot.
            deadline = time.monotonic() + 10
            while fleet.describe()["respawns"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            described = fleet.describe()
            assert described["evictions"] >= 1
            assert described["respawns"] >= 1
            assert fleet.healthy_replicas() == 3

    def test_process_replica_sigkill_recovers(self, registry, inputs, reference):
        with make_fleet(registry, replicas=2, backend="process") as fleet:
            out = fleet.predict(KEY, inputs[:4])
            assert np.array_equal(out, reference[:4])
            victim_pid = fleet.replica_pids()[0]
            fleet.kill_replica(0)
            # Traffic through the outage: requests must fail over, and the
            # slot must come back at a new generation with a new pid.
            out = fleet.predict(KEY, inputs[4:10], timeout=30.0)
            assert np.array_equal(out, reference[4:10])
            # SIGKILL is asynchronous: the old handle can still report
            # alive() right after the kill, so wait for the respawn itself.
            deadline = time.monotonic() + 15
            while (
                victim_pid in fleet.replica_pids() or fleet.healthy_replicas() < 2
            ) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert fleet.healthy_replicas() == 2
            assert victim_pid not in fleet.replica_pids()
            described = fleet.describe()
            assert described["evictions"] >= 1 and described["respawns"] >= 1
            out = fleet.predict(KEY, inputs[:4])
            assert np.array_equal(out, reference[:4])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_slow_replica_overruns_deadline_and_is_evicted(
        self, registry, inputs, reference, backend
    ):
        with make_fleet(
            registry, replicas=2, replica_deadline_s=0.3, health_interval_s=0.05,
            backend=backend,
        ) as fleet:
            fleet.slow_replica(0, delay_s=5.0)
            out = fleet.predict(KEY, inputs[:6], timeout=30.0)
            assert np.array_equal(out, reference[:6])
            deadline = time.monotonic() + 10
            while fleet.describe()["evictions"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fleet.describe()["evictions"] >= 1

    def test_wedged_thread_replica_is_respawned_without_waiting_on_it(
        self, registry, inputs, reference
    ):
        # Eviction must not join a worker stuck mid-inference — a wedge no
        # stop signal reaches: the slot is respawned while the forward pass
        # still blocks, and closing the fleet does not wait for it either.
        release = threading.Event()
        fleet = make_fleet(registry, replicas=2, replica_deadline_s=0.3).start()
        try:
            servable = fleet._slots[0].handle.registry.get(KEY)
            inner = servable.predict_logits

            def wedged(batch):
                release.wait(30)
                return inner(batch)

            servable.predict_logits = wedged
            started = time.monotonic()
            out = fleet.predict(KEY, inputs[:6], timeout=30.0)
            assert np.array_equal(out, reference[:6])
            while fleet.describe()["respawns"] < 1 and time.monotonic() - started < 10:
                time.sleep(0.02)
            assert fleet.describe()["respawns"] >= 1
            assert time.monotonic() - started < 1.5, "respawn waited on the wedge"
            assert fleet.healthy_replicas() == 2
        finally:
            closing = time.monotonic()
            fleet.close()
            close_s = time.monotonic() - closing
            release.set()
        assert close_s < 1.0, "close waited on the wedge"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_forward_error_fails_only_its_callers(
        self, registry, inputs, reference, backend
    ):
        # A model whose forward raises fails exactly its own requests with
        # the error message; the replica stays in service, never evicted.
        bad = ModelKey(model="convnet", dataset="gtsrb", technique="exploding")
        mixed = ModelRegistry()
        mixed.register_module(KEY, registry.get(KEY).module)
        mixed.register_module(bad, Exploding())
        with make_fleet(mixed, replicas=1, backend=backend) as fleet:
            futures = [fleet.submit(bad if i % 2 else KEY, inputs[i]) for i in range(8)]
            for i, future in enumerate(futures):
                if i % 2:
                    with pytest.raises(RuntimeError, match="ValueError: forward exploded"):
                        future.result(timeout=30)
                else:
                    assert np.array_equal(future.result(timeout=30), reference[i])
            out = fleet.predict(KEY, inputs[8:12])
            assert np.array_equal(out, reference[8:12])
            described = fleet.describe()
            assert described["router"]["errors"] == 4
            assert described["evictions"] == 0 and described["respawns"] == 0
            assert fleet.healthy_replicas() == 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ragged_chunk_fails_only_its_callers(self, registry, inputs, reference, backend):
        # Two clients' samples of different shapes can share one chunk: the
        # stack fails exactly those callers, and the replica keeps serving.
        ragged = np.zeros((3, 16, 16), dtype=np.float32)
        with make_fleet(registry, replicas=1, backend=backend) as fleet:
            with fleet.router._cond:  # hold dispatch so both land in one chunk
                futures = [fleet.submit(KEY, inputs[0]), fleet.submit(KEY, ragged)]
            for future in futures:
                with pytest.raises(RuntimeError, match="ValueError: .*same shape"):
                    future.result(timeout=30)
            out = fleet.predict(KEY, inputs[:4])
            assert np.array_equal(out, reference[:4])
            described = fleet.describe()
            assert described["router"]["errors"] == 2
            assert described["evictions"] == 0 and described["respawns"] == 0
            assert fleet.healthy_replicas() == 1

    def test_eviction_metrics_exposed(self, registry, inputs):
        with make_fleet(registry, replicas=2) as fleet:
            fleet.kill_replica(1)
            deadline = time.monotonic() + 10
            while fleet.describe()["respawns"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            snapshot = fleet.metrics.snapshot()
            assert snapshot["fleet_evictions_total"]["value"] >= 1
            assert snapshot["fleet_respawns_total"]["value"] >= 1


# ----------------------------------------------------------------------
# Admission behaviour through the fleet
# ----------------------------------------------------------------------

class TestFleetAdmission:
    def test_shed_raises_immediately_never_hangs(self, registry, inputs):
        with make_fleet(registry, replicas=1, max_queue=1) as fleet:
            fleet.slow_replica(0, delay_s=30.0)  # wedge so the queue fills
            accepted = []
            sheds = 0
            started = time.monotonic()
            for i in range(64):
                try:
                    accepted.append(fleet.submit(KEY, inputs[i % len(inputs)]))
                except ShedError as exc:
                    sheds += 1
                    assert exc.retry_after_s > 0
            elapsed = time.monotonic() - started
            assert sheds > 0
            assert elapsed < 5.0, "shedding must answer immediately, not block"

    def test_unknown_model_fails_fast(self, registry, inputs):
        with make_fleet(registry, replicas=1) as fleet:
            with pytest.raises(KeyError):
                fleet.submit("nope/nope/baseline/none", inputs[0])

    def test_submit_after_close_sheds(self, registry, inputs):
        fleet = make_fleet(registry, replicas=1)
        fleet.start()
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.submit(KEY, inputs[0])


# ----------------------------------------------------------------------
# HTTP surface (fleet mode)
# ----------------------------------------------------------------------

@pytest.fixture()
def fleet_http(registry):
    fleet = make_fleet(registry, replicas=2, max_queue=4096).start()
    server = ServingServer(fleet, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server, fleet
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        fleet.close()


def _get(url: str):
    import json
    import urllib.request

    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _post(url: str, payload: dict):
    import json
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestFleetHTTP:
    def test_fleet_endpoint_reports_replicas(self, fleet_http):
        server, _ = fleet_http
        payload = _get(f"{server.url}/fleet")
        assert payload["backend"] == "thread"
        assert len(payload["replicas"]) == 2
        assert all(r["alive"] for r in payload["replicas"])
        assert payload["settings"]["max_queue"] == 4096
        health = _get(f"{server.url}/healthz")
        assert health["replicas"] == 2

    def test_predict_routes_through_fleet(self, fleet_http, inputs, reference):
        server, _ = fleet_http
        status, payload = _post(
            f"{server.url}/predict",
            {"model": KEY.id, "inputs": inputs[:3].tolist(), "client": "t"},
        )
        assert status == 200
        assert np.array_equal(
            np.asarray(payload["logits"], dtype=np.float32), reference[:3]
        )

    def test_shed_maps_to_429_with_retry_after(self, registry, inputs):
        import urllib.error
        import urllib.request
        import json as jsonlib

        fleet = make_fleet(registry, replicas=1, max_queue=1, replica_cap=1).start()
        server = ServingServer(fleet, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            fleet.slow_replica(0, delay_s=30.0)
            saw_429 = None
            for i in range(64):
                body = jsonlib.dumps(
                    {"model": KEY.id, "inputs": inputs[0].tolist()}
                ).encode()
                request = urllib.request.Request(
                    f"{server.url}/predict", data=body,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    urllib.request.urlopen(request, timeout=0.5)
                except urllib.error.HTTPError as exc:
                    if exc.code == 429:
                        saw_429 = exc
                        break
                    raise
                except TimeoutError:
                    continue  # accepted and in-flight behind the wedge
                except urllib.error.URLError:
                    continue
            assert saw_429 is not None, "queue never shed a request with 429"
            assert int(saw_429.headers["Retry-After"]) >= 1
            detail = jsonlib.loads(saw_429.read().decode())
            assert detail["reason"] in ("queue-full", "evicted")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            fleet.close()

    def test_reply_to_a_gone_client_is_counted_not_dumped(self, registry, inputs, capfd):
        import json as jsonlib
        import socket
        import struct

        def counter(name: str) -> int:
            return fleet.metrics.snapshot().get(name, {}).get("value", 0)

        fleet = make_fleet(registry, replicas=1).start()
        server = ServingServer(fleet, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            fleet.slow_replica(0, delay_s=30.0)
            body = jsonlib.dumps({"model": KEY.id, "inputs": inputs[0].tolist()}).encode()
            client = socket.create_connection(server.server_address[:2])
            client.sendall(
                b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            deadline = time.monotonic() + 10.0
            while counter("fleet_requests_total") < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Reset, not FIN: the request has been read, so the reply the
            # shutdown sheds below can have no reader at all.
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
            fleet.close()  # sheds the wedged request: the handler answers 429
            deadline = time.monotonic() + 10.0
            while (counter("serve_client_gone_total") < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            fleet.close()
        assert counter("serve_client_gone_total") == 1
        assert "serve_client_gone_total" in server.exported_metrics().snapshot()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_models_counts_fleet_predictions(self, registry, inputs, backend):
        # Replicas infer on clones or in children; /models describes the
        # template, which the fleet counts, like a single engine does.
        fleet = make_fleet(registry, replicas=2, backend=backend).start()
        server = ServingServer(fleet, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            def predictions() -> int:
                [model] = _get(f"{server.url}/models")["models"]
                return model["predictions"]

            before = predictions()
            status, _ = _post(
                f"{server.url}/predict", {"model": KEY.id, "inputs": inputs[:8].tolist()}
            )
            assert status == 200
            # Counted in a done-callback, which runs just after the caller
            # is woken with its row.
            deadline = time.monotonic() + 5
            while predictions() - before < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert predictions() - before == 8
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            fleet.close()

    def test_prediction_count_loses_no_update_under_contention(self, registry, inputs):
        # Four replica workers answer at once while the interpreter switches
        # threads as often as it can: the template's count must not lose an
        # increment.
        import sys

        servable = registry.get(KEY)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_fleet(registry, replicas=4, max_queue=4096) as fleet:
                before = servable.predictions

                def client(offset: int) -> None:
                    for j in range(25):
                        fleet.predict(KEY, inputs[(offset + j) % len(inputs)])

                threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                deadline = time.monotonic() + 5
                while servable.predictions - before < 200 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert servable.predictions - before == 200
        finally:
            sys.setswitchinterval(switch)

    def test_stats_reflect_router(self, fleet_http, inputs):
        server, fleet = fleet_http
        _post(
            f"{server.url}/predict",
            {"model": KEY.id, "inputs": inputs[0].tolist()},
        )
        stats = _get(f"{server.url}/stats")
        assert stats["accepted"] >= 1
        assert "latency_ms" in stats and "router" in stats

    def test_metrics_expose_fleet_counters(self, fleet_http, inputs):
        import urllib.request

        server, _ = fleet_http
        _post(
            f"{server.url}/predict",
            {"model": KEY.id, "inputs": inputs[0].tolist()},
        )
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert "fleet_requests_total" in text
        assert "fleet_evictions_total" in text
        assert "fleet_replica0_latency_seconds" in text
        assert "fleet_batch_size" in text
