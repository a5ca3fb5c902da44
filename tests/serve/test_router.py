"""Unit tests for the fleet router: admission, fairness, dispatch, failover.

All tests drive the router by hand (``auto_dispatch=False`` + ``pump()``)
against fake replicas and a fake clock, so every scheduling decision is
deterministic — no threads, no sleeps, no real models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ModelKey, ReplicaGone, Router, ShedError, TokenBucket
from repro.telemetry import MetricsRegistry

KEY = ModelKey(model="convnet", dataset="gtsrb")
KEY_B = ModelKey(model="vgg11", dataset="cifar10")


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeReplica:
    """A replica that records chunks and answers on demand (row = 2x sample)."""

    def __init__(self, slot: int, generation: int = 0) -> None:
        self.slot = slot
        self.generation = generation
        self.router: "Router | None" = None
        self.chunks: list = []
        self.fail_sends = False

    def register(self, router: Router) -> "FakeReplica":
        self.router = router
        router.add_replica(self.slot, self.send, self.generation)
        return self

    def send(self, chunk) -> None:
        if self.fail_sends:
            raise ReplicaGone(f"fake replica {self.slot} is gone")
        self.chunks.append(chunk)

    def answer_all(self) -> int:
        answered = 0
        while self.chunks:
            chunk = self.chunks.pop(0)
            for seq, sample in zip(chunk.seqs, chunk.samples):
                self.router.on_result(self.slot, self.generation, seq, sample * 2.0)
                answered += 1
        return answered


def make_router(**kwargs) -> Router:
    defaults = dict(max_queue=16, chunk=1, auto_dispatch=False)
    defaults.update(kwargs)
    return Router(**defaults)


def sample(value: float) -> np.ndarray:
    return np.full(2, value, dtype=np.float32)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.deficit_s == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)  # a long idle period must not bank 1000 tokens
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmission:
    def test_queue_bound_sheds_with_retry_after(self):
        router = make_router(max_queue=2)
        FakeReplica(0).register(router)
        router.submit(KEY, sample(1))
        router.submit(KEY, sample(2))
        with pytest.raises(ShedError) as excinfo:
            router.submit(KEY, sample(3))
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.retry_after_s > 0
        snap = router.snapshot()
        assert snap["shed"] == 1 and snap["accepted"] == 2

    def test_queue_bound_is_per_model(self):
        router = make_router(max_queue=1)
        router.submit(KEY, sample(1))
        router.submit(KEY_B, sample(2))  # other model's queue is independent
        with pytest.raises(ShedError):
            router.submit(KEY, sample(3))

    def test_evict_lowest_displaces_lower_priority(self):
        router = make_router(max_queue=2, shed_policy="evict-lowest")
        low = router.submit(KEY, sample(1), priority=0)
        router.submit(KEY, sample(2), priority=5)
        high = router.submit(KEY, sample(3), priority=3)  # displaces `low`
        assert isinstance(low.exception(timeout=1), ShedError)
        assert low.exception().reason == "evicted"
        assert not high.done()
        replica = FakeReplica(0).register(router)
        router.pump()
        replica.answer_all()
        assert high.result(timeout=1)[0] == pytest.approx(6.0)

    def test_evict_lowest_rejects_non_outranking_arrival(self):
        router = make_router(max_queue=1, shed_policy="evict-lowest")
        queued = router.submit(KEY, sample(1), priority=2)
        with pytest.raises(ShedError) as excinfo:
            router.submit(KEY, sample(2), priority=2)  # ties do not displace
        assert excinfo.value.reason == "queue-full"
        assert not queued.done()

    def test_submit_after_close_sheds(self):
        router = make_router()
        router.close()
        with pytest.raises(ShedError, match="shutdown"):
            router.submit(KEY, sample(1))


class TestFairness:
    def test_client_rate_limits_per_client(self):
        clock = FakeClock()
        router = make_router(client_rate=1.0, client_burst=2.0, clock=clock)
        router.submit(KEY, sample(1), client="greedy")
        router.submit(KEY, sample(2), client="greedy")
        with pytest.raises(ShedError) as excinfo:
            router.submit(KEY, sample(3), client="greedy")
        assert excinfo.value.reason == "client-rate"
        assert excinfo.value.retry_after_s == pytest.approx(1.0)
        clock.advance(1.0)
        router.submit(KEY, sample(4), client="greedy")  # refilled

    def test_greedy_client_cannot_starve_polite_one(self):
        # The starvation scenario: one client floods, another trickles.
        # Every polite request must be admitted; the greedy one saturates
        # its own bucket and eats all the sheds.
        clock = FakeClock()
        router = make_router(
            max_queue=1000, client_rate=5.0, client_burst=5.0, clock=clock
        )
        outcomes = {"greedy-ok": 0, "greedy-shed": 0, "polite-ok": 0}
        for tick in range(50):
            clock.advance(0.1)  # greedy offers 10/s against a 5/s allowance
            try:
                router.submit(KEY, sample(tick), client="greedy")
                outcomes["greedy-ok"] += 1
            except ShedError:
                outcomes["greedy-shed"] += 1
            if tick % 5 == 0:  # polite offers 2/s
                router.submit(KEY, sample(tick), client="polite")
                outcomes["polite-ok"] += 1
        assert outcomes["polite-ok"] == 10  # never shed
        assert outcomes["greedy-shed"] > 0
        # Greedy throughput converges on its allowance, not its offered rate.
        assert outcomes["greedy-ok"] <= 5 + 5 * 5  # burst + rate * 5s


class TestDispatch:
    def test_least_outstanding_balances_replicas(self):
        router = make_router()
        a = FakeReplica(0).register(router)
        b = FakeReplica(1).register(router)
        for i in range(6):
            router.submit(KEY, sample(i))
        router.pump()
        assert len(a.chunks) == 3 and len(b.chunks) == 3

    def test_chunking_groups_same_model(self):
        router = make_router(chunk=3)
        replica = FakeReplica(0).register(router)
        futures = [router.submit(KEY, sample(i)) for i in range(5)]
        router.pump()
        assert [len(c) for c in replica.chunks] == [3, 2]
        assert replica.chunks[0].stacked().shape == (3, 2)
        replica.answer_all()
        for i, future in enumerate(futures):
            assert future.result(timeout=1)[0] == pytest.approx(2.0 * i)

    def test_batch_size_histogram_counts_samples_per_chunk(self):
        router = make_router(chunk=3, registry=MetricsRegistry())
        FakeReplica(0).register(router)
        for i in range(5):
            router.submit(KEY, sample(i))
        router.pump()
        sizes = router.registry.get("fleet_batch_size")
        assert (sizes.count, sizes.sum, sizes.max) == (2, 5.0, 3.0)

    def test_priority_order_under_saturation(self):
        router = make_router()
        replica = FakeReplica(0).register(router)
        order = []
        for i, priority in enumerate([0, 5, 1, 5, 2]):
            router.submit(KEY, sample(i), priority=priority)
        while router.step():
            chunk = replica.chunks[-1]
            order.extend(int(s[0]) for s in chunk.samples)
            replica.answer_all()
        # Priorities 5,5 first (FIFO within priority), then 2, 1, 0.
        assert order == [1, 3, 4, 2, 0]

    def test_replica_cap_stalls_dispatch(self):
        router = make_router(replica_cap=2, chunk=8)
        replica = FakeReplica(0).register(router)
        for i in range(5):
            router.submit(KEY, sample(i))
        router.pump()
        assert sum(len(c) for c in replica.chunks) == 2  # capped
        assert router.queued() == 3
        replica.answer_all()
        router.pump()
        assert sum(len(c) for c in replica.chunks) == 2

    def test_busy_replica_waits_for_room_for_a_whole_chunk(self):
        router = make_router(chunk=4, replica_cap=8)
        replica = FakeReplica(0).register(router)
        for i in range(12):
            router.submit(KEY, sample(i))
        router.pump()
        assert [len(c) for c in replica.chunks] == [4, 4]
        first = replica.chunks.pop(0)
        for seq, value in zip(first.seqs[:3], first.samples):
            router.on_result(0, 0, seq, value)  # 3 of 4 done: room 3
        assert router.pump() == 0  # no 3-request fragment
        router.on_result(0, 0, first.seqs[3], first.samples[3])
        router.pump()
        assert [len(c) for c in replica.chunks] == [4, 4]

    def test_busy_replica_holds_one_short_chunk_at_most(self):
        router = make_router(chunk=4, replica_cap=8)
        replica = FakeReplica(0).register(router)
        router.submit(KEY, sample(0))
        router.pump()  # an idle replica takes whatever is queued
        for i in range(1, 3):
            router.submit(KEY, sample(i))
        assert router.pump() == 0  # busy with a short chunk: the queue fills
        for i in range(3, 5):
            router.submit(KEY, sample(i))
        router.pump()
        assert [len(c) for c in replica.chunks] == [1, 4]

    def test_fifo_within_priority(self):
        router = make_router(chunk=8)
        replica = FakeReplica(0).register(router)
        futures = [router.submit(KEY, sample(i)) for i in range(4)]
        router.pump()
        assert list(replica.chunks[0].seqs) == sorted(replica.chunks[0].seqs)
        replica.answer_all()
        assert all(f.done() for f in futures)


class TestFailover:
    def test_replica_failure_requeues_and_redelivers_exactly_once(self):
        router = make_router(chunk=8)
        doomed = FakeReplica(0).register(router)
        futures = [router.submit(KEY, sample(i)) for i in range(4)]
        router.pump()
        assert router.replicas() == {0: 4}
        router.replica_failed(0, generation=0)
        assert router.queued() == 4  # everything requeued, nothing lost
        survivor = FakeReplica(1).register(router)
        router.pump()
        survivor.answer_all()
        for i, future in enumerate(futures):
            assert future.result(timeout=1)[0] == pytest.approx(2.0 * i)
        snap = router.snapshot()
        assert snap["redispatched"] == 4
        # The dead replica's buffered chunks must not double-deliver.
        doomed.answer_all()
        assert router.snapshot()["late_results"] == 4

    def test_send_exception_fails_the_replica_not_the_request(self):
        router = make_router()
        broken = FakeReplica(0).register(router)
        broken.fail_sends = True
        future = router.submit(KEY, sample(7))
        router.pump()
        assert router.replicas() == {}  # broken sender evicted
        assert not future.done()  # request survived, waiting for capacity
        healthy = FakeReplica(1).register(router)
        router.pump()
        healthy.answer_all()
        assert future.result(timeout=1)[0] == pytest.approx(14.0)
        assert router.queued() == 0

    def test_stale_generation_failure_is_ignored(self):
        router = make_router()
        FakeReplica(0).register(router)
        respawn = FakeReplica(0, generation=1)
        router.replica_failed(0, generation=0)
        respawn.register(router)
        router.submit(KEY, sample(1))
        router.pump()
        # The predecessor's late death report must not tear down the respawn.
        router.replica_failed(0, generation=0)
        assert router.replicas() == {0: 1}
        respawn.answer_all()

    def test_late_result_from_evicted_generation_is_dropped(self):
        router = make_router()
        old = FakeReplica(0).register(router)
        future = router.submit(KEY, sample(3))
        router.pump()
        seq = old.chunks[0].seqs[0]
        router.replica_failed(0, generation=0)
        FakeReplica(0, generation=1).register(router)
        router.on_result(0, 0, seq, sample(999))  # stale generation
        assert not future.done()
        assert router.snapshot()["late_results"] == 1

    def test_add_replica_rejects_stale_generation(self):
        router = make_router()
        FakeReplica(0, generation=3).register(router)
        with pytest.raises(ValueError, match="generation"):
            FakeReplica(0, generation=3).register(router)
        with pytest.raises(ValueError, match="generation"):
            FakeReplica(0, generation=2).register(router)

    def test_on_error_propagates_to_caller(self):
        router = make_router()
        replica = FakeReplica(0).register(router)
        future = router.submit(KEY, sample(1))
        router.pump()
        seq = replica.chunks[0].seqs[0]
        router.on_error(0, 0, seq, RuntimeError("inference exploded"))
        with pytest.raises(RuntimeError, match="exploded"):
            future.result(timeout=1)
        assert router.snapshot()["errors"] == 1


class TestLifecycle:
    def test_close_sheds_queued_and_outstanding(self):
        router = make_router()
        replica = FakeReplica(0).register(router)
        dispatched = router.submit(KEY, sample(1))
        router.pump()
        queued = router.submit(KEY, sample(2))
        router.close()
        for future in (dispatched, queued):
            exc = future.exception(timeout=1)
            assert isinstance(exc, ShedError) and exc.reason == "shutdown"
        assert not replica.chunks or router.snapshot()["queued"] == 0

    def test_close_is_idempotent(self):
        router = make_router()
        router.close()
        router.close()

    def test_auto_dispatch_thread_drives_without_pump(self):
        router = Router(max_queue=16, chunk=2, auto_dispatch=True)
        try:
            replica = FakeReplica(0)
            replica.router = router
            router.add_replica(0, replica.send)
            future = router.submit(KEY, sample(5))
            deadline = 5.0
            import time
            start = time.monotonic()
            while not replica.chunks and time.monotonic() - start < deadline:
                time.sleep(0.005)
            assert replica.chunks, "dispatcher thread never moved the request"
            replica.answer_all()
            assert future.result(timeout=5)[0] == pytest.approx(10.0)
        finally:
            router.close()

    def test_snapshot_shape(self):
        router = make_router()
        FakeReplica(0).register(router)
        router.submit(KEY, sample(1))
        snap = router.snapshot()
        assert snap["queued"] == 1
        assert snap["queues"] == {KEY.id: 1}
        assert snap["replicas"] == {"0": 0}
        assert snap["shed_policy"] == "reject"
        assert snap["max_queue"] == 16
        assert snap["retry_after_s"] > 0
