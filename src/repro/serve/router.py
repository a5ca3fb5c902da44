"""Admission control and dispatch for the serving fleet.

The :class:`Router` is the fleet's traffic brain, deliberately decoupled from
any replica transport so its dispatch logic is testable without processes,
threads, or clocks:

- **Admission** — every submitted request first passes per-client fairness
  (a :class:`TokenBucket` keyed by client id), then a bounded per-model
  admission queue.  A request that fails either check is *shed*: its caller
  gets a :class:`ShedError` immediately (the HTTP layer maps it to ``429``
  with a ``Retry-After`` estimate) — shed requests never hang.
- **Dispatch** — accepted requests wait in per-model priority queues
  (higher ``priority`` first, FIFO within a priority) and are handed to the
  healthy replica with the fewest outstanding requests, in same-model
  chunks of one forward pass each.  A busy replica takes at most one short
  chunk and no fragment a completion freed room for, so queued requests
  fill the next chunk instead of costing a forward pass apiece.
- **Failure** — when a replica dies (:meth:`Router.replica_failed`), every
  request it held is requeued at its original position and re-dispatched to
  a surviving replica.  A late result from an evicted replica is dropped
  (counted, never double-delivered), so every accepted request is answered
  *exactly once* — the permutation invariant the property suite pins down.

Replicas appear to the router as ``send(chunk)`` callables registered under
a ``(slot, generation)`` identity; completions flow back through
:meth:`on_result` / :meth:`on_error` / :meth:`replica_failed` carrying that
identity, so a respawned replica reusing a slot can never be confused with
its dead predecessor.  The router runs its own dispatcher thread in
production (``auto_dispatch=True``) but is fully drivable by hand —
``pump()`` — for deterministic tests, with an injectable clock.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import BATCH_SIZE_BUCKETS, QUEUE_DEPTH_BUCKETS, MetricsRegistry, get_metrics
from .registry import ModelKey

__all__ = [
    "ShedError",
    "ReplicaGone",
    "TokenBucket",
    "Chunk",
    "Router",
    "SHED_POLICIES",
]

#: Admission policies for a full queue: ``reject`` sheds the arrival;
#: ``evict-lowest`` sheds the lowest-priority queued request instead when
#: the arrival outranks it (both answer the shed caller immediately).
SHED_POLICIES = ("reject", "evict-lowest")

#: Outstanding-request histogram bound (per replica, observed at dispatch).
_OUTSTANDING_BUCKETS = QUEUE_DEPTH_BUCKETS


class ShedError(RuntimeError):
    """The request was refused (or evicted) by admission control.

    ``retry_after_s`` is the router's drain-time estimate — the HTTP layer
    rounds it up into a ``Retry-After`` header; ``reason`` says which gate
    shed the request (``queue-full``, ``client-rate``, ``evicted``,
    ``shutdown``).
    """

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        super().__init__(f"request shed ({reason}); retry after {retry_after_s:.2f}s")
        self.reason = reason
        self.retry_after_s = retry_after_s


class ReplicaGone(RuntimeError):
    """Raised by a replica's ``send`` when the replica can no longer accept."""


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capped at ``burst``.

    Not thread-safe on its own — the router calls it under its lock.  The
    clock is injectable so fairness tests are deterministic.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp", "clock")

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"token rate must be positive; got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1; got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.clock = clock
        self.stamp = clock()

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; refill lazily from the clock."""
        now = self.clock()
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    @property
    def deficit_s(self) -> float:
        """Seconds until one token is available (0 when acquirable now)."""
        return max(0.0, (1.0 - self.tokens) / self.rate)


class _Request:
    """One accepted sample: identity, payload, and its caller-facing future."""

    __slots__ = (
        "seq", "key", "sample", "client", "priority", "enqueued",
        "future", "done", "dispatched_at",
    )

    def __init__(self, seq: int, key: ModelKey, sample: np.ndarray,
                 client: str, priority: int, enqueued: float) -> None:
        self.seq = seq
        self.key = key
        self.sample = sample
        self.client = client
        self.priority = priority
        self.enqueued = enqueued
        self.future: Future = Future()
        self.done = False  # guarded by the router lock; first completion wins
        self.dispatched_at = 0.0


@dataclass
class Chunk:
    """A same-model batch of requests handed to one replica in one send."""

    key: ModelKey
    seqs: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    def stacked(self) -> np.ndarray:
        """The samples as one ``(k, ...)`` array: the chunk's forward-pass input."""
        return np.stack(self.samples)

    def __len__(self) -> int:
        return len(self.seqs)


class _ReplicaLink:
    """Router-side record of one registered replica."""

    __slots__ = ("slot", "generation", "send", "outstanding", "partial")

    def __init__(self, slot: int, generation: int, send) -> None:
        self.slot = slot
        self.generation = generation
        self.send = send
        self.outstanding: "OrderedDict[int, _Request]" = OrderedDict()
        self.partial: "set[int]" = set()  # unanswered seqs of short chunks


class Router:
    """Least-outstanding-requests dispatch behind bounded admission queues.

    Parameters:

    - ``max_queue`` — per-model admission bound (queued, not yet dispatched).
    - ``shed_policy`` — see :data:`SHED_POLICIES`.
    - ``client_rate`` / ``client_burst`` — per-client token bucket; ``None``
      rate disables fairness limiting.
    - ``chunk`` — most requests one dispatch hands a replica (one forward pass).
    - ``replica_cap`` — most outstanding requests one replica may hold; the
      dispatcher stalls (rather than piling onto a struggling replica) when
      every replica is at its cap, bounding requeue loss on a crash.
    - ``auto_dispatch`` — run the dispatcher thread (production).  Tests use
      ``False`` and call :meth:`pump` by hand.
    - ``clock`` — injectable monotonic clock for deterministic tests.
    - ``registry`` — metrics registry (defaults to the process-global one
      when live metrics are enabled, else a private registry).
    """

    def __init__(
        self,
        max_queue: int = 256,
        shed_policy: str = "reject",
        client_rate: "float | None" = None,
        client_burst: "float | None" = None,
        chunk: int = 8,
        replica_cap: int = 32,
        auto_dispatch: bool = True,
        clock=time.monotonic,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1; got {max_queue}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {shed_policy!r}; choose from {SHED_POLICIES}"
            )
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1; got {chunk}")
        if replica_cap < 1:
            raise ValueError(f"replica_cap must be >= 1; got {replica_cap}")
        self.max_queue = max_queue
        self.shed_policy = shed_policy
        self.client_rate = client_rate
        self.client_burst = client_burst if client_burst is not None else (
            max(1.0, client_rate) if client_rate else 1.0
        )
        self.chunk = chunk
        self.replica_cap = replica_cap
        self.clock = clock
        if registry is None:
            active = get_metrics()
            registry = active if active.enabled else MetricsRegistry()
        self.registry = registry
        self._requests_total = registry.counter(
            "fleet_requests_total", help="Requests submitted to the router")
        self._accepted_total = registry.counter(
            "fleet_accepted_total", help="Requests admitted past fairness + queue bounds")
        self._shed_total = registry.counter(
            "fleet_shed_total", help="Requests shed by admission control (429s)")
        self._redispatch_total = registry.counter(
            "fleet_redispatch_total", help="Requests requeued after a replica failure")
        self._late_results_total = registry.counter(
            "fleet_late_results_total", help="Results from evicted replicas, dropped")
        self._errors_total = registry.counter(
            "fleet_errors_total", help="Requests failed by replica inference errors")
        self._queue_depth = registry.histogram(
            "fleet_queue_depth", QUEUE_DEPTH_BUCKETS,
            help="Per-model admission-queue depth observed at submit")
        self._batch_size = registry.histogram(
            "fleet_batch_size", BATCH_SIZE_BUCKETS,
            help="Samples per chunk dispatched to a replica (one forward pass)")
        self._cond = threading.Condition()
        self._seq = 0
        self._queues: "dict[ModelKey, list[tuple[int, int]]]" = {}
        self._queued: "dict[int, _Request]" = {}
        self._links: "dict[int, _ReplicaLink]" = {}
        self._buckets: "dict[str, TokenBucket]" = {}
        self._ewma_interval_s = 0.0  # smoothed seconds per completion
        self._last_completion = 0.0
        self._closed = False
        self._auto = auto_dispatch
        self._thread: "threading.Thread | None" = None
        self._slot_latency: "dict[int, object]" = {}
        self._slot_outstanding: "dict[int, object]" = {}
        if auto_dispatch:
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="fleet-router", daemon=True
            )
            self._thread.start()

    # -- replica management --------------------------------------------
    def add_replica(self, slot: int, send, generation: int = 0) -> None:
        """Register (or replace, at a higher generation) a replica's sender."""
        with self._cond:
            link = self._links.get(slot)
            if link is not None and link.generation >= generation:
                raise ValueError(
                    f"slot {slot} already registered at generation "
                    f"{link.generation} (>= {generation})"
                )
            if link is not None:
                self._requeue_locked(link)
            self._links[slot] = _ReplicaLink(slot, generation, send)
            self._slot_latency.setdefault(slot, self.registry.histogram(
                f"fleet_replica{slot}_latency_seconds",
                help=f"Dispatch-to-result latency on replica slot {slot}"))
            self._slot_outstanding.setdefault(slot, self.registry.histogram(
                f"fleet_replica{slot}_outstanding", _OUTSTANDING_BUCKETS,
                help=f"Outstanding requests on replica slot {slot} at dispatch"))
            self._cond.notify_all()

    def remove_replica(self, slot: int, generation: "int | None" = None) -> None:
        """Gracefully drop a replica, requeueing anything it still holds."""
        self.replica_failed(slot, generation, redispatch_counts=False)

    def replica_failed(
        self, slot: int, generation: "int | None" = None,
        redispatch_counts: bool = True,
    ) -> None:
        """A replica crashed or was evicted: requeue its in-flight requests.

        ``generation`` (when given) must match the registered link — a stale
        callback from an already-replaced replica is ignored, so respawns
        reusing a slot are never torn down by their predecessor's death.
        """
        with self._cond:
            link = self._links.get(slot)
            if link is None or (generation is not None and link.generation != generation):
                return
            del self._links[slot]
            requeued = self._requeue_locked(link)
            if redispatch_counts and requeued:
                self._redispatch_total.inc(requeued)
            self._cond.notify_all()

    def _requeue_locked(self, link: _ReplicaLink) -> int:
        requeued = 0
        for seq, request in link.outstanding.items():
            if request.done:
                continue
            self._push_locked(request)
            requeued += 1
        link.outstanding.clear()
        return requeued

    def _push_locked(self, request: _Request) -> None:
        """(Re)queue a request; its original seq keeps its FIFO position."""
        self._queued[request.seq] = request
        heapq.heappush(
            self._queues.setdefault(request.key, []),
            (-request.priority, request.seq),
        )

    def replicas(self) -> "dict[int, int]":
        """``{slot: outstanding}`` for every registered replica."""
        with self._cond:
            return {slot: len(link.outstanding) for slot, link in self._links.items()}

    # -- admission ------------------------------------------------------
    def submit(
        self,
        key: "ModelKey | str",
        sample: np.ndarray,
        client: "str | None" = None,
        priority: int = 0,
    ) -> Future:
        """Admit one sample; returns a future of its logits row.

        Raises :class:`ShedError` immediately when admission control refuses
        the request — a shed caller never waits.
        """
        if isinstance(key, str):
            key = ModelKey.parse(key)
        sample = np.asarray(sample)
        with self._cond:
            if self._closed:
                raise ShedError("shutdown", 1.0)
            self._requests_total.inc()
            if self.client_rate is not None:
                bucket = self._buckets.get(client or "")
                if bucket is None:
                    bucket = TokenBucket(
                        self.client_rate, self.client_burst, clock=self.clock
                    )
                    self._buckets[client or ""] = bucket
                if not bucket.try_acquire():
                    self._shed_total.inc()
                    raise ShedError("client-rate", max(bucket.deficit_s, 0.05))
            queue = self._queues.setdefault(key, [])
            if self._model_depth_locked(key) >= self.max_queue:
                victim = self._admit_over_full_locked(key, priority)
                if victim is None:
                    self._shed_total.inc()
                    raise ShedError("queue-full", self._drain_estimate_locked())
                # evict-lowest: the displaced request is answered 429 now.
                self._shed_total.inc()
                victim.done = True
                victim.future.set_exception(
                    ShedError("evicted", self._drain_estimate_locked())
                )
            request = _Request(
                self._seq, key, sample, client or "", priority, self.clock()
            )
            self._seq += 1
            self._push_locked(request)
            self._accepted_total.inc()
            self._queue_depth.observe(self._model_depth_locked(key))
            self._cond.notify_all()
            return request.future

    def _model_depth_locked(self, key: ModelKey) -> int:
        return len(self._queues.get(key, ()))

    def _admit_over_full_locked(self, key: ModelKey, priority: int) -> "_Request | None":
        """Full queue: pick a lower-priority victim to evict, or ``None``."""
        if self.shed_policy != "evict-lowest":
            return None
        queue = self._queues[key]
        worst_index = max(range(len(queue)), key=lambda i: (queue[i][0], queue[i][1]))
        neg_priority, seq = queue[worst_index]
        if -neg_priority >= priority:
            return None  # arrival does not outrank anything queued
        queue[worst_index] = queue[-1]
        queue.pop()
        heapq.heapify(queue)
        return self._queued.pop(seq)

    def _drain_estimate_locked(self) -> float:
        """Retry-After estimate: backlog x smoothed seconds-per-completion."""
        backlog = len(self._queued) + sum(
            len(link.outstanding) for link in self._links.values()
        )
        per = self._ewma_interval_s if self._ewma_interval_s > 0 else 0.01
        return min(30.0, max(0.05, backlog * per))

    # -- dispatch -------------------------------------------------------
    def _pick_locked(self) -> "tuple[ModelKey, _ReplicaLink] | None":
        """The highest-priority oldest model queue + least-loaded replica."""
        best_key = None
        best_rank = None
        for key, queue in self._queues.items():
            while queue and queue[0][1] not in self._queued:
                heapq.heappop(queue)  # lazily drop evicted entries
            if not queue:
                continue
            if best_rank is None or queue[0] < best_rank:
                best_key, best_rank = key, queue[0]
        if best_key is None:
            return None
        # An idle replica takes whatever is queued.  A busy one needs room
        # for the whole next chunk and may hold only one short chunk.
        full = min(self.chunk, self.replica_cap)
        want = min(full, len(self._queues[best_key]))
        link = None
        for candidate in self._links.values():
            if self.replica_cap - len(candidate.outstanding) < want or (
                want < full and candidate.partial
            ):
                continue
            if link is None or len(candidate.outstanding) < len(link.outstanding):
                link = candidate
        if link is None:
            return None
        return best_key, link

    def step(self) -> bool:
        """Dispatch one chunk if possible; returns whether anything moved."""
        with self._cond:
            picked = self._pick_locked()
            if picked is None:
                return False
            key, link = picked
            queue = self._queues[key]
            room = min(self.chunk, self.replica_cap - len(link.outstanding))
            chunk = Chunk(key)
            now = self.clock()
            while queue and len(chunk) < room:
                _, seq = heapq.heappop(queue)
                request = self._queued.pop(seq, None)
                if request is None:
                    continue
                request.dispatched_at = now
                link.outstanding[seq] = request
                chunk.seqs.append(seq)
                chunk.samples.append(request.sample)
            if not chunk:
                return False
            if len(chunk) < min(self.chunk, self.replica_cap):
                link.partial.update(chunk.seqs)
            self._slot_outstanding[link.slot].observe(len(link.outstanding))
            self._batch_size.observe(len(chunk))
            send, slot, generation = link.send, link.slot, link.generation
        try:
            send(chunk)
        except ReplicaGone:
            self.replica_failed(slot, generation)
        except Exception:  # a broken sender is a dead replica, not a crash
            self.replica_failed(slot, generation)
        return True

    def pump(self) -> int:
        """Dispatch until quiescent (manual mode); returns chunks moved."""
        moved = 0
        while self.step():
            moved += 1
        return moved

    def _dispatch_loop(self) -> None:
        while True:
            if not self.step():
                with self._cond:
                    if self._closed:
                        return
                    # Re-check under the lock: submit/notify may have raced.
                    if self._pick_locked() is None:
                        self._cond.wait(timeout=0.5)

    # -- completion callbacks (called by replica transports) -----------
    def on_result(self, slot: int, generation: int, seq: int, row: np.ndarray) -> None:
        """A replica answered ``seq``; deliver unless it was already failed over."""
        with self._cond:
            request = self._pop_outstanding_locked(slot, generation, seq)
            if request is None:
                return
            request.done = True
            now = self.clock()
            self._observe_completion_locked(slot, request, now)
            self._cond.notify_all()
        request.future.set_result(row)

    def on_error(self, slot: int, generation: int, seq: int, exc: BaseException) -> None:
        """A replica's inference failed for ``seq``: propagate to the caller."""
        with self._cond:
            request = self._pop_outstanding_locked(slot, generation, seq)
            if request is None:
                return
            request.done = True
            self._errors_total.inc()
            self._cond.notify_all()
        request.future.set_exception(exc)

    def _pop_outstanding_locked(self, slot, generation, seq) -> "_Request | None":
        link = self._links.get(slot)
        if link is None or link.generation != generation:
            self._late_results_total.inc()
            return None
        request = link.outstanding.pop(seq, None)
        link.partial.discard(seq)
        if request is None or request.done:
            self._late_results_total.inc()
            return None
        return request

    def _observe_completion_locked(self, slot: int, request: _Request, now: float) -> None:
        hist = self._slot_latency.get(slot)
        if hist is not None:
            hist.observe(max(0.0, now - request.dispatched_at))
        if self._last_completion:
            interval = max(1e-6, now - self._last_completion)
            alpha = 0.05
            self._ewma_interval_s = (
                interval if self._ewma_interval_s == 0.0
                else (1 - alpha) * self._ewma_interval_s + alpha * interval
            )
        self._last_completion = now

    # -- introspection / lifecycle --------------------------------------
    def oldest_dispatch_age(self, slot: int) -> float:
        """Seconds the replica's oldest in-flight request has been out (0 = idle)."""
        with self._cond:
            link = self._links.get(slot)
            if link is None or not link.outstanding:
                return 0.0
            seq = next(iter(link.outstanding))
            return max(0.0, self.clock() - link.outstanding[seq].dispatched_at)

    def queued(self) -> int:
        with self._cond:
            return len(self._queued)

    def snapshot(self) -> dict:
        """JSON-shaped router state (part of the ``/fleet`` payload)."""
        with self._cond:
            return {
                "queued": len(self._queued),
                "queues": {key.id: self._model_depth_locked(key)
                           for key in self._queues if self._queues[key]},
                "replicas": {str(slot): len(link.outstanding)
                             for slot, link in self._links.items()},
                "requests": self._requests_total.value,
                "accepted": self._accepted_total.value,
                "shed": self._shed_total.value,
                "redispatched": self._redispatch_total.value,
                "late_results": self._late_results_total.value,
                "errors": self._errors_total.value,
                "retry_after_s": round(self._drain_estimate_locked(), 3),
                "shed_policy": self.shed_policy,
                "max_queue": self.max_queue,
            }

    def close(self) -> None:
        """Stop dispatching; shed everything queued or in flight (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._queued.values())
            self._queued.clear()
            self._queues.clear()
            for link in self._links.values():
                for request in link.outstanding.values():
                    if not request.done:
                        leftovers.append(request)
                link.outstanding.clear()
            self._links.clear()
            for request in leftovers:
                request.done = True
            self._cond.notify_all()
        for request in leftovers:
            request.future.set_exception(ShedError("shutdown", 1.0))
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
