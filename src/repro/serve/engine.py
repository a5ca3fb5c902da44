"""Dynamic micro-batching inference engine.

Individual predict requests land in a thread-safe queue; worker threads
coalesce them into batches bounded by ``max_batch_size`` and
``max_latency_ms`` — the classic serving trade-off: a request waits at most
the latency bound for company, and a full batch dispatches immediately.  The
coalesced batch runs one forward pass per batch (im2col and the conv gemms
genuinely vectorise across the coalesced samples), and the per-sample rows
are handed back to each caller's future.  That forward replays the
servable's forward plan for the batch shape, which each worker thread
records on its first batch of that shape
(:meth:`~repro.serve.registry.ServableModel.predict_logits`); a servable
keeps one plan per batch size up to ``max_batch_size``.

**Equivalence discipline.**  Responses are bitwise-independent of how
requests were coalesced: inference runs under
:func:`~repro.nn.functional.row_stable_inference`, so a sample served in a
batch of 8 gets exactly the bits a one-at-a-time
:func:`repro.nn.trainer.predict_logits` call would return.  The batched
equivalence suite (``tests/serve/test_engine.py``) enforces this the same way
``results_equivalent`` locks down serial↔parallel study runs.

**Telemetry.**  Each dispatched batch emits a ``serve_batch`` span (with
``serve_infer`` nested inside) into a per-batch
:class:`~repro.telemetry.RecordingTelemetry`, funneled under the engine's
root ``serve`` span through the single-writer ``write_batch`` path — so a
trace of a serving session validates with the existing
:func:`repro.telemetry.validate_trace` tooling even with concurrent workers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..telemetry import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    NULL,
    QUEUE_DEPTH_BUCKETS,
    MetricsRegistry,
    RecordingTelemetry,
    get_metrics,
    latency_summary_ms,
)
from .registry import ModelKey, ModelRegistry

__all__ = ["BatchSettings", "ServingStats", "ServingEngine", "EngineClosedError"]


class EngineClosedError(RuntimeError):
    """The engine has been closed; it will never serve another request.

    Raised by :meth:`ServingEngine.submit` (and :meth:`ServingEngine.start`)
    after :meth:`ServingEngine.close`, and set on any future that was still
    pending at close time, so a caller can tell a closed engine from a
    failed inference.  Fleet replicas run no engine
    (:mod:`repro.serve.fleet`), so this is a single-engine error.
    """


@dataclass(frozen=True)
class BatchSettings:
    """Micro-batching knobs.

    ``max_batch_size`` caps how many queued samples one dispatch coalesces;
    ``max_latency_ms`` bounds how long the oldest queued request may wait for
    the batch to fill; ``workers`` is the number of inference threads (each
    thread has its own kernel workspace arena, so workers never contend on
    scratch buffers).
    """

    max_batch_size: int = 8
    max_latency_ms: float = 2.0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class ServingStats:
    """Histogram-backed aggregates for one engine (snapshot via :meth:`snapshot`).

    All counts live in a :class:`~repro.telemetry.MetricsRegistry` — the
    process-global one when live metrics are enabled (so the ``/metrics``
    endpoint sees serving traffic alongside everything else), otherwise a
    private registry owned by this engine.  The legacy integer fields
    (``requests``, ``batches``, ``errors``) remain as read-only properties
    over the counters, and ``/stats`` percentiles come from
    :func:`~repro.telemetry.latency_summary_ms` — the same implementation
    ``benchmarks/bench_serving.py`` uses, so live and benched percentiles
    agree by construction.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        if registry is None:
            active = get_metrics()
            registry = active if active.enabled else MetricsRegistry()
        self.registry = registry
        self._requests = registry.counter(
            "serve_requests_total", help="Samples served (one per submitted request)")
        self._batches = registry.counter(
            "serve_batches_total", help="Micro-batches dispatched")
        self._errors = registry.counter(
            "serve_errors_total", help="Batches that failed their callers")
        self.request_latency = registry.histogram(
            "serve_request_latency_seconds", LATENCY_BUCKETS_S,
            help="Per-request enqueue-to-result latency")
        self.batch_size = registry.histogram(
            "serve_batch_size", BATCH_SIZE_BUCKETS,
            help="Coalesced samples per dispatched batch")
        self.queue_depth = registry.histogram(
            "serve_queue_depth", QUEUE_DEPTH_BUCKETS,
            help="Model-queue depth observed at submit time")
        self.max_batch = 0
        self.queue_wait_s = 0.0
        self.infer_s = 0.0

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def errors(self) -> int:
        return self._errors.value

    def snapshot(self) -> dict:
        """JSON-shaped snapshot (the ``/stats`` endpoint payload)."""
        sizes = self.batch_size
        return {
            "requests": self.requests,
            "batches": self.batches,
            "errors": self.errors,
            "max_batch": self.max_batch,
            "mean_batch": round(sizes.mean, 3) if sizes.count else 0.0,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "infer_s": round(self.infer_s, 6),
            "latency_ms": latency_summary_ms(self.request_latency),
            "batch_size": {
                "p50": round(sizes.quantile(0.50), 3),
                "p95": round(sizes.quantile(0.95), 3),
                "p99": round(sizes.quantile(0.99), 3),
                "counts": list(sizes.counts),
                "buckets": list(sizes.bounds),
            },
        }


class _Item:
    """One queued sample: its input array, arrival time, and result future."""

    __slots__ = ("sample", "enqueued", "future")

    def __init__(self, sample: np.ndarray) -> None:
        self.sample = sample
        self.enqueued = time.perf_counter()
        self.future: Future = Future()


class ServingEngine:
    """Micro-batched prediction over a :class:`~repro.serve.registry.ModelRegistry`.

    Use as a context manager, or pair :meth:`start` with :meth:`close`::

        with ServingEngine(registry, BatchSettings(max_batch_size=8)) as engine:
            logits = engine.predict("gtsrb/convnet/baseline/none", images)

    ``telemetry`` (optional) receives a root ``serve`` span for the engine's
    lifetime and one funneled ``serve_batch`` span per dispatched batch.  It
    must be a handle owned by the thread that calls ``start``/``close`` (the
    engine serialises its own writes with an internal lock).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        settings: BatchSettings | None = None,
        telemetry=None,
    ) -> None:
        self.registry = registry
        self.settings = settings or BatchSettings()
        self.stats = ServingStats()
        self._telemetry = telemetry if telemetry is not None else NULL
        self._tel_lock = threading.Lock()
        self._root_span = None
        self._cond = threading.Condition()
        self._queues: "dict[ModelKey, deque[_Item]]" = {}
        self._threads: list[threading.Thread] = []
        self._running = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingEngine":
        """Spawn the worker threads (idempotent; engines are single-use).

        Worker threads are spawned *under the engine lock* so a racing
        :meth:`close` can never observe a half-populated thread list — it
        either sees no workers (start hasn't happened) or all of them.
        """
        if self._telemetry is not NULL:
            root = self._telemetry.span(
                "serve",
                max_batch_size=self.settings.max_batch_size,
                max_latency_ms=self.settings.max_latency_ms,
                workers=self.settings.workers,
            )
        with self._cond:
            if self._closed:
                raise EngineClosedError(
                    "serving engine closed; engines are single-use — build a new one"
                )
            if self._running:
                return self
            self._running = True
            if self._telemetry is not NULL:
                self._root_span = root
                self._root_span.__enter__()
            for index in range(self.settings.workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        return self

    def close(self) -> None:
        """Stop the workers, failing any still-queued requests.

        Closing is terminal: the ``_closed`` flag flips under the same lock
        that :meth:`submit` takes, so a submit racing close either lands in
        ``pending`` (and is failed here) or raises
        :class:`EngineClosedError` — a request can never be enqueued after
        the drain and silently starve.
        """
        with self._cond:
            self._closed = True
            if not self._running:
                return
            self._running = False
            pending = [item for queue in self._queues.values() for item in queue]
            self._queues.clear()
            self._cond.notify_all()
        for item in pending:
            item.future.set_exception(EngineClosedError("serving engine closed"))
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._root_span is not None:
            with self._tel_lock:
                self._telemetry.event(
                    "metrics_snapshot", metrics=self.stats.registry.snapshot()
                )
            snapshot = self.stats.snapshot()
            self._root_span.set(**{
                k: v for k, v in snapshot.items() if not isinstance(v, dict)
            })
            self._root_span.__exit__(None, None, None)
            self._root_span = None

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request path --------------------------------------------------
    def submit(self, key: "ModelKey | str", sample: np.ndarray) -> Future:
        """Queue one sample for prediction; returns a future of its logits row.

        ``sample`` is a single input (no batch axis).  The model key is
        resolved eagerly so an unknown model fails the caller immediately
        rather than poisoning a coalesced batch.
        """
        if isinstance(key, str):
            key = ModelKey.parse(key)
        self.registry.get(key)  # raise KeyError now, not inside a batch
        item = _Item(np.asarray(sample))
        with self._cond:
            if self._closed:
                raise EngineClosedError(
                    "serving engine closed — submit() raced or followed close()"
                )
            if not self._running:
                raise RuntimeError("serving engine is not running (call start())")
            queue = self._queues.setdefault(key, deque())
            queue.append(item)
            depth = len(queue)
            self._cond.notify()
        self.stats.queue_depth.observe(depth)
        return item.future

    def predict(
        self, key: "ModelKey | str", inputs: np.ndarray, timeout: float | None = 30.0
    ) -> np.ndarray:
        """Predict logits for ``inputs`` (one sample or a stack of samples).

        Each sample is submitted as its own request — the equivalence unit —
        so the result is identical whether this call's samples coalesce with
        each other, with other clients' requests, or run alone.
        """
        inputs = np.asarray(inputs)
        servable = self.registry.get(key)
        sample_ndim = 1 if servable.key.model == "mlp" else 3
        batch = inputs if inputs.ndim > sample_ndim else inputs[None]
        futures = [self.submit(key, sample) for sample in batch]
        rows = [future.result(timeout=timeout) for future in futures]
        out = np.stack(rows)
        return out if inputs.ndim > sample_ndim else out[0]

    # -- worker side ---------------------------------------------------
    def _collect_batch(self) -> "tuple[ModelKey, list[_Item]] | None":
        """Block until a batch is ready (or the engine stops); pop and return it.

        Dispatch policy: serve the model whose head-of-line request is oldest;
        dispatch when its queue reaches ``max_batch_size`` or its oldest
        request has waited ``max_latency_ms``.
        """
        max_size = self.settings.max_batch_size
        max_wait = self.settings.max_latency_ms / 1000.0
        with self._cond:
            while True:
                if not self._running:
                    return None
                oldest_key = None
                oldest_t = None
                for key, queue in self._queues.items():
                    if queue and (oldest_t is None or queue[0].enqueued < oldest_t):
                        oldest_key, oldest_t = key, queue[0].enqueued
                if oldest_key is None:
                    self._cond.wait()
                    continue
                queue = self._queues[oldest_key]
                deadline = oldest_t + max_wait
                remaining = deadline - time.perf_counter()
                if len(queue) >= max_size or remaining <= 0:
                    items = [queue.popleft() for _ in range(min(len(queue), max_size))]
                    return oldest_key, items
                # Wait for the batch to fill, but never past the deadline.
                self._cond.wait(timeout=remaining)

    def _worker_loop(self) -> None:
        while True:
            collected = self._collect_batch()
            if collected is None:
                return
            key, items = collected
            self._run_batch(key, items)

    def _run_batch(self, key: ModelKey, items: "list[_Item]") -> None:
        recorder = RecordingTelemetry() if self._telemetry is not NULL else None
        started = time.perf_counter()
        queue_wait = started - min(item.enqueued for item in items)
        servable = self.registry.get(key)
        servable.plan_cap = max(servable.plan_cap, self.settings.max_batch_size)
        span = recorder.span(
            "serve_batch", model=key.id, batch=len(items)
        ) if recorder else None
        try:
            if span:
                span.__enter__()
            batch = np.stack([item.sample for item in items])
            if recorder:
                with recorder.span("serve_infer", batch=len(items)):
                    logits = servable.predict_logits(batch)
            else:
                logits = servable.predict_logits(batch)
            infer_s = time.perf_counter() - started
            if span:
                span.set(queue_wait_s=queue_wait, infer_s=infer_s)
        except BaseException as exc:  # fail every caller in the batch
            if span:
                span.set(outcome="error", error=type(exc).__name__)
                span.__exit__(None, None, None)
            self._record(key, items, queue_wait, 0.0, error=True, recorder=recorder)
            for item in items:
                item.future.set_exception(exc)
            return
        span and span.__exit__(None, None, None)
        servable.predictions += len(items)
        self._record(key, items, queue_wait, infer_s, error=False, recorder=recorder)
        done = time.perf_counter()
        latency = self.stats.request_latency
        for row, item in zip(logits, items):
            item.future.set_result(row)
            latency.observe(done - item.enqueued)

    def _record(
        self,
        key: ModelKey,
        items: "list[_Item]",
        queue_wait: float,
        infer_s: float,
        error: bool,
        recorder: "RecordingTelemetry | None",
    ) -> None:
        """Update stats and funnel the batch's events under the root span."""
        stats = self.stats
        with self._cond:
            stats.max_batch = max(stats.max_batch, len(items))
            stats.queue_wait_s += queue_wait
            stats.infer_s += infer_s
        stats._requests.inc(len(items))
        stats._batches.inc()
        stats.batch_size.observe(len(items))
        if error:
            stats._errors.inc()
        if recorder is not None:
            parent = self._root_span.id if self._root_span is not None else None
            with self._tel_lock:
                self._telemetry.write_batch(recorder.drain(), parent=parent)
