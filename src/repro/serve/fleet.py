"""Replicated serving fleet: shared-memory weights, health-checked replicas.

One :class:`ServingFleet` turns a template :class:`~repro.serve.registry.ModelRegistry`
into ``N`` replicas behind a :class:`~repro.serve.router.Router`:

- **Weights are stored once.**  Every registered model's parameters and
  buffers are packed into one :class:`~repro.nn.shared.SharedBlock`, and
  every replica's module attaches *read-only views* into that block.  N
  replicas of a 10M-parameter model cost one copy of the arrays, whether
  the replicas are threads in this process or forked children.  Closing
  the fleet unlinks every block and unmaps it once no replica view is
  left.
- **The router's chunk is the only batch.**  A replica runs each chunk of
  up to ``FleetSettings.chunk`` requests as one forward pass and sends one
  reply — one worker thread draining a FIFO of chunks
  (:class:`ThreadReplica`), or a forked child's recv → forward → send loop
  over the block mapping it inherited (:class:`ProcessReplica`).  Each
  replica's servables keep their own forward plans, one per chunk size,
  built by that replica's first chunk of the size.  One replica is a fleet
  too: ``repro-study serve`` runs every replica count through this module,
  and ``auto`` keeps a single replica in-process as a thread.
- **Replicas are disposable.**  A health monitor evicts a replica whose
  process or worker died, or whose oldest dispatched request overran
  ``replica_deadline_s``, requeues everything it held (the router guarantees
  exactly-once answers), and respawns a fresh replica into the same slot at
  a bumped generation, never waiting on a worker that is mid-inference.
- **Responses are bitwise-stable.**  Replicas share the same weight bytes
  and inference runs under row-stable kernels, so a sample's logits are
  identical no matter which replica, chunk, or respawn served it — the
  fleet equivalence tests pin fleet output against one-at-a-time
  ``predict_logits``.

Chaos hooks (``kill_replica``, ``slow_replica``) exist for the test and CI
harnesses: killing is indistinguishable from a real crash (SIGKILL for
process replicas; a thread replica's worker stops taking chunks), and a
slowed replica overruns its deadline and gets evicted like a genuinely
wedged one.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..nn.shared import SharedBlock
from ..telemetry import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    NULL,
    Histogram,
    MetricsRegistry,
    RecordingTelemetry,
    get_metrics,
    latency_summary_ms,
)
from .registry import PLAN_CAP, ModelKey, ModelRegistry, ServableModel
from .router import SHED_POLICIES, Chunk, ReplicaGone, Router, ShedError

__all__ = [
    "FleetSettings",
    "ThreadReplica",
    "ProcessReplica",
    "ServingFleet",
]

#: Replica backends: ``process`` forks children attaching the inherited
#: shared blocks; ``thread`` keeps replicas in-process; ``auto`` runs one
#: replica as a thread and more as processes where ``fork`` exists.
REPLICA_BACKENDS = ("auto", "process", "thread")


def _attached_clone(servable: ServableModel, block: SharedBlock, plan_cap: int) -> ServableModel:
    """A structural copy of ``servable``'s module wired to the shared block."""
    module = copy.deepcopy(servable.module)
    block.attach(module)
    return ServableModel(
        servable.key, module, source=f"fleet:{servable.source}",
        metadata=dict(servable.metadata), plan_cap=plan_cap,
    )


def _plan_cap(router: Router) -> int:
    """Plans a replica's servables keep: one per chunk size the router sends."""
    return max(PLAN_CAP, min(router.chunk, router.replica_cap))


def _stall_inference(registry: ModelRegistry, delay_s: float, wait=time.sleep) -> None:
    """Chaos hook body: every later inference in ``registry`` stalls ``delay_s``."""
    for servable in map(registry.get, registry.keys()):
        inner = type(servable).predict_logits.__get__(servable)

        def slowed(batch, _inner=inner):
            wait(delay_s)
            return _inner(batch)

        servable.predict_logits = slowed


# ----------------------------------------------------------------------
# Replica backends
# ----------------------------------------------------------------------

def _run_chunk(registry: ModelRegistry, chunk: Chunk) -> tuple:
    """One chunk, one forward pass: ``("ok", seqs, logits)`` or ``("err", seqs, message)``.

    Stacking is part of the guarded work: a chunk whose samples differ in
    shape fails its own callers, never the replica.
    """
    try:
        return ("ok", chunk.seqs, registry.get(chunk.key).predict_logits(chunk.stacked()))
    except Exception as exc:  # noqa: BLE001 - reported to the chunk's callers
        return ("err", chunk.seqs, f"{type(exc).__name__}: {exc}")


def _deliver(router: Router, slot: int, generation: int, frame: tuple) -> None:
    """Answer every request of one reply frame through the router."""
    kind, seqs, payload = frame
    if kind == "ok":
        for seq, row in zip(seqs, payload):
            router.on_result(slot, generation, seq, row)
    else:
        for seq in seqs:
            router.on_error(slot, generation, seq, RuntimeError(payload))


class ThreadReplica:
    """An in-process replica: one worker thread over shared-block views.

    ``trace`` (optional) receives each chunk's recorded ``serve_batch`` span;
    without it the worker records nothing.
    """

    backend = "thread"

    def __init__(
        self,
        slot: int,
        generation: int,
        template: ModelRegistry,
        blocks: "dict[ModelKey, SharedBlock]",
        router: Router,
        trace=None,
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.router = router
        self.pid = os.getpid()
        self._trace = trace
        self.registry = ModelRegistry()
        for key in template.keys():
            self.registry.register(_attached_clone(template.get(key), blocks[key], _plan_cap(router)))
        self._inbox: "queue.SimpleQueue[Chunk | None]" = queue.SimpleQueue()
        self._stopped = threading.Event()
        self._worker = threading.Thread(
            target=self._work, name=f"fleet-replica-{slot}", daemon=True
        )
        self._worker.start()

    def _work(self) -> None:
        while True:
            chunk = self._inbox.get()
            if self._stopped.is_set():
                return
            if self._trace is None:
                frame = _run_chunk(self.registry, chunk)
            else:
                frame = self._traced_chunk(chunk)
            _deliver(self.router, self.slot, self.generation, frame)

    def _traced_chunk(self, chunk: Chunk) -> tuple:
        """:func:`_run_chunk` inside one ``serve_batch`` span, handed to ``trace``."""
        recorder = RecordingTelemetry()
        with recorder.span("serve_batch", model=chunk.key.id, batch=len(chunk)) as span:
            started = time.perf_counter()
            frame = _run_chunk(self.registry, chunk)
            span.set(infer_s=time.perf_counter() - started)
            if frame[0] == "err":
                span.set(outcome="error", error=frame[2].partition(":")[0])
        self._trace(recorder.drain())
        return frame

    def send(self, chunk: Chunk) -> None:
        if self._stopped.is_set():
            raise ReplicaGone(f"thread replica {self.slot} stopped")
        self._inbox.put(chunk)

    def alive(self) -> bool:
        return not self._stopped.is_set() and self._worker.is_alive()

    def kill(self) -> None:
        """Chaos hook: die abruptly, stranding whatever was in flight."""
        self._stopped.set()
        self._inbox.put(None)  # wake an idle worker

    def set_slow(self, delay_s: float) -> None:
        """Chaos hook: every inference stalls ``delay_s``, or until the replica stops."""
        _stall_inference(self.registry, delay_s, wait=self._stopped.wait)

    def close(self) -> None:
        """Stop taking chunks; a worker mid-inference finishes on its own."""
        self.kill()

    def describe(self) -> dict:
        return {"backend": self.backend, "pid": self.pid}


def _replica_main(child_conn, template: ModelRegistry,
                  blocks: "dict[ModelKey, SharedBlock]", plan_cap: int) -> None:
    """Forked replica body: attach the shared blocks, then recv → forward → send.

    The child inherited the template modules and the blocks' mappings via
    fork, and immediately re-points the modules' arrays at read-only views
    of the blocks — so its weights are the same bytes every other replica
    reads, not a copy.  Frames::

        ("predict", chunk)  -> ("ok", seqs, logits) | ("err", seqs, message)
        ("slow", delay_s)   chaos hook: stall every subsequent inference
        ("stop",)           graceful shutdown
    """
    registry = ModelRegistry()
    for key in template.keys():
        module = template.get(key).module  # inherited; ours to mutate now
        blocks[key].attach(module)
        registry.register(ServableModel(key, module, source="fleet-fork", plan_cap=plan_cap))
    try:
        while True:
            frame = child_conn.recv()
            if frame[0] == "stop":
                break
            if frame[0] == "slow":
                _stall_inference(registry, float(frame[1]))
                continue
            child_conn.send(_run_chunk(registry, frame[1]))
    except (EOFError, OSError):  # parent went away
        pass
    finally:
        child_conn.close()


class ProcessReplica:
    """A forked replica: shared-block views and a forward loop in a child."""

    backend = "process"

    def __init__(
        self,
        slot: int,
        generation: int,
        template: ModelRegistry,
        blocks: "dict[ModelKey, SharedBlock]",
        router: Router,
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.router = router
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_replica_main,
            args=(child_conn, template, blocks, _plan_cap(router)),
            daemon=True,
            name=f"fleet-replica-{slot}",
        )
        self._proc.start()
        child_conn.close()
        self.pid = self._proc.pid
        self._send_lock = threading.Lock()
        self._closing = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"fleet-reader-{slot}", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                frame = self._conn.recv()
            except (EOFError, OSError):
                break
            _deliver(self.router, self.slot, self.generation, frame)
        if not self._closing:
            self.router.replica_failed(self.slot, self.generation)

    def send(self, chunk: Chunk) -> None:
        try:
            with self._send_lock:
                self._conn.send(("predict", chunk))
        except (BrokenPipeError, OSError):
            raise ReplicaGone(f"process replica {self.slot} pipe broken")

    def alive(self) -> bool:
        return self._proc.is_alive()

    def kill(self) -> None:
        """Chaos hook: SIGKILL — indistinguishable from a real crash."""
        try:
            os.kill(self._proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - already gone
            pass

    def set_slow(self, delay_s: float) -> None:
        try:
            with self._send_lock:
                self._conn.send(("slow", float(delay_s)))
        except (BrokenPipeError, OSError):  # pragma: no cover - dying replica
            pass

    def close(self) -> None:
        self._closing = True
        try:
            with self._send_lock:
                self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - stuck child safety net
            self._proc.terminate()
            self._proc.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._reader.join(timeout=5)

    def describe(self) -> dict:
        return {"backend": self.backend, "pid": self.pid}


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetSettings:
    """Fleet-level knobs; ``chunk`` also caps a replica's forward batch.

    The defaults are the library's two-replica fleet; ``repro-study serve``
    asks for one replica unless ``--replicas`` says otherwise.
    """

    replicas: int = 2
    backend: str = "auto"
    max_queue: int = 256
    shed_policy: str = "reject"
    client_rate: "float | None" = None
    client_burst: "float | None" = None
    chunk: int = 8
    replica_cap: int = 32
    replica_deadline_s: float = 30.0
    health_interval_s: float = 0.25
    max_respawns: int = 16

    def __post_init__(self) -> None:
        # The router's own checks too: start() has packed the weights by the
        # time it builds the router, so a bad value must fail here.
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.replica_cap < 1:
            raise ValueError("replica_cap must be >= 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; choose from {SHED_POLICIES}"
            )
        if self.backend not in REPLICA_BACKENDS:
            raise ValueError(
                f"unknown replica backend {self.backend!r}; choose from {REPLICA_BACKENDS}"
            )
        if self.replica_deadline_s <= 0:
            raise ValueError("replica_deadline_s must be positive")
        if self.health_interval_s <= 0:
            raise ValueError("health_interval_s must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")

    def resolved_backend(self) -> str:
        """``auto`` keeps a single replica in-process; more fork where possible."""
        if self.backend != "auto":
            return self.backend
        if self.replicas > 1 and "fork" in multiprocessing.get_all_start_methods():
            return "process"
        return "thread"


class _Slot:
    """Fleet-side record of one replica position across respawns."""

    __slots__ = ("position", "generation", "handle", "evictions", "spawned_at")

    def __init__(self, position: int, generation: int, handle, now: float) -> None:
        self.position = position
        self.generation = generation
        self.handle = handle
        self.evictions = 0
        self.spawned_at = now


class ServingFleet:
    """N health-checked replicas behind admission control and a router.

    Use as a context manager, or pair :meth:`start` with :meth:`close`::

        fleet = ServingFleet(registry, FleetSettings(replicas=4)).start()
        logits = fleet.predict("gtsrb/convnet/baseline/none", images)

    ``registry`` is the *template*: its modules' weights are packed into
    shared blocks at :meth:`start`, and the template itself is kept pristine
    as the source for respawned replicas.  ``telemetry`` (optional) gets a
    root ``fleet`` span plus ``replica_evicted`` / ``replica_respawned``
    events from the health monitor, and one ``serve_batch`` span per chunk
    a thread replica runs, written under the root span through one lock.
    Process replicas send no spans.  A fleet is single-use: after
    :meth:`close`, :meth:`start` and :meth:`submit` raise.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        settings: "FleetSettings | None" = None,
        telemetry=None,
    ) -> None:
        self.registry = registry
        self.settings = settings or FleetSettings()
        self._telemetry = telemetry if telemetry is not None else NULL
        self._tel_lock = threading.Lock()
        self._root_span = None
        active = get_metrics()
        self.metrics = active if active.enabled else MetricsRegistry()
        self._evictions = self.metrics.counter(
            "fleet_evictions_total", help="Replicas evicted (crash, close, deadline)")
        self._respawns = self.metrics.counter(
            "fleet_respawns_total", help="Replicas respawned into an evicted slot")
        self._request_latency = self.metrics.histogram(
            "fleet_request_latency_seconds", LATENCY_BUCKETS_S,
            help="Submit-to-result latency through the fleet")
        self.router: "Router | None" = None
        self._blocks: "dict[ModelKey, SharedBlock]" = {}
        self._slots: "dict[int, _Slot]" = {}
        self._lock = threading.Lock()
        self._health: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._running = False
        self._backend = self.settings.resolved_backend()
        self._respawns_left = self.settings.max_respawns

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingFleet":
        """Pack the weights, spawn the replicas and the health monitor (idempotent)."""
        if self._stop.is_set():
            raise RuntimeError("fleet closed; fleets are single-use, build a new one")
        if self._running:
            return self
        if self._root_span is None and self._telemetry is not NULL:
            self._root_span = self._telemetry.span(
                "fleet",
                replicas=self.settings.replicas,
                backend=self._backend,
                max_queue=self.settings.max_queue,
                shed_policy=self.settings.shed_policy,
                chunk=self.settings.chunk,
            )
            self._root_span.__enter__()
        for key in self.registry.keys():
            self._blocks[key] = SharedBlock.from_module(self.registry.get(key).module)
        self.router = Router(
            max_queue=self.settings.max_queue,
            shed_policy=self.settings.shed_policy,
            client_rate=self.settings.client_rate,
            client_burst=self.settings.client_burst,
            chunk=self.settings.chunk,
            replica_cap=self.settings.replica_cap,
            registry=self.metrics,
        )
        for position in range(self.settings.replicas):
            self._spawn(position, generation=0)
        self._running = True
        self._health = threading.Thread(
            target=self._health_loop, name="fleet-health", daemon=True
        )
        self._health.start()
        return self

    def _spawn(self, position: int, generation: int) -> None:
        if self._backend == "process":
            handle = ProcessReplica(
                position, generation, self.registry, self._blocks, self.router
            )
        else:
            trace = None if self._telemetry is NULL else self._write_batch
            handle = ThreadReplica(
                position, generation, self.registry, self._blocks, self.router, trace
            )
        with self._lock:
            slot = self._slots.get(position)
            if slot is None:
                self._slots[position] = _Slot(
                    position, generation, handle, time.monotonic()
                )
            else:
                slot.generation = generation
                slot.handle = handle
                slot.spawned_at = time.monotonic()
        self.router.add_replica(position, handle.send, generation)

    def _health_loop(self) -> None:
        deadline = self.settings.replica_deadline_s
        while not self._stop.wait(self.settings.health_interval_s):
            with self._lock:
                slots = list(self._slots.values())
            for slot in slots:
                handle = slot.handle
                overrun = self.router.oldest_dispatch_age(slot.position) > deadline
                if handle.alive() and not overrun:
                    continue
                self._evict_and_respawn(slot, reason="deadline" if overrun else "crash")

    def _evict_and_respawn(self, slot: _Slot, reason: str) -> None:
        handle, generation = slot.handle, slot.generation
        self._evictions.inc()
        with self._lock:
            slot.evictions += 1
        # Requeue first so stranded requests fail over before the close
        # below floods the router with stale-generation callbacks.
        self.router.replica_failed(slot.position, generation)
        try:
            if handle.backend == "process" and handle.alive():
                handle.kill()
            handle.close()
        except Exception:  # pragma: no cover - dying replicas may misbehave
            pass
        self._emit("replica_evicted", position=slot.position,
                   generation=generation, reason=reason)
        if self._stop.is_set():
            return
        if self._respawns_left <= 0:
            return
        self._respawns_left -= 1
        self._spawn(slot.position, generation + 1)
        self._respawns.inc()
        self._emit("replica_respawned", position=slot.position,
                   generation=generation + 1)

    def _emit(self, name: str, **attrs) -> None:
        if self._telemetry is NULL:
            return
        with self._tel_lock:
            self._telemetry.event(name, **attrs)

    def _write_batch(self, events: list) -> None:
        """Funnel a replica's recorded span under the root span (dropped once closed)."""
        with self._tel_lock:
            if self._root_span is not None:
                self._telemetry.write_batch(events, parent=self._root_span.id)

    def close(self) -> None:
        """Evict everything, shed leftovers, release the shared blocks.

        Closing is terminal, also for a fleet that never started.
        """
        self._stop.set()
        if not self._running:
            return
        self._running = False
        if self._health is not None:
            self._health.join(timeout=5)
            self._health = None
        if self.router is not None:
            self.router.close()
        with self._lock:
            slots = list(self._slots.values())
            self._slots.clear()
        for slot in slots:
            try:
                slot.handle.close()
            except Exception:  # pragma: no cover - crashed replicas
                pass
        for block in self._blocks.values():
            block.close()
        self._blocks.clear()
        with self._tel_lock:
            if self._root_span is not None:
                self._telemetry.event(
                    "metrics_snapshot", metrics=self.metrics.snapshot()
                )
                self._root_span.set(
                    evictions=self._evictions.value, respawns=self._respawns.value
                )
                self._root_span.__exit__(None, None, None)
                self._root_span = None

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request path --------------------------------------------------
    def submit(
        self,
        key: "ModelKey | str",
        sample: np.ndarray,
        client: "str | None" = None,
        priority: int = 0,
    ):
        """Admit one sample through the router; returns a future of its row.

        Raises :class:`~repro.serve.router.ShedError` immediately when
        admission control refuses the request.
        """
        if not self._running:
            if self._stop.is_set():
                raise RuntimeError("fleet closed; submit() followed close()")
            raise RuntimeError("fleet is not running (call start())")
        if isinstance(key, str):
            key = ModelKey.parse(key)
        servable = self.registry.get(key)  # unknown model fails the caller now
        started = time.monotonic()
        future = self.router.submit(key, sample, client=client, priority=priority)
        future.add_done_callback(lambda f: self._answered(servable, started, f))
        return future

    def _answered(self, servable: ServableModel, started: float, future) -> None:
        """Count one delivered row in the fleet latency and on the template
        servable ``/models`` describes (replicas infer on clones or children)."""
        if future.exception() is not None:
            return
        self._request_latency.observe(time.monotonic() - started)
        with self._lock:
            servable.predictions += 1

    def predict(
        self,
        key: "ModelKey | str",
        inputs: np.ndarray,
        timeout: "float | None" = 30.0,
        client: "str | None" = None,
        priority: int = 0,
    ) -> np.ndarray:
        """Predict logits for one sample or a stack.

        Samples are admitted individually (the equivalence unit), so the
        result is bitwise-identical however the router spreads them across
        replicas.  If admission sheds a sample the whole call raises
        :class:`ShedError`; already-admitted samples complete internally.
        """
        inputs = np.asarray(inputs)
        servable = self.registry.get(key)
        sample_ndim = 1 if servable.key.model == "mlp" else 3
        batch = inputs if inputs.ndim > sample_ndim else inputs[None]
        futures = [
            self.submit(servable.key, sample, client=client, priority=priority)
            for sample in batch
        ]
        rows = [future.result(timeout=timeout) for future in futures]
        out = np.stack(rows)
        return out if inputs.ndim > sample_ndim else out[0]

    # -- chaos hooks (tests / CI harness) -------------------------------
    def kill_replica(self, position: int) -> None:
        """Crash one replica abruptly; the health monitor evicts + respawns."""
        with self._lock:
            handle = self._slots[position].handle
        handle.kill()

    def slow_replica(self, position: int, delay_s: float) -> None:
        """Wedge one replica: every inference stalls ``delay_s`` seconds."""
        with self._lock:
            handle = self._slots[position].handle
        handle.set_slow(delay_s)

    def replica_pids(self) -> "list[int]":
        with self._lock:
            return [slot.handle.pid for slot in self._slots.values()]

    # -- introspection ---------------------------------------------------
    def healthy_replicas(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots.values() if slot.handle.alive())

    def describe(self) -> dict:
        """JSON-shaped fleet status (the ``/fleet`` endpoint payload)."""
        with self._lock:
            replicas = [
                {
                    "position": slot.position,
                    "generation": slot.generation,
                    "alive": slot.handle.alive(),
                    "evictions": slot.evictions,
                    "uptime_s": round(time.monotonic() - slot.spawned_at, 3),
                    **slot.handle.describe(),
                }
                for slot in sorted(self._slots.values(), key=lambda s: s.position)
            ]
        return {
            "backend": self._backend,
            "replicas": replicas,
            "evictions": self._evictions.value,
            "respawns": self._respawns.value,
            "router": self.router.snapshot() if self.router else {},
            "models": [key.id for key in self.registry.keys()],
            "settings": {
                "replicas": self.settings.replicas,
                "max_queue": self.settings.max_queue,
                "shed_policy": self.settings.shed_policy,
                "client_rate": self.settings.client_rate,
                "replica_deadline_s": self.settings.replica_deadline_s,
            },
        }

    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload: router counts, latency and chunk-size summaries.

        A batch is one router chunk, i.e. one replica forward pass.
        """
        router = self.router.snapshot() if self.router else {}
        sizes = self.metrics.get("fleet_batch_size")
        if sizes is None:  # not started: the router registers it
            sizes = Histogram("fleet_batch_size", BATCH_SIZE_BUCKETS)
        return {
            "requests": router.get("requests", 0),
            "accepted": router.get("accepted", 0),
            "shed": router.get("shed", 0),
            "errors": router.get("errors", 0),
            "queued": router.get("queued", 0),
            "evictions": self._evictions.value,
            "respawns": self._respawns.value,
            "batches": sizes.count,
            "mean_batch": round(sizes.mean, 3),
            "latency_ms": latency_summary_ms(self._request_latency),
            "batch_size": {
                "p50": round(sizes.quantile(0.50), 3),
                "p95": round(sizes.quantile(0.95), 3),
                "p99": round(sizes.quantile(0.99), 3),
                "counts": list(sizes.counts),
                "buckets": list(sizes.bounds),
            },
            "router": router,
        }
