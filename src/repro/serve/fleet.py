"""Replicated serving fleet: shared-memory weights, health-checked replicas.

One :class:`ServingFleet` turns a template :class:`~repro.serve.registry.ModelRegistry`
into ``N`` replicas behind a :class:`~repro.serve.router.Router`:

- **Weights are stored once.**  Every registered model's parameters and
  buffers are packed into one :class:`~repro.nn.shared.SharedBlock` — the
  packer DDP's gradient allreduce uses too — and every replica's module
  attaches *read-only views* into that block.  N replicas of a
  10M-parameter model cost one copy of the arrays, whether the replicas
  are threads in this process or forked children.  Closing the fleet
  unlinks every block and unmaps it once no replica view is left.
- **Replicas are disposable.**  Each replica runs its own micro-batching
  :class:`~repro.serve.engine.ServingEngine` — in-process
  (:class:`ThreadReplica`) or in a forked child that attaches the block
  mapping it inherited (:class:`ProcessReplica`).  A health monitor evicts a
  replica whose process died, whose engine closed, or whose oldest
  dispatched request overran ``replica_deadline_s``, requeues everything it
  held (the router guarantees exactly-once answers), and respawns a fresh
  replica into the same slot at a bumped generation.
- **Responses are bitwise-stable.**  Replicas share the same weight bytes
  and inference runs under row-stable kernels, so a sample's logits are
  identical no matter which replica, batch, or respawn served it — the
  fleet equivalence tests pin fleet output against one-engine
  ``predict_logits``.

Chaos hooks (``kill_replica``, ``slow_replica``) exist for the test and CI
harnesses: killing is indistinguishable from a real crash (SIGKILL for
process replicas, abrupt engine close for thread replicas), and a slowed
replica overruns its deadline and gets evicted like a genuinely wedged one.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..nn.shared import SharedBlock
from ..telemetry import (
    LATENCY_BUCKETS_S,
    NULL,
    MetricsRegistry,
    get_metrics,
    latency_summary_ms,
)
from .engine import BatchSettings, EngineClosedError, ServingEngine
from .registry import ModelKey, ModelRegistry, ServableModel
from .router import Chunk, ReplicaGone, Router, ShedError

__all__ = [
    "FleetSettings",
    "ThreadReplica",
    "ProcessReplica",
    "ServingFleet",
]

#: Replica backends: ``process`` forks children attaching the inherited
#: shared blocks; ``thread`` keeps replicas in-process; ``auto`` prefers
#: ``process`` where ``fork`` exists.
REPLICA_BACKENDS = ("auto", "process", "thread")


def _attached_clone(servable: ServableModel, block: SharedBlock) -> ServableModel:
    """A structural copy of ``servable``'s module wired to the shared block."""
    module = copy.deepcopy(servable.module)
    block.attach(module)
    return ServableModel(
        servable.key, module, source=f"fleet:{servable.source}",
        metadata=dict(servable.metadata),
    )


def _stall_inference(registry: ModelRegistry, delay_s: float) -> None:
    """Chaos hook body: every later inference in ``registry`` stalls ``delay_s``."""
    for servable in map(registry.get, registry.keys()):
        inner = type(servable).predict_logits.__get__(servable)

        def slowed(batch, _inner=inner):
            time.sleep(delay_s)
            return _inner(batch)

        servable.predict_logits = slowed


# ----------------------------------------------------------------------
# Replica backends
# ----------------------------------------------------------------------

class ThreadReplica:
    """An in-process replica: its own engine + registry over shared views."""

    backend = "thread"

    def __init__(
        self,
        slot: int,
        generation: int,
        template: ModelRegistry,
        blocks: "dict[ModelKey, SharedBlock]",
        settings: BatchSettings,
        router: Router,
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.router = router
        self.pid = os.getpid()
        self.registry = ModelRegistry()
        for key in template.keys():
            self.registry.register(_attached_clone(template.get(key), blocks[key]))
        self.engine = ServingEngine(self.registry, settings).start()
        self._failed = False

    def send(self, chunk: Chunk) -> None:
        for seq, sample in zip(chunk.seqs, chunk.samples):
            try:
                future = self.engine.submit(chunk.key, sample)
            except EngineClosedError:
                raise ReplicaGone(f"thread replica {self.slot} engine closed")
            future.add_done_callback(self._completion(seq))

    def _completion(self, seq: int):
        def _done(future) -> None:
            exc = future.exception()
            if exc is None:
                self.router.on_result(self.slot, self.generation, seq, future.result())
            elif isinstance(exc, EngineClosedError):
                # The whole replica died; the router requeues everything it
                # held, so per-request errors would only race the failover.
                self.router.replica_failed(self.slot, self.generation)
            else:
                self.router.on_error(self.slot, self.generation, seq, exc)
        return _done

    def alive(self) -> bool:
        return self.engine._running and not self._failed

    def kill(self) -> None:
        """Chaos hook: die abruptly, stranding whatever was in flight."""
        self._failed = True
        self.engine.close()

    def set_slow(self, delay_s: float) -> None:
        """Chaos hook: every inference on this replica stalls ``delay_s``."""
        _stall_inference(self.registry, delay_s)

    def close(self) -> None:
        self.engine.close()

    def describe(self) -> dict:
        return {"backend": self.backend, "pid": self.pid}


def _replica_main(child_conn, template: ModelRegistry,
                  blocks: "dict[ModelKey, SharedBlock]",
                  settings: BatchSettings) -> None:
    """Forked replica body: attach the shared blocks, serve predict frames.

    The child inherited the template modules and the blocks' mappings via
    fork, and immediately re-points the modules' arrays at read-only views
    of the blocks — so its weights are the same bytes every other replica
    reads, not a copy.  Frames::

        ("predict", model_id, [seq...], stacked_samples) -> ("ok", seqs, logits)
                                                          | ("err", seqs, message)
        ("slow", delay_s)   chaos hook: stall every subsequent inference
        ("stop",)           graceful shutdown
    """
    registry = ModelRegistry()
    for key in template.keys():
        module = template.get(key).module  # inherited; ours to mutate now
        blocks[key].attach(module)
        registry.register(ServableModel(key, module, source="fleet-fork"))
    engine = ServingEngine(registry, settings).start()
    replies = []  # (seqs, futures) awaiting completion, in dispatch order
    reply_ready = threading.Condition()
    stopping = False

    def replier() -> None:
        while True:
            with reply_ready:
                while not replies:
                    if stopping:
                        return
                    reply_ready.wait()
                seqs, futures = replies.pop(0)
            rows, error = [], None
            for future in futures:
                try:
                    rows.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    error = f"{type(exc).__name__}: {exc}"
                    break
            try:
                if error is None:
                    child_conn.send(("ok", seqs, np.stack(rows)))
                else:
                    child_conn.send(("err", seqs, error))
            except (BrokenPipeError, OSError):  # parent went away
                return

    reply_thread = threading.Thread(target=replier, daemon=True)
    reply_thread.start()
    try:
        while True:
            try:
                frame = child_conn.recv()
            except (EOFError, OSError):
                break
            if frame[0] == "stop":
                break
            if frame[0] == "slow":
                _stall_inference(registry, float(frame[1]))
                continue
            _, model_id, seqs, samples = frame
            futures = [engine.submit(model_id, sample) for sample in samples]
            with reply_ready:
                replies.append((seqs, futures))
                reply_ready.notify()
    finally:
        with reply_ready:
            stopping = True
            reply_ready.notify_all()
        engine.close()
        reply_thread.join(timeout=5)
        child_conn.close()


class ProcessReplica:
    """A forked replica: engine + shared-block views in a child process."""

    backend = "process"

    def __init__(
        self,
        slot: int,
        generation: int,
        template: ModelRegistry,
        blocks: "dict[ModelKey, SharedBlock]",
        settings: BatchSettings,
        router: Router,
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.router = router
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_replica_main,
            args=(child_conn, template, blocks, settings),
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
            if frame[0] == "ok":
                _, seqs, rows = frame
                for seq, row in zip(seqs, rows):
                    self.router.on_result(self.slot, self.generation, seq, row)
            elif frame[0] == "err":
                _, seqs, message = frame
                for seq in seqs:
                    self.router.on_error(
                        self.slot, self.generation, seq, RuntimeError(message)
                    )
        if not self._closing:
            self.router.replica_failed(self.slot, self.generation)

    def send(self, chunk: Chunk) -> None:
        try:
            with self._send_lock:
                self._conn.send(("predict", chunk.key.id, chunk.seqs, chunk.stacked()))
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
    """Fleet-level knobs (replica count, admission, health policy)."""

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
    batch: BatchSettings = field(default_factory=BatchSettings)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
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
        if self.backend != "auto":
            return self.backend
        return (
            "process"
            if "fork" in multiprocessing.get_all_start_methods()
            else "thread"
        )


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
    events from the health monitor.
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
        if self._running:
            return self
        if self._root_span is None and self._telemetry is not NULL:
            self._root_span = self._telemetry.span(
                "fleet",
                replicas=self.settings.replicas,
                backend=self._backend,
                max_queue=self.settings.max_queue,
                shed_policy=self.settings.shed_policy,
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
        cls = ProcessReplica if self._backend == "process" else ThreadReplica
        handle = cls(
            position, generation, self.registry, self._blocks,
            self.settings.batch, self.router,
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

    def close(self) -> None:
        """Evict everything, shed leftovers, release the shared blocks."""
        if not self._running:
            return
        self._running = False
        self._stop.set()
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
        if self._root_span is not None:
            with self._tel_lock:
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
            raise RuntimeError("fleet is not running (call start())")
        if isinstance(key, str):
            key = ModelKey.parse(key)
        self.registry.get(key)  # unknown model fails the caller immediately
        started = time.monotonic()
        future = self.router.submit(key, sample, client=client, priority=priority)
        future.add_done_callback(
            lambda f: self._request_latency.observe(time.monotonic() - started)
            if f.exception() is None else None
        )
        return future

    def predict(
        self,
        key: "ModelKey | str",
        inputs: np.ndarray,
        timeout: "float | None" = 30.0,
        client: "str | None" = None,
        priority: int = 0,
    ) -> np.ndarray:
        """Predict logits for one sample or a stack — the engine-compatible API.

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
        """The ``/stats`` payload in fleet mode: router + latency summary."""
        router = self.router.snapshot() if self.router else {}
        return {
            "requests": router.get("requests", 0),
            "accepted": router.get("accepted", 0),
            "shed": router.get("shed", 0),
            "errors": router.get("errors", 0),
            "queued": router.get("queued", 0),
            "evictions": self._evictions.value,
            "respawns": self._respawns.value,
            "latency_ms": latency_summary_ms(self._request_latency),
            "router": router,
        }
