"""Reusable load generator for the serving fleet (tests, chaos, benchmarks).

Deterministic by construction: a *schedule* — every request's arrival time,
client id, priority, and sample index — is derived entirely from a seed by
:func:`make_schedule`, so a failing run replays bit-for-bit from its seed.
The same schedules drive three consumers:

- the chaos tests in ``tests/serve/test_fleet.py`` (kill a replica mid-run,
  assert zero lost accepted requests),
- ``benchmarks/bench_fleet.py`` (single-replica baseline vs N-replica fleet),
- the CI ``fleet-smoke`` job (hundreds of concurrent HTTP connections
  against a ``repro-study serve --replicas`` process).

Two driving modes:

- :func:`run_closed_loop` — ``concurrency`` workers each issue their share
  of the schedule back-to-back (arrival times ignored).  Measures sustained
  throughput: the system is always saturated to exactly ``concurrency``
  in-flight requests.
- :func:`run_open_loop` — requests fire at their scheduled arrival times
  regardless of completions (bounded by a worker pool).  Measures latency
  under a target offered rate, and overload behaviour when the rate exceeds
  capacity.

Targets adapt the transport: :class:`FleetTarget` calls a
:class:`~repro.serve.fleet.ServingFleet` in-process; :class:`HTTPTarget`
speaks JSON to a running ``ServingServer`` (stdlib ``urllib`` only).  Both
normalise shedding into ``"shed"`` outcomes (fleet :class:`ShedError`,
HTTP 429) so reports are transport-independent.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro.serve import ShedError

__all__ = [
    "RequestSpec",
    "Outcome",
    "LoadReport",
    "make_schedule",
    "FleetTarget",
    "HTTPTarget",
    "run_closed_loop",
    "run_open_loop",
]


@dataclass(frozen=True)
class RequestSpec:
    """One scheduled request: when, who, how urgent, which sample."""

    index: int
    at_s: float
    sample: int
    client: str
    priority: int = 0


@dataclass
class Outcome:
    """What happened to one request: ``ok`` | ``shed`` | ``error`` | ``lost``.

    ``lost`` means the request was *accepted* (not shed) but never answered
    within its deadline — the one outcome the chaos tests must never see.
    """

    spec: RequestSpec
    status: str
    latency_s: float = 0.0
    labels: "tuple[int, ...]" = ()
    error: str = ""
    retry_after_s: float = 0.0


@dataclass
class LoadReport:
    """Aggregated outcomes of one load run."""

    outcomes: "list[Outcome]" = field(default_factory=list)
    wall_s: float = 0.0

    def _by_status(self, status: str) -> "list[Outcome]":
        return [o for o in self.outcomes if o.status == status]

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return len(self._by_status("ok"))

    @property
    def shed(self) -> int:
        return len(self._by_status("shed"))

    @property
    def errors(self) -> int:
        return len(self._by_status("error"))

    @property
    def lost(self) -> int:
        """Accepted requests that never got an answer — must always be 0."""
        return len(self._by_status("lost"))

    @property
    def accepted(self) -> int:
        return self.sent - self.shed

    def latency_quantile(self, q: float) -> float:
        """Latency quantile in seconds over completed (``ok``) requests."""
        latencies = [o.latency_s for o in self._by_status("ok")]
        if not latencies:
            return 0.0
        return float(np.quantile(np.asarray(latencies), q))

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def ok_by_client(self) -> "dict[str, int]":
        counts: "dict[str, int]" = {}
        for outcome in self._by_status("ok"):
            counts[outcome.spec.client] = counts.get(outcome.spec.client, 0) + 1
        return counts

    def summary(self) -> dict:
        """JSON-shaped digest (recorded into ``BENCH_fleet.json``)."""
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "lost": self.lost,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.latency_quantile(0.50) * 1e3, 3),
            "p99_ms": round(self.latency_quantile(0.99) * 1e3, 3),
        }


def make_schedule(
    n: int,
    rate: float,
    clients: "tuple[str, ...]" = ("c0",),
    samples: int = 1,
    priorities: "tuple[int, ...]" = (0,),
    seed: int = 0,
) -> "list[RequestSpec]":
    """A deterministic open-loop schedule: ``n`` Poisson arrivals at ``rate``/s.

    Every field of every request is a pure function of the arguments, so a
    failing run is replayed by its seed alone.  Clients, priorities, and
    sample indices are drawn uniformly from their pools.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1; got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive; got {rate}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    at = np.cumsum(gaps) - gaps[0]  # first request fires immediately
    client_idx = rng.integers(0, len(clients), size=n)
    sample_idx = rng.integers(0, samples, size=n)
    priority_idx = rng.integers(0, len(priorities), size=n)
    return [
        RequestSpec(
            index=i,
            at_s=float(at[i]),
            sample=int(sample_idx[i]),
            client=clients[client_idx[i]],
            priority=priorities[priority_idx[i]],
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------

class FleetTarget:
    """Drive a :class:`~repro.serve.fleet.ServingFleet` in-process."""

    def __init__(self, fleet, key, inputs: np.ndarray, timeout_s: float = 30.0) -> None:
        self.fleet = fleet
        self.key = key
        self.inputs = np.asarray(inputs)
        self.timeout_s = timeout_s

    def call(self, spec: RequestSpec) -> Outcome:
        sample = self.inputs[spec.sample % len(self.inputs)]
        started = time.monotonic()
        try:
            future = self.fleet.submit(
                self.key, sample, client=spec.client, priority=spec.priority
            )
        except ShedError as exc:
            return Outcome(spec, "shed", retry_after_s=exc.retry_after_s)
        try:
            row = future.result(timeout=self.timeout_s)
        except ShedError as exc:
            # Accepted then evicted/shut down — still a shed, not a loss.
            return Outcome(spec, "shed", retry_after_s=exc.retry_after_s)
        except (FutureTimeoutError, TimeoutError):
            return Outcome(spec, "lost", latency_s=time.monotonic() - started)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            return Outcome(spec, "error", error=f"{type(exc).__name__}: {exc}")
        return Outcome(
            spec, "ok",
            latency_s=time.monotonic() - started,
            labels=(int(np.argmax(row)),),
        )


class HTTPTarget:
    """Drive a running :class:`~repro.serve.server.ServingServer` over HTTP."""

    def __init__(self, url: str, model: str, inputs: np.ndarray,
                 timeout_s: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.model = model
        self.inputs = np.asarray(inputs)
        self.timeout_s = timeout_s

    def call(self, spec: RequestSpec) -> Outcome:
        sample = self.inputs[spec.sample % len(self.inputs)]
        body = json.dumps({
            "model": self.model,
            "inputs": sample.tolist(),
            "return": "labels",
            "client": spec.client,
            "priority": spec.priority,
        }).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}/predict", data=body,
            headers={"Content-Type": "application/json"},
        )
        started = time.monotonic()
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            if exc.code == 429:
                retry_after = float(exc.headers.get("Retry-After", 1))
                return Outcome(spec, "shed", retry_after_s=retry_after)
            if exc.code == 503:
                return Outcome(spec, "lost", latency_s=time.monotonic() - started)
            return Outcome(spec, "error", error=f"HTTP {exc.code}: {detail[:200]}")
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            return Outcome(spec, "lost", latency_s=time.monotonic() - started,
                           error=str(exc))
        return Outcome(
            spec, "ok",
            latency_s=time.monotonic() - started,
            labels=tuple(payload.get("labels", ())),
        )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def run_closed_loop(
    target, schedule: "list[RequestSpec]", concurrency: int = 8,
) -> LoadReport:
    """``concurrency`` workers issue their schedule shares back-to-back.

    Requests are split round-robin by index (deterministic), each worker
    sends sequentially; arrival times are ignored — the run measures
    sustained throughput at exactly ``concurrency`` in-flight requests.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1; got {concurrency}")
    report = LoadReport()
    lock = threading.Lock()

    def worker(shard: "list[RequestSpec]") -> None:
        for spec in shard:
            outcome = target.call(spec)
            with lock:
                report.outcomes.append(outcome)

    shards = [schedule[i::concurrency] for i in range(concurrency)]
    threads = [
        threading.Thread(target=worker, args=(shard,), daemon=True)
        for shard in shards if shard
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.monotonic() - started
    report.outcomes.sort(key=lambda o: o.spec.index)
    return report


def run_open_loop(
    target, schedule: "list[RequestSpec]", max_workers: int = 64,
    time_scale: float = 1.0,
) -> LoadReport:
    """Fire each request at ``at_s * time_scale``, independent of completions.

    A pool of ``max_workers`` threads services the arrivals; when the system
    falls behind the offered rate, arrivals queue at the pool (the
    closed-world approximation of an open-loop generator without unbounded
    thread spawn).  ``time_scale < 1`` compresses the schedule for tests.
    """
    report = LoadReport()
    lock = threading.Lock()
    semaphore = threading.Semaphore(max_workers)
    threads = []
    origin = time.monotonic()

    def fire(spec: RequestSpec) -> None:
        try:
            outcome = target.call(spec)
            with lock:
                report.outcomes.append(outcome)
        finally:
            semaphore.release()

    for spec in schedule:
        delay = origin + spec.at_s * time_scale - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        semaphore.acquire()
        thread = threading.Thread(target=fire, args=(spec,), daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    report.wall_s = time.monotonic() - origin
    report.outcomes.sort(key=lambda o: o.spec.index)
    return report
