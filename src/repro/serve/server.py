"""Stdlib HTTP front-end for a serving fleet.

A thin JSON endpoint over :class:`~repro.serve.fleet.ServingFleet` (one
replica or many), built on ``http.server.ThreadingHTTPServer`` only — no
third-party web framework.  Each HTTP request thread submits its samples to
the fleet's router, so concurrent clients' requests share chunks exactly
like in-process callers.

Routes::

    GET  /healthz   liveness, model count and healthy replicas
    GET  /models    registry catalog (one summary dict per model)
    GET  /stats     router counts + latency and chunk-size percentiles
    GET  /fleet     fleet status: replicas, generations, evictions, router
                    queues
    GET  /metrics   live metrics registry — Prometheus text exposition
                    format by default, ``?format=json`` for the raw snapshot
    POST /predict   {"model": "<dataset/model/technique/fault>",
                     "inputs": [...], "return": "logits"|"proba"|"labels",
                     "client": "<id>", "priority": <int>}
    POST /shutdown  graceful stop (used by the CI smoke job)

``/predict`` accepts a single sample or a stack of samples as nested lists;
the response carries per-sample rows plus the argmax labels.  Logits are
bitwise-identical to one-at-a-time inference regardless of how the router
chunked them or which replica served them.  ``client``
(or an ``X-Client-Id`` header) and ``priority`` feed the fleet's fairness
and priority admission; a shed request is answered ``429`` with a
``Retry-After`` header, never left hanging.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..log import get_logger
from ..nn.functional import softmax_np
from ..telemetry import get_metrics, render_prometheus
from .router import ShedError

__all__ = ["ServingServer", "serve_forever"]

logger = get_logger("serve.server")

#: Request body size cap (a resnet50-scale image batch fits comfortably).
_MAX_BODY = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the fleet and registry hang off ``self.server``."""

    protocol_version = "HTTP/1.1"
    server: "ServingServer"

    # -- plumbing ------------------------------------------------------
    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError as exc:  # BrokenPipeError, ConnectionResetError
            # The client left before its reply (say, it timed out on a shed
            # request): count it instead of dumping a traceback.
            self.server.exported_metrics().counter(
                "serve_client_gone_total",
                help="Exchanges cut short by a client that closed its connection",
            ).inc()
            logger.debug("client %s:%d gone: %s", *self.client_address[:2], exc)

    def log_message(self, format: str, *args: object) -> None:
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send_json(
        self, payload: dict, status: int = 200,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0 or length > _MAX_BODY:
            raise ValueError(f"request body must be 1..{_MAX_BODY} bytes")
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send_metrics(self, query: str) -> None:
        """The ``/metrics`` scrape of :meth:`ServingServer.exported_metrics`
        — the same data ``/stats`` digests."""
        snapshot = self.server.exported_metrics().snapshot()
        if "format=json" in query.split("&"):
            self._send_json(snapshot)
            return
        body = render_prometheus(snapshot).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:
        server = self.server
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json({
                "status": "ok", "models": len(server.registry),
                "replicas": server.fleet.healthy_replicas(),
            })
        elif path == "/models":
            self._send_json({"models": server.registry.describe()})
        elif path == "/stats":
            self._send_json(server.fleet.stats_snapshot())
        elif path == "/fleet":
            self._send_json(server.fleet.describe())
        elif path == "/metrics":
            self._send_metrics(query)
        else:
            self._send_json({"error": f"unknown path {self.path!r}"}, status=404)

    def do_POST(self) -> None:
        if self.path == "/shutdown":
            self._send_json({"status": "shutting down"})
            # Shut down from another thread: shutdown() blocks until
            # serve_forever returns, which waits on *this* handler otherwise.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if self.path != "/predict":
            self._send_json({"error": f"unknown path {self.path!r}"}, status=404)
            return
        try:
            payload = self._read_json()
            response = self._predict(payload)
        except ShedError as exc:
            retry_after = max(1, math.ceil(exc.retry_after_s))
            self._send_json(
                {"error": str(exc), "reason": exc.reason,
                 "retry_after_s": round(exc.retry_after_s, 3)},
                status=429,
                headers={"Retry-After": str(retry_after)},
            )
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            self._send_json({"error": str(exc)}, status=400)
        # Python < 3.11 keeps futures.TimeoutError distinct from the builtin;
        # catch both so the 503 mapping is version-independent.
        except (concurrent.futures.TimeoutError, TimeoutError):
            self._send_json(
                {
                    "error": "prediction timed out after "
                    f"{self.server.request_timeout_s}s"
                },
                status=503,
            )
        except Exception as exc:  # inference failure
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )
        else:
            self._send_json(response)

    def _predict(self, payload: dict) -> dict:
        if "model" not in payload:
            raise ValueError("request must name a 'model' key")
        if "inputs" not in payload:
            raise ValueError("request must carry 'inputs'")
        kind = payload.get("return", "logits")
        if kind not in ("logits", "proba", "labels"):
            raise ValueError(f"unknown return kind {kind!r}")
        server = self.server
        servable = server.registry.get(payload["model"])  # KeyError → 400
        inputs = np.asarray(payload["inputs"], dtype=np.float32)
        sample_ndim = 1 if servable.key.model == "mlp" else 3
        if inputs.ndim not in (sample_ndim, sample_ndim + 1):
            raise ValueError(
                f"inputs for {servable.key.model!r} must have {sample_ndim} "
                f"(single sample) or {sample_ndim + 1} (stack) dims; "
                f"got shape {inputs.shape}"
            )
        client = payload.get("client") or self.headers.get("X-Client-Id")
        logits = server.fleet.predict(
            servable.key, inputs,
            timeout=server.request_timeout_s,
            client=client, priority=int(payload.get("priority", 0)),
        )
        rows = logits if logits.ndim == 2 else logits[None]
        out: dict = {
            "model": servable.key.id,
            "count": int(rows.shape[0]),
            "labels": rows.argmax(axis=1).tolist(),
        }
        if kind == "logits":
            out["logits"] = rows.tolist()
        elif kind == "proba":
            out["proba"] = softmax_np(rows, axis=1).tolist()
        return out


class ServingServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`~repro.serve.fleet.ServingFleet`.

    ``fleet`` is started by the caller; the server does not own its
    lifecycle (the CLI composes fleet + server and closes both).

    ``request_timeout_s`` bounds how long one ``/predict`` exchange may wait
    on the fleet before the handler answers 503 (service unavailable)
    instead of hanging its client; ``None`` disables the bound.  Shed
    requests (admission control) are answered 429 immediately.
    """

    daemon_threads = True
    # socketserver's default listen backlog (5) resets connections under
    # fleet-scale concurrency; hundreds of clients connect at once in the
    # load/chaos harness and a refused TCP connect is a lost request.
    request_queue_size = 512

    def __init__(
        self, fleet, host: str = "127.0.0.1", port: int = 8777,
        verbose: bool = False, request_timeout_s: "float | None" = 30.0,
    ) -> None:
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive or None; got {request_timeout_s}"
            )
        self.fleet = fleet
        self.registry = fleet.registry
        self.verbose = verbose
        self.request_timeout_s = request_timeout_s
        super().__init__((host, port), _Handler)

    def exported_metrics(self):
        """The registry ``/metrics`` exports: the process-global one when live
        metrics are on (training + serving together), else the fleet's."""
        active = get_metrics()
        return active if active.enabled else self.fleet.metrics

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_forever(
    fleet, host: str = "127.0.0.1", port: int = 8777,
    verbose: bool = False, ready: "threading.Event | None" = None,
    request_timeout_s: "float | None" = 30.0,
) -> ServingServer:
    """Run the HTTP endpoint until ``/shutdown`` or interrupt.

    ``fleet`` is a started :class:`~repro.serve.fleet.ServingFleet`.
    ``ready`` (optional) is set once the socket is bound and the URL is
    known — tests and the smoke job use it to avoid polling for startup.
    ``request_timeout_s`` is the per-request 503 bound (see
    :class:`ServingServer`).
    """
    server = ServingServer(
        fleet, host=host, port=port, verbose=verbose,
        request_timeout_s=request_timeout_s,
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.server_close()
    return server
