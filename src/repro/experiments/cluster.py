"""Multi-host study execution: a socket coordinator leasing cells to workers.

:class:`ClusterExecutor` is the third :class:`~repro.experiments.executors.Executor`
— after serial and process-pool — and the first that crosses machine
boundaries.  The coordinator (run inline by ``map()``, inside the collector
process) listens on a TCP socket; any number of :func:`run_worker` processes,
on any host, connect and pull work:

``hello → welcome(settings) → unit → result → unit → … → shutdown``

Every message is a *length-prefixed pickle frame*: a 4-byte big-endian
payload length followed by the pickled tuple.  Frames compose the exact
objects the process-pool path already ships through ``ProcessPoolExecutor``
(a :class:`~repro.experiments.executors.PlanUnit` out — a study cell or a
hardware-campaign unit — and a
:class:`~repro.experiments.resilience.CellOutcome` back, telemetry events
and metrics snapshots riding along), and workers execute them through the
same ``_execute_unit_in_worker`` entry point, so serial, ``--jobs N``, and
cluster runs produce identical checkpoints, traces, and merged counters for
the same plan.  Determinism needs no cooperation from the scheduler: each
unit's result is a pure function of the unit (the CRC32 seed chain), never
of which worker ran it.

Crash safety is lease-based.  A dispatched unit is a *lease* with a
deadline; workers refresh it with heartbeats (sent from a side thread, so a
long ``fit`` keeps its lease).  A worker that disconnects or goes silent
past the deadline forfeits the lease: the coordinator emits a
``worker_lost`` telemetry event, closes the connection, and re-queues the
unit for the next free worker.  If the lost worker was merely slow and its
result arrives later anyway, the duplicate is dropped — each plan index is
yielded (and therefore checkpointed) exactly once.  A malformed or
truncated frame poisons only its own connection: the coordinator closes it,
re-queues the lease, and keeps serving everyone else.

Pickle frames execute arbitrary code on unpickling — run coordinators and
workers only on hosts/networks you trust, exactly like every pickle-based
RPC (``multiprocessing`` included).
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct
import threading
import time
from collections import deque
from typing import Iterator

from ..log import get_logger
from .executors import ExecutionSettings, PlanUnit, _execute_unit_in_worker
from .resilience import CellOutcome

logger = get_logger("experiments.cluster")

__all__ = ["ClusterExecutor", "run_worker", "FrameError"]

_HEADER = struct.Struct(">I")
#: Frames above this are corruption, not data (a whole study's outcomes fit
#: in a few MB) — reject early instead of trying to allocate the "length".
MAX_FRAME_BYTES = 1 << 30


class FrameError(ValueError):
    """A connection delivered bytes that are not a valid frame."""


def pack_frame(message: object) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


def _send_frame(sock: socket.socket, message: object) -> None:
    sock.sendall(pack_frame(message))


def parse_frames(buf: bytearray) -> "list[object]":
    """Pop every complete frame off ``buf`` (in place); raise FrameError on rot.

    A *partial* frame is not an error — it stays buffered until more bytes
    arrive.  A length prefix beyond :data:`MAX_FRAME_BYTES` or a payload
    that fails to unpickle is malformed, and the caller must drop the
    connection (the stream has no resync point past a bad frame).
    """
    messages: "list[object]" = []
    while len(buf) >= _HEADER.size:
        (length,) = _HEADER.unpack(buf[: _HEADER.size])
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        if len(buf) < _HEADER.size + length:
            break
        payload = bytes(buf[_HEADER.size : _HEADER.size + length])
        del buf[: _HEADER.size + length]
        try:
            messages.append(pickle.loads(payload))
        except Exception as exc:
            raise FrameError(f"undecodable frame payload: {exc}") from exc
    return messages


def _recv_frame(sock: socket.socket) -> object:
    """Blocking read of exactly one frame (the worker side's receive loop)."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    __slots__ = ("sock", "addr", "buf", "host", "pid", "unit_index", "deadline", "ready")

    def __init__(self, sock: socket.socket, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.buf = bytearray()
        self.host: "str | None" = None
        self.pid: "int | None" = None
        self.unit_index: "int | None" = None
        self.deadline = 0.0
        self.ready = False

    def describe(self) -> str:
        if self.host is not None:
            return f"{self.host}:{self.pid}"
        return f"{self.addr[0]}:{self.addr[1]}"


class ClusterExecutor:
    """Lease plan units to socket-connected workers on any host.

    The constructor binds and listens immediately (so ``address`` is known
    before workers launch); the coordinator event loop runs inline in
    :meth:`map`, which yields ``(index, outcome)`` pairs in completion
    order exactly like the other executors — :func:`run_study_plan` cannot
    tell them apart.  Workers may connect at any time, including mid-study.

    ``workers`` is advisory (the expected fleet size, surfaced as ``jobs``
    in the study span); the actual degree of parallelism is however many
    workers are connected at each moment.  ``lease_timeout`` bounds how
    long a silent worker holds a cell before it is re-dispatched; workers
    heartbeat every ``lease_timeout / 4`` (min 0.5 s) so only dead or
    wedged workers ever expire.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.25,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive; got {lease_timeout}")
        self.jobs = max(1, workers)
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self._events: "list[dict]" = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)

    @property
    def address(self) -> "tuple[str, int]":
        """The (host, port) workers should connect to."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        """Close the listening socket (idempotent; ``map`` calls it on exit)."""
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass

    def drain_events(self) -> "list[dict]":
        """Coordinator telemetry (``worker_lost``…) for the collector to merge."""
        events, self._events = self._events, []
        return events

    # -- coordinator internals -----------------------------------------

    def _emit(self, name: str, **attrs: object) -> None:
        self._events.append({
            "ev": "event", "name": name, "t": time.perf_counter(),
            "pid": os.getpid(), **attrs,
        })

    def _dispatch(self, conn: _WorkerConn, pending: deque, units: "list[PlanUnit]") -> None:
        if not conn.ready or not pending:
            return
        index = pending.popleft()
        try:
            _send_frame(conn.sock, ("unit", index, units[index]))
        except OSError:
            pending.appendleft(index)
            raise ConnectionError("send failed")
        conn.unit_index = index
        conn.deadline = time.monotonic() + self.lease_timeout
        conn.ready = False

    def map(
        self, units: "list[PlanUnit]", settings: ExecutionSettings
    ) -> Iterator[tuple[int, CellOutcome]]:
        units = list(units)
        if not units:
            self.close()
            return
        pending: deque = deque(range(len(units)))
        done = [False] * len(units)
        remaining = len(units)
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, None)
        conns: "dict[socket.socket, _WorkerConn]" = {}

        def drop(conn: _WorkerConn, reason: str) -> None:
            sel.unregister(conn.sock)
            del conns[conn.sock]
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover
                pass
            if conn.unit_index is not None and not done[conn.unit_index]:
                pending.appendleft(conn.unit_index)
                self._emit(
                    "worker_lost", reason=reason, worker=conn.describe(),
                    key=units[conn.unit_index].key,
                )
                logger.warning(
                    "worker %s lost (%s); re-queueing %s",
                    conn.describe(), reason, units[conn.unit_index].key,
                )
            conn.unit_index = None

        try:
            while remaining:
                ready = sel.select(timeout=self.poll_interval)
                completed: "list[tuple[int, CellOutcome]]" = []
                for key, _ in ready:
                    if key.data is None:
                        sock, addr = self._listener.accept()
                        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        conn = _WorkerConn(sock, addr)
                        conns[sock] = conn
                        sel.register(sock, selectors.EVENT_READ, conn)
                        continue
                    conn = key.data
                    try:
                        data = conn.sock.recv(1 << 16)
                    except OSError:
                        data = b""
                    if not data:
                        drop(conn, "disconnected")
                        continue
                    conn.buf.extend(data)
                    try:
                        messages = parse_frames(conn.buf)
                    except FrameError as exc:
                        logger.warning("malformed frame from %s: %s", conn.describe(), exc)
                        drop(conn, "malformed frame")
                        continue
                    try:
                        for message in messages:
                            self._handle(conn, message, settings, pending, units,
                                         done, completed)
                    except (ConnectionError, OSError):
                        drop(conn, "disconnected")
                        continue

                now = time.monotonic()
                for conn in list(conns.values()):
                    if conn.unit_index is not None and now > conn.deadline:
                        drop(conn, "lease expired")

                # Re-queued units go to whichever workers are idle right now.
                for conn in list(conns.values()):
                    if not pending:
                        break
                    try:
                        self._dispatch(conn, pending, units)
                    except (ConnectionError, OSError):
                        drop(conn, "disconnected")

                for index, outcome in completed:
                    remaining -= 1
                    yield index, outcome
        finally:
            for conn in list(conns.values()):
                try:
                    _send_frame(conn.sock, ("shutdown",))
                except OSError:
                    pass
                try:
                    conn.sock.close()
                except OSError:  # pragma: no cover
                    pass
            sel.close()
            self.close()

    def _handle(
        self,
        conn: _WorkerConn,
        message,
        settings: ExecutionSettings,
        pending: deque,
        units: "list[PlanUnit]",
        done: "list[bool]",
        completed: "list[tuple[int, CellOutcome]]",
    ) -> None:
        if not isinstance(message, tuple) or not message:
            raise FrameError(f"unexpected message {message!r}")
        kind = message[0]
        if kind == "hello":
            _, host, pid = message
            conn.host, conn.pid = host, pid
            conn.ready = True
            _send_frame(conn.sock, ("welcome", settings, self.lease_timeout))
            self._dispatch(conn, pending, units)
        elif kind == "heartbeat":
            if conn.unit_index is not None:
                conn.deadline = time.monotonic() + self.lease_timeout
        elif kind == "result":
            _, index, outcome = message
            if conn.unit_index == index:
                conn.unit_index = None
            conn.ready = True
            if done[index]:
                # A lease expired, the unit was re-run elsewhere, and the
                # "lost" worker finished anyway: exactly-once wins, the
                # duplicate (and its telemetry batch) is dropped.
                logger.warning(
                    "dropping duplicate result for %s from %s",
                    units[index].key, conn.describe(),
                )
                self._emit(
                    "duplicate_result", worker=conn.describe(), key=units[index].key
                )
            else:
                done[index] = True
                completed.append((index, outcome))
            self._dispatch(conn, pending, units)
        else:
            raise FrameError(f"unknown message kind {kind!r}")


# ----------------------------------------------------------------------
# The worker side
# ----------------------------------------------------------------------

def run_worker(
    host: str,
    port: int,
    heartbeat_interval: "float | None" = None,
) -> int:
    """Connect to a coordinator and execute leased units until shutdown.

    Runs in the foreground (the ``repro-study worker`` subcommand); returns
    the number of units executed.  Cells run through the same memoized
    per-process runner as pool workers, so golden models are fit at most
    once per (scale, cache dir) for the lifetime of the worker — across
    every unit it leases.  Heartbeats go out from a side thread, so leases
    survive arbitrarily long training loops.
    """
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    stop = threading.Event()
    executed = 0

    def heartbeat(interval: float) -> None:
        while not stop.wait(interval):
            try:
                with send_lock:
                    _send_frame(sock, ("heartbeat",))
            except OSError:
                return

    try:
        with send_lock:
            _send_frame(sock, ("hello", socket.gethostname(), os.getpid()))
        message = _recv_frame(sock)
        if not (isinstance(message, tuple) and message[0] == "welcome"):
            raise FrameError(f"expected welcome, got {message!r}")
        settings: ExecutionSettings = message[1]
        lease_timeout = float(message[2]) if len(message) > 2 else 60.0
        interval = heartbeat_interval
        if interval is None:
            # A quarter of the lease: three missed beats before expiry.
            interval = min(15.0, max(0.1, lease_timeout / 4))
        thread = threading.Thread(target=heartbeat, args=(interval,), daemon=True)
        thread.start()
        logger.info("worker %s:%d connected to %s:%d", socket.gethostname(),
                    os.getpid(), host, port)
        while True:
            message = _recv_frame(sock)
            if not isinstance(message, tuple) or not message:
                raise FrameError(f"unexpected message {message!r}")
            if message[0] == "shutdown":
                break
            if message[0] != "unit":
                raise FrameError(f"unexpected message kind {message[0]!r}")
            _, index, unit = message
            outcome = _execute_unit_in_worker(unit, settings)
            executed += 1
            with send_lock:
                _send_frame(sock, ("result", index, outcome))
    except ConnectionError:
        # Coordinator went away (or revoked our lease): a worker is
        # disposable by design — exit quietly, progress is checkpointed.
        logger.info("worker %s:%d lost its coordinator; exiting",
                    socket.gethostname(), os.getpid())
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    return executed
