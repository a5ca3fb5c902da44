"""Fault-tolerant study execution: checkpoint/resume, retries, degradation.

The paper's full grid was a 33-GPU-day sweep; a reproduction of a paper about
*mitigating faults in training* should itself tolerate faults in its own
training pipeline.  This module wraps the grid drivers in three layers:

1. :class:`StudyCheckpoint` — an append-only JSONL journal of every completed
   cell (config + serialized result) with atomic write-then-``os.replace``
   semantics.  An interrupted sweep resumes exactly where it stopped:
   journaled cells replay from disk, never retrain.
2. :class:`RetryPolicy` / :func:`run_cell_with_retry` — per-cell retries with
   a reseeded RNG per attempt, an exponential-backoff hook, and a learning
   rate that is halved after a :class:`~repro.nn.DivergenceError`.
3. Graceful degradation — a cell that keeps failing becomes a
   :class:`CellFailure` (carrying its exception chain) and the sweep
   continues; failures are summarized at the end instead of aborting the grid.

Entry points: :func:`run_resilient_study` (returns a :class:`StudyReport`)
and ``full_study``, which always delegates here and raises
:class:`StudyFailedError` once every cell is journaled if any failed.
"""

from __future__ import annotations

import json
import os
import time
import traceback
import typing
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..faults.spec import FaultType
from ..log import get_logger
from ..nn.trainer import DivergenceError
from ..telemetry import get_telemetry
from .persistence import result_from_dict, result_to_dict
from .runner import ExperimentResult, ExperimentRunner

logger = get_logger("experiments.resilience")

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "CellFailure",
    "CellOutcome",
    "CheckpointError",
    "CheckpointLockError",
    "RetryPolicy",
    "StudyCheckpoint",
    "StudyFailedError",
    "StudyReport",
    "cell_key",
    "run_cell_with_retry",
    "run_resilient_study",
]


class CheckpointError(RuntimeError):
    """A checkpoint journal cannot be used (wrong format or wrong run)."""


class CheckpointLockError(CheckpointError):
    """Another process holds this checkpoint journal open for writing.

    Two concurrent writers would silently interleave JSONL records, so
    :class:`StudyCheckpoint` takes an advisory lock on open and raises this
    typed error instead.  (Parallel sweeps don't hit it: worker processes
    never touch the journal — the collector in the parent process is the
    single writer.)
    """


def cell_key(runner: ExperimentRunner, dataset: str, model: str, technique: str,
             fault_label: str) -> str:
    """Stable journal key for one grid cell.

    Includes the repetition count and scale name so a journal written at one
    scale is never silently replayed into a sweep at another.
    """
    scale = runner.scale
    return f"{dataset}|{model}|{technique}|{fault_label}|x{scale.repeats}|{scale.name}"


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------

@dataclass
class CellFailure:
    """A grid cell that exhausted its retries.

    ``chain`` holds one entry per attempt — ``repr`` of the raised exception
    — and ``last_traceback`` the formatted traceback of the final attempt,
    so post-mortems need no re-run.
    """

    key: str
    dataset: str
    model: str
    technique: str
    fault_label: str
    attempts: int
    error_type: str
    message: str
    chain: list[str] = field(default_factory=list)
    last_traceback: str = ""

    @classmethod
    def from_errors(
        cls,
        key: str,
        dataset: str,
        model: str,
        technique: str,
        fault_label: str,
        errors: list[BaseException],
    ) -> "CellFailure":
        last = errors[-1]
        return cls(
            key=key,
            dataset=dataset,
            model=model,
            technique=technique,
            fault_label=fault_label,
            attempts=len(errors),
            error_type=type(last).__name__,
            message=str(last),
            chain=[repr(e) for e in errors],
            last_traceback="".join(
                traceback.format_exception(type(last), last, last.__traceback__)
            ),
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "dataset": self.dataset,
            "model": self.model,
            "technique": self.technique,
            "fault_label": self.fault_label,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "chain": self.chain,
            "last_traceback": self.last_traceback,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellFailure":
        return cls(**payload)

    def describe(self) -> str:
        return (
            f"{self.dataset}/{self.model}/{self.technique}/{self.fault_label}: "
            f"{self.error_type} after {self.attempts} attempt(s) — {self.message}"
        )


@dataclass
class CellOutcome:
    """What happened to one unit: a result (an :class:`ExperimentResult`, or
    a campaign unit's own result type), or a failure, never both.

    When tracing is on, ``events`` carries the cell's recorded telemetry
    batch (plain picklable dicts) back from wherever it executed — worker
    process or in-process — to the parent collector, which is the single
    writer of the merged trace.  ``pid`` is the executing process, feeding
    the live reporter's per-worker activity line.
    """

    result: ExperimentResult | None = None
    failure: CellFailure | None = None
    attempts: int = 1
    from_checkpoint: bool = False
    events: list = field(default_factory=list)
    #: Per-unit live-metrics snapshot (picklable), funneled home the same
    #: way as ``events`` and merged into the collector's registry.
    metrics: "dict | None" = None
    pid: "int | None" = None
    #: Hostname of the executing machine — with ``pid``, the ``(host, pid)``
    #: pair identifies a worker uniquely across a multi-host cluster sweep.
    host: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.result is not None


# ----------------------------------------------------------------------
# The checkpoint journal
# ----------------------------------------------------------------------

class StudyCheckpoint:
    """Append-only JSONL journal of study progress, written atomically.

    Each line is one JSON record: a header (format/version/fingerprint),
    a completed cell (``{"kind": "cell", "key": ..., "result": ...}``), or
    a failed cell (``{"kind": "failure", ...}``).  Every append rewrites
    the journal to a ``*.tmp`` sibling and ``os.replace``\\ s it into place,
    so a kill at any instant leaves either the previous journal or the new
    one — never a torn file.  Unparseable lines (e.g. from a journal written
    by a non-atomic writer) are counted in :attr:`corrupt_lines` and skipped.

    A journal opened with a ``fingerprint`` refuses to resume a journal
    recorded under a different fingerprint (different scale/seed/geometry),
    because replaying those cells would silently mix incompatible runs.

    Opening also takes an advisory lock on a ``*.lock`` sibling (where the
    platform supports ``flock``): a second *process* opening the same journal
    gets a :class:`CheckpointLockError` instead of interleaving records.
    Re-opening within the owning process (reload, resume-in-place) is allowed;
    :meth:`close` — or process exit — releases the lock.  Instances also work
    as context managers.

    ``encode``/``decode`` form the result codec: by default the
    :class:`~repro.experiments.runner.ExperimentResult` (de)serializers, but
    any journal whose payloads round-trip through JSON dicts can reuse the
    machinery — the hardware-fault campaigns
    (:mod:`repro.faults.hardware.campaign`) journal their own result type
    through the same atomic-rewrite/lock/fingerprint path.
    """

    FORMAT = "repro-study-checkpoint"
    VERSION = 1

    #: Advisory-lock file descriptors held by THIS process, keyed by resolved
    #: journal path.  Lets the owning process re-open its own journal while
    #: still conflicting with every other process via ``flock``.
    _PROCESS_LOCKS: typing.ClassVar[dict] = {}

    def __init__(
        self,
        path: str | os.PathLike,
        fingerprint: str | None = None,
        resume: bool = True,
        encode: "Callable[[object], dict]" = result_to_dict,
        decode: "Callable[[dict], object]" = result_from_dict,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._encode = encode
        self._decode = decode
        self.completed: dict[str, ExperimentResult] = {}
        self.failures: dict[str, CellFailure] = {}
        self.corrupt_lines = 0
        self._lines: list[str] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._owns_lock = False
        self._acquire_lock()
        try:
            if self.path.exists() and self.path.stat().st_size > 0:
                if not resume:
                    raise CheckpointError(
                        f"checkpoint {self.path} already exists; pass resume=True "
                        "(CLI: --resume) to continue it, or remove the file"
                    )
                self._load()
            else:
                header = {
                    "kind": "header",
                    "format": self.FORMAT,
                    "version": self.VERSION,
                    "fingerprint": fingerprint,
                }
                self._lines.append(json.dumps(header))
                self._flush()
        except BaseException:
            self.close()
            raise

    # -- locking -------------------------------------------------------
    @property
    def _lock_key(self) -> str:
        return str(self.path.resolve())

    @property
    def lock_path(self) -> Path:
        """The advisory-lock sibling file (left in place after close)."""
        return self.path.with_name(self.path.name + ".lock")

    def _acquire_lock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX: no enforcement
            return
        if self._lock_key in self._PROCESS_LOCKS:
            return  # this process already owns the journal; reuse its lock
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise CheckpointLockError(
                f"checkpoint {self.path} is locked by another process; "
                "concurrent writers would interleave journal records "
                "(close the other sweep, or point this one at its own journal)"
            ) from None
        self._PROCESS_LOCKS[self._lock_key] = fd
        self._owns_lock = True

    def close(self) -> None:
        """Release the advisory lock (no-op if this instance never took it)."""
        if not self._owns_lock:
            return
        self._owns_lock = False
        fd = self._PROCESS_LOCKS.pop(self._lock_key, None)
        if fd is not None and fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def __enter__(self) -> "StudyCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        saw_header = False
        for raw in self.path.read_text().splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
                kind = record["kind"]
            except (json.JSONDecodeError, TypeError, KeyError):
                self.corrupt_lines += 1
                continue
            if kind == "header":
                self._check_header(record)
                saw_header = True
            elif kind == "cell":
                try:
                    result = self._decode(record["result"])
                except (KeyError, TypeError):
                    self.corrupt_lines += 1
                    continue
                key = record.get("key") or ""
                self.completed[key] = result
                self.failures.pop(key, None)
            elif kind == "failure":
                try:
                    failure = CellFailure.from_dict(record["failure"])
                except (KeyError, TypeError):
                    self.corrupt_lines += 1
                    continue
                if failure.key not in self.completed:
                    self.failures[failure.key] = failure
            else:
                self.corrupt_lines += 1
                continue
            self._lines.append(raw)
        if not saw_header:
            raise CheckpointError(f"{self.path} is not a study checkpoint journal")

    def _check_header(self, record: dict) -> None:
        if record.get("format") != self.FORMAT:
            raise CheckpointError(f"{self.path} is not a study checkpoint journal")
        if record.get("version") != self.VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {record.get('version')} "
                f"(expected {self.VERSION})"
            )
        recorded = record.get("fingerprint")
        if self.fingerprint and recorded and recorded != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} was recorded under a different scale "
                f"fingerprint; refusing to mix runs "
                f"(journal: {recorded!r}, current: {self.fingerprint!r})"
            )

    # -- recording -----------------------------------------------------
    def record_success(self, key: str, result: ExperimentResult) -> None:
        entry = {"kind": "cell", "key": key, "result": self._encode(result)}
        self._lines.append(json.dumps(entry))
        self.completed[key] = result
        self.failures.pop(key, None)
        self._flush()

    def record_failure(self, failure: CellFailure) -> None:
        entry = {"kind": "failure", "failure": failure.to_dict()}
        self._lines.append(json.dumps(entry))
        if failure.key not in self.completed:
            self.failures[failure.key] = failure
        self._flush()

    def _flush(self) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write("\n".join(self._lines) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def __contains__(self, key: str) -> bool:
        return key in self.completed

    def __len__(self) -> int:
        return len(self.completed)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

@dataclass
class RetryPolicy:
    """How a failing cell is retried before it degrades to a failure.

    Each attempt after the first runs with a reseeded RNG (``reseed``), and
    after a :class:`~repro.nn.DivergenceError` the learning rate is further
    multiplied by ``lr_decay_on_divergence`` — the standard rescue for an
    exploded loss.  ``backoff_s``/``backoff_factor`` feed the ``sleep`` hook
    (exponential backoff; default 0 means no waiting — useful for transient
    resource errors, pointless for deterministic ones).  ``max_backoff_s``
    caps the exponential growth and ``jitter`` spreads delays by a fraction
    in ``[-jitter, +jitter]`` — derived deterministically (CRC32 of
    ``jitter_seed`` and the attempt), so retry storms across cells
    decorrelate while every run stays reproducible.
    """

    max_attempts: int = 2
    reseed: bool = True
    lr_decay_on_divergence: float = 0.5
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float | None = None
    jitter: float = 0.0
    jitter_seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 < self.lr_decay_on_divergence <= 1.0:
            raise ValueError("lr_decay_on_divergence must be in (0, 1]")
        if self.max_backoff_s is not None and self.max_backoff_s < 0.0:
            raise ValueError("max_backoff_s must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait after ``attempt`` (1-based) fails.

        Exponential in the attempt, then jittered, then capped — the cap is
        applied last so ``max_backoff_s`` is a hard upper bound even at full
        positive jitter.
        """
        delay = self.backoff_s * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0.0 and delay > 0.0:
            unit = zlib.crc32(f"{self.jitter_seed}|{attempt}".encode()) / 0xFFFFFFFF
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        if self.max_backoff_s is not None:
            delay = min(delay, self.max_backoff_s)
        return delay


def run_cell_with_retry(
    runner: ExperimentRunner,
    dataset: str,
    model: str,
    technique: str,
    fault,
    policy: RetryPolicy | None = None,
    key: str | None = None,
    repeats: int | None = None,
    technique_kwargs: dict | None = None,
    clean_fraction: float = 0.1,
) -> CellOutcome:
    """Run one cell under the retry policy; never raises (except interrupts).

    Returns a :class:`CellOutcome` holding either the result or, after
    ``policy.max_attempts`` failures, a :class:`CellFailure` with the full
    exception chain.  ``KeyboardInterrupt``/``SystemExit`` pass through so
    Ctrl-C still stops the sweep (the checkpoint makes that safe).
    ``repeats``/``technique_kwargs``/``clean_fraction`` pass through to
    :meth:`~repro.experiments.runner.ExperimentRunner.run` so a
    :class:`~repro.experiments.plan.WorkUnit` executes identically here and
    in a worker process.
    """
    policy = policy or RetryPolicy()
    tel = get_telemetry()
    fault_label = fault.label if fault is not None else "none"
    key = key or cell_key(runner, dataset, model, technique, fault_label)
    errors: list[BaseException] = []
    lr_scale = 1.0
    for attempt in range(1, policy.max_attempts + 1):
        seed_offset = attempt - 1 if policy.reseed else 0
        with tel.span("attempt", attempt=attempt, key=key) as span:
            try:
                result = runner.run(
                    dataset, model, technique, fault,
                    repeats=repeats, technique_kwargs=technique_kwargs,
                    clean_fraction=clean_fraction,
                    lr_scale=lr_scale, seed_offset=seed_offset,
                )
                return CellOutcome(result=result, attempts=attempt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except DivergenceError as exc:
                errors.append(exc)
                lr_scale *= policy.lr_decay_on_divergence
                tel.event(
                    "divergence", key=key, attempt=attempt,
                    epoch=exc.epoch, batch=exc.batch, loss=repr(exc.loss),
                )
                span.set(outcome="error", error=type(exc).__name__)
                logger.debug(
                    "cell %s diverged on attempt %d (epoch %d); lr scaled to %g",
                    key, attempt, exc.epoch, lr_scale,
                )
            except Exception as exc:
                errors.append(exc)
                span.set(outcome="error", error=type(exc).__name__)
                logger.debug("cell %s failed attempt %d: %r", key, attempt, exc)
        if attempt < policy.max_attempts:
            tel.counter("retry", key=key, attempt=attempt)
            delay = policy.backoff_for(attempt)
            if delay > 0:
                policy.sleep(delay)
    tel.counter("cell_failure", key=key, attempts=len(errors))
    failure = CellFailure.from_errors(key, dataset, model, technique, fault_label, errors)
    logger.warning("cell %s exhausted %d attempt(s): %s", key, failure.attempts, failure.message)
    return CellOutcome(failure=failure, attempts=len(errors))


# ----------------------------------------------------------------------
# The resilient study driver
# ----------------------------------------------------------------------

@dataclass
class StudyReport:
    """Outcome of a resilient sweep: results, failures, and replay counts."""

    results: list[ExperimentResult] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)
    replayed: int = 0
    executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"study: {len(self.results)} cells ok "
            f"({self.replayed} replayed from checkpoint, {self.executed} executed), "
            f"{len(self.failures)} failed"
        ]
        for failure in self.failures:
            lines.append(f"  FAILED {failure.describe()}")
        return "\n".join(lines)


class StudyFailedError(RuntimeError):
    """Raised by ``full_study`` and ``run_campaign`` after every cell ran and
    was journaled, if any failed; ``report`` holds results and failures."""

    def __init__(self, report: StudyReport) -> None:
        self.report = report
        keys = ", ".join(failure.key for failure in report.failures)
        super().__init__(f"{len(report.failures)} cell(s) failed: {keys}")


def run_resilient_study(
    runner: ExperimentRunner,
    models: tuple[str, ...] = ("convnet", "vgg16", "resnet18"),
    datasets: tuple[str, ...] = ("cifar10", "gtsrb", "pneumonia"),
    fault_types: tuple[FaultType, ...] = (
        FaultType.MISLABELLING,
        FaultType.REPETITION,
        FaultType.REMOVAL,
    ),
    rates: tuple[float, ...] = (0.1, 0.3, 0.5),
    techniques: list[str] | None = None,
    checkpoint: "StudyCheckpoint | str | os.PathLike | None" = None,
    retry: RetryPolicy | None = None,
    progress: "Callable[[ExperimentResult], None] | None" = None,
    on_failure: "Callable[[CellFailure], None] | None" = None,
    executor: "object | None" = None,
    trace: "object | None" = None,
    on_outcome: "Callable | None" = None,
) -> StudyReport:
    """Run the full study grid fault-tolerantly.

    Journaled cells (when ``checkpoint`` is given and its journal already
    holds them) are replayed without retraining; fresh cells run under
    ``retry`` (default: two attempts, reseeded, learning rate halved on
    divergence); cells that exhaust their retries are recorded and skipped
    rather than aborting the sweep.

    ``executor`` schedules the fresh cells: ``None`` (the default) runs them
    in-process on ``runner`` in grid order; a
    :class:`~repro.experiments.executors.ParallelExecutor` fans them out
    across worker processes with identical per-cell results.  This function
    is now a thin wrapper over the plan/executor pipeline
    (:func:`~repro.experiments.plan.plan_study` +
    :func:`~repro.experiments.executors.run_study_plan`).

    ``trace`` (a path or :class:`~repro.telemetry.Telemetry`) records a
    merged JSONL study trace; ``on_outcome`` observes every
    ``(index, unit, outcome)`` in completion order — see
    :func:`~repro.experiments.executors.run_study_plan` for both.
    """
    from .executors import SerialExecutor, run_study_plan  # late: executors imports us
    from .plan import plan_study

    plan = plan_study(
        models=models,
        datasets=datasets,
        fault_types=fault_types,
        rates=rates,
        techniques=techniques,
        scale=runner.scale,
    )
    if executor is None:
        executor = SerialExecutor(runner=runner)

    ckpt = checkpoint
    if ckpt is not None and not isinstance(ckpt, StudyCheckpoint):
        ckpt = StudyCheckpoint(ckpt, fingerprint=runner._scale_fingerprint())

    cache_dir = (
        str(runner.cell_cache.directory) if getattr(runner, "cell_cache", None) else None
    )
    return run_study_plan(
        plan,
        executor=executor,
        checkpoint=ckpt,
        retry=retry or RetryPolicy(),
        progress=progress,
        on_failure=on_failure,
        cache_dir=cache_dir,
        trace=trace,
        on_outcome=on_outcome,
    )
