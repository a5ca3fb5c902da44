"""Study execution — schedule plan units serially or across processes.

The *schedule/execute/collect* stages of the experiments pipeline
(:mod:`repro.experiments.plan` is the *plan* stage) — the package's only
such path: study grids, ``full_study`` and hardware-fault campaigns all run
here, their units behind the small :class:`PlanUnit` protocol.

- :class:`Executor` — the scheduling protocol: ``map(units, settings)``
  yields ``(index, CellOutcome)`` pairs as cells finish.  Every future scale
  direction (sharding, distributed workers, async collection) is a new
  Executor, not a rewrite of the drivers.
- :class:`SerialExecutor` — in-process, in-order execution (the default);
  reuses a caller-supplied :class:`~repro.experiments.runner.ExperimentRunner`
  so golden models and datasets stay memoized exactly as before.
- :class:`~repro.experiments.cluster.ParallelExecutor` (``--jobs N``) and
  :class:`~repro.experiments.cluster.ClusterExecutor` — one lease engine
  fanning units out to worker processes, local or remote.  Each worker
  keeps one runner per (scale fingerprint, cache dir), so golden models are
  trained at most once per worker and shared across that worker's cells.
- :func:`run_study_plan` — the collector: skips journaled cells, streams the
  rest through the executor, and appends results to the checkpoint from the
  parent process only (a single writer, so worker results never interleave
  journal records).

Resilience (PR 1's checkpoint/retry/quarantine machinery) composes as
middleware around any executor: each study cell runs under
:func:`~repro.experiments.resilience.run_cell_with_retry` *inside* its worker
(so learning-rate halving and reseeding happen next to the training loop),
and the collector records successes/failures exactly as the serial driver
always did.  Grid results are deterministic per unit — not per schedule — so
serial and parallel sweeps produce identical payloads (wall-clock timings
aside) and a resumed sweep re-runs nothing.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Protocol, runtime_checkable

from ..log import get_logger
from ..nn.functional import kernel_mode, set_kernel_mode
from ..telemetry import (
    FileTelemetry,
    NULL,
    MetricsRegistry,
    NullTelemetry,
    RecordingTelemetry,
    Telemetry,
    get_metrics,
    metrics_scope,
    telemetry_scope,
)
from .config import ScaleSettings, scale_fingerprint
from .resilience import (
    CellFailure,
    CellOutcome,
    RetryPolicy,
    StudyCheckpoint,
    StudyReport,
)
from .runner import ExperimentResult, ExperimentRunner

logger = get_logger("experiments.executors")

__all__ = [
    "ExecutionSettings",
    "PlanUnit",
    "Executor",
    "SerialExecutor",
    "execute_unit",
    "run_study_plan",
]


class PlanUnit(Protocol):
    """A schedulable unit: a study :class:`~repro.experiments.plan.WorkUnit`
    or a :class:`~repro.faults.hardware.campaign.HardwareCampaignUnit`.

    ``trace_spans`` names the root and per-unit spans of its trace;
    ``execute`` never raises (interrupts excepted) — a failure comes back as
    a :class:`~repro.experiments.resilience.CellFailure`.
    """

    trace_spans: ClassVar[tuple[str, str]]
    key: str
    scale: ScaleSettings

    def span_attrs(self) -> dict: ...

    def execute(self, runner: ExperimentRunner, retry: "RetryPolicy | None") -> CellOutcome: ...


@dataclass(frozen=True)
class ExecutionSettings:
    """Per-sweep knobs shipped to every worker alongside its units."""

    retry: "RetryPolicy | None" = None
    #: Disk cache directory for trained cells; ``None`` defers to the
    #: ``REPRO_CACHE_DIR`` environment variable (inherited by workers).
    cache_dir: "str | None" = None
    #: Record per-unit telemetry batches onto each
    #: :class:`~repro.experiments.resilience.CellOutcome` (see
    #: :func:`execute_unit`); the collector merges them into the trace file.
    trace: bool = False
    #: Snapshot per-unit live metrics onto each ``CellOutcome`` — the same
    #: funnel as ``trace``, merged into the collector's registry so a
    #: ``--jobs N`` sweep aggregates to the same totals as a serial one.
    metrics: bool = False
    #: Kernel mode the collector ran under (``fast``/``compiled``/…).
    #: In-process and forked workers inherit the mode implicitly; cluster
    #: workers on other hosts replay it from here so every executor trains
    #: with identical kernels.  ``None`` = leave the worker's mode alone.
    kernels: "str | None" = None


def execute_unit(
    runner: ExperimentRunner,
    unit: PlanUnit,
    retry: "RetryPolicy | None" = None,
    trace: bool = False,
    metrics: bool = False,
) -> CellOutcome:
    """Run one unit on ``runner`` (``unit.execute``); never raises
    (interrupts excepted) — failures degrade to a recorded
    :class:`~repro.experiments.resilience.CellFailure`.

    With ``trace=True`` the whole unit runs under a scoped
    :class:`~repro.telemetry.RecordingTelemetry`, wrapped in the unit type's
    span (``unit`` for study cells, ``hw_unit`` for campaign units); the
    recorded batch rides back on ``outcome.events``.  Serial and worker
    execution share this exact path, so traces are structurally identical
    regardless of the executor (the collector re-parents each batch onto its
    root span).

    With ``metrics=True`` the unit additionally runs under an enabled
    metrics registry (the installed process-global one if any — the serial
    case — else a fresh per-unit registry, the worker case after fork) and
    its snapshot rides back on ``outcome.metrics`` for the collector to
    merge.  Snapshot-then-merge of the collector's own registry is an
    identity, so serial and ``--jobs N`` sweeps aggregate identically.
    """
    recorder = RecordingTelemetry() if trace else NULL

    def _run_traced() -> CellOutcome:
        if not trace:
            return unit.execute(runner, retry)
        with telemetry_scope(recorder):
            with recorder.span(unit.trace_spans[1], **unit.span_attrs()) as span:
                outcome = unit.execute(runner, retry)
                if not outcome.ok:
                    span.set(outcome="failed")
        return outcome

    if not metrics:
        outcome = _run_traced()
    else:
        registry = get_metrics()
        if not registry.enabled:
            registry = MetricsRegistry()
        with metrics_scope(registry):
            outcome = _run_traced()
        outcome.metrics = registry.snapshot_and_reset()
    if trace:
        outcome.events = recorder.drain()
    outcome.pid = os.getpid()
    outcome.host = socket.gethostname()
    return outcome


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------

#: One runner per (scale fingerprint, cache dir) per worker process, so a
#: worker trains each golden model at most once across all its units.
_WORKER_RUNNERS: dict[tuple[str, "str | None"], ExperimentRunner] = {}


def _worker_runner(unit: PlanUnit, settings: ExecutionSettings) -> ExperimentRunner:
    key = (scale_fingerprint(unit.scale), settings.cache_dir)
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = ExperimentRunner(unit.scale, cache_dir=settings.cache_dir)
        _WORKER_RUNNERS[key] = runner
    return runner


def _execute_unit_in_worker(unit: PlanUnit, settings: ExecutionSettings) -> CellOutcome:
    """The entry point every lease worker, local or remote, runs a unit through.

    Replays the collector's kernel mode first: forked local workers inherit
    it (an idempotent no-op there); spawned workers and workers on other
    hosts start from interpreter defaults and need the explicit replay.
    """
    if settings.kernels is not None:
        set_kernel_mode(settings.kernels)
    return execute_unit(
        _worker_runner(unit, settings), unit, settings.retry,
        trace=settings.trace, metrics=settings.metrics,
    )


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

@runtime_checkable
class Executor(Protocol):
    """Schedules plan units and streams their outcomes back.

    ``map`` yields ``(index, outcome)`` pairs — ``index`` into the submitted
    unit list — in *completion* order; the collector reorders into plan
    order, so executors are free to schedule however they like.
    """

    jobs: int

    def map(
        self, units: "list[PlanUnit]", settings: ExecutionSettings
    ) -> Iterator[tuple[int, CellOutcome]]: ...


class SerialExecutor:
    """In-process, in-order execution — the default and PR-1-equivalent path.

    Pass ``runner`` to reuse an existing runner's in-memory caches (golden
    models, datasets, ensemble fits); otherwise one is built from the first
    unit's scale.
    """

    jobs = 1

    def __init__(self, runner: "ExperimentRunner | None" = None) -> None:
        self.runner = runner

    def map(
        self, units: "list[PlanUnit]", settings: ExecutionSettings
    ) -> Iterator[tuple[int, CellOutcome]]:
        units = list(units)
        if not units:
            return
        runner = self.runner
        if runner is None:
            runner = ExperimentRunner(units[0].scale, cache_dir=settings.cache_dir)
        for index, unit in enumerate(units):
            yield index, execute_unit(
                runner, unit, settings.retry,
                trace=settings.trace, metrics=settings.metrics,
            )


# ----------------------------------------------------------------------
# The collector
# ----------------------------------------------------------------------

def run_study_plan(
    plan: Iterable[PlanUnit],
    executor: "Executor | None" = None,
    checkpoint: "StudyCheckpoint | str | os.PathLike | None" = None,
    retry: "RetryPolicy | None" = None,
    progress: "Callable[[ExperimentResult], None] | None" = None,
    on_failure: "Callable[[CellFailure], None] | None" = None,
    cache_dir: "str | None" = None,
    trace: "Telemetry | str | os.PathLike | None" = None,
    on_outcome: "Callable[[int, PlanUnit, CellOutcome], None] | None" = None,
) -> StudyReport:
    """Execute a plan and collect a :class:`StudyReport` in plan order.

    The resilience middleware stack, composed with *any* executor:

    1. **skip-completed** — units whose key is already journaled replay from
       the checkpoint without retraining (``progress`` fires immediately);
    2. **retry** — pending units run under ``retry`` inside their worker
       (reseed + learning-rate halving on divergence);
    3. **record** — the parent process is the checkpoint's single writer:
       worker outcomes are journaled here, serially, as they arrive.

    ``report.results`` is ordered by plan position regardless of completion
    order; ``progress``/``on_failure``/``on_outcome`` fire in completion
    order (``on_outcome`` sees *every* cell — replayed, succeeded, or failed
    — as ``(plan index, unit, outcome)``; the live
    :class:`~repro.telemetry.ProgressReporter` plugs in here).

    ``trace`` (a path, or an open :class:`~repro.telemetry.Telemetry`)
    enables study telemetry: each unit executes under a recording handle in
    its worker, the batch rides back on the outcome, and this function —
    the single writer — merges batches into one ordered JSONL trace wrapped
    in the unit type's root span (``study``, or ``hw_campaign`` for a
    hardware campaign), with ``checkpoint_skip`` counters for replayed
    units.  Serial and parallel sweeps therefore produce structurally
    identical traces.

    ``checkpoint`` given as a path journals study-cell results; callers with
    another result type (:func:`~repro.faults.hardware.campaign.run_campaign`)
    pass a :class:`StudyCheckpoint` built with their codec.
    """
    plan = list(plan)
    executor = executor or SerialExecutor()

    tel: "Telemetry | NullTelemetry" = NULL
    owns_trace = False
    if isinstance(trace, (Telemetry, NullTelemetry)):
        tel = trace
    elif trace is not None:
        tel = FileTelemetry(trace)
        owns_trace = True
    settings = ExecutionSettings(
        retry=retry, cache_dir=cache_dir, trace=tel.enabled,
        metrics=get_metrics().enabled, kernels=kernel_mode(),
    )

    ckpt = checkpoint
    if ckpt is not None and not isinstance(ckpt, StudyCheckpoint):
        fingerprint = scale_fingerprint(plan[0].scale) if plan else None
        ckpt = StudyCheckpoint(ckpt, fingerprint=fingerprint)

    outcomes: dict[int, CellOutcome] = {}
    try:
        root_span = plan[0].trace_spans[0] if plan else "study"
        with tel.span(root_span, cells=len(plan), jobs=executor.jobs) as study_span:
            pending: list[tuple[int, PlanUnit]] = []
            for index, unit in enumerate(plan):
                if ckpt is not None and unit.key in ckpt:
                    outcome = CellOutcome(
                        result=ckpt.completed[unit.key], from_checkpoint=True
                    )
                    outcomes[index] = outcome
                    tel.counter("checkpoint_skip", key=unit.key)
                    if on_outcome is not None:
                        on_outcome(index, unit, outcome)
                    if progress is not None:
                        progress(outcome.result)
                else:
                    pending.append((index, unit))

            if pending:
                logger.debug(
                    "executing %d/%d cells (%d replayed) on %s with %d job(s)",
                    len(pending), len(plan), len(plan) - len(pending),
                    type(executor).__name__, executor.jobs,
                )
                plan_indices = [index for index, _ in pending]
                # The lease coordinator's own telemetry (lost workers, lease
                # expiries: events of no single outcome) comes through a
                # ``drain_events`` hook; the collector, as the trace's single
                # writer, merges those batches too.
                drain = getattr(executor, "drain_events", list)
                for local_index, outcome in executor.map(
                    [unit for _, unit in pending], settings
                ):
                    index = plan_indices[local_index]
                    outcomes[index] = outcome
                    tel.write_batch(drain(), parent=study_span.id)
                    tel.write_batch(outcome.events, parent=study_span.id)
                    if outcome.metrics:
                        get_metrics().merge(outcome.metrics)
                    if on_outcome is not None:
                        on_outcome(index, plan[index], outcome)
                    if outcome.ok:
                        if ckpt is not None:
                            ckpt.record_success(plan[index].key, outcome.result)
                        if progress is not None:
                            progress(outcome.result)
                    else:
                        if ckpt is not None:
                            ckpt.record_failure(outcome.failure)
                        if on_failure is not None:
                            on_failure(outcome.failure)
                tel.write_batch(drain(), parent=study_span.id)

            if get_metrics().enabled:
                tel.event("metrics_snapshot", metrics=get_metrics().snapshot())
    finally:
        if owns_trace:
            tel.close()

    report = StudyReport()
    for index in range(len(plan)):
        outcome = outcomes[index]
        if outcome.ok:
            report.results.append(outcome.result)
            if outcome.from_checkpoint:
                report.replayed += 1
            else:
                report.executed += 1
        else:
            report.failures.append(outcome.failure)
    return report
