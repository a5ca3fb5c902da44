"""Command-line interface: regenerate any paper table/figure from a shell.

Usage::

    repro-study table1
    repro-study motivating [--rate 0.1]
    repro-study table4 [--models resnet50,convnet] [--datasets gtsrb]
    repro-study fig3 [--models convnet,vgg16] [--rates 0.1,0.5]
    repro-study fig4 [--rates 0.1,0.5]
    repro-study overhead [--dataset gtsrb] [--model convnet]
    repro-study combined [--rate 0.3]
    repro-study panel --dataset gtsrb --model convnet --fault mislabelling
    repro-study study [--jobs 4] [--checkpoint out/study.jsonl] [--resume] [--out results.json]
    repro-study study --trace out/trace.jsonl --progress ...
    repro-study study --cluster 0.0.0.0:9700 ...
    repro-study worker HOST:9700
    repro-study trace out/trace.jsonl [--strict] [--export-chrome out.json]
    repro-study profile [--model vgg11 --batch 4 --steps 30]
    repro-study serve [--model convnet --dataset gtsrb] [--state model.npz] [--port 8777]
    repro-study hardware-faults [--hw-rates 1e-4,1e-3] [--jobs 2] [--out BENCH_hardware_faults.json]

Scale comes from ``--scale`` or the ``REPRO_SCALE`` environment variable
(default ``smoke``).  Each command prints the paper-shaped text rendering to
stdout; diagnostics go to stderr through the ``repro`` logger hierarchy
(``--verbose`` for debug detail, ``--quiet`` for warnings only).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .log import get_logger, setup_cli_logging
from .telemetry import (
    MetricsRegistry,
    ProgressReporter,
    TraceError,
    export_chrome_trace,
    get_metrics,
    metrics_scope,
    read_trace,
    render_trace_summary,
    repair_trace,
    summarize_trace,
)
from .experiments import (
    CheckpointError,
    ClusterExecutor,
    ExperimentRunner,
    ParallelExecutor,
    RetryPolicy,
    StudyCheckpoint,
    StudyFailedError,
    WorkersLostError,
    ad_panel,
    combined_fault_analysis,
    fig3_panels,
    fig4_panels,
    golden_accuracy_table,
    motivating_example,
    overhead_table,
    render_combined_verdicts,
    render_motivating_example,
    render_overheads,
    render_panel,
    render_panels,
    render_table4,
    plan_study,
    run_resilient_study,
    run_worker,
    save_results,
)
from .experiments.hardware_study import (
    hardware_campaign_payload,
    hardware_fault_study,
    render_hardware_table,
)
from .experiments.config import ExperimentConfig, resolve_scale
from .faults import FaultType
from .mitigation import technique_names
from .nn.functional import KERNEL_MODES, set_kernel_mode
from .nn.serialization import StateFileError
from .telemetry import FileTelemetry

__all__ = ["main", "build_parser"]

logger = get_logger("cli")


def _csv(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _csv_floats(value: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _csv(value))


class _ServeChoices:
    """A ``serve`` flag's choices, read from :mod:`repro.serve` only when
    argparse checks or lists them: no other command loads serving."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __iter__(self):  # argparse's ``in`` check iterates too
        from . import serve

        return iter(getattr(serve, self.name))


def _parse_address(value: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (the port is the piece after the last colon)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid port in {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``repro-study``."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Regenerate tables/figures of 'The Fault in Our Data Stars' (DSN 2022).",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "small", "paper"),
        default=None,
        help="experiment scale (default: REPRO_SCALE env var or 'smoke')",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics on stderr (repro logger hierarchy)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress informational diagnostics (warnings and errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: survey-based technique selection")

    motivating = sub.add_parser("motivating", help="§II/§III-D: Pneumonia + ResNet50 example")
    motivating.add_argument("--rate", type=float, default=0.1)
    motivating.add_argument("--model", default="resnet50")

    table4 = sub.add_parser("table4", help="Table IV: golden accuracies")
    table4.add_argument("--models", type=_csv, default=("resnet50", "convnet"))
    table4.add_argument("--datasets", type=_csv, default=("cifar10", "gtsrb", "pneumonia"))

    fig3 = sub.add_parser("fig3", help="Fig. 3: GTSRB mislabelling + removal panels")
    fig3.add_argument("--models", type=_csv, default=("convnet", "vgg16"))
    fig3.add_argument("--rates", type=_csv_floats, default=(0.1, 0.3, 0.5))

    fig4 = sub.add_parser("fig4", help="Fig. 4: cross-dataset panels")
    fig4.add_argument("--rates", type=_csv_floats, default=(0.1, 0.3, 0.5))

    overhead = sub.add_parser("overhead", help="§IV-E: runtime overheads")
    overhead.add_argument("--dataset", default="gtsrb")
    overhead.add_argument("--model", default="convnet")

    combined = sub.add_parser("combined", help="§IV-C: combined fault types")
    combined.add_argument("--rate", type=float, default=0.3)
    combined.add_argument("--dataset", default="gtsrb")
    combined.add_argument("--model", default="convnet")

    panel = sub.add_parser("panel", help="one custom AD panel")
    panel.add_argument("--dataset", required=True)
    panel.add_argument("--model", required=True)
    panel.add_argument(
        "--fault", required=True, choices=[f.value for f in FaultType]
    )
    panel.add_argument("--rates", type=_csv_floats, default=(0.1, 0.3, 0.5))

    study = sub.add_parser(
        "study", help="full study grid, fault-tolerant (checkpoint/resume, retries)"
    )
    study.add_argument("--models", type=_csv, default=("convnet", "vgg16", "resnet18"))
    study.add_argument("--datasets", type=_csv, default=("cifar10", "gtsrb", "pneumonia"))
    study.add_argument(
        "--faults",
        type=_csv,
        default=tuple(f.value for f in FaultType),
        help="comma-separated fault types",
    )
    study.add_argument("--rates", type=_csv_floats, default=(0.1, 0.3, 0.5))
    study.add_argument("--techniques", type=_csv, default=None)
    study.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL journal path; completed cells are recorded here as the sweep runs",
    )
    study.add_argument(
        "--resume",
        action="store_true",
        help="continue an existing checkpoint journal (replays completed cells)",
    )
    study.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="per-cell attempts before a cell is recorded as failed (default 2)",
    )
    study.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1 = serial; results "
        "are identical either way, modulo wall-clock timings)",
    )
    study.add_argument("--out", default=None, help="write a JSON results archive here")
    study.add_argument(
        "--trace",
        default=None,
        help="write a structured JSONL telemetry trace here (span timers, "
        "retry/cache/divergence events; summarize with 'repro-study trace')",
    )
    study.add_argument(
        "--progress",
        action="store_true",
        help="live progress reporter (done/total, ETA, retries, per-worker "
        "activity) instead of one line per completed cell",
    )
    study.add_argument(
        "--kernels",
        choices=KERNEL_MODES,
        default=None,
        help="nn kernel mode: fast (default), compiled (record/plan/replay "
        "static training steps), or reference (loop kernels); all three are "
        "bitwise-identical",
    )
    study.add_argument(
        "--cluster",
        default=None,
        metavar="HOST:PORT",
        help="run the sweep through a multi-host cluster coordinator bound to "
        "this address; start workers with 'repro-study worker HOST:PORT' "
        "(results are identical to serial and --jobs runs)",
    )
    study.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        help="seconds without a heartbeat before a cluster worker's cell is "
        "re-dispatched to another worker (default 60)",
    )

    worker = sub.add_parser(
        "worker",
        help="join a cluster sweep as a worker (connects to a 'study "
        "--cluster' coordinator, executes leased cells until shutdown)",
    )
    worker.add_argument(
        "address", metavar="HOST:PORT", help="coordinator address to connect to"
    )
    worker.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="seconds between keep-alive heartbeats (default: a quarter of "
        "the coordinator's lease timeout)",
    )

    trace = sub.add_parser(
        "trace", help="summarize a study telemetry trace (JSONL) file"
    )
    trace.add_argument("file", help="trace file written by 'study --trace'")
    trace.add_argument(
        "--top", type=int, default=5, help="slowest cells to list (default 5)"
    )
    trace.add_argument(
        "--strict", action="store_true",
        help="reject truncated/corrupt traces instead of summarizing the "
        "readable prefix with a warning (the pre-PR-8 behavior)",
    )
    trace.add_argument(
        "--export-chrome", default=None, metavar="OUT.json",
        help="also export the trace in Chrome trace-event format "
        "(open in https://ui.perfetto.dev or chrome://tracing)",
    )

    profile = sub.add_parser(
        "profile",
        help="per-op timing of one compiled training step (record, plan, "
        "replay with the profiler armed)",
    )
    profile.add_argument("--model", default="vgg11", help="registry architecture (default vgg11)")
    profile.add_argument(
        "--width", type=int, default=2,
        help="base channel count (default 2, the bench geometry; 0 = registry default)",
    )
    profile.add_argument("--batch", type=int, default=4, help="batch size (default 4)")
    profile.add_argument(
        "--steps", type=int, default=30, help="profiled replay steps (default 30)"
    )
    profile.add_argument(
        "--warmup", type=int, default=3,
        help="unprofiled warm-up replays to fault in persistent buffers (default 3)",
    )
    profile.add_argument(
        "--image-shape", type=_csv, default=("3", "32", "32"),
        help="input C,H,W (default 3,32,32)",
    )
    profile.add_argument(
        "--classes", type=int, default=10, help="output classes (default 10)"
    )
    profile.add_argument(
        "--top", type=int, default=0, help="limit the op table to the slowest N rows"
    )
    profile.add_argument(
        "--out", default=None, help="also write the per-op table as JSON here"
    )

    serve = sub.add_parser(
        "serve", help="serve a trained model over micro-batched HTTP inference"
    )
    serve.add_argument("--model", default="convnet")
    serve.add_argument("--dataset", default="gtsrb")
    serve.add_argument("--technique", default="baseline")
    serve.add_argument(
        "--fault", default="none",
        help="fault label of the cell to serve, e.g. 'mislabelling@30%%' (default none)",
    )
    serve.add_argument(
        "--state", default=None,
        help="load weights from a save_model .npz archive instead of re-fitting "
        "the cell at the active scale",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8777)
    serve.add_argument(
        "--max-batch-size", type=int, default=8,
        help="largest batch one forward pass runs: the engine's micro-batch, "
        "or in fleet mode the router's chunk per replica (default 8)",
    )
    serve.add_argument(
        "--max-latency-ms", type=float, default=2.0,
        help="longest a request waits for its batch to fill; single engine "
        "only (default 2.0)",
    )
    serve.add_argument(
        "--serve-workers", type=int, default=2,
        help="inference worker threads; single engine only (default 2)",
    )
    serve.add_argument(
        "--trace", default=None,
        help="write serve/serve_batch telemetry spans to this JSONL file",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="seconds one /predict request may wait on the engine before the "
        "server answers 503 instead of hanging (default 30; 0 = unbounded)",
    )
    serve.add_argument(
        "--kernels",
        choices=KERNEL_MODES,
        default=None,
        help="nn kernel mode for re-fitting and inference: fast (default), "
        "compiled, or reference, all bitwise-identical (compiled only affects "
        "training; inference always runs eagerly)",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="serving replicas; >= 2 runs a fleet with shared-memory weights, "
        "admission control, and health-checked respawn (default 1: one engine)",
    )
    serve.add_argument(
        "--replica-backend", choices=_ServeChoices("REPLICA_BACKENDS"),
        metavar="BACKEND", default="auto",
        help="fleet replica backend, one of %(choices)s: forked processes, "
        "in-process threads, or auto (processes where fork exists; default auto)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256,
        help="per-model admission-queue bound before requests are shed with "
        "429 + Retry-After (fleet mode; default 256)",
    )
    serve.add_argument(
        "--shed-policy", choices=_ServeChoices("SHED_POLICIES"),
        metavar="POLICY", default="reject",
        help="full-queue policy, one of %(choices)s: reject the arrival, or evict "
        "the lowest-priority queued request when the arrival outranks it (default reject)",
    )
    serve.add_argument(
        "--client-rate", type=float, default=None,
        help="per-client fairness: sustained requests/s per client id "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--client-burst", type=float, default=None,
        help="per-client token-bucket burst (default: max(1, --client-rate))",
    )
    serve.add_argument(
        "--replica-deadline", type=float, default=30.0,
        help="seconds a replica may sit on its oldest dispatched request "
        "before the health monitor evicts and respawns it (default 30)",
    )

    hw = sub.add_parser(
        "hardware-faults",
        help="cross-axis campaign: hardware faults at inference time vs "
        "data-fault mitigations (SDC rates, accuracy degradation)",
    )
    hw.add_argument("--models", type=_csv, default=("convnet",))
    hw.add_argument("--datasets", type=_csv, default=("gtsrb",))
    hw.add_argument(
        "--techniques", type=_csv, default=("baseline", "label_smoothing"),
        help="mitigation techniques to cross against hardware faults",
    )
    hw.add_argument(
        "--data-faults", type=_csv, default=("none", "mislabelling@30%"),
        help="training-data fault labels (comma-separated; 'none' allowed)",
    )
    hw.add_argument(
        "--hw-types", type=_csv, default=("bit_flip",),
        help="hardware fault types: bit_flip, stuck_at_0, stuck_at_1, random_value",
    )
    hw.add_argument(
        "--targets", type=_csv, default=("activation",),
        help="fault targets: activation (kernel outputs) and/or weight",
    )
    hw.add_argument("--hw-rates", type=_csv_floats, default=(1e-4, 1e-3))
    hw.add_argument(
        "--trials", type=int, default=3,
        help="injected inference passes per unit (default 3)",
    )
    hw.add_argument(
        "--bit", type=int, default=None,
        help="restrict bit-positioned faults to one bit (0..31; default random)",
    )
    hw.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = serial; results identical either way)",
    )
    hw.add_argument(
        "--checkpoint", default=None,
        help="JSONL journal path; completed units are recorded as the campaign runs",
    )
    hw.add_argument(
        "--resume", action="store_true",
        help="continue an existing campaign checkpoint (replays completed units)",
    )
    hw.add_argument("--out", default=None, help="write BENCH_hardware_faults-style JSON here")
    hw.add_argument(
        "--trace", default=None,
        help="write hw_campaign/hw_unit/hw_trial telemetry spans to this JSONL file",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    setup_cli_logging(verbose=args.verbose, quiet=args.quiet)

    if args.command == "table1":  # needs no runner
        from .survey import render_table1, select_representatives

        print(render_table1())
        print()
        for result in select_representatives().values():
            print(f"  {result}")
        return 0

    if args.command == "trace":  # needs no runner either
        return _run_trace_command(args)

    if args.command == "profile":  # synthetic data, no runner
        return _run_profile_command(args)

    if args.command == "serve":  # owns its own model loading / re-fitting
        return _run_serve_command(args)

    if args.command == "hardware-faults":  # owns its own campaign machinery
        return _run_hardware_faults_command(args)

    if args.command == "worker":  # cluster worker: no runner of its own
        return _run_worker_command(args)

    runner = ExperimentRunner(args.scale)
    logger.info("[scale=%s, repeats=%d]", runner.scale.name, runner.scale.repeats)

    if args.command == "motivating":
        result = motivating_example(runner, model=args.model, rate=args.rate)
        print(render_motivating_example(result))
    elif args.command == "table4":
        table = golden_accuracy_table(
            runner, models=args.models, datasets=args.datasets
        )
        print(render_table4(table, args.models, args.datasets, technique_names()))
    elif args.command == "fig3":
        panels = fig3_panels(runner, models=args.models, rates=args.rates)
        print(render_panels(panels, "Fig 3: GTSRB"))
    elif args.command == "fig4":
        panels = fig4_panels(runner, rates=args.rates)
        print(render_panels(panels, "Fig 4: datasets"))
    elif args.command == "overhead":
        print(render_overheads(overhead_table(runner, dataset=args.dataset, model=args.model)))
    elif args.command == "combined":
        verdicts = combined_fault_analysis(
            runner, dataset=args.dataset, model=args.model, rate=args.rate
        )
        print(render_combined_verdicts(verdicts))
    elif args.command == "panel":
        panel = ad_panel(
            runner, args.dataset, args.model, FaultType(args.fault), rates=args.rates
        )
        print(render_panel(panel))
    elif args.command == "study":
        return _run_study_command(runner, args)
    return 0


def _run_study_command(runner: ExperimentRunner, args: argparse.Namespace) -> int:
    """The fault-tolerant ``study`` subcommand (checkpoint/resume/retries)."""
    # Every flag is checked before the journal is opened, so a refused
    # command leaves no checkpoint behind for its corrected re-run to trip on.
    if args.jobs < 1:
        logger.error("error: --jobs must be >= 1")
        return 2
    address = None
    if args.cluster is not None:
        if args.jobs > 1:
            logger.error("error: --cluster and --jobs are mutually exclusive")
            return 2
        try:
            address = _parse_address(args.cluster)
        except ValueError as exc:
            logger.error("error: %s", exc)
            return 2
    if args.resume and args.checkpoint is None:
        logger.error("error: --resume requires --checkpoint")
        return 2
    if args.kernels is not None:
        set_kernel_mode(args.kernels)
        logger.info("[kernels=%s]", args.kernels)
    checkpoint = None
    if args.checkpoint is not None:
        try:
            checkpoint = StudyCheckpoint(
                args.checkpoint,
                fingerprint=runner._scale_fingerprint(),
                resume=args.resume,
            )
        except CheckpointError as exc:
            logger.error("error: %s", exc)
            return 2
        if len(checkpoint):
            logger.info("[resuming: %d cells already journaled]", len(checkpoint))

    executor = None
    if address is not None:
        executor = ClusterExecutor(*address, lease_timeout=args.lease_timeout)
        logger.info(
            "[cluster: coordinator at %s:%d — start workers with "
            "'repro-study worker %s:%d']",
            *executor.address, *executor.address,
        )
    elif args.jobs > 1:
        executor = ParallelExecutor(jobs=args.jobs)
        logger.info("[parallel: %d worker processes]", args.jobs)
    if args.trace:
        logger.info("[tracing to %s]", args.trace)

    # With --progress the live reporter owns the stderr status line;
    # otherwise keep the historical one-line-per-cell diagnostics.
    reporter = None
    progress = lambda result: logger.info("  %s", result)  # noqa: E731
    on_failure = lambda failure: logger.info("  FAILED %s", failure.describe())  # noqa: E731
    if args.progress:
        total = len(plan_study(
            models=args.models,
            datasets=args.datasets,
            fault_types=tuple(FaultType(f) for f in args.faults),
            rates=args.rates,
            techniques=list(args.techniques) if args.techniques else None,
            scale=runner.scale,
        ))
        reporter = ProgressReporter(total)
        progress = None
        on_failure = None

    # Live metrics ride along with tracing: per-unit snapshots funnel to the
    # collector and the final registry lands in the trace as a
    # metrics_snapshot event (rendered by 'repro-study trace').
    with metrics_scope(MetricsRegistry() if args.trace else get_metrics()):
        try:
            report = run_resilient_study(
                runner,
                models=args.models,
                datasets=args.datasets,
                fault_types=tuple(FaultType(f) for f in args.faults),
                rates=args.rates,
                techniques=list(args.techniques) if args.techniques else None,
                checkpoint=checkpoint,
                retry=RetryPolicy(max_attempts=args.max_attempts),
                executor=executor,
                progress=progress,
                on_failure=on_failure,
                trace=args.trace,
                on_outcome=reporter,
            )
        except WorkersLostError as exc:
            logger.error("error: %s", exc)
            return 1
    if reporter is not None:
        reporter.finish()
    print(report.summary())
    if args.out is not None:
        save_results(report.results, args.out)
        logger.info("[archived %d results to %s]", len(report.results), args.out)
    return 0 if report.ok else 1


def _run_worker_command(args: argparse.Namespace) -> int:
    """The ``worker`` subcommand: one disposable cluster worker process."""
    try:
        host, port = _parse_address(args.address)
    except ValueError as exc:
        logger.error("error: %s", exc)
        return 2
    logger.info("[worker: connecting to coordinator at %s:%d]", host, port)
    try:
        executed = run_worker(
            host, port, heartbeat_interval=args.heartbeat_interval
        )
    except ConnectionError as exc:
        logger.error("error: cannot reach coordinator at %s:%d: %s", host, port, exc)
        return 2
    logger.info("[worker: executed %d cell(s), coordinator closed]", executed)
    return 0


def _run_hardware_faults_command(args: argparse.Namespace) -> int:
    """The ``hardware-faults`` subcommand: the cross-axis SDC campaign."""
    import json

    if args.jobs < 1:
        logger.error("error: --jobs must be >= 1")
        return 2
    if args.resume and args.checkpoint is None:
        logger.error("error: --resume requires --checkpoint")
        return 2
    scale = resolve_scale(args.scale)
    logger.info("[scale=%s, trials=%d]", scale.name, args.trials)
    if args.jobs > 1:
        logger.info("[parallel: %d worker processes]", args.jobs)
    if args.trace:
        logger.info("[tracing to %s]", args.trace)

    checkpoint = args.checkpoint
    if checkpoint is not None and not args.resume:
        # Mirror the study subcommand's contract: refuse to silently resume.
        import os

        if os.path.exists(checkpoint) and os.path.getsize(checkpoint) > 0:
            logger.error(
                "error: checkpoint %s already exists; pass --resume to continue it",
                checkpoint,
            )
            return 2

    failures = []
    try:
        results = hardware_fault_study(
            models=args.models,
            datasets=args.datasets,
            techniques=args.techniques,
            data_faults=args.data_faults,
            hw_types=args.hw_types,
            targets=args.targets,
            hw_rates=args.hw_rates,
            trials=args.trials,
            bit=args.bit,
            scale=scale,
            jobs=args.jobs,
            checkpoint=checkpoint,
            trace=args.trace,
            progress=lambda result: logger.info(
                "  %s: sdc %.3f", result.key, result.sdc_rate.mean
            ),
        )
    except (KeyError, ValueError, CheckpointError) as exc:
        logger.error("error: %s", exc)
        return 2
    except WorkersLostError as exc:
        logger.error("error: %s", exc)
        return 1
    except StudyFailedError as exc:
        # Every other unit ran and is journaled: report them, then exit 1.
        results, failures = exc.report.results, exc.report.failures
    print(render_hardware_table(results))
    for failure in failures:
        logger.error("FAILED %s", failure.describe())
    if args.out is not None:
        payload = hardware_campaign_payload(results, scale_name=scale.name)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        logger.info("[archived %d campaign units to %s]", len(results), args.out)
    return 1 if failures else 0


def _serve_settings(args: argparse.Namespace) -> "BatchSettings | FleetSettings":
    """One engine's batcher, or a fleet whose router chunk is the forward batch."""
    from .serve import BatchSettings, FleetSettings

    if args.replicas >= 2:
        return FleetSettings(
            replicas=args.replicas,
            backend=args.replica_backend,
            max_queue=args.max_queue,
            shed_policy=args.shed_policy,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            chunk=args.max_batch_size,
            replica_deadline_s=args.replica_deadline,
        )
    return BatchSettings(
        max_batch_size=args.max_batch_size,
        max_latency_ms=args.max_latency_ms,
        workers=args.serve_workers,
    )


def _run_serve_command(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: registry + engine or fleet + HTTP endpoint."""
    from .serve import (FleetSettings, ModelKey, ModelRegistry, ServingEngine,
                        ServingFleet, serve_forever)

    if args.kernels is not None:
        set_kernel_mode(args.kernels)
        logger.info("[kernels=%s]", args.kernels)
    try:
        settings = _serve_settings(args)
    except ValueError as exc:
        logger.error("error: %s", exc)
        return 2
    key = ModelKey(
        model=args.model, dataset=args.dataset,
        technique=args.technique, fault_label=args.fault,
    )
    registry = ModelRegistry()
    if args.state is not None:
        try:
            registry.load_state_file(args.state, key, scale=args.scale)
        except (StateFileError, KeyError, ValueError) as exc:
            logger.error("error: %s", exc)
            return 2
        logger.info("[loaded %s from %s]", key.id, args.state)
    else:
        scale = resolve_scale(args.scale)
        config = ExperimentConfig(
            dataset=args.dataset, model=args.model, technique=args.technique,
            fault_label=args.fault, repeats=1, scale=scale.name,
        )
        logger.info("[no --state: re-fitting %s at scale %s]", key.id, scale.name)
        try:
            servable = registry.refit_cell(config)
        except (KeyError, ValueError) as exc:
            logger.error("error: %s", exc)
            return 2
        logger.info(
            "[trained in %ss]", servable.metadata.get("training_s", "?")
        )

    telemetry = None
    if args.trace:
        telemetry = FileTelemetry(args.trace)
        logger.info("[tracing to %s]", args.trace)
    # Serving always runs with live metrics enabled: the /metrics endpoint
    # scrapes the process-global registry, which the backend adopts.
    with metrics_scope(MetricsRegistry()):
        if isinstance(settings, FleetSettings):
            backend = ServingFleet(registry, settings, telemetry=telemetry).start()
            logger.info(
                "[fleet: %d %s replicas, chunk %d, max-queue %d, shed-policy %s]",
                args.replicas, backend.settings.resolved_backend(),
                settings.chunk, args.max_queue, args.shed_policy,
            )
        else:
            backend = ServingEngine(registry, settings, telemetry=telemetry).start()
        try:
            logger.info(
                "[serving %d model(s) at http://%s:%d — POST /predict, POST /shutdown]",
                len(registry), args.host, args.port,
            )
            serve_forever(
                backend, host=args.host, port=args.port, verbose=args.verbose,
                request_timeout_s=args.request_timeout if args.request_timeout > 0 else None,
            )
        finally:
            backend.close()
            if telemetry is not None:
                telemetry.close()
    return 0


def _run_trace_command(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: summarize (and optionally export) a trace.

    Default mode is tolerant: a truncated or corrupt trace (killed sweep)
    is repaired and its readable prefix summarized, with the repairs noted
    on stderr — exit 0.  ``--strict`` restores the old validating behavior
    (any damage beyond a torn final line is a hard error, exit 2).
    """
    try:
        summary = summarize_trace(args.file, top=args.top, strict=args.strict)
    except FileNotFoundError:
        logger.error("error: no such trace file: %s", args.file)
        return 2
    except TraceError as exc:
        logger.error("error: %s", exc)
        if not args.strict:  # corrupt beyond repair (shouldn't happen)
            logger.error("(the trace is damaged beyond tolerant repair)")
        return 2
    for warning in summary.warnings:
        logger.warning("trace repair: %s", warning)
    print(render_trace_summary(summary))
    if args.export_chrome is not None:
        events = read_trace(args.file, strict=args.strict)
        if not args.strict:
            events, _ = repair_trace(events)
        stats = export_chrome_trace(events, args.export_chrome)
        logger.info(
            "[exported %d chrome events (%d spans, %d track(s)) to %s]",
            stats["events"], stats["spans"], stats["tids"], args.export_chrome,
        )
    return 0


def _run_profile_command(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: per-op timing of one compiled step."""
    from .nn.profiler import profile_model_step, render_profile_report

    try:
        image_shape = tuple(int(d) for d in args.image_shape)
        if len(image_shape) != 3:
            raise ValueError(f"--image-shape needs C,H,W; got {args.image_shape}")
        report = profile_model_step(
            model=args.model,
            image_shape=image_shape,
            num_classes=args.classes,
            width=args.width or None,
            batch=args.batch,
            steps=args.steps,
            warmup=args.warmup,
        )
    except (KeyError, ValueError) as exc:
        logger.error("error: %s", exc)
        return 2
    print(render_profile_report(report, top=args.top))
    if args.out is not None:
        import json

        payload = {
            "model": report.model,
            "batch": report.batch,
            "steps": report.steps,
            "wall_s": report.wall_s,
            "op_total_s": report.op_total_s,
            "coverage": report.coverage,
            "ops": [
                {
                    "op": row.op,
                    "entries": row.entries,
                    "calls": row.calls,
                    "fwd_s": row.fwd_s,
                    "bwd_s": row.bwd_s,
                }
                for row in report.profile.rows()
            ],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        logger.info("[profile written to %s]", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
