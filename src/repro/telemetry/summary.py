"""Trace summarization — the analysis behind ``repro-study trace <file>``.

Reduces a (possibly multi-hour) trace to the questions an operator actually
asks: which kernel mode the cells ran under, which path each hardware-fault
trial took, where did the wall-clock go per phase, which cells were slowest,
how many retries/divergences/failures happened, how cache-effective was the
run, and how time splits across the technique × dataset grid.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .metrics import histogram_quantile
from .trace import read_trace, repair_trace, span_tree, validate_trace

__all__ = ["TraceSummary", "summarize_trace", "render_trace_summary"]

#: Counter names surfaced in the summary's tally section, in display order.
TALLY_COUNTERS = (
    "retry",
    "cell_failure",
    "checkpoint_skip",
    "cache_hit",
    "cache_miss",
    "golden_cache_hit",
    "golden_cache_miss",
)

#: Per-unit span names: study cells and hardware-campaign units.
UNIT_SPANS = ("unit", "hw_unit")


@dataclass
class TraceSummary:
    """Aggregated view of one study trace."""

    events: int = 0
    spans: int = 0
    pids: int = 0
    #: span name -> (count, total seconds)
    phase_totals: dict = field(default_factory=dict)
    #: (unit key, seconds) sorted slowest-first
    slowest_units: list = field(default_factory=list)
    #: counter name -> accumulated value
    counters: dict = field(default_factory=dict)
    #: event name -> occurrences (e.g. divergence)
    point_events: dict = field(default_factory=dict)
    #: (technique, dataset) -> total unit seconds
    technique_dataset_s: dict = field(default_factory=dict)
    #: kernel mode stamped on each unit span -> units ("?" when unstamped)
    unit_kernels: dict = field(default_factory=dict)
    #: aggregated ``compiled_fit`` events (compiled vs eager step counts,
    #: workspace effectiveness) — empty when no fit ran in compiled mode
    compiled_exec: dict = field(default_factory=dict)
    #: hardware-fault trials by the ``resume_op``/``plan_ops`` of their
    #: ``hw_trial`` spans — ``whole``, ``resumed`` and ``clean_reused``
    #: counts, plus ``ops_replayed`` and ``plan_ops`` summed — empty when no
    #: span says its path
    hw_trials: dict = field(default_factory=dict)
    #: the final ``metrics_snapshot`` event's registry snapshot — empty when
    #: the run had live metrics disabled
    metrics: dict = field(default_factory=dict)
    #: repairs applied while reading a truncated trace (tolerant mode only)
    warnings: list = field(default_factory=list)
    #: total study wall-clock (sum of root span durations)
    total_s: float = 0.0


def summarize_trace(
    source: "str | os.PathLike | list[dict]", top: int = 5, strict: bool = True
) -> TraceSummary:
    """Summarize a trace file (or pre-read event list) into a :class:`TraceSummary`.

    The trace is validated first — a summary of an unbalanced or corrupt
    trace would silently lie about where time went.  With ``strict=False``
    a truncated or corrupt trace (killed sweep) is repaired instead of
    rejected: the readable prefix is summarized, synthesized span ends are
    tagged ``truncated``, and the repairs land in ``summary.warnings``.
    """
    warnings: list[str] = []
    if isinstance(source, list):
        events = source
    else:
        events = read_trace(source, strict=strict)
    if not strict:
        events, warnings = repair_trace(events)
    stats = validate_trace(events)
    summary = TraceSummary(events=stats["events"], spans=stats["spans"], pids=stats["pids"])
    summary.warnings = warnings

    phase_counts: Counter = Counter()
    phase_seconds: defaultdict = defaultdict(float)
    counters: Counter = Counter()
    points: Counter = Counter()
    compiled: Counter = Counter()
    workspace_peak: Counter = Counter()
    for event in events:
        kind = event.get("ev")
        name = event.get("name", "")
        if kind == "span_end":
            phase_counts[name] += 1
            phase_seconds[name] += float(event.get("dur_s", 0.0))
        elif kind == "counter":
            counters[name] += int(event.get("value", 1))
        elif kind == "event":
            points[name] += 1
            if name == "metrics_snapshot":
                # Snapshots are cumulative per emitting registry; the last
                # one in file order is the run's final state.
                summary.metrics = dict(event.get("metrics", {}))
            if name == "compiled_fit":
                for field_name in (
                    "compiled_steps",
                    "eager_steps",
                    "compiles",
                    "compile_fallbacks",
                ):
                    compiled[field_name] += int(event.get(field_name, 0))
                # Workspace counters are cumulative per thread, so across
                # fits the *latest* value is the total — keep the max.
                for field_name in ("workspace_hits", "workspace_misses", "workspace_dropped"):
                    workspace_peak[field_name] = max(
                        workspace_peak[field_name], int(event.get(field_name, 0))
                    )
    summary.phase_totals = {
        name: (phase_counts[name], phase_seconds[name]) for name in phase_counts
    }
    summary.counters = dict(counters)
    summary.point_events = dict(points)
    if compiled or workspace_peak:
        summary.compiled_exec = {**compiled, **workspace_peak}

    units: list[tuple[str, float]] = []
    tech_dataset: defaultdict = defaultdict(float)
    kernels: Counter = Counter()
    hw_trials: Counter = Counter()
    for root in span_tree(events):
        summary.total_s += root.dur_s
        for node in root.walk():
            if node.name == "hw_trial" and "resume_op" in node.attrs:
                start, ops = node.attrs["resume_op"], node.attrs["plan_ops"]
                hw_trials["whole" if start == 0 else "clean_reused" if start == ops
                          else "resumed"] += 1
                hw_trials["ops_replayed"] += ops - start
                hw_trials["plan_ops"] += ops
            if node.name not in UNIT_SPANS:
                continue
            units.append((str(node.attrs.get("key", "?")), node.dur_s))
            cell = (str(node.attrs.get("technique", "?")), str(node.attrs.get("dataset", "?")))
            tech_dataset[cell] += node.dur_s
            kernels[str(node.attrs.get("kernels", "?"))] += 1
    summary.slowest_units = sorted(units, key=lambda kv: kv[1], reverse=True)[:top]
    summary.technique_dataset_s = dict(tech_dataset)
    summary.unit_kernels = dict(kernels)
    summary.hw_trials = dict(hw_trials)
    return summary


def _render_metric_line(name: str, snap: dict) -> str:
    kind = snap.get("type")
    if kind == "histogram":
        count = snap.get("count", 0)
        if not count:
            return f"  {name:<34} histogram  empty"
        mean = snap["sum"] / count
        vmin = snap.get("min") or 0.0
        vmax = snap.get("max") or 0.0
        quantiles = " ".join(
            f"p{int(q * 100)}={histogram_quantile(tuple(snap['buckets']), snap['counts'], count, vmin, vmax, q):.6g}"
            for q in (0.5, 0.95, 0.99)
        )
        return (
            f"  {name:<34} histogram  count={count} mean={mean:.6g} {quantiles}"
        )
    return f"  {name:<34} {kind:<9}  {snap.get('value', 0):.6g}"


def render_trace_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the ``repro-study trace`` report."""
    lines = [
        f"trace: {summary.events} events, {summary.spans} spans, "
        f"{summary.pids} process(es), {summary.total_s:.2f}s total",
    ]
    if summary.unit_kernels:
        lines.append("kernels: " + " ".join(
            f"{mode}={count}" for mode, count in sorted(summary.unit_kernels.items())
        ))
    if summary.warnings:
        lines.append("")
        lines.append(f"warnings ({len(summary.warnings)} repairs, truncated trace):")
        for warning in summary.warnings[:5]:
            lines.append(f"  {warning}")
        if len(summary.warnings) > 5:
            lines.append(f"  ... and {len(summary.warnings) - 5} more")
    lines += [
        "",
        "per-phase wall-clock:",
    ]
    for name, (count, seconds) in sorted(
        summary.phase_totals.items(), key=lambda kv: kv[1][1], reverse=True
    ):
        lines.append(f"  {name:<16} {count:>5} spans  {seconds:>9.2f}s")

    tallies = [
        (name, summary.counters[name]) for name in TALLY_COUNTERS if name in summary.counters
    ]
    tallies += sorted(
        (name, count) for name, count in summary.counters.items() if name not in TALLY_COUNTERS
    )
    tallies += sorted(summary.point_events.items())
    if tallies:
        lines.append("")
        lines.append("tallies:")
        for name, count in tallies:
            lines.append(f"  {name:<18} {count:>6}")

    if summary.hw_trials:
        hw = summary.hw_trials
        share = hw["ops_replayed"] / hw["plan_ops"] if hw["plan_ops"] else 0.0
        lines.append("")
        lines.append(
            f"hardware trials: {hw.get('whole', 0)} whole, {hw.get('resumed', 0)} resumed, "
            f"{hw.get('clean_reused', 0)} clean-reused; "
            f"{100 * share:.1f}% of plan ops replayed"
        )

    if summary.compiled_exec:
        ce = summary.compiled_exec
        lines.append("")
        lines.append("compiled execution:")
        lines.append(
            f"  steps: {ce.get('compiled_steps', 0)} compiled, "
            f"{ce.get('eager_steps', 0)} eager"
        )
        lines.append(
            f"  plans: {ce.get('compiles', 0)} compiled, "
            f"{ce.get('compile_fallbacks', 0)} refused"
        )
        lines.append(
            f"  workspace: {ce.get('workspace_hits', 0)} hits, "
            f"{ce.get('workspace_misses', 0)} misses, "
            f"{ce.get('workspace_dropped', 0)} dropped"
        )

    if summary.metrics:
        lines.append("")
        lines.append("metrics:")
        for name in sorted(summary.metrics):
            lines.append(_render_metric_line(name, summary.metrics[name]))

    if summary.slowest_units:
        lines.append("")
        lines.append("slowest cells:")
        for key, seconds in summary.slowest_units:
            lines.append(f"  {seconds:>8.2f}s  {key}")

    if summary.technique_dataset_s:
        lines.append("")
        lines.append("technique x dataset wall-clock:")
        for (technique, dataset), seconds in sorted(
            summary.technique_dataset_s.items(), key=lambda kv: kv[1], reverse=True
        ):
            lines.append(f"  {technique:<22} {dataset:<12} {seconds:>9.2f}s")
    return "\n".join(lines)
