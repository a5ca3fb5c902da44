"""Trace files — reading, validating, and structuring JSONL event streams.

The collector (:func:`~repro.experiments.executors.run_study_plan`) is a
single writer, so a merged trace is properly nested in *file order*: a span's
events (and its funneled children) all land between its ``span_start`` and
``span_end`` lines.  That property is what :func:`validate_trace` checks and
what :func:`span_tree` exploits to rebuild the hierarchy without clocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TraceError",
    "SpanNode",
    "read_trace",
    "repair_trace",
    "validate_trace",
    "span_tree",
    "hierarchy_signature",
]

#: Span names whose *subtrees* are schedule-dependent by design: golden
#: models are memoized per process, so whether a unit trains one depends on
#: which worker ran it first.  The same holds for a hardware unit's
#: ``hw_fit``: the per-process fitted-cell memo decides whether the span
#: holds a training run or a memo hit.  Cross-schedule comparisons exclude
#: them.
SCHEDULE_DEPENDENT_SPANS = ("golden_fit", "hw_fit")


class TraceError(ValueError):
    """A trace file or event stream violates the trace format."""


def read_trace(path: str | os.PathLike, strict: bool = True) -> list[dict]:
    """Load a JSONL trace file into a list of event dicts.

    A torn *final* line (a sweep killed mid-write) is always tolerated and
    dropped.  In strict mode (the default) a malformed line anywhere else
    raises :class:`TraceError`; with ``strict=False`` the readable prefix up
    to the first malformed line is returned instead — the right behavior
    for summarizing what a killed or disk-full sweep did manage to record.
    Pair with :func:`repair_trace` to close any spans the truncation left
    open.
    """
    lines = Path(path).read_text().splitlines()
    events: list[dict] = []
    last_index = len(lines) - 1
    for index, raw in enumerate(lines):
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError:
            if index == last_index or not strict:
                break
            raise TraceError(f"{path}:{index + 1}: malformed trace line") from None
        if not isinstance(event, dict) or "ev" not in event:
            if not strict:
                break
            raise TraceError(f"{path}:{index + 1}: not a trace event")
        events.append(event)
    return events


def repair_trace(events: list[dict]) -> tuple[list[dict], list[str]]:
    """Close any spans a truncated stream left open; return (events, warnings).

    Walks the stream with the same single-writer stack discipline as
    :func:`validate_trace`, drops any tail ``span_end`` that no longer
    matches an open span, and synthesizes ``span_end`` events (tagged
    ``outcome: "truncated"``, ``dur_s: 0``) for spans still open at the end
    of file, innermost first.  The result always passes
    :func:`validate_trace`; the warnings name what was repaired.
    """
    repaired: list[dict] = []
    stack: list[dict] = []
    warnings: list[str] = []
    for event in events:
        kind = event.get("ev")
        if kind == "span_start":
            stack.append(event)
        elif kind == "span_end":
            if not stack or stack[-1].get("span") != event.get("span"):
                warnings.append(
                    f"dropped span_end for {event.get('name')!r} "
                    f"({event.get('span')}): no matching open span"
                )
                continue
            stack.pop()
        repaired.append(event)
    for start in reversed(stack):
        warnings.append(
            f"synthesized span_end for truncated span {start.get('name')!r} "
            f"({start.get('span')})"
        )
        repaired.append({
            "ev": "span_end",
            "name": start.get("name", ""),
            "span": start.get("span"),
            "t": start.get("t", 0.0),
            "dur_s": 0.0,
            "outcome": "truncated",
            "pid": start.get("pid"),
        })
    return repaired, warnings


def validate_trace(events: list[dict]) -> dict:
    """Check span pairing and nesting; return summary stats.

    Verifies every ``span_end`` matches the innermost open span (single-writer
    traces are properly nested in file order) and that the stream ends with
    no span left open.  Returns ``{"events": n, "spans": n, "pids": n}``.
    """
    stack: list[tuple[str, str]] = []
    spans = 0
    pids: set = set()
    for index, event in enumerate(events):
        kind = event.get("ev")
        pids.add(event.get("pid"))
        if kind == "span_start":
            stack.append((event["span"], event.get("name", "")))
        elif kind == "span_end":
            if not stack:
                raise TraceError(f"event {index}: span_end without open span")
            open_id, open_name = stack.pop()
            if event["span"] != open_id:
                raise TraceError(
                    f"event {index}: span_end for {event.get('name')!r} "
                    f"({event['span']}) but innermost open span is "
                    f"{open_name!r} ({open_id})"
                )
            spans += 1
        elif kind not in ("counter", "gauge", "event"):
            raise TraceError(f"event {index}: unknown event kind {kind!r}")
    if stack:
        names = [name for _, name in stack]
        raise TraceError(f"unbalanced trace: spans left open: {names}")
    return {"events": len(events), "spans": spans, "pids": len(pids)}


@dataclass
class SpanNode:
    """One span in a reconstructed trace tree."""

    name: str
    span: str
    attrs: dict = field(default_factory=dict)
    dur_s: float = 0.0
    children: "list[SpanNode]" = field(default_factory=list)

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


_RESERVED = frozenset({"ev", "name", "span", "parent", "t", "wall", "pid", "dur_s", "value"})


def span_tree(events: list[dict]) -> list[SpanNode]:
    """Rebuild the span hierarchy from a validated event stream.

    Returns the root spans in file order; ``span_end`` attributes (losses,
    outcomes) are merged into each node's ``attrs``.
    """
    nodes: dict[str, SpanNode] = {}
    roots: list[SpanNode] = []
    for event in events:
        kind = event.get("ev")
        if kind == "span_start":
            node = SpanNode(
                name=event.get("name", ""),
                span=event["span"],
                attrs={k: v for k, v in event.items() if k not in _RESERVED},
            )
            nodes[node.span] = node
            parent = nodes.get(event.get("parent"))
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif kind == "span_end":
            node = nodes.get(event["span"])
            if node is not None:
                node.dur_s = float(event.get("dur_s", 0.0))
                node.attrs.update(
                    {k: v for k, v in event.items() if k not in _RESERVED}
                )
    return roots


def hierarchy_signature(
    events: list[dict],
    exclude: tuple[str, ...] = SCHEDULE_DEPENDENT_SPANS,
) -> tuple:
    """A canonical, order-independent signature of a trace's span hierarchy.

    Two sweeps of the same plan — serial or parallel, any completion order —
    produce the same signature: each node reduces to ``(name, sort_key,
    sorted child signatures)``, where the sort key is the unit's journal key
    (or the repetition/epoch/attempt index) so siblings compare in a stable
    order.  Subtrees named in ``exclude`` (schedule-dependent phases like
    memoized golden training) are dropped.
    """

    def signature(node: SpanNode) -> tuple:
        sort_key = node.attrs.get("key") or node.attrs.get("attempt") \
            or node.attrs.get("repetition") or node.attrs.get("epoch") or ""
        children = tuple(sorted(
            signature(child) for child in node.children if child.name not in exclude
        ))
        return (node.name, str(sort_key), children)

    return tuple(sorted(signature(root) for root in span_tree(events)))
