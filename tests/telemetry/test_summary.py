"""Tests for trace summarization (the ``repro-study trace`` analysis)."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    RecordingTelemetry,
    TraceError,
    render_trace_summary,
    summarize_trace,
)


def _study_trace():
    """Synthetic two-unit study with retries, a divergence, and cache events."""
    tel = RecordingTelemetry()
    with tel.span("study", cells=2):
        with tel.span("unit", key="slow", technique="ensembles", dataset="gtsrb"):
            with tel.span("attempt", attempt=1, key="slow"):
                tel.event("divergence", epoch=1)
            tel.counter("retry", key="slow")
            with tel.span("attempt", attempt=2, key="slow"):
                with tel.span("faulty_fit"):
                    pass
        with tel.span("unit", key="fast", technique="baseline", dataset="gtsrb"):
            tel.counter("cache_hit", key="fast")
        tel.counter("checkpoint_skip", key="other")
    events = tel.drain()
    # Deterministic durations for assertions.
    for event in events:
        if event["ev"] == "span_end":
            event["dur_s"] = {"study": 10.0, "unit": 4.0, "attempt": 1.5,
                              "faulty_fit": 1.0}[event["name"]]
    return events


def _campaign_trace():
    """Synthetic two-unit hardware campaign (``hw_campaign ▸ hw_unit``)."""
    tel = RecordingTelemetry()
    with tel.span("hw_campaign", cells=2):
        for key, technique, seconds in (("hw|a", "baseline", 3.0),
                                        ("hw|b", "fault_aware", 5.0)):
            with tel.span("hw_unit", key=key, technique=technique, dataset="pneumonia"):
                with tel.span("hw_fit", key=key):
                    pass
                with tel.span("hw_trial", key=key, trial=0):
                    pass
    events = tel.drain()
    durations = iter([1.0, 1.0, 3.0, 2.0, 2.0, 5.0, 8.0])  # span_end file order
    for event in events:
        if event["ev"] == "span_end":
            event["dur_s"] = next(durations)
    return events


class TestSummarizeTrace:
    def test_phase_totals_and_tallies(self):
        summary = summarize_trace(_study_trace())
        count, seconds = summary.phase_totals["unit"]
        assert (count, seconds) == (2, 8.0)
        assert summary.phase_totals["attempt"] == (2, 3.0)
        assert summary.counters == {"retry": 1, "cache_hit": 1, "checkpoint_skip": 1}
        assert summary.point_events == {"divergence": 1}
        assert summary.total_s == 10.0
        assert summary.pids == 1

    def test_slowest_units_ranked_and_capped(self):
        summary = summarize_trace(_study_trace(), top=1)
        assert summary.slowest_units == [("slow", 4.0)]

    def test_technique_dataset_breakdown(self):
        summary = summarize_trace(_study_trace())
        assert summary.technique_dataset_s == {
            ("ensembles", "gtsrb"): 4.0,
            ("baseline", "gtsrb"): 4.0,
        }

    def test_campaign_units_are_cells(self):
        summary = summarize_trace(_campaign_trace())
        assert summary.slowest_units == [("hw|b", 5.0), ("hw|a", 3.0)]
        assert summary.technique_dataset_s == {
            ("baseline", "pneumonia"): 3.0,
            ("fault_aware", "pneumonia"): 5.0,
        }
        text = render_trace_summary(summary)
        assert "slowest cells:" in text
        assert "technique x dataset wall-clock:" in text

    def test_reads_from_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in _study_trace()))
        assert summarize_trace(path).counters["retry"] == 1

    def test_units_counted_per_kernel_mode(self):
        tel = RecordingTelemetry()
        with tel.span("study", cells=3):
            for key, kernels in (("a", "fast"), ("b", "compiled"), ("c", "fast")):
                with tel.span("unit", key=key, kernels=kernels):
                    pass
        summary = summarize_trace(tel.drain())
        assert summary.unit_kernels == {"fast": 2, "compiled": 1}
        assert "\nkernels: compiled=1 fast=2\n" in render_trace_summary(summary)
        # Traces written before units were stamped count under "?".
        assert summarize_trace(_campaign_trace()).unit_kernels == {"?": 2}

    def test_hardware_trials_counted_by_path(self):
        tel = RecordingTelemetry()
        with tel.span("hw_campaign", cells=1):
            with tel.span("hw_unit", key="hw|a"):
                for trial, resume_op in enumerate((0, 9, 14, 3)):
                    with tel.span("hw_trial", key="hw|a", trial=trial) as span:
                        span.set(resume_op=resume_op, plan_ops=14)
                # An eager pass (no plan) and a trace written before trials
                # said their path.
                with tel.span("hw_trial", key="hw|a", trial=4) as span:
                    span.set(resume_op=0, plan_ops=0)
                with tel.span("hw_trial", key="hw|a", trial=5):
                    pass
        summary = summarize_trace(tel.drain())
        assert summary.hw_trials == {
            "whole": 2, "resumed": 2, "clean_reused": 1,
            "ops_replayed": 14 + 5 + 0 + 11, "plan_ops": 4 * 14,
        }
        assert "\nhardware trials: 2 whole, 2 resumed, 1 clean-reused; " \
            "53.6% of plan ops replayed\n" in render_trace_summary(summary)
        assert summarize_trace(_campaign_trace()).hw_trials == {}

    def test_invalid_trace_is_refused(self):
        events = _study_trace()[:-1]  # unclosed study span
        with pytest.raises(TraceError):
            summarize_trace(events)


class TestRenderTraceSummary:
    def test_report_sections(self):
        text = render_trace_summary(summarize_trace(_study_trace()))
        assert "per-phase wall-clock:" in text
        assert "tallies:" in text
        assert "slowest cells:" in text
        assert "technique x dataset wall-clock:" in text
        assert "retry" in text and "divergence" in text
        assert "ensembles" in text

    def test_empty_trace_renders(self):
        text = render_trace_summary(summarize_trace([]))
        assert text.startswith("trace: 0 events")
