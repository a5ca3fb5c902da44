"""Tests for the schedule/execute/collect pipeline (serial + parallel)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExecutionSettings,
    ExperimentRunner,
    Executor,
    ParallelExecutor,
    ScaleSettings,
    SerialExecutor,
    StudyCheckpoint,
    WorkUnit,
    full_study,
    plan_study,
    result_to_dict,
    results_equivalent,
    run_resilient_study,
    run_study_plan,
)
from repro.experiments import executors
from repro.faults import FaultType
from repro.nn import kernel_mode, use_kernel_mode
from repro.telemetry import RecordingTelemetry, span_tree

from .test_resilience import GRID, StubRunner

MICRO = ScaleSettings(
    name="micro",
    dataset_sizes={"pneumonia": (30, 16)},
    epochs=2,
    batch_size=16,
    repeats=1,
    seed=5,
)

#: Two real-training cells (pneumonia/convnet/baseline × 2 fault types).
MICRO_GRID = dict(
    models=("convnet",),
    datasets=("pneumonia",),
    fault_types=(FaultType.MISLABELLING, FaultType.REMOVAL),
    rates=(0.3,),
    techniques=["baseline"],
)


def stub_plan():
    return plan_study(scale=StubRunner().scale, **GRID)


# ----------------------------------------------------------------------
# The collector, driven through executors (stub runners: no training)
# ----------------------------------------------------------------------

class TestRunStudyPlan:
    def test_serial_executor_covers_plan_in_order(self):
        runner = StubRunner()
        plan = stub_plan()
        report = run_study_plan(plan, executor=SerialExecutor(runner=runner))
        assert len(report.results) == len(plan) == 4
        assert report.executed == 4 and report.replayed == 0
        assert [r.config.fault_label for r in report.results] == [
            u.fault_label for u in plan
        ]
        assert [c[:4] for c in runner.calls] == [
            (u.dataset, u.model, u.technique, u.fault_label) for u in plan
        ]

    def test_default_executor_is_serial(self):
        assert isinstance(SerialExecutor(), Executor)
        assert isinstance(ParallelExecutor(jobs=2), Executor)

    def test_checkpoint_skip_completed_middleware(self, tmp_path):
        path = tmp_path / "study.jsonl"
        plan = stub_plan()
        first = run_study_plan(plan, executor=SerialExecutor(runner=StubRunner()),
                               checkpoint=path)
        assert first.executed == 4

        rerun_runner = StubRunner()
        second = run_study_plan(plan, executor=SerialExecutor(runner=rerun_runner),
                                checkpoint=path)
        assert second.replayed == 4 and second.executed == 0
        assert rerun_runner.calls == []  # zero retrains on resume
        assert results_equivalent(first.results, second.results)

    def test_failures_recorded_not_raised(self, tmp_path):
        plan = stub_plan()
        bad = ("pneumonia", "convnet", "baseline", "mislabelling@30%")
        runner = StubRunner(fail_plan={bad: [ValueError("boom"), ValueError("boom")]})
        failures = []
        report = run_study_plan(
            plan, executor=SerialExecutor(runner=runner),
            checkpoint=tmp_path / "study.jsonl", on_failure=failures.append,
        )
        assert len(report.results) == 3 and len(report.failures) == 1
        assert failures == report.failures
        assert report.failures[0].fault_label == "mislabelling@30%"

    def test_progress_fires_for_replayed_and_executed(self, tmp_path):
        path = tmp_path / "study.jsonl"
        plan = stub_plan()
        run_study_plan(plan, executor=SerialExecutor(runner=StubRunner()), checkpoint=path)
        seen = []
        run_study_plan(plan, executor=SerialExecutor(runner=StubRunner()),
                       checkpoint=path, progress=seen.append)
        assert len(seen) == 4

    def test_empty_plan(self):
        report = run_study_plan([], executor=SerialExecutor(runner=StubRunner()))
        assert report.results == [] and report.ok


class TestParallelExecutorValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)

    def test_map_on_empty_units_yields_nothing(self):
        assert list(ParallelExecutor(jobs=2).map([], ExecutionSettings())) == []


# ----------------------------------------------------------------------
# Serial vs parallel equivalence on real (micro-scale) training
# ----------------------------------------------------------------------

class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return full_study(ExperimentRunner(MICRO), **MICRO_GRID)

    def test_parallel_results_identical_to_serial(self, serial_results, tmp_path):
        parallel = full_study(
            ExperimentRunner(MICRO),
            executor=ParallelExecutor(jobs=2),
            checkpoint=tmp_path / "parallel.jsonl",
            **MICRO_GRID,
        )
        assert results_equivalent(serial_results, parallel)
        # Identity is bitwise on everything but wall-clock: spell one out.
        assert [r.accuracy_delta.mean for r in parallel] == [
            r.accuracy_delta.mean for r in serial_results
        ]

    def test_jobs_shorthand_matches_executor_param(self, serial_results):
        parallel = full_study(ExperimentRunner(MICRO), jobs=2, **MICRO_GRID)
        assert results_equivalent(serial_results, parallel)

    def test_checkpoint_contents_match_serial_run(self, serial_results, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        run_resilient_study(ExperimentRunner(MICRO), checkpoint=serial_path, **MICRO_GRID)
        run_resilient_study(
            ExperimentRunner(MICRO), checkpoint=parallel_path,
            executor=ParallelExecutor(jobs=2), **MICRO_GRID,
        )
        serial_ckpt = StudyCheckpoint(serial_path)
        parallel_ckpt = StudyCheckpoint(parallel_path)
        assert set(serial_ckpt.completed) == set(parallel_ckpt.completed)
        for key, result in serial_ckpt.completed.items():
            assert result_to_dict(result, include_costs=False) == result_to_dict(
                parallel_ckpt.completed[key], include_costs=False
            )

    def test_parallel_resume_retrains_nothing(self, tmp_path):
        path = tmp_path / "study.jsonl"
        first = run_resilient_study(
            ExperimentRunner(MICRO), checkpoint=path,
            executor=ParallelExecutor(jobs=2), **MICRO_GRID,
        )
        assert first.executed == 2 and first.ok
        resumed = run_resilient_study(
            ExperimentRunner(MICRO), checkpoint=path,
            executor=ParallelExecutor(jobs=2), **MICRO_GRID,
        )
        assert resumed.replayed == 2 and resumed.executed == 0
        assert results_equivalent(first.results, resumed.results)

    def test_worker_cells_share_disk_cache_with_serial(self, serial_results, tmp_path):
        # A parallel sweep writing a disk cache must produce entries the
        # serial runner replays verbatim (same keys, same payloads).
        cache_dir = str(tmp_path / "cells")
        full_study(
            ExperimentRunner(MICRO, cache_dir=cache_dir),
            executor=ParallelExecutor(jobs=2),
            **MICRO_GRID,
        )
        replayed = full_study(ExperimentRunner(MICRO, cache_dir=cache_dir), **MICRO_GRID)
        assert results_equivalent(serial_results, replayed)


# ----------------------------------------------------------------------
# The collector's kernel mode reaches every worker, scoped to each unit
# ----------------------------------------------------------------------

class TestWorkerKernelMode:
    def test_worker_runs_unit_in_settings_mode_and_keeps_its_own(self, monkeypatch):
        monkeypatch.setattr(executors, "_WORKER_RUNNERS", {})
        unit = plan_study(scale=MICRO, **MICRO_GRID)[0]
        outcome = executors._execute_unit_in_worker(
            unit, ExecutionSettings(trace=True, kernels="compiled")
        )
        assert outcome.ok
        assert kernel_mode() == "fast"
        assert any(event.get("name") == "compiled_fit" for event in outcome.events)

    def test_parallel_unit_spans_carry_the_collector_mode(self):
        tel = RecordingTelemetry()
        with use_kernel_mode("compiled"):
            report = run_study_plan(
                plan_study(scale=MICRO, **MICRO_GRID),
                executor=ParallelExecutor(jobs=2), trace=tel,
            )
        assert report.ok
        units = [n for root in span_tree(tel.drain()) for n in root.walk()
                 if n.name == "unit"]
        assert [unit.attrs["kernels"] for unit in units] == ["compiled", "compiled"]
