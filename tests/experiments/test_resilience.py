"""Tests for the fault-tolerant study engine (checkpoint/resume/retries)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, ExperimentResult, full_study
from repro.experiments.resilience import (
    CellFailure,
    CheckpointError,
    RetryPolicy,
    StudyCheckpoint,
    StudyFailedError,
    cell_key,
    run_cell_with_retry,
    run_resilient_study,
)
from repro.faults import FaultType
from repro.metrics.overhead import RuntimeCost
from repro.metrics.reliability import ReliabilityResult
from repro.nn import DivergenceError


# ----------------------------------------------------------------------
# Stub runners: real ExperimentResults without any training
# ----------------------------------------------------------------------

def _make_result(dataset, model, technique, fault_label, scale="stub"):
    config = ExperimentConfig(
        dataset=dataset, model=model, technique=technique,
        fault_label=fault_label, repeats=1, scale=scale,
    )
    result = ExperimentResult(config=config)
    result.repetitions.append(
        ReliabilityResult(
            golden_accuracy=0.9, faulty_accuracy=0.7, accuracy_delta=0.2,
            reverse_accuracy_delta=0.0, num_test=40,
        )
    )
    result.costs.append(RuntimeCost(training_s=1.0, inference_s=0.1))
    return result


class _StubScale:
    name = "stub"
    repeats = 1
    # Fingerprint inputs (scale_fingerprint works on any duck-typed scale).
    seed = 0
    epochs = 1
    batch_size = 1
    learning_rate = 1.0
    optimizer = "adam"
    image_size = 1
    dataset_sizes: dict = {}


class StubRunner:
    """Counts runs; optionally fails specific cells for N attempts."""

    def __init__(self, fail_plan=None):
        self.scale = _StubScale()
        self.calls = []
        #: {(dataset, model, technique, fault_label): [exc, exc, ...]} —
        #: exceptions raised on successive attempts before succeeding.
        self.fail_plan = dict(fail_plan or {})

    def _scale_fingerprint(self):
        return "stub-fingerprint"

    def run(self, dataset, model, technique, fault, lr_scale=1.0, seed_offset=0, **kw):
        fault_label = fault.label if fault is not None else "none"
        self.calls.append((dataset, model, technique, fault_label, lr_scale, seed_offset))
        pending = self.fail_plan.get((dataset, model, technique, fault_label))
        if pending:
            raise pending.pop(0)
        return _make_result(dataset, model, technique, fault_label)


GRID = dict(
    models=("convnet",),
    datasets=("pneumonia",),
    fault_types=(FaultType.MISLABELLING, FaultType.REMOVAL),
    rates=(0.1, 0.3),
    techniques=["baseline"],
)  # 4 cells


# ----------------------------------------------------------------------
# Journal round-trip
# ----------------------------------------------------------------------

class TestStudyCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path, fingerprint="fp")
        result = _make_result("pneumonia", "convnet", "baseline", "mislabelling@10%")
        ckpt.record_success("k1", result)
        failure = CellFailure(
            key="k2", dataset="pneumonia", model="convnet", technique="baseline",
            fault_label="removal@30%", attempts=2, error_type="DivergenceError",
            message="boom", chain=["DivergenceError('boom')"] * 2, last_traceback="tb",
        )
        ckpt.record_failure(failure)

        reloaded = StudyCheckpoint(path, fingerprint="fp")
        assert set(reloaded.completed) == {"k1"}
        assert reloaded.completed["k1"].accuracy_delta.mean == pytest.approx(0.2)
        assert reloaded.completed["k1"].config.dataset == "pneumonia"
        assert set(reloaded.failures) == {"k2"}
        assert reloaded.failures["k2"].error_type == "DivergenceError"
        assert reloaded.corrupt_lines == 0

    def test_journal_is_jsonl(self, tmp_path):
        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path)
        ckpt.record_success("k", _make_result("pneumonia", "convnet", "baseline", "none"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one cell
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[1])["kind"] == "cell"

    def test_success_supersedes_failure(self, tmp_path):
        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path)
        failure = CellFailure(
            key="k", dataset="d", model="m", technique="t", fault_label="f",
            attempts=1, error_type="ValueError", message="x",
        )
        ckpt.record_failure(failure)
        ckpt.record_success("k", _make_result("d", "m", "t", "f"))
        reloaded = StudyCheckpoint(path)
        assert "k" in reloaded.completed
        assert not reloaded.failures

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path)
        ckpt.record_success("k", _make_result("d", "m", "t", "f"))
        # Simulate a non-atomic writer killed mid-line.
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "key": "k2", "resu')
        reloaded = StudyCheckpoint(path)
        assert set(reloaded.completed) == {"k"}
        assert reloaded.corrupt_lines == 1

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyCheckpoint(path, fingerprint="run-A")
        with pytest.raises(CheckpointError, match="fingerprint"):
            StudyCheckpoint(path, fingerprint="run-B")

    def test_resume_false_refuses_existing(self, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyCheckpoint(path)
        with pytest.raises(CheckpointError, match="already exists"):
            StudyCheckpoint(path, resume=False)

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "study.jsonl"
        path.write_text('{"not": "a journal"}\n')
        with pytest.raises(CheckpointError, match="not a study checkpoint"):
            StudyCheckpoint(path)

    def test_leftover_tmp_file_is_ignored(self, tmp_path):
        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path)
        ckpt.record_success("k", _make_result("d", "m", "t", "f"))
        # A crash between write and rename leaves a *.tmp sibling behind.
        (tmp_path / "study.jsonl.tmp").write_text("torn half-written journal")
        reloaded = StudyCheckpoint(path)
        assert set(reloaded.completed) == {"k"}

    def test_flush_crash_preserves_previous_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path)
        ckpt.record_success("k1", _make_result("d", "m", "t", "f"))
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            ckpt.record_success("k2", _make_result("d2", "m", "t", "f"))
        monkeypatch.undo()
        assert path.read_text() == before  # old journal intact, no torn state
        assert not path.with_name(path.name + ".tmp").exists()


# ----------------------------------------------------------------------
# Advisory locking: one writer per journal
# ----------------------------------------------------------------------

fcntl = pytest.importorskip("fcntl")


class TestCheckpointLock:
    def test_foreign_lock_holder_is_refused(self, tmp_path):
        from repro.experiments import CheckpointLockError

        path = tmp_path / "study.jsonl"
        ckpt = StudyCheckpoint(path)
        ckpt.record_success("k", _make_result("d", "m", "t", "f"))
        ckpt.close()

        # Simulate another process: an independent fd's flock conflicts with
        # any later open, even within this process.
        fd = os.open(ckpt.lock_path, os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        try:
            with pytest.raises(CheckpointLockError, match="locked by another process"):
                StudyCheckpoint(path)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

        # Lock released by the "other process": open works again, data intact.
        reopened = StudyCheckpoint(path)
        assert set(reopened.completed) == {"k"}
        reopened.close()

    def test_lock_error_is_a_checkpoint_error(self):
        from repro.experiments import CheckpointLockError

        assert issubclass(CheckpointLockError, CheckpointError)

    def test_same_process_may_reopen_its_journal(self, tmp_path):
        # Reload/resume within the owning process (the historical pattern)
        # must keep working; only *other* processes are locked out.
        path = tmp_path / "study.jsonl"
        first = StudyCheckpoint(path)
        first.record_success("k", _make_result("d", "m", "t", "f"))
        second = StudyCheckpoint(path)  # no close() in between
        assert set(second.completed) == {"k"}
        first.close()
        second.close()

    def test_context_manager_releases_lock(self, tmp_path):
        path = tmp_path / "study.jsonl"
        with StudyCheckpoint(path) as ckpt:
            ckpt.record_success("k", _make_result("d", "m", "t", "f"))
        # After close, a foreign flock succeeds — proof the lock was dropped.
        fd = os.open(ckpt.lock_path, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def test_close_is_idempotent(self, tmp_path):
        ckpt = StudyCheckpoint(tmp_path / "study.jsonl")
        ckpt.close()
        ckpt.close()


# ----------------------------------------------------------------------
# Retry layer
# ----------------------------------------------------------------------

class TestRetry:
    def test_divergence_retry_reseeds_and_halves_lr(self):
        cell = ("pneumonia", "convnet", "baseline", "mislabelling@10%")
        runner = StubRunner(fail_plan={cell: [DivergenceError(0, 3, float("nan"))]})
        from repro.faults import mislabelling

        outcome = run_cell_with_retry(
            runner, "pneumonia", "convnet", "baseline", mislabelling(0.1),
            RetryPolicy(max_attempts=3),
        )
        assert outcome.ok
        assert outcome.attempts == 2
        # First attempt canonical; second reseeded with the LR halved.
        assert runner.calls[0][4:] == (1.0, 0)
        assert runner.calls[1][4:] == (0.5, 1)

    def test_exhausted_retries_become_failure_with_chain(self):
        from repro.faults import mislabelling

        cell = ("pneumonia", "convnet", "baseline", "mislabelling@10%")
        runner = StubRunner(
            fail_plan={cell: [ValueError("first"), ValueError("second")]}
        )
        outcome = run_cell_with_retry(
            runner, "pneumonia", "convnet", "baseline", mislabelling(0.1),
            RetryPolicy(max_attempts=2),
        )
        assert not outcome.ok
        assert outcome.failure.attempts == 2
        assert outcome.failure.error_type == "ValueError"
        assert outcome.failure.chain == ["ValueError('first')", "ValueError('second')"]
        assert "ValueError: second" in outcome.failure.last_traceback

    def test_backoff_hook_called_exponentially(self):
        from repro.faults import mislabelling

        cell = ("pneumonia", "convnet", "baseline", "mislabelling@10%")
        runner = StubRunner(fail_plan={cell: [ValueError("a"), ValueError("b")]})
        delays = []
        policy = RetryPolicy(
            max_attempts=3, backoff_s=1.0, backoff_factor=2.0, sleep=delays.append
        )
        outcome = run_cell_with_retry(
            runner, "pneumonia", "convnet", "baseline", mislabelling(0.1), policy
        )
        assert outcome.ok
        assert delays == [1.0, 2.0]

    def test_backoff_jitter_stays_within_band_and_is_deterministic(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=2.0, jitter=0.25)
        for attempt in (1, 2, 3, 4):
            base = 1.0 * 2.0 ** (attempt - 1)
            delay = policy.backoff_for(attempt)
            assert base * 0.75 <= delay <= base * 1.25
            assert delay != base  # jitter actually perturbs the schedule
            # Same jitter_seed → same delays: retries replay identically.
            assert delay == RetryPolicy(
                backoff_s=1.0, backoff_factor=2.0, jitter=0.25
            ).backoff_for(attempt)
        other = RetryPolicy(
            backoff_s=1.0, backoff_factor=2.0, jitter=0.25, jitter_seed=1
        )
        assert any(
            other.backoff_for(a) != policy.backoff_for(a) for a in (1, 2, 3)
        )

    def test_max_backoff_caps_after_jitter(self):
        policy = RetryPolicy(
            backoff_s=1.0, backoff_factor=10.0, jitter=0.5, max_backoff_s=5.0
        )
        # Attempt 3 has base 100s; whatever jitter does, the cap is hard.
        assert policy.backoff_for(3) == 5.0
        assert policy.backoff_for(1) <= 5.0
        # Cap alone (no jitter) also clamps the exponential curve.
        capped = RetryPolicy(backoff_s=1.0, backoff_factor=2.0, max_backoff_s=3.0)
        assert [capped.backoff_for(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 3.0, 3.0]

    def test_keyboard_interrupt_propagates(self):
        from repro.faults import mislabelling

        cell = ("pneumonia", "convnet", "baseline", "mislabelling@10%")
        runner = StubRunner(fail_plan={cell: [KeyboardInterrupt()]})
        with pytest.raises(KeyboardInterrupt):
            run_cell_with_retry(
                runner, "pneumonia", "convnet", "baseline", mislabelling(0.1)
            )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(lr_decay_on_divergence=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff_s=-1.0)


# ----------------------------------------------------------------------
# The resilient sweep: resume-after-kill, graceful degradation
# ----------------------------------------------------------------------

class _KillAfter:
    """A progress callback that raises after K completed cells."""

    def __init__(self, k):
        self.k = k
        self.seen = 0

    def __call__(self, result):
        self.seen += 1
        if self.seen >= self.k:
            raise KeyboardInterrupt("simulated Ctrl-C")


class TestResilientStudy:
    def test_full_grid_no_checkpoint(self):
        runner = StubRunner()
        report = run_resilient_study(runner, **GRID)
        assert len(report.results) == 4
        assert report.executed == 4
        assert report.replayed == 0
        assert report.ok

    def test_resume_after_kill_retrains_nothing(self, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StubRunner()
        with pytest.raises(KeyboardInterrupt):
            run_resilient_study(
                runner, checkpoint=path, progress=_KillAfter(2), **GRID
            )
        assert len(runner.calls) == 2  # two cells done, then killed

        # A fresh process resumes from the journal.
        resumed = StubRunner()
        report = run_resilient_study(resumed, checkpoint=path, **GRID)
        assert len(report.results) == 4
        assert report.replayed == 2
        assert report.executed == 2
        # Zero re-runs of journaled cells: only the two missing cells ran.
        done_before = {c[:4] for c in runner.calls}
        assert all(c[:4] not in done_before for c in resumed.calls)
        assert len(resumed.calls) == 2

        # A third run replays everything and trains nothing.
        third = StubRunner()
        report = run_resilient_study(third, checkpoint=path, **GRID)
        assert report.replayed == 4
        assert third.calls == []

    def test_replayed_results_preserve_values_and_order(self, tmp_path):
        path = tmp_path / "study.jsonl"
        first = run_resilient_study(StubRunner(), checkpoint=path, **GRID)
        second = run_resilient_study(StubRunner(), checkpoint=path, **GRID)
        assert [r.config for r in second.results] == [r.config for r in first.results]
        assert [r.accuracy_delta.mean for r in second.results] == [
            r.accuracy_delta.mean for r in first.results
        ]

    def test_diverging_cell_is_retried_then_recorded_as_failure(self, tmp_path):
        # One cell diverges on every attempt; the sweep must finish anyway.
        path = tmp_path / "study.jsonl"
        bad = ("pneumonia", "convnet", "baseline", "mislabelling@30%")
        runner = StubRunner(
            fail_plan={bad: [DivergenceError(1, 0, float("inf"))] * 2}
        )
        failures = []
        report = run_resilient_study(
            runner, checkpoint=path, retry=RetryPolicy(max_attempts=2),
            on_failure=failures.append, **GRID
        )
        assert len(report.results) == 3
        assert len(report.failures) == 1
        assert report.failures[0].error_type == "DivergenceError"
        assert report.failures[0].fault_label == "mislabelling@30%"
        assert failures == report.failures
        assert not report.ok
        assert "FAILED" in report.summary()

        # Resuming retries the failed cell (now healthy) and completes the grid.
        healthy = StubRunner()
        report2 = run_resilient_study(healthy, checkpoint=path, **GRID)
        assert report2.ok
        assert report2.replayed == 3
        assert report2.executed == 1
        assert len(healthy.calls) == 1

    def test_transient_divergence_recovers_mid_sweep(self):
        bad = ("pneumonia", "convnet", "baseline", "removal@10%")
        runner = StubRunner(
            fail_plan={bad: [DivergenceError(0, 0, float("nan"))]}
        )
        report = run_resilient_study(runner, retry=RetryPolicy(max_attempts=2), **GRID)
        assert report.ok
        assert len(report.results) == 4
        retried = [c for c in runner.calls if c[:4] == bad]
        assert len(retried) == 2
        assert retried[1][4] == 0.5  # halved learning rate on the retry

    def test_full_study_delegates_when_checkpoint_given(self, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StubRunner()
        results = full_study(
            runner,
            models=GRID["models"],
            datasets=GRID["datasets"],
            fault_types=GRID["fault_types"],
            rates=GRID["rates"],
            techniques=GRID["techniques"],
            checkpoint=path,
        )
        assert len(results) == 4
        assert path.exists()
        again = full_study(
            StubRunner(),
            models=GRID["models"],
            datasets=GRID["datasets"],
            fault_types=GRID["fault_types"],
            rates=GRID["rates"],
            techniques=GRID["techniques"],
            checkpoint=path,
        )
        assert [r.accuracy_delta.mean for r in again] == [
            r.accuracy_delta.mean for r in results
        ]

    @pytest.mark.parametrize("traced", [False, True])
    def test_full_study_retries_a_diverging_cell_on_every_path(self, tmp_path, traced):
        cell = ("pneumonia", "convnet", "baseline", "mislabelling@10%")
        runner = StubRunner(fail_plan={cell: [DivergenceError(0, 3, float("nan"))]})
        trace = tmp_path / "trace.jsonl" if traced else None
        results = full_study(runner, trace=trace, **GRID)
        assert len(results) == 4
        retried = [c for c in runner.calls if c[:4] == cell]
        assert [c[4] for c in retried] == [1.0, 0.5]  # lr halved after divergence

    def test_full_study_raises_once_every_cell_is_journaled(self, tmp_path):
        bad = ("pneumonia", "convnet", "baseline", "removal@30%")
        runner = StubRunner(fail_plan={bad: [RuntimeError("boom")] * 2})
        path = tmp_path / "study.jsonl"
        with pytest.raises(StudyFailedError, match="removal@30%") as info:
            full_study(runner, checkpoint=path, **GRID)
        report = info.value.report
        assert len(report.results) == 3
        assert [f.fault_label for f in report.failures] == ["removal@30%"]
        journal = StudyCheckpoint(path)
        assert len(journal.completed) == 3 and set(journal.failures) == {report.failures[0].key}

    def test_cell_key_includes_scale_and_repeats(self):
        runner = StubRunner()
        key = cell_key(runner, "gtsrb", "convnet", "baseline", "mislabelling@10%")
        assert key == "gtsrb|convnet|baseline|mislabelling@10%|x1|stub"
