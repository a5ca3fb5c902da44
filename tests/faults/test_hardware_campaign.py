"""Hardware campaigns: determinism, serial==parallel==cluster, checkpoint resume."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.experiments.cluster import ClusterExecutor
from repro.experiments.config import ExperimentConfig, ScaleSettings, resolve_scale
from repro.experiments.executors import run_study_plan
from repro.experiments.resilience import StudyFailedError
from repro.faults.hardware import (
    HardwareCampaignResult,
    HardwareCampaignUnit,
    campaign,
    hardware_results_equivalent,
    run_campaign,
    run_campaign_unit,
)
from repro.serve import ModelRegistry
from repro.telemetry import hierarchy_signature, read_trace, validate_trace

from ..experiments.test_cluster import _spawn_workers

#: Tiny scale: each cell fits in a couple of seconds.
SCALE = ScaleSettings(
    name="hw-test",
    dataset_sizes={"pneumonia": (48, 24)},
    image_size=8,
    epochs=2,
    batch_size=16,
    repeats=1,
)


def unit(**overrides) -> HardwareCampaignUnit:
    base = dict(
        dataset="pneumonia", model="convnet", scale=SCALE,
        rate=1e-2, trials=2,
    )
    base.update(overrides)
    return HardwareCampaignUnit(**base)


class TestUnit:
    def test_key_is_stable_and_scoped(self):
        u = unit()
        assert u.key == (
            "hw|pneumonia|convnet|baseline|none|bit_flip@0.01:activation"
            "|t2|rep0|hw-test"
        )
        assert unit(rate=1e-3).key != u.key
        assert unit(trials=3).key != u.key

    def test_trial_seeds_differ_by_trial(self):
        u = unit()
        assert u.trial_seed(0) != u.trial_seed(1)
        assert u.trial_seed(0) == unit().trial_seed(0)

    def test_invalid_fields_fail_at_construction(self):
        with pytest.raises(ValueError):
            unit(trials=0)
        with pytest.raises(ValueError):
            unit(rate=2.0)
        with pytest.raises(ValueError):
            unit(hw_type="gamma_ray")


class TestRunUnit:
    def test_rerun_is_identical(self):
        first = run_campaign_unit(unit())
        second = run_campaign_unit(unit())
        assert hardware_results_equivalent(first, second)
        assert len(first.trials) == 2
        assert 0.0 <= first.clean_accuracy <= 1.0
        for trial in first.trials:
            assert 0.0 <= trial["accuracy"] <= 1.0
            assert 0.0 <= trial["sdc_rate"] <= 1.0
            assert trial["faults"] > 0  # rate 1e-2 over convnet activations

    def test_trials_use_different_seeds(self):
        result = run_campaign_unit(unit(trials=3))
        # At this rate each trial lands on different fault sites; fault
        # counts all matching would mean the seed chain collapsed.
        assert len({t["faults"] for t in result.trials}) > 1

    def test_weight_target_runs_and_restores(self):
        result = run_campaign_unit(unit(target="weight", rate=1e-3))
        clean_again = run_campaign_unit(unit(target="weight", rate=1e-3))
        assert hardware_results_equivalent(result, clean_again)
        assert result.clean_accuracy == clean_again.clean_accuracy

    def test_dict_round_trip(self):
        result = run_campaign_unit(unit())
        assert hardware_results_equivalent(
            HardwareCampaignResult.from_dict(result.to_dict()), result
        )


class TestRunCampaign:
    def units(self):
        return [unit(rate=1e-3), unit(rate=1e-2)]

    def test_serial_matches_parallel(self):
        serial = run_campaign(self.units(), jobs=1)
        parallel = run_campaign(self.units(), jobs=2)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert hardware_results_equivalent(a, b)

    def test_checkpoint_resume_skips_completed(self, tmp_path):
        journal = tmp_path / "hw.jsonl"
        first = run_campaign(self.units(), checkpoint=journal)
        seen = []
        second = run_campaign(
            self.units(), checkpoint=journal, progress=seen.append
        )
        assert len(seen) == 2
        for a, b in zip(first, second):
            assert hardware_results_equivalent(a, b)
        # Replayed results decode through the codec, not re-measurement:
        # the journal is the source of truth on resume.
        text = journal.read_text()
        assert text.count('"kind": "cell"') == 2

    def test_trace_records_campaign_spans(self, tmp_path):
        from repro.telemetry import read_trace, validate_trace

        trace = tmp_path / "hw-trace.jsonl"
        run_campaign([unit()], trace=trace)
        events = read_trace(trace)
        stats = validate_trace(events)
        assert stats["spans"] > 0
        names = {event.get("name") for event in events}
        assert {"hw_campaign", "hw_unit", "hw_fit", "hw_trial"} <= names


class TestExecutorEquivalence:
    """Serial, ``jobs=2`` and a 2-worker cluster run the same collector."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("hw-executors")
        units = [unit(rate=1e-3), unit(rate=1e-2)]
        serial = run_campaign(units, trace=tmp / "serial.jsonl")
        parallel = run_campaign(units, jobs=2, trace=tmp / "parallel.jsonl")
        executor = ClusterExecutor(lease_timeout=120.0, poll_interval=0.05)
        procs = _spawn_workers(executor.address, 2)
        report = run_study_plan(units, executor=executor, trace=tmp / "cluster.jsonl")
        for proc in procs:
            proc.join(timeout=30)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert report.ok and report.executed == 2
        return {
            "serial": (serial, tmp / "serial.jsonl"),
            "parallel": (parallel, tmp / "parallel.jsonl"),
            "cluster": (report.results, tmp / "cluster.jsonl"),
        }

    @pytest.mark.parametrize("schedule", ["parallel", "cluster"])
    def test_results_bitwise_equal_to_serial(self, runs, schedule):
        serial, _ = runs["serial"]
        other, _ = runs[schedule]
        assert [r.key for r in other] == [r.key for r in serial]
        for a, b in zip(serial, other):
            assert hardware_results_equivalent(a, b)

    @pytest.mark.parametrize("schedule", ["parallel", "cluster"])
    def test_trace_hierarchy_matches_serial(self, runs, schedule):
        serial_events = read_trace(runs["serial"][1])
        other_events = read_trace(runs[schedule][1])
        validate_trace(other_events)
        assert hierarchy_signature(other_events) == hierarchy_signature(serial_events)


class TestCleanPassMemo:
    def test_clean_pass_runs_once_per_cell(self, monkeypatch):
        # Two units of one cell share the fitted module and the test split,
        # so only the first takes the clean pass; the trials stay armed.
        units = [unit(rate=1e-3), unit(rate=1e-2)]
        armed, unarmed_calls = [False], []
        predict = campaign._predict_labels
        injection = campaign.hardware_fault_injection

        def counting_predict(module, images):
            if not armed[0]:
                unarmed_calls.append(len(images))
            return predict(module, images)

        class FlaggedInjection(injection):
            def __enter__(self):
                injector = super().__enter__()
                armed[0] = True
                return injector

            def __exit__(self, *exc_info):
                armed[0] = False
                return super().__exit__(*exc_info)

        monkeypatch.setattr(campaign, "_predict_labels", counting_predict)
        monkeypatch.setattr(campaign, "hardware_fault_injection", FlaggedInjection)
        campaign._FITTED_CACHE.clear()
        memoized = run_campaign(units)
        assert len(unarmed_calls) == 1

        fresh = []
        for u in units:
            campaign._FITTED_CACHE.clear()
            fresh.append(run_campaign_unit(u))
        assert len(unarmed_calls) == 3
        for a, b in zip(memoized, fresh):
            assert hardware_results_equivalent(a, b)
            assert a.clean_accuracy == b.clean_accuracy


class TestDatasetLoadedOnce:
    @staticmethod
    def _count_loads(monkeypatch) -> list:
        from repro.experiments import runner

        loads, load = [], runner.load_dataset

        def counting_load(*args, **kwargs):
            loads.append(args[0])
            return load(*args, **kwargs)

        monkeypatch.setattr(runner, "load_dataset", counting_load)
        monkeypatch.setattr(campaign, "_FITTED_CACHE", {})
        monkeypatch.setattr(campaign, "_TESTSET_CACHE", {})
        return loads

    def test_cells_of_one_dataset_share_one_load(self, monkeypatch):
        # Two cells (two techniques) of one dataset: one load, and the same
        # results as cells fitted on their own fresh loads.
        units = [unit(), unit(technique="label_smoothing")]
        loads = self._count_loads(monkeypatch)
        shared = run_campaign(units)
        assert loads == ["pneumonia"]

        fresh = []
        for u in units:
            campaign._FITTED_CACHE.clear()
            campaign._TESTSET_CACHE.clear()
            fresh.append(run_campaign_unit(u))
        assert len(loads) == 3
        for a, b in zip(shared, fresh):
            assert hardware_results_equivalent(a, b)
            assert a.clean_accuracy == b.clean_accuracy

    def test_multi_network_technique_fails_before_any_load(self, monkeypatch):
        loads = self._count_loads(monkeypatch)
        with pytest.raises(ValueError, match="single servable"):
            run_campaign_unit(unit(technique="ensemble"))
        assert loads == []


class TestFailedUnit:
    def test_failure_is_journaled_and_raised(self, tmp_path, monkeypatch):
        bad, good = unit(rate=1e-3), unit(rate=1e-2)
        fitted_cell = campaign._fitted_cell

        def fail_one(u):
            if u.key == bad.key:
                raise RuntimeError("fit exploded")
            return fitted_cell(u)

        monkeypatch.setattr(campaign, "_fitted_cell", fail_one)
        journal = tmp_path / "hw.jsonl"
        with pytest.raises(StudyFailedError, match=re.escape(bad.key)) as info:
            run_campaign([bad, good], checkpoint=journal)
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [(r["kind"], r.get("key") or r["failure"]["key"]) for r in records[1:]] == [
            ("failure", bad.key), ("cell", good.key),
        ]
        report = info.value.report
        assert [r.key for r in report.results] == [good.key]
        assert report.failures[0].error_type == "RuntimeError"


class TestSharedSeedChain:
    def test_fitted_cell_matches_registry_refit(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        hw_unit = HardwareCampaignUnit(
            dataset="pneumonia", model="convnet", scale=resolve_scale("smoke"),
            data_fault="mislabelling@30%",
        )
        module, _ = campaign._fitted_cell(hw_unit)
        servable = ModelRegistry().refit_cell(ExperimentConfig(
            dataset="pneumonia", model="convnet", technique="baseline",
            fault_label="mislabelling@30%", repeats=1, scale="smoke",
        ))
        state_a, state_b = module.state_dict(), servable.module.state_dict()
        assert set(state_a) == set(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])


class TestCompiledKernelMode:
    """Hardware campaigns compose with the compiled autodiff tape.

    Fitting runs compiled (record-once, replay); the armed injection tap
    around each measurement trial forces the per-step eager downgrade.  The
    campaign result must be bitwise-identical to plain fast-eager mode.
    """

    @staticmethod
    def _fresh_fit():
        # The fitted-cell memo is keyed without the kernel mode (the bitwise
        # guarantee makes it mode-agnostic); clear it so each mode actually
        # trains instead of replaying a module fitted by an earlier test.
        from repro.faults.hardware.campaign import _FITTED_CACHE

        _FITTED_CACHE.clear()

    def test_campaign_matches_fast_mode(self):
        from repro.nn import use_kernel_mode

        self._fresh_fit()
        with use_kernel_mode("compiled"):
            compiled = run_campaign_unit(unit())
        self._fresh_fit()
        with use_kernel_mode("fast"):
            fast = run_campaign_unit(unit())
        assert hardware_results_equivalent(compiled, fast)
        assert compiled.clean_accuracy == fast.clean_accuracy

    def test_compiled_fit_replays_steps(self):
        from repro.nn import use_kernel_mode
        from repro.telemetry import RecordingTelemetry, telemetry_scope

        self._fresh_fit()
        tel = RecordingTelemetry()
        with telemetry_scope(tel), use_kernel_mode("compiled"):
            run_campaign_unit(unit())
        (fit_event,) = [e for e in tel.events if e.get("name") == "compiled_fit"]
        assert fit_event["compiled_steps"] > 0
        # The injection tap only arms around measurement passes, never the
        # fit, so no training step should have downgraded because of it.
        assert fit_event["tap_fallback_steps"] == 0
