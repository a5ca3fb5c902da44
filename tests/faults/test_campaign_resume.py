"""Campaign passes through forward plans: resumed weight trials, bit for bit.

Every campaign pass replays one forward plan per cell and chunk shape.  A
weight fault strikes the parameters before the pass, so a weight trial
replays each chunk from the first op reading a struck parameter, on values
the clean pass kept there.  These tests hold that path to the eager pass it
replaces: the same logits on every network the campaign measures, the same
activation-fault sites, and the same campaign results as the eager loop,
whatever the unit order or kernel mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ScaleSettings
from repro.faults.hardware import (
    HardwareCampaignResult,
    HardwareCampaignUnit,
    bit_flip,
    campaign,
    hardware_fault_injection,
    hardware_results_equivalent,
    run_campaign,
    stuck_at_1,
)
from repro.models import build_model
from repro.nn import Tensor, no_grad, use_kernel_mode
from repro.telemetry import RecordingTelemetry, render_trace_summary, summarize_trace

from ..conftest import same_bits

NETWORKS = ("convnet", "deconvnet", "mobilenet", "resnet18", "vgg11", "vgg16")
IMAGE_SHAPE = (3, 16, 16)
#: Chunks of 4, 4 and a ragged 2: two plans per network.
SPLIT, CHUNK = 10, 4

#: A 70-image test split: chunks of 64 and a ragged 6.
SCALE = ScaleSettings(
    name="hw-resume-test",
    dataset_sizes={"pneumonia": (48, 70)},
    image_size=8,
    epochs=2,
    batch_size=16,
    repeats=1,
)


def _planned(name: str):
    """A network, its chunks, their plans and each chunk's clean logits and
    kept values, planned the way a campaign's clean pass plans them."""
    module = build_model(name, IMAGE_SHAPE, 10, seed=0).eval()
    images = np.random.default_rng(1).standard_normal((SPLIT, *IMAGE_SHAPE)).astype(np.float32)
    batches = [images[i:i + CHUNK] for i in range(0, SPLIT, CHUNK)]
    plans, clean, kept = {}, [], []
    with no_grad():
        for batch in batches:
            if batch.shape not in plans:
                plans[batch.shape] = campaign._record_plan(module, batch)
            kept.append({})
            clean.append(plans[batch.shape].run(batch, keep=kept[-1]))
    return module, batches, plans, clean, kept


def _eager(module, batch: np.ndarray) -> np.ndarray:
    with no_grad():
        return module(Tensor(batch)).data


class TestResumedWeightTrials:
    @pytest.mark.parametrize("name", NETWORKS)
    def test_resumed_logits_are_the_eager_pass(self, name):
        module, batches, plans, clean, kept = _planned(name)
        starts = []
        for fault in (bit_flip, stuck_at_1):
            for rate in (1e-4, 1e-3, 1e-2):
                injection = hardware_fault_injection(
                    fault(rate, target="weight"), seed=7, model=module
                )
                with injection, np.errstate(all="ignore"):
                    for batch, clean_logits, values in zip(batches, clean, kept):
                        plan = plans[batch.shape]
                        start = plan.first_reader(injection.struck)
                        starts.append((start, len(plan)))
                        if start == len(plan):
                            resumed = clean_logits
                        else:
                            resumed = plan.resume(batch, values, start)
                        assert same_bits(resumed, _eager(module, batch)), (fault, rate, start)
        # Every chunk plan of a network resumes at the same op.
        assert len(starts) == 2 * 3 * len(batches)
        assert any(0 < start < ops for start, ops in starts), starts

    def test_resume_points_are_the_parameters_first_readers(self):
        module, batches, plans, _, _ = _planned("convnet")
        plan = plans[batches[0].shape]
        assert len(plan) == 14
        firsts = [plan.first_reader([param]) for param in module.parameters()]
        # conv1-3, then the three dense layers: weight and bias read together.
        assert firsts == [0, 0, 3, 3, 6, 6, 9, 9, 11, 11, 13, 13]
        assert plan.first_reader([]) == len(plan)
        assert plan.first_reader(module.parameters()) == 0

    def test_kept_values_survive_later_runs(self):
        # The arena reuses the memory of a value once its last reader ran;
        # kept values are copies, so other runs cannot overwrite them.
        module, batches, plans, clean, kept = _planned("resnet18")
        plan = plans[batches[0].shape]
        plan.run(batches[1])
        last = list(module.parameters())[-1]
        start = plan.first_reader([last])
        assert 0 < start < len(plan)
        assert same_bits(plan.resume(batches[0], kept[0], start), clean[0])


class TestActivationTrialsThroughThePlan:
    @pytest.mark.parametrize("name", NETWORKS)
    def test_plan_strikes_eager_sites_with_eager_bits(self, name):
        module, batches, plans, _, _ = _planned(name)
        spec = bit_flip(1e-3)
        with hardware_fault_injection(spec, seed=3, record_sites=True) as planned, \
                np.errstate(all="ignore"):
            replayed = [plans[batch.shape].run(batch) for batch in batches]
        with hardware_fault_injection(spec, seed=3, record_sites=True) as eager, \
                np.errstate(all="ignore"):
            expected = [_eager(module, batch) for batch in batches]
        assert planned.stats.elements_faulted > 0
        assert planned.flip_signature() == eager.flip_signature()
        for a, b in zip(replayed, expected):
            assert same_bits(a, b)


def _unit(technique: str, hw_type: str, target: str, rate: float) -> HardwareCampaignUnit:
    return HardwareCampaignUnit(
        dataset="pneumonia", model="convnet", scale=SCALE, technique=technique,
        hw_type=hw_type, target=target, rate=rate, trials=2,
    )


def _interleaved_units() -> list:
    """Units of two cells, alternating cell by cell."""
    return [
        _unit(technique, hw_type, target, rate)
        for hw_type, target, rate in (
            ("bit_flip", "weight", 1e-3),
            ("stuck_at_1", "weight", 1e-2),
            ("bit_flip", "activation", 1e-2),
            ("bit_flip", "weight", 1e-4),
        )
        for technique in ("baseline", "label_smoothing")
    ]


def _eager_predict(module, images: np.ndarray) -> np.ndarray:
    """The campaign's chunked eager pass before forward plans."""
    out = []
    with no_grad():
        for start in range(0, len(images), campaign.PREDICT_BATCH):
            batch = np.ascontiguousarray(
                images[start:start + campaign.PREDICT_BATCH], dtype=np.float32
            )
            out.append(module(Tensor(batch)).data.argmax(axis=1))
    return np.concatenate(out)


def _eager_oracle(unit: HardwareCampaignUnit) -> HardwareCampaignResult:
    """One unit through the eager loop the campaign ran before forward plans."""
    module, training_s = campaign._fitted_cell(unit)
    test = campaign._dataset_pair(unit)[1]
    clean = _eager_predict(module, test.images)
    trials = []
    for trial in range(unit.trials):
        with hardware_fault_injection(
            unit.spec, unit.trial_seed(trial), model=module
        ) as injector, np.errstate(all="ignore"):
            faulty = _eager_predict(module, test.images)
        trials.append({
            "accuracy": float((faulty == test.labels).mean()),
            "sdc_rate": float((faulty != clean).mean()),
            "faults": int(injector.stats.elements_faulted),
        })
    return HardwareCampaignResult(
        key=unit.key, dataset=unit.dataset, model=unit.model, technique=unit.technique,
        data_fault=unit.data_fault, spec_label=unit.spec.label,
        clean_accuracy=float((clean == test.labels).mean()), trials=trials,
        training_s=training_s,
    )


def _trial_ends(events: list) -> list:
    return [e for e in events if e["ev"] == "span_end" and e["name"] == "hw_trial"]


def _fallbacks(events: list) -> list:
    return [e for e in events if e["ev"] == "counter" and e["name"] == "hw_plan_fallback"]


class TestCampaignThroughPlans:
    def test_interleaved_cells_match_the_eager_loop(self, monkeypatch):
        monkeypatch.setattr(campaign, "_FITTED_CACHE", {})
        units = _interleaved_units()
        tel = RecordingTelemetry()
        results = run_campaign(units, trace=tel)
        assert [r.key for r in results] == [u.key for u in units]
        holding = [c for c in campaign._FITTED_CACHE.values() if c.plans or c.kept]
        assert len(campaign._FITTED_CACHE) == 2 and len(holding) == 1

        for unit, result in zip(units, results):
            expected = _eager_oracle(unit)
            assert hardware_results_equivalent(result, expected), unit.key
            assert result.clean_accuracy == expected.clean_accuracy

        events = tel.drain()
        assert not _fallbacks(events)
        paths = [(e["resume_op"], e["plan_ops"]) for e in _trial_ends(events)]
        assert len(paths) == 2 * len(units)
        assert {ops for _, ops in paths} == {14}
        assert any(0 < start < 14 for start, _ in paths), paths
        summary = summarize_trace(events)
        assert summary.hw_trials["whole"] >= 4  # the activation trials at least
        assert "hardware trials:" in render_trace_summary(summary)

    def test_reference_kernels_run_eager_counted_and_match(self, monkeypatch):
        monkeypatch.setattr(campaign, "_FITTED_CACHE", {})
        units = [_unit("baseline", "bit_flip", "weight", 1e-3),
                 _unit("baseline", "bit_flip", "activation", 1e-2)]
        planned = run_campaign(units)
        for cell in campaign._FITTED_CACHE.values():
            cell.drop_passes()
        tel = RecordingTelemetry()
        with use_kernel_mode("reference"):
            reference = run_campaign(units, trace=tel)
        events = tel.drain()
        # One clean pass and four trials, two chunks each, all eager.
        assert [e["reason"] for e in _fallbacks(events)] == ["reference kernels"] * 10
        assert {(e["resume_op"], e["plan_ops"]) for e in _trial_ends(events)} == {(0, 0)}
        for a, b in zip(planned, reference):
            assert hardware_results_equivalent(a, b)
            assert a.clean_accuracy == b.clean_accuracy

        # The cell's clean pass ran eager, so it has no plan to replay: the
        # fast kernels that follow stay eager too, counted, with equal results.
        tel = RecordingTelemetry()
        again = run_campaign(units, trace=tel)
        assert {e["reason"] for e in _fallbacks(tel.drain())} == {"clean pass ran eager"}
        for a, b in zip(planned, again):
            assert hardware_results_equivalent(a, b)
