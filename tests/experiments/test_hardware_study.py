"""Cross-axis hardware-fault study: planning, rendering, payload shape.

The expensive end-to-end paths (training + injection campaigns) are covered
by ``tests/faults/test_hardware_campaign.py``; here we pin the cheap but
contract-critical surface: grid planning is validated and deterministic, the
table renders, and the benchmark payload has the shape CI consumes.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ScaleSettings
from repro.experiments.hardware_study import (
    hardware_campaign_payload,
    plan_hardware_study,
    render_hardware_table,
)
from repro.faults.hardware import HardwareCampaignResult

SCALE = ScaleSettings(
    name="hw-study-test",
    dataset_sizes={"pneumonia": (48, 24), "gtsrb": (48, 24)},
    image_size=8,
    epochs=2,
    batch_size=16,
    repeats=1,
)


class TestPlan:
    def test_grid_is_full_cross_product(self):
        units = plan_hardware_study(
            models=("convnet",),
            datasets=("pneumonia", "gtsrb"),
            techniques=("baseline", "label_smoothing"),
            data_faults=("none", "mislabelling@30%"),
            hw_types=("bit_flip", "stuck_at_1"),
            targets=("activation", "weight"),
            hw_rates=(1e-4, 1e-3),
            scale=SCALE,
        )
        assert len(units) == 2 * 2 * 2 * 2 * 2 * 2
        assert len({u.key for u in units}) == len(units)

    def test_plan_order_is_deterministic(self):
        kwargs = dict(
            datasets=("pneumonia", "gtsrb"),
            techniques=("baseline", "label_smoothing"),
            hw_rates=(1e-4, 1e-3),
            scale=SCALE,
        )
        first = [u.key for u in plan_hardware_study(**kwargs)]
        second = [u.key for u in plan_hardware_study(**kwargs)]
        assert first == second
        # Outermost axis is the dataset; rate is the innermost.
        assert first[0].startswith("hw|pneumonia|")
        assert "0.0001:" in first[0] and "0.001:" in first[1]

    def test_extension_technique_and_model_accepted(self):
        units = plan_hardware_study(
            techniques=("fault_aware",), data_faults=("none",), scale=SCALE
        )
        assert all(u.technique == "fault_aware" for u in units)

    def test_invalid_axes_fail_fast(self):
        with pytest.raises(KeyError, match="unknown model"):
            plan_hardware_study(models=("resnet152",), scale=SCALE)
        with pytest.raises(KeyError):
            plan_hardware_study(techniques=("prayer",), scale=SCALE)
        with pytest.raises(ValueError):
            plan_hardware_study(data_faults=("mislabelling@lots",), scale=SCALE)
        with pytest.raises(ValueError):
            plan_hardware_study(hw_types=("gamma_ray",), scale=SCALE)
        with pytest.raises(ValueError):
            plan_hardware_study(targets=("bus",), scale=SCALE)
        for several_networks in (("ensemble",), ("co_teaching",)):
            with pytest.raises(ValueError, match="single servable"):
                plan_hardware_study(techniques=several_networks, scale=SCALE)


def fake_result(key: str = "hw|k", sdc: float = 0.1) -> HardwareCampaignResult:
    return HardwareCampaignResult(
        key=key,
        dataset="pneumonia",
        model="convnet",
        technique="baseline",
        data_fault="none",
        spec_label="bit_flip@0.001:activation",
        clean_accuracy=0.9,
        trials=[
            {"accuracy": 0.85, "sdc_rate": sdc, "faults": 12},
            {"accuracy": 0.80, "sdc_rate": sdc + 0.05, "faults": 9},
        ],
        training_s=1.0,
    )


class TestRendering:
    def test_table_has_header_and_rows(self):
        table = render_hardware_table([fake_result("hw|a"), fake_result("hw|b")])
        lines = table.splitlines()
        assert "hw fault" in lines[0] and "sdc" in lines[0]
        assert lines[1].startswith("---")
        assert len(lines) == 4
        assert "bit_flip@0.001:activation" in lines[2]
        assert "pneumonia/convnet/baseline/none" in lines[2]

    def test_payload_shape(self):
        payload = hardware_campaign_payload(
            [fake_result()], scale_name="hw-study-test"
        )
        assert payload["benchmark"] == "hardware_faults"
        assert payload["scale"] == "hw-study-test"
        assert payload["units"] == 1
        summary = payload["summary"][0]
        assert set(summary) == {
            "key", "clean_accuracy", "faulty_accuracy", "sdc_rate", "accuracy_drop"
        }
        round_trip = HardwareCampaignResult.from_dict(payload["results"][0])
        assert round_trip.key == fake_result().key
