"""Cross-axis hardware-fault study — do data-fault mitigations buy SDC robustness?

The paper's question is "which technique mitigates faulty *training data*";
this driver asks the orthogonal one: when a model trained under a data-fault
mitigation is later hit by *hardware* faults at inference time, does the
mitigation also reduce silent data corruption?  The grid crosses

    datasets × models × techniques × data-fault labels × hw fault configs,

plans one :class:`~repro.faults.hardware.campaign.HardwareCampaignUnit` per
cell (validated at plan time, before any training), and runs them through
:func:`~repro.faults.hardware.campaign.run_campaign` — the study collector
(:func:`~repro.experiments.executors.run_study_plan`) with checkpoint/resume,
``--jobs N`` fan-out, and merged telemetry traces included.  A failed unit
is journaled and the campaign raises
:class:`~repro.experiments.resilience.StudyFailedError` after the rest ran.
The rendered table and the ``BENCH_hardware_faults.json`` payload are the
CLI's ``repro-study hardware-faults`` output.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from ..faults.hardware.campaign import (
    HardwareCampaignResult,
    HardwareCampaignUnit,
    run_campaign,
)
from ..faults.hardware.spec import FaultTarget, HardwareFaultType
from ..faults.spec import spec_from_label
from ..mitigation.registry import validate_techniques
from ..models.registry import model_names
from .config import ScaleSettings, resolve_scale
from .runner import single_network_technique

__all__ = [
    "plan_hardware_study",
    "hardware_fault_study",
    "render_hardware_table",
    "hardware_campaign_payload",
]


def plan_hardware_study(
    models: tuple[str, ...] = ("convnet",),
    datasets: tuple[str, ...] = ("gtsrb",),
    techniques: tuple[str, ...] = ("baseline", "label_smoothing"),
    data_faults: tuple[str, ...] = ("none", "mislabelling@30%"),
    hw_types: tuple[str, ...] = ("bit_flip",),
    targets: tuple[str, ...] = ("activation",),
    hw_rates: tuple[float, ...] = (1e-4, 1e-3),
    trials: int = 3,
    tensor_probability: float = 1.0,
    bit: "int | None" = None,
    scale: "ScaleSettings | str | None" = None,
) -> list[HardwareCampaignUnit]:
    """Plan the cross-axis grid; fails fast on any invalid name or label, and
    on a technique with no single network to inject into (``ensemble``).

    Deterministic nested-loop order (dataset ▸ model ▸ technique ▸ data
    fault ▸ hw type ▸ target ▸ rate), so unit keys, trial seeds, and result
    ordering are identical everywhere the same arguments are given.
    """
    if not isinstance(scale, ScaleSettings):
        scale = resolve_scale(scale)
    validate_techniques(list(techniques))
    for technique in techniques:
        single_network_technique(technique)
    known_models = model_names(include_extensions=True)
    unknown = [m for m in models if m not in known_models]
    if unknown:
        raise KeyError(f"unknown model(s) {unknown}; choices: {known_models}")
    for label in data_faults:
        spec_from_label(label)  # raises on bad labels; "none" is allowed
    hw_type_values = [HardwareFaultType(t).value for t in hw_types]
    target_values = [FaultTarget(t).value for t in targets]

    units = []
    for dataset in datasets:
        for model in models:
            for technique in techniques:
                for data_fault in data_faults:
                    for hw_type in hw_type_values:
                        for target in target_values:
                            for rate in hw_rates:
                                units.append(HardwareCampaignUnit(
                                    dataset=dataset,
                                    model=model,
                                    scale=scale,
                                    technique=technique,
                                    data_fault=data_fault,
                                    hw_type=hw_type,
                                    target=target,
                                    rate=rate,
                                    tensor_probability=tensor_probability,
                                    bit=bit,
                                    trials=trials,
                                ))
    return units


def hardware_fault_study(
    models: tuple[str, ...] = ("convnet",),
    datasets: tuple[str, ...] = ("gtsrb",),
    techniques: tuple[str, ...] = ("baseline", "label_smoothing"),
    data_faults: tuple[str, ...] = ("none", "mislabelling@30%"),
    hw_types: tuple[str, ...] = ("bit_flip",),
    targets: tuple[str, ...] = ("activation",),
    hw_rates: tuple[float, ...] = (1e-4, 1e-3),
    trials: int = 3,
    tensor_probability: float = 1.0,
    bit: "int | None" = None,
    scale: "ScaleSettings | str | None" = None,
    jobs: int = 1,
    checkpoint: "str | os.PathLike | None" = None,
    trace: "str | os.PathLike | None" = None,
    progress: "Callable[[HardwareCampaignResult], None] | None" = None,
) -> list[HardwareCampaignResult]:
    """Plan and run the cross-axis study; returns results in plan order."""
    units = plan_hardware_study(
        models=models, datasets=datasets, techniques=techniques,
        data_faults=data_faults, hw_types=hw_types, targets=targets,
        hw_rates=hw_rates, trials=trials,
        tensor_probability=tensor_probability, bit=bit, scale=scale,
    )
    return run_campaign(
        units, jobs=jobs, checkpoint=checkpoint, trace=trace, progress=progress
    )


def render_hardware_table(results: Iterable[HardwareCampaignResult]) -> str:
    """Fixed-width results table: one row per campaign unit.

    Columns: the cell identity, the hardware-fault spec, clean accuracy,
    faulty accuracy with its 95 % CI half-width, SDC rate with CI, and the
    accuracy drop — the quantity the cross-axis question is about.
    """
    rows = [(
        "cell (dataset/model/technique/data-fault)", "hw fault",
        "clean", "faulty ±ci", "sdc ±ci", "drop",
    )]
    for r in results:
        cell = f"{r.dataset}/{r.model}/{r.technique}/{r.data_fault}"
        fa, sdc = r.faulty_accuracy, r.sdc_rate
        rows.append((
            cell, r.spec_label, f"{r.clean_accuracy:.3f}",
            f"{fa.mean:.3f} ±{fa.half_width:.3f}",
            f"{sdc.mean:.3f} ±{sdc.half_width:.3f}",
            f"{r.accuracy_drop:+.3f}",
        ))
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def hardware_campaign_payload(
    results: Iterable[HardwareCampaignResult], scale_name: str = ""
) -> dict:
    """JSON payload for ``BENCH_hardware_faults.json`` artifacts.

    Carries both the raw per-trial rows (so a re-run can be compared exactly
    — the reproducibility acceptance gate) and the aggregate summaries the
    CI smoke job and notebooks read.
    """
    results = list(results)
    return {
        "benchmark": "hardware_faults",
        "scale": scale_name,
        "units": len(results),
        "results": [r.to_dict() for r in results],
        "summary": [
            {
                "key": r.key,
                "clean_accuracy": round(r.clean_accuracy, 6),
                "faulty_accuracy": round(r.faulty_accuracy.mean, 6),
                "sdc_rate": round(r.sdc_rate.mean, 6),
                "accuracy_drop": round(r.accuracy_drop, 6),
            }
            for r in results
        ],
    }
