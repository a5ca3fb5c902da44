"""Study drivers — one function per paper table/figure (DESIGN.md §3).

Each driver runs the relevant slice of the experiment grid through an
:class:`~repro.experiments.runner.ExperimentRunner` and returns structured
results; :mod:`repro.experiments.report` renders them as text matching the
paper's tables and figure series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.spec import FaultSpec, FaultType, mislabelling, removal, repetition, single_fault
from ..metrics.overhead import OverheadResult, RuntimeCost, relative_overhead
from ..metrics.stats import MeanWithCI, statistically_similar
from ..mitigation.registry import technique_names
from .executors import ParallelExecutor
from .plan import iter_grid, techniques_for
from .resilience import StudyFailedError, run_resilient_study
from .runner import ExperimentResult, ExperimentRunner

__all__ = [
    "FIG3_MODELS",
    "DEFAULT_FAULT_RATES",
    "ADSeries",
    "ADPanel",
    "golden_accuracy_table",
    "study_grid",
    "full_study",
    "ad_panel",
    "fig3_panels",
    "fig4_panels",
    "overhead_table",
    "combined_fault_analysis",
    "CombinedFaultVerdict",
    "motivating_example",
    "MotivatingExampleResult",
]

#: The four models of Fig. 3 (a–h).
FIG3_MODELS = ("resnet50", "vgg16", "convnet", "mobilenet")

#: The paper's fault percentages (§IV).
DEFAULT_FAULT_RATES = (0.1, 0.3, 0.5)


@dataclass
class ADSeries:
    """AD as a function of fault rate for one technique (one figure line)."""

    technique: str
    rates: list[float] = field(default_factory=list)
    points: list[MeanWithCI] = field(default_factory=list)

    def at(self, rate: float) -> MeanWithCI:
        try:
            return self.points[self.rates.index(rate)]
        except ValueError:
            raise KeyError(f"no point at rate {rate} (have {self.rates})") from None


@dataclass
class ADPanel:
    """One figure panel: every technique's AD series for a fixed
    (dataset, model, fault type)."""

    dataset: str
    model: str
    fault_type: FaultType
    series: dict[str, ADSeries] = field(default_factory=dict)
    raw_results: dict[tuple[str, float], ExperimentResult] = field(default_factory=dict)

    @property
    def title(self) -> str:
        return f"{self.dataset}, {self.model}, {self.fault_type.value}"

    def winner_at(self, rate: float) -> str:
        """Technique with the lowest mean AD at ``rate``."""
        return min(self.series, key=lambda t: self.series[t].at(rate).mean)


# Compatibility aliases: the canonical implementations moved to leaf modules
# (faults.spec / experiments.plan) so the planner and worker processes can
# share them without importing this driver layer.
_make_fault = single_fault
_techniques_for = techniques_for


# ----------------------------------------------------------------------
# Table IV — golden accuracies per technique
# ----------------------------------------------------------------------

def golden_accuracy_table(
    runner: ExperimentRunner,
    models: tuple[str, ...] = ("resnet50", "vgg16", "convnet", "mobilenet"),
    datasets: tuple[str, ...] = ("cifar10", "gtsrb", "pneumonia"),
    techniques: list[str] | None = None,
) -> dict[tuple[str, str, str], MeanWithCI]:
    """Accuracy of each technique trained *without* fault injection.

    Returns ``{(model, dataset, technique): accuracy}`` — the cells of paper
    Table IV (the "Base" column is the plain baseline).
    """
    techniques = techniques or technique_names()
    table: dict[tuple[str, str, str], MeanWithCI] = {}
    for model in models:
        for dataset in datasets:
            for technique in techniques:
                result = runner.run(dataset, model, technique, fault=None)
                table[(model, dataset, technique)] = result.faulty_accuracy
    return table


# ----------------------------------------------------------------------
# Figures 3 & 4 — AD panels
# ----------------------------------------------------------------------

def ad_panel(
    runner: ExperimentRunner,
    dataset: str,
    model: str,
    fault_type: FaultType,
    rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    techniques: list[str] | None = None,
) -> ADPanel:
    """Measure one figure panel: AD vs fault rate for every technique."""
    panel = ADPanel(dataset=dataset, model=model, fault_type=fault_type)
    for technique in _techniques_for(fault_type, techniques):
        series = ADSeries(technique=technique)
        for rate in rates:
            result = runner.run(dataset, model, technique, fault=_make_fault(fault_type, rate))
            series.rates.append(rate)
            series.points.append(result.accuracy_delta)
            panel.raw_results[(technique, rate)] = result
        panel.series[technique] = series
    return panel


def fig3_panels(
    runner: ExperimentRunner,
    models: tuple[str, ...] = FIG3_MODELS,
    rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    techniques: list[str] | None = None,
) -> dict[tuple[str, str], ADPanel]:
    """Fig. 3: GTSRB panels — mislabelling (a–d) and removal (e–h)."""
    panels: dict[tuple[str, str], ADPanel] = {}
    for fault_type in (FaultType.MISLABELLING, FaultType.REMOVAL):
        for model in models:
            panels[(fault_type.value, model)] = ad_panel(
                runner, "gtsrb", model, fault_type, rates, techniques
            )
    return panels


def fig4_panels(
    runner: ExperimentRunner,
    datasets: tuple[str, ...] = ("cifar10", "gtsrb", "pneumonia"),
    rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    techniques: list[str] | None = None,
) -> dict[tuple[str, str, str], ADPanel]:
    """Fig. 4: per-dataset panels — ResNet50/mislabelling and
    MobileNet/repetition for each dataset."""
    panels: dict[tuple[str, str, str], ADPanel] = {}
    for dataset in datasets:
        panels[(dataset, "resnet50", "mislabelling")] = ad_panel(
            runner, dataset, "resnet50", FaultType.MISLABELLING, rates, techniques
        )
        panels[(dataset, "mobilenet", "repetition")] = ad_panel(
            runner, dataset, "mobilenet", FaultType.REPETITION, rates, techniques
        )
    return panels


# ----------------------------------------------------------------------
# §IV-E — runtime overheads
# ----------------------------------------------------------------------

def overhead_table(
    runner: ExperimentRunner,
    dataset: str = "gtsrb",
    model: str = "convnet",
    fault_rate: float = 0.1,
    techniques: list[str] | None = None,
) -> dict[str, OverheadResult]:
    """Training/inference overheads of each technique relative to the baseline."""
    techniques = techniques or technique_names()
    if "baseline" not in techniques:
        techniques = ["baseline", *techniques]
    fault = mislabelling(fault_rate)
    costs: dict[str, RuntimeCost] = {}
    for technique in techniques:
        result = runner.run(dataset, model, technique, fault=fault)
        costs[technique] = RuntimeCost(
            training_s=result.mean_training_s, inference_s=result.mean_inference_s
        )
    baseline_cost = costs["baseline"]
    return {
        technique: relative_overhead(technique, cost, baseline_cost)
        for technique, cost in costs.items()
        if technique != "baseline"
    }


# ----------------------------------------------------------------------
# §IV-C — combined fault types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CombinedFaultVerdict:
    """Is a combined fault's AD statistically similar to its dominant part's?"""

    combined_label: str
    dominant_label: str
    combined_ad: MeanWithCI
    dominant_ad: MeanWithCI
    similar: bool


def combined_fault_analysis(
    runner: ExperimentRunner,
    dataset: str = "gtsrb",
    model: str = "convnet",
    rate: float = 0.3,
    technique: str = "baseline",
) -> list[CombinedFaultVerdict]:
    """Reproduce §IV-C: combined faults behave like their dominant component.

    The paper reports mislabelling+removal ≈ mislabelling,
    mislabelling+repetition ≈ mislabelling, and removal+repetition ≈
    repetition (all "statistically similar").
    """
    singles = {
        "mislabelling": runner.run(dataset, model, technique, mislabelling(rate)),
        "removal": runner.run(dataset, model, technique, removal(rate)),
        "repetition": runner.run(dataset, model, technique, repetition(rate)),
    }
    combos = [
        (mislabelling(rate) & removal(rate), "mislabelling"),
        (mislabelling(rate) & repetition(rate), "mislabelling"),
        (removal(rate) & repetition(rate), "repetition"),
    ]
    verdicts: list[CombinedFaultVerdict] = []
    for spec, dominant in combos:
        combined = runner.run(dataset, model, technique, spec)
        dominant_result = singles[dominant]
        combined_values = combined.ad_values()
        dominant_values = dominant_result.ad_values()
        if len(combined_values) >= 2 and len(dominant_values) >= 2:
            similar = statistically_similar(combined_values, dominant_values)
        else:  # single repetition: compare means within a tolerance
            similar = abs(combined.accuracy_delta.mean - dominant_result.accuracy_delta.mean) < 0.15
        verdicts.append(
            CombinedFaultVerdict(
                combined_label=spec.label,
                dominant_label=dominant_result.config.fault_label,
                combined_ad=combined.accuracy_delta,
                dominant_ad=dominant_result.accuracy_delta,
                similar=similar,
            )
        )
    return verdicts


# ----------------------------------------------------------------------
# §II + §III-D — the motivating Pneumonia example
# ----------------------------------------------------------------------

@dataclass
class MotivatingExampleResult:
    """Golden/faulty accuracies and per-technique ADs for Pneumonia+ResNet50."""

    golden_accuracy: MeanWithCI
    baseline_faulty_accuracy: MeanWithCI
    baseline_ad: MeanWithCI
    technique_ads: dict[str, MeanWithCI]

    def ranked_techniques(self) -> list[tuple[str, float]]:
        """Techniques sorted by mean AD, best (lowest) first."""
        return sorted(
            ((name, ci.mean) for name, ci in self.technique_ads.items()), key=lambda kv: kv[1]
        )


def study_grid(
    models: tuple[str, ...],
    datasets: tuple[str, ...],
    fault_types: tuple[FaultType, ...],
    rates: tuple[float, ...],
    techniques: list[str] | None = None,
):
    """Yield the study grid cells as ``(dataset, model, technique, fault_type,
    rate)`` tuples, in the canonical sweep order.

    Delegates to :func:`repro.experiments.plan.iter_grid` — the single source
    of the sweep order shared with :func:`repro.experiments.plan.plan_study`
    — so plain, resilient, and parallel drivers all walk the identical grid.
    """
    yield from iter_grid(models, datasets, fault_types, rates, techniques)


def full_study(
    runner: ExperimentRunner,
    models: tuple[str, ...] = ("convnet", "vgg16", "resnet18"),
    datasets: tuple[str, ...] = ("cifar10", "gtsrb", "pneumonia"),
    fault_types: tuple[FaultType, ...] = (
        FaultType.MISLABELLING,
        FaultType.REPETITION,
        FaultType.REMOVAL,
    ),
    rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    techniques: list[str] | None = None,
    progress: "callable | None" = None,
    checkpoint: "object | None" = None,
    retry: "object | None" = None,
    executor: "object | None" = None,
    jobs: "int | None" = None,
    trace: "object | None" = None,
) -> list[ExperimentResult]:
    """Run the study grid (paper §IV) and return every cell's result.

    This is the programmatic equivalent of the paper's 33-GPU-day sweep; at
    the default scales it covers the same grid *shape* on a subset of models.
    Combine with :func:`repro.experiments.save_results` to archive the run.
    ``progress`` (if given) is called with each completed
    :class:`ExperimentResult`.

    Every call runs through the fault-tolerant driver
    (:func:`~repro.experiments.resilience.run_resilient_study`) with one
    retry policy — ``retry``, by default a
    :class:`~repro.experiments.resilience.RetryPolicy` (two attempts,
    reseeded, learning rate halved on divergence).  ``checkpoint`` (a
    journal path or :class:`~repro.experiments.resilience.StudyCheckpoint`)
    replays already-journaled cells without retraining.  A cell that
    exhausts its retries does not abort the sweep: the remaining cells run
    and are journaled, then
    :class:`~repro.experiments.resilience.StudyFailedError` is raised with
    the full :class:`~repro.experiments.resilience.StudyReport`.

    ``executor`` (an :class:`~repro.experiments.executors.Executor`) or
    ``jobs`` (> 1, shorthand for
    :class:`~repro.experiments.executors.ParallelExecutor`) fans the grid out
    across worker processes.  Cell results are deterministic per
    :class:`~repro.experiments.plan.WorkUnit`, so a parallel sweep returns
    payloads identical to the serial run (wall-clock timings aside), in the
    same canonical grid order.

    ``trace`` (a JSONL path or a :class:`~repro.telemetry.Telemetry`) records
    a merged study trace — summarize it with ``repro-study trace <file>``.
    """
    if executor is None and jobs is not None and jobs > 1:
        executor = ParallelExecutor(jobs=jobs)
    report = run_resilient_study(
        runner,
        models=models,
        datasets=datasets,
        fault_types=fault_types,
        rates=rates,
        techniques=techniques,
        checkpoint=checkpoint,
        retry=retry,
        progress=progress,
        executor=executor,
        trace=trace,
    )
    if not report.ok:
        raise StudyFailedError(report)
    return report.results


def motivating_example(
    runner: ExperimentRunner,
    dataset: str = "pneumonia",
    model: str = "resnet50",
    rate: float = 0.1,
    techniques: list[str] | None = None,
) -> MotivatingExampleResult:
    """Reproduce §II/§III-D: 10 % mislabelling on the Pneumonia dataset.

    The paper reports golden accuracy 90 % collapsing to 55 % unprotected,
    with per-technique ADs of LS 5 %, LC 29 %, RL 15 %, KD 13 %, Ens 5 %.
    """
    fault = mislabelling(rate)
    baseline = runner.run(dataset, model, "baseline", fault)
    technique_ads: dict[str, MeanWithCI] = {}
    for technique in techniques or technique_names(include_baseline=False):
        result = runner.run(dataset, model, technique, fault)
        technique_ads[technique] = result.accuracy_delta
    return MotivatingExampleResult(
        golden_accuracy=baseline.golden_accuracy,
        baseline_faulty_accuracy=baseline.faulty_accuracy,
        baseline_ad=baseline.accuracy_delta,
        technique_ads=technique_ads,
    )
