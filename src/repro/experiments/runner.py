"""The experiment runner — the paper's Fig. 2 measurement workflow.

For each configuration the runner:

1. builds (or reuses) the dataset pair at the active scale;
2. trains (or reuses) the *golden model* — the baseline architecture trained
   on fault-free data — and records its test predictions;
3. injects the fault spec into a copy of the training data (reserving the
   label-correction clean subset from injection when applicable);
4. fits the mitigation technique on the faulty data (the *faulty model*);
5. computes the accuracy delta (AD) of faulty vs golden predictions.

Repetitions re-run steps 2–5 with derived seeds; results aggregate into
means with 95 % confidence intervals, matching the paper's error bars.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..data.dataset import ArrayDataset, stratified_indices
from ..data.registry import load_dataset
from ..faults.injector import inject
from ..faults.spec import CombinedFaultSpec, FaultSpec, spec_from_label
from ..metrics.overhead import RuntimeCost
from ..metrics.reliability import ReliabilityResult, compare_models
from ..metrics.stats import MeanWithCI, mean_confidence_interval
from ..mitigation.base import FittedModel, MitigationTechnique, SingleModelFitted, TrainingBudget
from ..mitigation.registry import build_technique
from ..telemetry import NULL, NULL_METRICS, get_telemetry, metrics_scope, telemetry_scope
from .cache import CellCache
from .config import (
    ExperimentConfig,
    ScaleSettings,
    derive_repetition_seed,
    resolve_scale,
    scale_fingerprint,
)

__all__ = ["ExperimentResult", "ExperimentRunner", "prepare_faulty_train", "refit_cell_network"]


def prepare_faulty_train(
    train: ArrayDataset,
    fault: FaultSpec | CombinedFaultSpec | None,
    technique_name: str,
    clean_fraction: float,
    injection_rng: np.random.Generator,
) -> ArrayDataset:
    """Inject ``fault`` into a copy of ``train`` for one technique fit.

    Label correction reserves a stratified clean subset from injection (paper
    §III-B2) and records it in the dataset metadata.  This is a pure function
    of its arguments — the runner's Fig. 2 step 3 — shared with the serving
    registry's re-fit path so a model re-fitted from an archived cell sees
    byte-for-byte the same faulty training set as the original study run.
    """
    if fault is None:
        return train
    if technique_name == "label_correction":
        clean = stratified_indices(
            train.labels, clean_fraction, train.num_classes, injection_rng
        )
        faulty, report = inject(train, fault, rng=injection_rng, protected_indices=clean)
        faulty.metadata["clean_indices"] = report.protected_indices_after
        return faulty
    faulty, _ = inject(train, fault, rng=injection_rng)
    return faulty


def single_network_technique(name: str) -> MitigationTechnique:
    """Build technique ``name``; raise ``ValueError`` unless it fits one
    network (a fact of its class), which serving and hardware campaigns need."""
    technique = build_technique(name)
    if not technique.single_network:
        raise ValueError(
            f"technique {name!r} does not produce a single servable network "
            f"({type(technique).__name__} trains several); serve its members instead"
        )
    return technique


def refit_cell_network(
    scale: ScaleSettings, dataset: str, model: str, technique: str, fault_label: str,
    repetition: int = 0, clean_fraction: float = 0.1,
) -> tuple[SingleModelFitted, ArrayDataset]:
    """Re-fit one study cell's network; returns ``(fitted, test split)``.

    The runner's seed chain for a first-attempt fit — load the data, take
    the seed from :func:`~repro.experiments.config.derive_repetition_seed`,
    inject at ``seed + 0x5EED``, fit at ``seed + 1`` — so the network is
    byte-for-byte the one the study measured.  Serving re-fits and hardware
    campaigns share it; multi-network techniques fail before any data loads.
    """
    fitter = single_network_technique(technique)
    train, test = load_dataset(
        dataset, *scale.sizes_for(dataset), image_size=scale.image_size, seed=scale.seed
    )
    seed = derive_repetition_seed(scale.seed, dataset, model, repetition)
    faulty_train = prepare_faulty_train(
        train, spec_from_label(fault_label), technique, clean_fraction,
        np.random.default_rng(seed + 0x5EED),
    )
    fitted = fitter.fit(faulty_train, model, scale.budget(dataset), np.random.default_rng(seed + 1))
    return fitted, test


@dataclass
class ExperimentResult:
    """Aggregated outcome of one grid cell across repetitions."""

    config: ExperimentConfig
    repetitions: list[ReliabilityResult] = field(default_factory=list)
    costs: list[RuntimeCost] = field(default_factory=list)

    @property
    def accuracy_delta(self) -> MeanWithCI:
        """Mean AD with 95 % CI — the paper's headline metric."""
        return mean_confidence_interval([r.accuracy_delta for r in self.repetitions])

    @property
    def golden_accuracy(self) -> MeanWithCI:
        return mean_confidence_interval([r.golden_accuracy for r in self.repetitions])

    @property
    def faulty_accuracy(self) -> MeanWithCI:
        return mean_confidence_interval([r.faulty_accuracy for r in self.repetitions])

    @property
    def mean_training_s(self) -> float:
        return float(np.mean([c.training_s for c in self.costs])) if self.costs else 0.0

    @property
    def mean_inference_s(self) -> float:
        return float(np.mean([c.inference_s for c in self.costs])) if self.costs else 0.0

    def ad_values(self) -> list[float]:
        """Raw per-repetition AD values (for statistical comparisons)."""
        return [r.accuracy_delta for r in self.repetitions]

    def __str__(self) -> str:
        return f"{self.config.describe()}: AD={self.accuracy_delta}"


class ExperimentRunner:
    """Runs grid cells with dataset and golden-model caching.

    The golden model for a ``(dataset, model, repetition)`` triple is shared
    by every technique and fault configuration, exactly as in the paper
    (one golden model per architecture per dataset).
    """

    def __init__(
        self,
        scale: ScaleSettings | str | None = None,
        cache_dir: "str | None" = None,
    ) -> None:
        self.scale = scale if isinstance(scale, ScaleSettings) else resolve_scale(
            scale if isinstance(scale, str) else None
        )
        cache_dir = cache_dir if cache_dir is not None else os.environ.get("REPRO_CACHE_DIR")
        self.cell_cache = CellCache(cache_dir) if cache_dir else None
        self._datasets: dict[str, tuple[ArrayDataset, ArrayDataset]] = {}
        self._golden_predictions: dict[tuple[str, str, int], np.ndarray] = {}
        self._golden_costs: dict[tuple[str, str, int], RuntimeCost] = {}
        # The paper trains ONE ensemble per dataset (its five members are
        # fixed), then reports its AD against each architecture's golden
        # model.  Cache ensemble predictions per (dataset, fault, repetition)
        # so per-model panels reuse them instead of retraining five networks.
        self._ensemble_predictions: dict[tuple[str, str, int], tuple[np.ndarray, RuntimeCost]] = {}

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def dataset(self, name: str) -> tuple[ArrayDataset, ArrayDataset]:
        """(train, test) at the active scale, cached."""
        if name not in self._datasets:
            train_size, test_size = self.scale.sizes_for(name)
            self._datasets[name] = load_dataset(
                name,
                train_size=train_size,
                test_size=test_size,
                image_size=self.scale.image_size,
                seed=self.scale.seed,
            )
        return self._datasets[name]

    def budget(self, dataset: str | None = None) -> TrainingBudget:
        return self.scale.budget(dataset)

    def _scale_fingerprint(self) -> str:
        """A string identifying everything that affects a cell's outcome.

        Delegates to the pure :func:`~repro.experiments.config.scale_fingerprint`
        so planner, runner, and worker processes agree byte-for-byte.
        """
        return scale_fingerprint(self.scale)

    def _repetition_seed(self, dataset: str, model: str, repetition: int) -> int:
        """A stable derived seed for one (dataset, model, repetition).

        Delegates to :func:`~repro.experiments.config.derive_repetition_seed`
        — a pure function of (scale seed, cell identity), never of in-process
        state, so a cell trained in a worker process seeds identically to the
        serial path.
        """
        return derive_repetition_seed(self.scale.seed, dataset, model, repetition)

    def golden_predictions(self, dataset: str, model: str, repetition: int) -> np.ndarray:
        """Test predictions of the golden (fault-free baseline) model, cached.

        Telemetry: a ``golden_fit`` span times an actual training run, and
        disk lookups emit ``golden_cache_hit``/``golden_cache_miss`` counters.
        Both are *schedule-dependent* (the in-memory memo means whether a
        unit trains the golden model depends on what ran before it in the
        same process), so they are named apart from the per-cell events and
        the golden fit's internals are suppressed — cross-schedule trace
        comparisons stay meaningful (see
        :data:`repro.telemetry.trace.SCHEDULE_DEPENDENT_SPANS`).
        """
        key = (dataset, model, repetition)
        if key in self._golden_predictions:
            return self._golden_predictions[key]

        tel = get_telemetry()
        disk_key = f"golden|{self._scale_fingerprint()}|{dataset}|{model}|{repetition}"
        if self.cell_cache is not None:
            hit = self.cell_cache.get(disk_key)
            if hit is not None:
                tel.counter("golden_cache_hit", dataset=dataset, model=model)
                self._golden_predictions[key], self._golden_costs[key] = hit
                return self._golden_predictions[key]
            tel.counter("golden_cache_miss", dataset=dataset, model=model)

        train, test = self.dataset(dataset)
        seed = self._repetition_seed(dataset, model, repetition)
        technique = build_technique("baseline")
        with tel.span("golden_fit", dataset=dataset, model=model, repetition=repetition):
            # Suppress schedule-dependent internals: telemetry spans *and*
            # live metrics (whether a unit trains the golden model depends on
            # memo state, so counting its steps would break serial == --jobs N
            # metrics equivalence).
            with telemetry_scope(NULL), metrics_scope(NULL_METRICS):
                fitted = technique.fit(
                    train, model, self.budget(dataset), np.random.default_rng(seed)
                )
                self._golden_predictions[key] = fitted.predict(test.images)
        self._golden_costs[key] = fitted.cost
        if self.cell_cache is not None:
            self.cell_cache.put(disk_key, self._golden_predictions[key], fitted.cost)
        return self._golden_predictions[key]

    # ------------------------------------------------------------------
    # The Fig. 2 workflow
    # ------------------------------------------------------------------
    def run(
        self,
        dataset: str,
        model: str,
        technique: str,
        fault: FaultSpec | CombinedFaultSpec | None,
        repeats: int | None = None,
        technique_kwargs: dict | None = None,
        clean_fraction: float = 0.1,
        lr_scale: float = 1.0,
        seed_offset: int = 0,
    ) -> ExperimentResult:
        """Run one grid cell; returns the aggregated :class:`ExperimentResult`.

        ``fault=None`` measures the technique on clean data (paper Table IV:
        golden accuracies per technique).

        ``lr_scale`` and ``seed_offset`` are retry knobs used by
        :mod:`repro.experiments.resilience`: a retry after a
        :class:`~repro.nn.DivergenceError` re-runs the faulty fit with a
        scaled learning rate and/or a derived fresh seed.  Non-default
        values get their own disk-cache keys so retried cells never shadow
        the canonical ones.
        """
        repeats = repeats or self.scale.repeats
        fault_label = fault.label if fault is not None else "none"
        config = ExperimentConfig(
            dataset=dataset,
            model=model,
            technique=technique,
            fault_label=fault_label,
            repeats=repeats,
            scale=self.scale.name,
        )
        result = ExperimentResult(config=config)
        train, test = self.dataset(dataset)

        tel = get_telemetry()
        for repetition in range(repeats):
            with tel.span(
                "repetition", repetition=repetition,
                dataset=dataset, model=model, technique=technique,
            ):
                golden_pred = self.golden_predictions(dataset, model, repetition)
                faulty_pred, cost = self._faulty_predictions(
                    dataset, model, technique, fault, fault_label, repetition,
                    technique_kwargs, clean_fraction, lr_scale, seed_offset,
                )
                result.repetitions.append(
                    compare_models(golden_pred, faulty_pred, test.labels)
                )
                result.costs.append(cost)
        return result

    def _faulty_predictions(
        self,
        dataset: str,
        model: str,
        technique: str,
        fault: FaultSpec | CombinedFaultSpec | None,
        fault_label: str,
        repetition: int,
        technique_kwargs: dict | None,
        clean_fraction: float,
        lr_scale: float = 1.0,
        seed_offset: int = 0,
    ) -> tuple[np.ndarray, RuntimeCost]:
        """Fit one technique and predict the test set (ensemble fits cached).

        Telemetry: ``cache_hit``/``cache_miss`` counters per disk lookup, and
        ``fault_injection`` / ``faulty_fit`` / ``inference`` spans around the
        three phases of a fresh cell.  These are deterministic per cell (one
        disk lookup and one fit per repetition, regardless of scheduling), so
        serial and parallel traces tally identically — unlike the golden /
        ensemble memo paths, which are process-local and excluded.
        """
        tel = get_telemetry()
        train, test = self.dataset(dataset)
        is_retry = lr_scale != 1.0 or seed_offset != 0
        # Ensembles ignore the per-panel architecture, so seed and cache them
        # under a model-independent key (canonical runs only — retries with
        # altered seeds/learning rates must not poison the shared memo).
        is_cacheable_ensemble = (
            technique == "ensemble" and not technique_kwargs and not is_retry
        )
        seed_model = "ensemble" if technique == "ensemble" and not technique_kwargs else model
        cache_key = (dataset, fault_label, repetition)
        if is_cacheable_ensemble and cache_key in self._ensemble_predictions:
            return self._ensemble_predictions[cache_key]

        disk_key = (
            f"cell|{self._scale_fingerprint()}|{dataset}|{seed_model}|{technique}|"
            f"{sorted((technique_kwargs or {}).items())}|{fault_label}|"
            f"{clean_fraction}|{repetition}"
        )
        if is_retry:
            disk_key += f"|lr{lr_scale}|seed+{seed_offset}"
        if self.cell_cache is not None:
            hit = self.cell_cache.get(disk_key)
            if hit is not None:
                tel.counter("cache_hit", dataset=dataset, technique=technique)
                if is_cacheable_ensemble:
                    self._ensemble_predictions[cache_key] = hit
                return hit
            tel.counter("cache_miss", dataset=dataset, technique=technique)

        seed = self._repetition_seed(dataset, seed_model, repetition)
        if seed_offset:
            # Derive a fresh-but-deterministic seed per retry attempt.
            seed = (seed + seed_offset * 0x9E3779B1) & 0x7FFFFFFF
        injection_rng = np.random.default_rng(seed + 0x5EED)
        with tel.span("fault_injection", fault=fault_label, dataset=dataset):
            faulty_train = prepare_faulty_train(
                train, fault, technique, clean_fraction, injection_rng
            )
        budget = self.budget(dataset)
        if lr_scale != 1.0:
            budget = replace(budget, learning_rate=budget.learning_rate * lr_scale)
        tech = build_technique(technique, **(technique_kwargs or {}))
        with tel.span(
            "faulty_fit", dataset=dataset, model=model, technique=technique,
            fault=fault_label, repetition=repetition,
        ):
            fitted: FittedModel = tech.fit(
                faulty_train, model, budget, np.random.default_rng(seed + 1)
            )
        with tel.span("inference", dataset=dataset, model=model, technique=technique):
            start = time.perf_counter()
            faulty_pred = fitted.predict(test.images)
            inference_s = time.perf_counter() - start
        cost = RuntimeCost(training_s=fitted.cost.training_s, inference_s=inference_s)
        if is_cacheable_ensemble:
            self._ensemble_predictions[cache_key] = (faulty_pred, cost)
        if self.cell_cache is not None:
            self.cell_cache.put(disk_key, faulty_pred, cost)
        return faulty_pred, cost
