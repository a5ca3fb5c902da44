"""Study planning — pure, picklable descriptions of grid work.

The experiments layer is an explicit **plan → schedule → execute → collect**
pipeline.  This module is the *plan* stage: :func:`plan_study` expands a grid
(models × datasets × fault types × rates × techniques) into a list of
:class:`WorkUnit`\\ s, each a frozen dataclass fully describing one grid cell
— configuration, scale, and derived seeds — with **no reference to runner
state**.  A unit can be pickled into a worker process and executed there with
results bitwise-identical to the serial path, because everything that affects
a cell's outcome (fingerprint, per-repetition seeds, fault spec) derives from
the unit's own fields via pure functions.

Scheduling and collection live in :mod:`repro.experiments.executors`; a
unit only knows how to run itself (:meth:`WorkUnit.execute`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

from ..faults.spec import FaultSpec, FaultType, single_fault
from ..mitigation.registry import technique_names, validate_techniques
from .config import ScaleSettings, derive_repetition_seed, resolve_scale, scale_fingerprint
from .resilience import CellOutcome, RetryPolicy, run_cell_with_retry
from .runner import ExperimentRunner

__all__ = ["WorkUnit", "plan_study", "iter_grid", "techniques_for"]


def techniques_for(fault_type: FaultType | None, techniques: "list[str] | None") -> list[str]:
    """Default technique list for one fault type; label correction is skipped
    for fault types it cannot influence (paper §IV-C runs LC only for
    mislabelling)."""
    names = techniques or technique_names()
    if fault_type is not None and fault_type is not FaultType.MISLABELLING:
        names = [n for n in names if n != "label_correction"]
    return names


def iter_grid(
    models: tuple[str, ...],
    datasets: tuple[str, ...],
    fault_types: tuple[FaultType, ...],
    rates: tuple[float, ...],
    techniques: "list[str] | None" = None,
) -> Iterator[tuple[str, str, str, FaultType, float]]:
    """Yield grid cells as ``(dataset, model, technique, fault_type, rate)``
    tuples in the canonical sweep order.

    The single source of the sweep order: :func:`plan_study`,
    :func:`repro.experiments.study.study_grid`, and therefore every driver
    walk the identical sequence, so plans, journals, and result lists line up
    cell-for-cell.
    """
    for dataset in datasets:
        for model in models:
            for fault_type in fault_types:
                for technique in techniques_for(fault_type, techniques):
                    for rate in rates:
                        yield dataset, model, technique, fault_type, rate


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable grid cell: config + scale + seed/retry knobs.

    Frozen, hashable, and picklable — the unit of work handed to an
    :class:`~repro.experiments.executors.Executor`.  All derived quantities
    (journal key, fingerprint, per-repetition seeds, fault spec) are pure
    functions of the fields, so a worker process reconstructs the exact
    serial-path behaviour from the unit alone.
    """

    #: Root and per-unit span names of a study trace.
    trace_spans: ClassVar[tuple[str, str]] = ("study", "unit")

    dataset: str
    model: str
    technique: str
    #: ``None`` means clean data (e.g. Table IV golden-accuracy cells).
    fault_type: FaultType | None
    rate: float
    scale: ScaleSettings
    #: ``None`` defers to ``scale.repeats`` (the canonical study setting).
    repeats: "int | None" = None
    #: Sorted key/value pairs — a dict is unhashable, so kwargs live as a tuple.
    technique_kwargs: tuple[tuple[str, object], ...] = ()
    clean_fraction: float = 0.1

    @property
    def fault(self) -> "FaultSpec | None":
        """The fault spec this unit injects (``None`` for clean cells)."""
        if self.fault_type is None:
            return None
        return single_fault(self.fault_type, self.rate)

    @property
    def fault_label(self) -> str:
        fault = self.fault
        return fault.label if fault is not None else "none"

    @property
    def effective_repeats(self) -> int:
        return self.repeats if self.repeats is not None else self.scale.repeats

    @property
    def key(self) -> str:
        """Stable journal key — identical to
        :func:`repro.experiments.resilience.cell_key` for default repeats, so
        plans resume journals written by the pre-plan serial driver."""
        return (
            f"{self.dataset}|{self.model}|{self.technique}|{self.fault_label}"
            f"|x{self.effective_repeats}|{self.scale.name}"
        )

    @property
    def fingerprint(self) -> str:
        """Everything that determines this cell's outcome, as one string."""
        return f"{scale_fingerprint(self.scale)}|{self.key}"

    def repetition_seed(self, repetition: int) -> int:
        """The seed repetition ``repetition`` of this cell trains under.

        Derived from the unit's own fields (never from in-process RNG state),
        so serial and worker-process execution seed identically.
        """
        return derive_repetition_seed(self.scale.seed, self.dataset, self.model, repetition)

    def describe(self) -> str:
        return (
            f"{self.dataset}/{self.model}/{self.technique}/{self.fault_label}"
            f" x{self.effective_repeats} ({self.scale.name})"
        )

    def span_attrs(self) -> dict:
        """Attributes of this cell's ``unit`` trace span."""
        return dict(key=self.key, dataset=self.dataset, model=self.model,
                    technique=self.technique, fault=self.fault_label, rate=self.rate)

    def execute(self, runner: ExperimentRunner, retry: "RetryPolicy | None") -> CellOutcome:
        """Run the cell on ``runner`` under :func:`run_cell_with_retry`."""
        return run_cell_with_retry(
            runner, self.dataset, self.model, self.technique, self.fault, policy=retry,
            key=self.key, repeats=self.repeats, clean_fraction=self.clean_fraction,
            technique_kwargs=dict(self.technique_kwargs) or None,
        )


def plan_study(
    models: tuple[str, ...] = ("convnet", "vgg16", "resnet18"),
    datasets: tuple[str, ...] = ("cifar10", "gtsrb", "pneumonia"),
    fault_types: tuple[FaultType, ...] = (
        FaultType.MISLABELLING,
        FaultType.REPETITION,
        FaultType.REMOVAL,
    ),
    rates: tuple[float, ...] = (0.1, 0.3, 0.5),
    techniques: "list[str] | None" = None,
    scale: "ScaleSettings | str | None" = None,
    technique_kwargs: "dict | None" = None,
    clean_fraction: float = 0.1,
) -> list[WorkUnit]:
    """Expand a study grid into an ordered list of :class:`WorkUnit`\\ s.

    Technique names are validated here — a typo fails at plan time, before
    any process is spawned or model trained.  ``scale`` accepts a
    :class:`~repro.experiments.config.ScaleSettings`, a scale name, or
    ``None`` (resolve from ``REPRO_SCALE``); duck-typed scale objects (e.g.
    test stubs exposing ``name``/``repeats``/``seed``) pass through as-is.
    """
    if scale is None or isinstance(scale, str):
        scale = resolve_scale(scale)
    if techniques is not None:
        validate_techniques(techniques)
    kwargs = tuple(sorted((technique_kwargs or {}).items()))
    return [
        WorkUnit(
            dataset=dataset,
            model=model,
            technique=technique,
            fault_type=fault_type,
            rate=rate,
            scale=scale,
            technique_kwargs=kwargs,
            clean_fraction=clean_fraction,
        )
        for dataset, model, technique, fault_type, rate in iter_grid(
            models, datasets, fault_types, rates, techniques
        )
    ]
