"""Hardware-fault campaigns — measure SDC rates of study-trained models.

A campaign crosses the paper's data-fault axis with the hardware axis: each
:class:`HardwareCampaignUnit` names one study cell (dataset, model,
mitigation technique, training-data fault) and one
:class:`~repro.faults.hardware.spec.HardwareFaultSpec`, and measures how the
cell's trained network degrades when that fault strikes at inference time.

Per unit the runner fits the cell's model deterministically (the study's
seed chain, :func:`repro.experiments.runner.refit_cell_network`, on a
dataset pair loaded once per process), records clean test-set predictions
(both once per cell and process), then runs
``trials`` injected inference passes — each armed with
:class:`~repro.faults.hardware.injector.hardware_fault_injection` under a
CRC32-derived trial seed — and reports accuracy and SDC rate (the
fraction of predictions that silently changed versus the clean pass).

Every pass replays one forward plan (:class:`~repro.nn.compile.ForwardPlan`)
per cell and chunk shape, recorded by the cell's clean pass.  A weight fault
strikes the parameters once, before the pass, so a weight trial replays each
chunk only from the first op reading a struck parameter, on values the clean
pass kept there; bit for bit, that is the whole eager pass.

A unit is a plan unit like a study cell: it runs on
:func:`~repro.experiments.executors.run_study_plan` with any executor
(serial, ``--jobs N``, or a cluster), which journals results through
:class:`~repro.experiments.resilience.StudyCheckpoint` (with this module's
codec) and merges telemetry into one trace.  Results are bitwise-identical
whichever executor runs them.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable

import numpy as np

from ...log import get_logger
from ...metrics.stats import MeanWithCI, mean_confidence_interval
from ...nn import Tensor, no_grad
from ...nn.compile import CompileError, ForwardPlan, compile_forward
from ...nn.context import current_context, scope
from ...nn.tape import Tape
from ...nn.workspace import get_workspace
from ...telemetry import get_telemetry
from .injector import hardware_fault_injection
from .spec import FaultTarget, HardwareFaultSpec

# Runtime imports of repro.experiments stay function-local: this module sits
# below experiments in the import graph (experiments.hardware_study and
# mitigation.fault_aware pull it in), so a top-level import would cycle.
if TYPE_CHECKING:
    from ...experiments.config import ScaleSettings
    from ...experiments.resilience import CellOutcome, RetryPolicy, StudyCheckpoint
    from ...experiments.runner import ExperimentRunner
    from ...telemetry import Telemetry

logger = get_logger("faults.hardware.campaign")

__all__ = [
    "HardwareCampaignUnit",
    "HardwareCampaignResult",
    "run_campaign_unit",
    "run_campaign",
    "hardware_results_equivalent",
]

#: Fixed inference chunk size.  The per-site visit counters of an armed
#: injector advance once per kernel call, so the chunking must be identical
#: everywhere for a trial seed to reproduce the same flip sites.
PREDICT_BATCH = 64


@dataclass(frozen=True)
class HardwareCampaignUnit:
    """One campaign cell: a study-trained model crossed with one hw spec.

    Frozen and built from plain strings/numbers so units pickle cleanly into
    worker processes; :attr:`spec` reconstructs the
    :class:`HardwareFaultSpec` on either side of the process boundary.
    """

    #: Root and per-unit span names of a campaign trace.
    trace_spans: ClassVar[tuple[str, str]] = ("hw_campaign", "hw_unit")

    dataset: str
    model: str
    scale: ScaleSettings
    technique: str = "baseline"
    #: Training-data fault label (``repro.faults.spec`` grammar) or "none".
    data_fault: str = "none"
    hw_type: str = "bit_flip"
    target: str = "activation"
    rate: float = 1e-3
    tensor_probability: float = 1.0
    bit: "int | None" = None
    trials: int = 3
    repetition: int = 0
    clean_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1; got {self.trials}")
        self.spec  # construct once so invalid parameters fail at plan time

    @property
    def spec(self) -> HardwareFaultSpec:
        """The unit's hardware-fault spec (validates the raw fields)."""
        return HardwareFaultSpec(
            fault_type=self.hw_type,
            rate=self.rate,
            target=self.target,
            tensor_probability=self.tensor_probability,
            bit=self.bit,
        )

    @property
    def key(self) -> str:
        """Stable journal/result key for this unit."""
        return (
            f"hw|{self.dataset}|{self.model}|{self.technique}|{self.data_fault}"
            f"|{self.spec.label}|t{self.trials}|rep{self.repetition}|{self.scale.name}"
        )

    def trial_seed(self, trial: int) -> int:
        """Per-trial injection seed — CRC32-stable across processes."""
        from ...experiments.config import scale_fingerprint

        raw = f"{scale_fingerprint(self.scale)}|{self.key}|{trial}".encode()
        return zlib.crc32(raw) & 0x7FFFFFFF

    def span_attrs(self) -> dict:
        """Attributes of this unit's ``hw_unit`` trace span."""
        return dict(key=self.key, dataset=self.dataset, model=self.model,
                    technique=self.technique, data_fault=self.data_fault,
                    hw_fault=self.spec.label)

    def execute(self, runner: "ExperimentRunner", retry: "RetryPolicy | None") -> "CellOutcome":
        """Run the unit once; any exception becomes a ``CellFailure``, so a
        bad unit never kills its worker.  No retry: a reseeded re-fit would
        not be the study's network."""
        from ...experiments.resilience import CellFailure, CellOutcome

        try:
            return CellOutcome(result=run_campaign_unit(self))
        except Exception as exc:
            get_telemetry().counter("cell_failure", key=self.key, attempts=1)
            logger.warning("campaign unit %s failed: %r", self.key, exc)
            return CellOutcome(failure=CellFailure.from_errors(
                self.key, self.dataset, self.model, self.technique,
                f"{self.data_fault}|{self.spec.label}", [exc],
            ))


@dataclass
class HardwareCampaignResult:
    """Measured outcome of one campaign unit.

    ``trials`` holds one dict per injected pass: ``accuracy`` (test accuracy
    under fault), ``sdc_rate`` (fraction of predictions changed versus the
    clean pass — silent data corruption), and ``faults`` (elements struck).
    """

    key: str
    dataset: str
    model: str
    technique: str
    data_fault: str
    spec_label: str
    clean_accuracy: float
    trials: list = field(default_factory=list)
    training_s: float = 0.0

    @property
    def faulty_accuracy(self) -> MeanWithCI:
        """Mean accuracy under injection, with 95 % CI across trials."""
        return mean_confidence_interval([t["accuracy"] for t in self.trials])

    @property
    def sdc_rate(self) -> MeanWithCI:
        """Mean silent-data-corruption rate, with 95 % CI across trials."""
        return mean_confidence_interval([t["sdc_rate"] for t in self.trials])

    @property
    def accuracy_drop(self) -> float:
        """Clean accuracy minus mean faulty accuracy."""
        return self.clean_accuracy - self.faulty_accuracy.mean

    def to_dict(self) -> dict:
        """JSON-shaped payload (the checkpoint/benchmark codec)."""
        return {
            "key": self.key,
            "dataset": self.dataset,
            "model": self.model,
            "technique": self.technique,
            "data_fault": self.data_fault,
            "spec_label": self.spec_label,
            "clean_accuracy": self.clean_accuracy,
            "trials": [dict(t) for t in self.trials],
            "training_s": self.training_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HardwareCampaignResult":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


def hardware_results_equivalent(
    a: HardwareCampaignResult, b: HardwareCampaignResult
) -> bool:
    """Exact equality of two results — the serial == parallel criterion.

    Training seconds are wall-clock and excluded; everything else (including
    every per-trial accuracy/SDC value and fault count) must match exactly.
    """
    da, db = a.to_dict(), b.to_dict()
    da.pop("training_s")
    db.pop("training_s")
    return da == db


# ----------------------------------------------------------------------
# Per-process memoization
# ----------------------------------------------------------------------

class _Cell:
    """One fitted study cell, a :data:`_FITTED_CACHE` entry.

    Besides the network and its training time, the entry holds what the
    cell's clean pass takes: ``clean`` (the clean test-set labels),
    ``plans`` (per chunk shape, the forward plan every pass replays, or why
    planning was refused) and ``kept`` (per chunk, the values the clean pass
    kept at each resume point of its plan).  One cell holds these at a time.
    """

    __slots__ = ("module", "training_s", "clean", "plans", "kept")

    def __init__(self, module, training_s: float) -> None:
        self.module = module
        self.training_s = training_s
        self.drop_passes()

    def drop_passes(self) -> None:
        """Forget the clean pass; the cell's next unit takes it again."""
        self.clean: "np.ndarray | None" = None
        self.plans: dict = {}
        self.kept: dict = {}

    def labels(self, chunk: int, batch: np.ndarray, struck) -> np.ndarray:
        """One chunk's labels through the plan for its shape.

        The clean pass records each shape's plan, then runs it and keeps the
        values live at its resume points.  A later pass replays the plan: a
        whole run, or with ``struck`` (the struck parameters of a weight
        trial) from the first op reading one of them; a chunk whose plan
        reads none reuses its clean labels.
        """
        plan = self.plans.get(batch.shape)
        if self.clean is None:
            if plan is None:
                plan = self.plans[batch.shape] = _record_plan(self.module, batch)
            if isinstance(plan, ForwardPlan):
                return plan.run(batch, keep=self.kept.setdefault(chunk, {})).argmax(axis=1)
        if not isinstance(plan, ForwardPlan):
            return _eager_labels(self.module, batch, plan or "clean pass ran eager")
        start = 0 if struck is None else plan.first_reader(struck)
        if start == len(plan):
            return self.clean[chunk * PREDICT_BATCH:][:len(batch)]
        return plan.resume(batch, self.kept[chunk], start).argmax(axis=1)


#: Per cell identity, a :class:`_Cell` — a worker process fits each study
#: cell, and takes its clean test-set pass, at most once across all its
#: campaign units.
_FITTED_CACHE: dict[tuple, _Cell] = {}
#: Loaded ``(train, test)`` pairs per (scale fingerprint, dataset): every
#: cell of one dataset re-fits on the same pair, as the cells of a study do.
_TESTSET_CACHE: dict[tuple, tuple] = {}


def _cell_key(unit: HardwareCampaignUnit) -> tuple:
    from ...experiments.config import scale_fingerprint

    return (
        scale_fingerprint(unit.scale), unit.dataset, unit.model, unit.technique,
        unit.data_fault, unit.repetition, unit.clean_fraction,
    )


def _fitted_cell(unit: HardwareCampaignUnit):
    """Deterministically (re-)fit the unit's study cell; memoized per process.

    Goes through :func:`repro.experiments.runner.refit_cell_network`, the
    seed chain the serving registry's re-fits share, so the measured network
    is byte-for-byte the one the data-fault study trained.  Returns
    ``(module, training_s)``.
    """
    from ...experiments.runner import refit_cell_network

    cell = _cell_key(unit)
    cached = _FITTED_CACHE.get(cell)
    if cached is not None:
        return cached.module, cached.training_s
    fitted, _ = refit_cell_network(
        unit.scale, unit.dataset, unit.model, unit.technique, unit.data_fault,
        unit.repetition, unit.clean_fraction, data=lambda: _dataset_pair(unit),
    )
    module, training_s = fitted.model.eval(), float(fitted.cost.training_s)
    _FITTED_CACHE[cell] = _Cell(module, training_s)
    return module, training_s


def _memoized_cell(unit: HardwareCampaignUnit, module) -> "_Cell | None":
    """The unit's :data:`_FITTED_CACHE` entry, if it holds ``module``."""
    cell = _FITTED_CACHE.get(_cell_key(unit))
    return cell if cell is not None and cell.module is module else None


def _clean_labels(cell: "_Cell | None", module, images: np.ndarray) -> np.ndarray:
    """The cell's clean test-set predictions, taken once per fitted cell.

    Every unit of a cell measures the same module on the same test split,
    and the injector restores weights bitwise on exit, so the first clean
    pass stands for all of them.  It is kept in the cell's
    :data:`_FITTED_CACHE` entry, so clearing that memo drops it too.  The
    pass also plans the cell's forward and keeps its resume values; to hold
    one cell's at a time, it drops every other cell's clean pass.
    """
    if cell is None:
        return _predict_labels(module, images)
    if cell.clean is None:
        for other in _FITTED_CACHE.values():
            if other is not cell:
                other.drop_passes()
        cell.clean = _predict_labels(module, images, cell=cell)
    return cell.clean


def _dataset_pair(unit: HardwareCampaignUnit):
    """The unit's ``(train, test)`` pair, loaded once per process."""
    from ...experiments import runner
    from ...experiments.config import scale_fingerprint

    key = (scale_fingerprint(unit.scale), unit.dataset)
    pair = _TESTSET_CACHE.get(key)
    if pair is None:
        scale = unit.scale
        # Looked up on the module at call time, so a wrapper installed on
        # ``runner.load_dataset`` (perfbench's layer timer) sees the load.
        pair = _TESTSET_CACHE[key] = runner.load_dataset(
            unit.dataset, *scale.sizes_for(unit.dataset),
            image_size=scale.image_size, seed=scale.seed,
        )
    return pair


def _predict_labels(
    module, images: np.ndarray, cell: "_Cell | None" = None, struck=None
) -> np.ndarray:
    """Chunked eval-mode label predictions (fixed :data:`PREDICT_BATCH`).

    The chunking is part of the determinism contract: an armed injector's
    per-site visit counters advance once per kernel call, so the same seed
    reproduces the same flip sites only if every run chunks identically.

    Without ``cell`` each chunk runs the eager forward; with it, the cell's
    plans (:meth:`_Cell.labels`), resumed after ``struck`` when given.
    Under ``reference`` kernels every chunk runs eager, counted as a
    ``hw_plan_fallback``.
    """
    fallback = None
    if cell is not None and current_context().kernels == "reference":
        fallback = "reference kernels"
    out = []
    with no_grad():
        for chunk, start in enumerate(range(0, len(images), PREDICT_BATCH)):
            batch = np.ascontiguousarray(images[start:start + PREDICT_BATCH], dtype=np.float32)
            if cell is None or fallback:
                out.append(_eager_labels(module, batch, fallback))
            else:
                out.append(cell.labels(chunk, batch, struck))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _eager_labels(module, batch: np.ndarray, fallback: "str | None" = None) -> np.ndarray:
    """One chunk's labels from the eager forward; a ``fallback`` reason
    counts it as a ``hw_plan_fallback``."""
    if fallback is not None:
        get_telemetry().counter("hw_plan_fallback", reason=fallback)
    return module(Tensor(batch)).data.argmax(axis=1)


def _record_plan(module, batch: np.ndarray) -> "ForwardPlan | str":
    """Plan the eager forward of ``batch``, or say why planning was refused.

    Records under ``no_grad`` alone, as every eager pass ran: row-stable
    inference would change the dense layers' bits.  The eager pass's pooled
    scratch is dropped afterwards; plans never draw on the workspace.
    """
    tape = Tape(forward_only=True)
    with scope(tape=tape):
        logits = module(Tensor(batch))
    get_workspace().clear()
    try:
        return compile_forward(tape, batch, logits)
    except CompileError as exc:
        return f"refused: {exc}"


def _trial_path(cell: "_Cell | None", struck) -> dict:
    """The ``hw_trial`` attributes of a pass with ``struck``: ``plan_ops``,
    the length of the cell's plan (0 for an eager pass), and ``resume_op``,
    the first op replayed (0 for a whole pass, ``plan_ops`` when none is)."""
    plan = next(iter(cell.plans.values()), None) if cell is not None else None
    if not isinstance(plan, ForwardPlan) or current_context().kernels == "reference":
        return {"resume_op": 0, "plan_ops": 0}
    start = 0 if struck is None else plan.first_reader(struck)
    return {"resume_op": start, "plan_ops": len(plan)}


# ----------------------------------------------------------------------
# Unit execution
# ----------------------------------------------------------------------

def run_campaign_unit(unit: HardwareCampaignUnit) -> HardwareCampaignResult:
    """Fit the unit's cell, then measure it under ``unit.trials`` injections.

    Clean predictions are taken outside any injection context, once per
    fitted cell (see :func:`_clean_labels`); each trial arms
    :class:`~repro.faults.hardware.injector.hardware_fault_injection` with
    :meth:`HardwareCampaignUnit.trial_seed` around one test-set pass, which
    a weight trial resumes after the parameters it struck.  Each
    ``hw_trial`` span carries the pass's ``resume_op`` and ``plan_ops``
    (:func:`_trial_path`).  Deterministic per unit — not per schedule — so
    serial and worker execution yield identical results.
    """
    tel = get_telemetry()
    with tel.span("hw_fit", key=unit.key) as span:
        module, training_s = _fitted_cell(unit)
        span.set(training_s=round(training_s, 3))
    test = _dataset_pair(unit)[1]
    cell = _memoized_cell(unit, module)
    clean = _clean_labels(cell, module, test.images)
    clean_accuracy = float((clean == test.labels).mean())
    spec = unit.spec
    trials = []
    for trial in range(unit.trials):
        seed = unit.trial_seed(trial)
        with tel.span("hw_trial", key=unit.key, trial=trial, seed=seed) as span:
            injection = hardware_fault_injection(spec, seed, model=module)
            # Flipped exponent/sign bits legitimately produce inf/NaN that
            # propagate through the forward pass; silence numpy's warnings
            # for the corrupted passes only.
            with injection as injector, np.errstate(all="ignore"):
                struck = injection.struck if spec.target is FaultTarget.WEIGHT else None
                faulty = _predict_labels(module, test.images, cell=cell, struck=struck)
            accuracy = float((faulty == test.labels).mean())
            sdc = float((faulty != clean).mean())
            span.set(
                accuracy=round(accuracy, 4), sdc_rate=round(sdc, 4),
                faults=injector.stats.elements_faulted,
                **_trial_path(cell, struck),
            )
        trials.append({
            "accuracy": accuracy,
            "sdc_rate": sdc,
            "faults": int(injector.stats.elements_faulted),
        })
    return HardwareCampaignResult(
        key=unit.key,
        dataset=unit.dataset,
        model=unit.model,
        technique=unit.technique,
        data_fault=unit.data_fault,
        spec_label=spec.label,
        clean_accuracy=clean_accuracy,
        trials=trials,
        training_s=training_s,
    )


def run_campaign(
    units: Iterable[HardwareCampaignUnit],
    jobs: int = 1,
    checkpoint: "StudyCheckpoint | str | os.PathLike | None" = None,
    trace: "Telemetry | str | os.PathLike | None" = None,
    progress: "Callable[[HardwareCampaignResult], None] | None" = None,
) -> list[HardwareCampaignResult]:
    """Run campaign units on :func:`~repro.experiments.executors.run_study_plan`;
    returns results in unit order.

    The units run cell by cell, in order of each cell's first appearance, so
    a process takes each cell's clean pass once while holding one cell's
    plans at a time.  ``checkpoint`` journals units with an
    ``hw|<scale fingerprint>`` header and this module's codec, so a resumed
    campaign re-fits nothing; ``jobs > 1`` fans out to that many local lease
    workers with bitwise-identical results; ``trace`` merges unit batches
    under a ``hw_campaign`` root span.  A failed unit is journaled, the rest
    still run, then ``StudyFailedError`` is raised (its report in run order).
    """
    from ...experiments.config import scale_fingerprint
    from ...experiments import ParallelExecutor, SerialExecutor, run_study_plan
    from ...experiments.resilience import StudyCheckpoint, StudyFailedError

    units = list(units)
    if checkpoint is not None and not isinstance(checkpoint, StudyCheckpoint):
        checkpoint = StudyCheckpoint(
            checkpoint,
            fingerprint=f"hw|{scale_fingerprint(units[0].scale)}" if units else None,
            encode=HardwareCampaignResult.to_dict,
            decode=HardwareCampaignResult.from_dict,
        )
    cells = [_cell_key(unit) for unit in units]
    first_seen: dict[tuple, int] = {}
    for cell in cells:
        first_seen.setdefault(cell, len(first_seen))
    order = sorted(range(len(units)), key=lambda i: first_seen[cells[i]])
    report = run_study_plan(
        [units[i] for i in order],
        executor=ParallelExecutor(jobs) if jobs > 1 else SerialExecutor(),
        checkpoint=checkpoint,
        trace=trace,
        progress=progress,
    )
    if not report.ok:
        raise StudyFailedError(report)
    results: list = [None] * len(units)
    for i, result in zip(order, report.results):
        results[i] = result
    return results
