"""Model registry — the serving layer's catalog of trained models.

A :class:`ModelRegistry` maps :class:`ModelKey`\\ s — ``(network, dataset,
technique, fault label)``, the identity of one study cell's trained model —
to :class:`ServableModel`\\ s ready for inference.  Models enter the registry
three ways:

- :meth:`ModelRegistry.register` — an already-constructed module;
- :meth:`ModelRegistry.load_state_file` — a ``.npz`` archive written by
  :func:`repro.nn.serialization.save_model`;
- :meth:`ModelRegistry.refit_cell` — deterministic re-training of an archived
  study cell: the same scale, derived seeds, fault injection, and technique
  fit as the original :class:`~repro.experiments.runner.ExperimentRunner`
  pass, so the served model is the one the study measured.

Inference goes through :meth:`ServableModel.predict_logits`, which runs in
eval mode under ``no_grad`` and :func:`~repro.nn.functional.row_stable_inference`
— the property that makes the fleet's router chunks (:mod:`repro.serve.fleet`)
safe: a chunk's rows are bitwise-identical to one-at-a-time
:func:`~repro.nn.trainer.predict_logits` calls.  Each call replays a
*forward plan* (:class:`~repro.nn.compile.ForwardPlan`) recorded on the
calling thread's first call with that input shape: the same bits as the
eager forward, without its per-op dispatch and allocations.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..data.registry import DATASETS
from ..experiments.config import ExperimentConfig, resolve_scale
from ..experiments.runner import refit_cell_network
from ..models.registry import build_model
from ..nn import Module, Tensor, load_into, no_grad
from ..nn.compile import CompileError, compile_forward
from ..nn.context import current_context, scope
from ..nn.functional import row_stable_inference, softmax_np
from ..nn.serialization import StateFileError
from ..nn.tape import Tape
from ..nn.workspace import get_workspace
from ..telemetry import get_metrics, get_telemetry

__all__ = ["ModelKey", "ServableModel", "ModelRegistry", "PLAN_CAP"]

#: The fewest forward plans a servable keeps per thread, one per input shape,
#: least recently used out first; a fleet replica raises its servables'
#: ``plan_cap`` to the largest chunk its router can send.
PLAN_CAP = 8


@dataclass(frozen=True)
class ModelKey:
    """Identity of one servable model: which study cell trained it."""

    model: str
    dataset: str
    technique: str = "baseline"
    fault_label: str = "none"

    @property
    def id(self) -> str:
        """Canonical string form, e.g. ``gtsrb/convnet/baseline/none``."""
        return f"{self.dataset}/{self.model}/{self.technique}/{self.fault_label}"

    @classmethod
    def parse(cls, text: str) -> "ModelKey":
        """Parse the :attr:`id` form back into a key."""
        parts = text.strip().strip("/").split("/")
        if len(parts) != 4:
            raise ValueError(
                f"model key must be dataset/model/technique/fault_label; got {text!r}"
            )
        dataset, model, technique, fault_label = parts
        return cls(model=model, dataset=dataset, technique=technique, fault_label=fault_label)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.id


class ServableModel:
    """One registered model plus its inference entry points.

    ``predict_logits`` is the serving hot path: eval mode (set once at
    registration, so repeated predictions do not re-flush the kernel
    workspace), no gradient tape, row-stable kernels.  Access is not
    serialised here — forward passes only read weights, so any number of
    threads may infer concurrently.

    Each thread keeps its own forward plans, here on the servable rather than
    on the module (fleet thread replicas deep-copy modules): at most
    ``plan_cap``, one per input shape.  Nothing is planned at registration.
    """

    def __init__(
        self,
        key: ModelKey,
        module: Module,
        source: str = "registered",
        metadata: dict | None = None,
        plan_cap: int = PLAN_CAP,
    ) -> None:
        self.key = key
        self.module = module.eval()
        self.source = source
        self.metadata = dict(metadata or {})
        self.predictions = 0  # samples served (the fleet's tally)
        self.plan_cap = plan_cap  # forward plans kept per thread
        self._local = threading.local()  # .plans: this thread's plans by shape
        self._plan_lock = threading.Lock()
        self._plans_built = 0
        self._plan_replays = 0
        self._plan_fallbacks: dict[str, int] = {}

    def predict_logits(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for a ``(N, ...)`` input batch, bitwise batch-size-invariant.

        Row-stable inference guarantees that any coalescing of the same
        samples — one call of 8, two calls of 4, eight calls of 1 — produces
        bitwise-identical per-sample rows, equal to what a plain one-at-a-time
        :func:`repro.nn.trainer.predict_logits` call returns.

        The first call per thread and input shape runs the forward eagerly
        under a recording tape and plans it; later calls replay the plan and
        return a copy of its logits.  An armed kernel tap strikes a replay's
        site ops as it strikes the eager forward's.  The forward runs eagerly
        instead under ``reference`` kernels, or for a shape whose planning
        was refused; ``/models`` counts each such call by reason.
        """
        batch = np.ascontiguousarray(inputs, dtype=np.float32)
        if current_context().kernels == "reference":
            return self._eager(batch, "reference kernels")
        plans = getattr(self._local, "plans", None)
        if plans is None:
            plans = self._local.plans = OrderedDict()
        plan = plans.get(batch.shape)
        if plan is None:
            return self._record(plans, batch)
        plans.move_to_end(batch.shape)
        if isinstance(plan, str):  # planning was refused for this shape
            return self._eager(batch, plan)
        try:
            logits = plan.run(batch)
        except BaseException:
            del plans[batch.shape]
            raise
        with self._plan_lock:
            self._plan_replays += 1
        return logits

    def _eager(self, batch: np.ndarray, reason: str) -> np.ndarray:
        """The unplanned forward, counted as a fallback for ``reason``."""
        self._count_fallback(reason)
        with no_grad(), row_stable_inference():
            return self.module(Tensor(batch)).data

    def _count_fallback(self, reason: str) -> None:
        """Tally one eager call; the first per reason emits a telemetry event."""
        with self._plan_lock:
            first = reason not in self._plan_fallbacks
            self._plan_fallbacks[reason] = self._plan_fallbacks.get(reason, 0) + 1
        _plan_counters()[1].inc()
        if first:
            get_telemetry().event("forward_plan_fallback", model=self.key.id, reason=reason)

    def _record(self, plans: OrderedDict, batch: np.ndarray) -> np.ndarray:
        """Run the forward eagerly on a recording tape and plan it.

        A forward that raises propagates and caches nothing.  The eager
        pass's pooled scratch is dropped afterwards: plans never draw on the
        thread's workspace.
        """
        tape = Tape(forward_only=True)
        with scope(grad=False, row_stable=True, tape=tape):
            logits = self.module(Tensor(batch))
        get_workspace().clear()
        try:
            plan = compile_forward(tape, batch, logits)
        except CompileError as exc:
            reason = f"refused: {exc}"
            plans[batch.shape] = reason
            self._count_fallback(reason)
        else:
            plans[batch.shape] = plan
            with self._plan_lock:
                self._plans_built += 1
            _plan_counters()[0].inc()
        if len(plans) > self.plan_cap:
            plans.popitem(last=False)
        return logits.data

    def plan_stats(self) -> dict:
        """Plans built, plan replays and eager fallbacks by reason, over all threads."""
        with self._plan_lock:
            return {
                "built": self._plans_built,
                "replays": self._plan_replays,
                "fallbacks": dict(self._plan_fallbacks),
            }

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Softmax probabilities (same softmax as the training stack)."""
        return softmax_np(self.predict_logits(inputs), axis=1)

    def predict_labels(self, inputs: np.ndarray) -> np.ndarray:
        """Hard label predictions."""
        return self.predict_logits(inputs).argmax(axis=1)

    def describe(self) -> dict:
        """JSON-shaped summary (the ``/models`` endpoint payload)."""
        return {
            "key": self.key.id,
            "model": self.key.model,
            "dataset": self.key.dataset,
            "technique": self.key.technique,
            "fault": self.key.fault_label,
            "source": self.source,
            "parameters": self.module.num_parameters(),
            "predictions": self.predictions,
            "plans": self.plan_stats(),
            **self.metadata,
        }


def _plan_counters():
    """The live ``(plans built, eager fallbacks)`` counters, both registered
    together so a scrape shows a zero fallback count."""
    metrics = get_metrics()
    return (
        metrics.counter(
            "serve_forward_plans_total",
            help="Forward plans built (one per servable, thread and input shape)",
        ),
        metrics.counter(
            "serve_forward_plan_fallbacks_total",
            help="predict_logits calls that ran the eager forward",
        ),
    )


class ModelRegistry:
    """Thread-safe catalog of servable models, keyed by :class:`ModelKey`."""

    def __init__(self) -> None:
        self._models: dict[ModelKey, ServableModel] = {}
        self._lock = threading.Lock()

    # -- catalog -------------------------------------------------------
    def register(self, servable: ServableModel) -> ServableModel:
        """Add (or replace) a servable model; returns it."""
        with self._lock:
            self._models[servable.key] = servable
        return servable

    def get(self, key: "ModelKey | str") -> ServableModel:
        """Look up a model by key or key-id string; raises ``KeyError``."""
        if isinstance(key, str):
            key = ModelKey.parse(key)
        with self._lock:
            try:
                return self._models[key]
            except KeyError:
                known = sorted(k.id for k in self._models)
                raise KeyError(
                    f"no model registered under {key.id!r}; registered: {known}"
                ) from None

    def keys(self) -> list[ModelKey]:
        with self._lock:
            return list(self._models)

    def describe(self) -> list[dict]:
        """Summaries of every registered model (the ``/models`` payload)."""
        with self._lock:
            servables = list(self._models.values())
        return [s.describe() for s in servables]

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, key: "ModelKey | str") -> bool:
        if isinstance(key, str):
            key = ModelKey.parse(key)
        with self._lock:
            return key in self._models

    # -- loading paths -------------------------------------------------
    def register_module(
        self,
        key: ModelKey,
        module: Module,
        source: str = "registered",
        metadata: dict | None = None,
    ) -> ServableModel:
        """Wrap a constructed module and register it."""
        return self.register(ServableModel(key, module, source=source, metadata=metadata))

    def load_state_file(
        self,
        path: str | os.PathLike,
        key: ModelKey,
        image_shape: "tuple[int, int, int] | None" = None,
        num_classes: "int | None" = None,
        width: "int | None" = None,
        scale: "str | None" = None,
    ) -> ServableModel:
        """Build ``key.model`` and load a ``save_model`` archive into it.

        ``image_shape``/``num_classes`` default to the registered dataset's
        geometry at ``scale`` (name or ``None`` for the ``REPRO_SCALE``
        default) — the shapes study-trained models were saved with.  Missing,
        truncated, or corrupt files raise
        :class:`~repro.nn.serialization.StateFileError`; an archive saved
        from a different architecture or width fails the state-dict shape
        check with ``ValueError``.
        """
        if image_shape is None or num_classes is None:
            settings = resolve_scale(scale)
            try:
                info = DATASETS[key.dataset]
            except KeyError:
                raise StateFileError(
                    f"cannot infer model geometry: unknown dataset {key.dataset!r} "
                    f"(pass image_shape and num_classes explicitly)"
                ) from None
            if num_classes is None:
                num_classes = info.num_classes
            if image_shape is None:
                image_shape = (info.channels, settings.image_size, settings.image_size)
        module = build_model(
            key.model, image_shape=image_shape, num_classes=num_classes, width=width, seed=0
        )
        load_into(module, path)
        return self.register_module(
            key, module, source=f"state-file:{os.fspath(path)}"
        )

    def refit_cell(
        self,
        config: "ExperimentConfig | dict",
        repetition: int = 0,
        clean_fraction: float = 0.1,
    ) -> ServableModel:
        """Re-train the model of one archived study cell, deterministically.

        ``config`` is an :class:`~repro.experiments.config.ExperimentConfig`
        (or its dict form from a results archive).  The re-fit replays the
        runner's Fig. 2 steps with the same derived seeds
        (:func:`~repro.experiments.runner.refit_cell_network`), so the
        registered model is byte-for-byte the network whose predictions the
        archive records.  Only single-network techniques are servable;
        ensembles and co-teaching raise ``ValueError`` before any training.
        """
        if isinstance(config, dict):
            config = ExperimentConfig(**config)
        fitted, _ = refit_cell_network(
            resolve_scale(config.scale), config.dataset, config.model,
            config.technique, config.fault_label, repetition, clean_fraction,
        )
        key = ModelKey(
            model=config.model,
            dataset=config.dataset,
            technique=config.technique,
            fault_label=config.fault_label,
        )
        return self.register_module(
            key,
            fitted.model,
            source=f"refit:{config.scale}/rep{repetition}",
            metadata={"training_s": round(fitted.cost.training_s, 3)},
        )
