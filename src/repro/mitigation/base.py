"""Common interface for training-data fault mitigation (TDFM) techniques.

Every technique consumes a (possibly fault-injected) training dataset and a
*training budget* — the shared loop geometry that keeps the comparison
"apples-to-apples" (paper §III-A) — and produces a :class:`FittedModel` that
can predict labels and report its runtime cost (§IV-E).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..data.dataset import ArrayDataset
from ..metrics.overhead import RuntimeCost
from ..models.registry import build_model
from ..nn import SGD, Adam, Module, Trainer, TrainHistory
from ..nn.losses import Loss
from ..nn.trainer import predict_labels, predict_proba

__all__ = ["TrainingBudget", "FittedModel", "SingleModelFitted", "MitigationTechnique"]


@dataclass(frozen=True)
class TrainingBudget:
    """Shared training-loop geometry for all techniques.

    The paper trains every technique on identical datasets and architectures
    with the implementers' recommended hyperparameters; this budget captures
    the loop parameters that stay fixed across techniques.
    """

    epochs: int = 12
    batch_size: int = 32
    learning_rate: float = 3e-3
    optimizer: str = "adam"  # "adam" or "sgd"
    momentum: float = 0.9  # sgd only
    weight_decay: float = 0.0
    clip_norm: float | None = 5.0
    width: int | None = None  # None = per-model registry default

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd'; got {self.optimizer!r}")

    def scaled_epochs(self, factor: float) -> "TrainingBudget":
        """A copy with epochs scaled by ``factor`` (min 1)."""
        return replace(self, epochs=max(1, round(self.epochs * factor)))

    def make_optimizer(self, params: list) -> "SGD | Adam":
        """Build the configured optimiser over ``params``."""
        if self.optimizer == "adam":
            return Adam(params, lr=self.learning_rate, weight_decay=self.weight_decay)
        return SGD(
            params,
            lr=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )


class FittedModel:
    """A trained predictor with runtime-cost accounting."""

    def __init__(self, name: str, training_time_s: float) -> None:
        self.name = name
        self.cost = RuntimeCost(training_s=training_time_s)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Hard label predictions; accumulates inference time into :attr:`cost`."""
        start = time.perf_counter()
        labels = self._predict(images)
        self.cost.inference_s += time.perf_counter() - start
        return labels

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        """Class-probability predictions (not timed; used by analyses)."""
        return self._predict_proba(images)

    def _predict(self, images: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _predict_proba(self, images: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SingleModelFitted(FittedModel):
    """A fitted single network."""

    def __init__(
        self, name: str, model: Module, training_time_s: float, history: TrainHistory | None = None
    ) -> None:
        super().__init__(name, training_time_s)
        self.model = model
        self.history = history

    def _predict(self, images: np.ndarray) -> np.ndarray:
        return predict_labels(self.model, images)

    def _predict_proba(self, images: np.ndarray) -> np.ndarray:
        return predict_proba(self.model, images)


class MitigationTechnique:
    """Base class for the five TDFM approaches plus the unprotected baseline."""

    #: Registry identifier, e.g. ``"label_smoothing"``.
    name = "technique"
    #: Paper abbreviation used in tables, e.g. ``"LS"``.
    abbreviation = "?"
    #: Whether :meth:`fit` returns one network (a :class:`SingleModelFitted`)
    #: that can be served or injected into, rather than several voting ones.
    single_network = True

    def fit(
        self,
        train: ArrayDataset,
        model_name: str,
        budget: TrainingBudget,
        rng: np.random.Generator,
    ) -> FittedModel:
        """Train a protected model on (possibly faulty) ``train`` data."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _build(
        model_name: str,
        train: ArrayDataset,
        budget: TrainingBudget,
        rng: np.random.Generator,
    ) -> Module:
        return build_model(
            model_name,
            image_shape=train.image_shape,
            num_classes=train.num_classes,
            width=budget.width,
            rng=rng,
        )

    @staticmethod
    def _train(
        model: Module,
        loss: Loss,
        train: ArrayDataset,
        budget: TrainingBudget,
        rng: np.random.Generator,
        **trainer_kwargs: object,
    ) -> tuple[TrainHistory, float]:
        """Run the shared training loop; returns (history, wall-clock seconds)."""
        optimizer = budget.make_optimizer(model.parameters())
        optimizer.lr *= getattr(model, "lr_multiplier", 1.0)
        trainer = Trainer(
            model,
            loss,
            optimizer,
            epochs=budget.epochs,
            batch_size=budget.batch_size,
            rng=rng,
            clip_norm=budget.clip_norm,
            **trainer_kwargs,  # type: ignore[arg-type]
        )
        start = time.perf_counter()
        history = trainer.fit(train.images, train.one_hot_labels())
        return history, time.perf_counter() - start
