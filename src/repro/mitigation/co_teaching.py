"""Co-teaching — extension technique (beyond the paper's five).

Co-teaching (Han et al., NeurIPS'18) is a prominent family in the
noisy-label surveys the paper draws on (its refs. [13, 37–39]): two networks
train simultaneously, and in every mini-batch each network selects the
*small-loss* examples (those most likely to be correctly labelled) for its
peer to learn from.  The selected fraction shrinks from 1 to
``1 - forget_rate`` over ``warmup_epochs``, tracking the memorization
effect — networks fit clean patterns before noise.

The paper's §III-A selection excludes combination techniques and the
representative set stops at five approaches; co-teaching is provided here as
a clearly-flagged extension so the harness can compare against this family
too (``build_technique("co_teaching")``).
"""

from __future__ import annotations

import time

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn import Module, Tensor
from ..nn.functional import log_softmax
from ..nn.trainer import predict_labels, predict_proba
from .base import FittedModel, MitigationTechnique, TrainingBudget

__all__ = ["CoTeachingTechnique", "CoTeachingFitted"]


class CoTeachingFitted(FittedModel):
    """The pair of co-trained networks; predictions average both."""

    def __init__(self, name: str, model_a: Module, model_b: Module, training_time_s: float) -> None:
        super().__init__(name, training_time_s)
        self.model_a = model_a
        self.model_b = model_b

    def _predict_proba(self, images: np.ndarray) -> np.ndarray:
        return 0.5 * (predict_proba(self.model_a, images) + predict_proba(self.model_b, images))

    def _predict(self, images: np.ndarray) -> np.ndarray:
        return self._predict_proba(images).argmax(axis=1)


class CoTeachingTechnique(MitigationTechnique):
    """Two peer networks exchanging small-loss examples.

    Parameters
    ----------
    forget_rate:
        Final fraction of each batch discarded as probably-mislabelled.
        Han et al. recommend setting it to (an estimate of) the noise rate;
        a conservative 0.2 is the default.
    warmup_epochs:
        Epochs over which the kept fraction anneals from 1 to
        ``1 - forget_rate``.  ``None`` (default) uses half the budget's
        epochs — annealing too fast starves the networks of data before they
        have learned the clean patterns.
    """

    name = "co_teaching"
    abbreviation = "CoT"
    single_network = False

    def __init__(self, forget_rate: float = 0.2, warmup_epochs: int | None = None) -> None:
        if not 0.0 <= forget_rate < 1.0:
            raise ValueError(f"forget_rate must be in [0, 1); got {forget_rate}")
        if warmup_epochs is not None and warmup_epochs < 1:
            raise ValueError("warmup_epochs must be >= 1")
        self.forget_rate = forget_rate
        self.warmup_epochs = warmup_epochs

    def fit(
        self,
        train: ArrayDataset,
        model_name: str,
        budget: TrainingBudget,
        rng: np.random.Generator,
    ) -> FittedModel:
        start = time.perf_counter()
        model_a = self._build(model_name, train, budget, rng)
        model_b = self._build(model_name, train, budget, rng)
        optimizer_a = budget.make_optimizer(model_a.parameters())
        optimizer_b = budget.make_optimizer(model_b.parameters())
        for optimizer, model in ((optimizer_a, model_a), (optimizer_b, model_b)):
            optimizer.lr *= getattr(model, "lr_multiplier", 1.0)

        images = train.images
        targets = train.one_hot_labels()
        n = len(train)
        warmup = self.warmup_epochs or max(1, budget.epochs // 2)
        for epoch in range(budget.epochs):
            keep_fraction = 1.0 - self.forget_rate * min(1.0, (epoch + 1) / warmup)
            order = rng.permutation(n)
            model_a.train()
            model_b.train()
            for lo in range(0, n, budget.batch_size):
                idx = order[lo : lo + budget.batch_size]
                xb = Tensor(images[idx])
                yb = targets[idx]
                keep = max(1, int(round(keep_fraction * len(idx))))

                # Per-example losses under both networks (no tape needed yet).
                logits_a = model_a(xb)
                logits_b = model_b(xb)
                losses_a = self._per_example_ce(logits_a.data, yb)
                losses_b = self._per_example_ce(logits_b.data, yb)

                # Each network learns from its *peer's* small-loss selection.
                select_for_b = np.argsort(losses_a)[:keep]
                select_for_a = np.argsort(losses_b)[:keep]

                self._step(model_a, optimizer_a, logits_a, yb, select_for_a, budget)
                self._step(model_b, optimizer_b, logits_b, yb, select_for_b, budget)

        seconds = time.perf_counter() - start
        return CoTeachingFitted(f"co_teaching/{model_name}", model_a, model_b, seconds)

    @staticmethod
    def _per_example_ce(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -(log_probs * targets).sum(axis=1)

    @staticmethod
    def _step(model, optimizer, logits, targets, selection, budget) -> None:
        """One gradient step on the selected subset of an already-run forward."""
        selected_logits = logits[selection]
        log_probs = log_softmax(selected_logits, axis=1)
        loss = -(log_probs * Tensor(targets[selection])).sum(axis=1).mean()
        optimizer.zero_grad()
        loss.backward()
        if budget.clip_norm is not None:
            optimizer.clip_grad_norm(budget.clip_norm)
        optimizer.step()
