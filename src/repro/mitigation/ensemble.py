"""Ensemble learning — TDFM approach 5 (paper §III-B5).

Multiple architecturally diverse models train independently on the same
(faulty) data and vote at inference time.  The paper's ensemble is the five
models with the lowest baseline AD — ConvNet, MobileNet, ResNet18, VGG11,
and VGG16 — combined with simple majority voting; ties are broken by the
summed class probabilities of the members.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.losses import CrossEntropy
from ..nn.trainer import predict_proba
from .base import FittedModel, MitigationTechnique, SingleModelFitted, TrainingBudget

__all__ = ["EnsembleFitted", "EnsembleTechnique", "PAPER_ENSEMBLE_MEMBERS"]

#: The five members the paper selects (§IV: lowest baseline AD).
PAPER_ENSEMBLE_MEMBERS = ("convnet", "mobilenet", "resnet18", "vgg11", "vgg16")


class EnsembleFitted(FittedModel):
    """A majority-voting ensemble of fitted member models."""

    def __init__(self, name: str, members: list[SingleModelFitted], num_classes: int) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        super().__init__(name, training_time_s=sum(m.cost.training_s for m in members))
        self.members = members
        self.num_classes = num_classes

    def _member_probs(self, images: np.ndarray) -> np.ndarray:
        """(M, N, K) stack of member probability predictions."""
        return np.stack([predict_proba(m.model, images) for m in self.members])

    def _predict(self, images: np.ndarray) -> np.ndarray:
        probs = self._member_probs(images)
        votes = probs.argmax(axis=2)  # (M, N)
        counts = np.apply_along_axis(
            lambda col: np.bincount(col, minlength=self.num_classes), 0, votes
        )  # (K, N)
        max_votes = counts.max(axis=0)  # (N,)
        summed = probs.sum(axis=0).T  # (K, N) tie-break scores
        # Majority vote; among tied classes pick the highest summed probability.
        tie_break = np.where(counts == max_votes, summed, -np.inf)
        return tie_break.argmax(axis=0)

    def _predict_proba(self, images: np.ndarray) -> np.ndarray:
        return self._member_probs(images).mean(axis=0)

    def agreement(self, images: np.ndarray) -> np.ndarray:
        """Per-input fraction of members that voted for the winning class."""
        probs = self._member_probs(images)
        votes = probs.argmax(axis=2)
        winners = self._predict(images)
        return (votes == winners[None, :]).mean(axis=0)


class EnsembleTechnique(MitigationTechnique):
    """Train ``n`` diverse architectures and majority-vote their predictions.

    Parameters
    ----------
    members:
        Architecture names; defaults to the paper's five-member ensemble.
        The ``model_name`` argument of :meth:`fit` is ignored (the ensemble
        *is* the model), matching how the paper reports one ensemble per
        dataset rather than per architecture.
    """

    name = "ensemble"
    abbreviation = "Ens"
    single_network = False

    def __init__(self, members: tuple[str, ...] = PAPER_ENSEMBLE_MEMBERS) -> None:
        if len(members) < 1:
            raise ValueError("ensemble needs at least one member")
        if len(members) % 2 == 0:
            raise ValueError("use an odd member count so majority voting cannot deadlock")
        self.members = tuple(members)

    def fit(
        self,
        train: ArrayDataset,
        model_name: str,  # noqa: ARG002 - the ensemble defines its own members
        budget: TrainingBudget,
        rng: np.random.Generator,
    ) -> FittedModel:
        fitted_members: list[SingleModelFitted] = []
        for member_name in self.members:
            member_rng = np.random.default_rng(rng.integers(0, 2**63))
            model = self._build(member_name, train, budget, member_rng)
            history, seconds = self._train(
                model, CrossEntropy(), train, budget, member_rng
            )
            fitted_members.append(
                SingleModelFitted(f"ensemble-member/{member_name}", model, seconds, history)
            )
        return EnsembleFitted(
            f"ensemble[{','.join(self.members)}]", fitted_members, train.num_classes
        )

    def __repr__(self) -> str:
        return f"EnsembleTechnique(members={self.members})"
