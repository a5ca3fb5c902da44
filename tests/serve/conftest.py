"""Shared fixtures for the serving tests: a small registered ConvNet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.nn import Module, Parameter
from repro.serve import ModelKey, ModelRegistry

IMAGE_SHAPE = (3, 8, 8)
NUM_CLASSES = 10
KEY = ModelKey(model="convnet", dataset="gtsrb")


class Exploding(Module):
    """A servable model whose forward pass always raises."""

    def __init__(self) -> None:
        super().__init__()
        self.weight = Parameter(np.zeros(1, dtype=np.float32))

    def forward(self, x):
        raise ValueError("forward exploded")


@pytest.fixture(scope="module")
def registry() -> ModelRegistry:
    reg = ModelRegistry()
    module = build_model(
        "convnet", image_shape=IMAGE_SHAPE, num_classes=NUM_CLASSES, seed=3
    )
    reg.register_module(KEY, module)
    return reg


@pytest.fixture(scope="module")
def inputs() -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal((24, *IMAGE_SHAPE)).astype(np.float32)


@pytest.fixture(scope="module")
def reference(registry, inputs) -> np.ndarray:
    """One-at-a-time logits through the *training* stack's plain
    ``predict_logits`` — the bitwise ground truth every batching must hit."""
    from repro.nn.trainer import predict_logits

    module = registry.get(KEY).module
    return np.concatenate(
        [predict_logits(module, inputs[i : i + 1]) for i in range(len(inputs))]
    )
