"""Tests for :mod:`repro.serve.registry`: keys, catalog, loading paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ExperimentConfig
from repro.models.registry import build_model
from repro.nn import StateFileError, save_model
from repro.nn.trainer import predict_logits
from repro.serve import ModelKey, ModelRegistry, ServableModel
from repro.telemetry import MetricsRegistry, metrics_scope

from .conftest import IMAGE_SHAPE, KEY, NUM_CLASSES


class TestModelKey:
    def test_id_and_parse_roundtrip(self):
        key = ModelKey(
            model="vgg16", dataset="cifar10",
            technique="label_smoothing", fault_label="mislabelling@30%",
        )
        assert key.id == "cifar10/vgg16/label_smoothing/mislabelling@30%"
        assert ModelKey.parse(key.id) == key

    def test_defaults(self):
        key = ModelKey(model="convnet", dataset="gtsrb")
        assert key.technique == "baseline"
        assert key.fault_label == "none"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="dataset/model/technique"):
            ModelKey.parse("just/two")


class TestRegistry:
    def test_register_and_get(self, registry):
        assert KEY in registry
        assert len(registry) == 1
        servable = registry.get(KEY)
        assert registry.get(KEY.id) is servable  # string lookup, same object

    def test_unknown_key_lists_known(self, registry):
        with pytest.raises(KeyError, match="gtsrb/convnet/baseline/none"):
            registry.get("cifar10/vgg16/baseline/none")

    def test_describe_shape(self, registry):
        (summary,) = registry.describe()
        assert summary["key"] == KEY.id
        assert summary["parameters"] > 0
        assert summary["source"] == "registered"


class TestServableModel:
    def test_predict_logits_matches_trainer(self, registry, inputs, reference):
        servable = registry.get(KEY)
        np.testing.assert_array_equal(servable.predict_logits(inputs), reference)

    def test_describe_counts_forward_plans(self, inputs, reference):
        # A fresh servable builds nothing at registration; the first call
        # per shape plans, later calls replay, and /models shows both.
        module = build_model("convnet", image_shape=IMAGE_SHAPE, num_classes=NUM_CLASSES, seed=3)
        servable = ServableModel(KEY, module)
        assert servable.describe()["plans"] == {"built": 0, "replays": 0, "fallbacks": {}}
        metrics = MetricsRegistry()
        with metrics_scope(metrics):
            for i in range(3):
                np.testing.assert_array_equal(
                    servable.predict_logits(inputs[i : i + 1]), reference[i : i + 1]
                )
        assert servable.describe()["plans"] == {"built": 1, "replays": 2, "fallbacks": {}}
        assert metrics.get("serve_forward_plans_total").value == 1
        assert metrics.get("serve_forward_plan_fallbacks_total").value == 0

    def test_proba_and_labels_consistent(self, registry, inputs):
        servable = registry.get(KEY)
        proba = servable.predict_proba(inputs)
        labels = servable.predict_labels(inputs)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-5)
        np.testing.assert_array_equal(proba.argmax(axis=1), labels)


class TestLoadStateFile:
    def test_loads_saved_weights(self, tmp_path, inputs):
        trained = build_model(
            "convnet", image_shape=IMAGE_SHAPE, num_classes=NUM_CLASSES, seed=11
        ).eval()
        path = tmp_path / "cell.npz"
        save_model(trained, path)

        registry = ModelRegistry()
        servable = registry.load_state_file(
            path, KEY, image_shape=IMAGE_SHAPE, num_classes=NUM_CLASSES
        )
        expected = np.concatenate(
            [predict_logits(trained, inputs[i : i + 1]) for i in range(4)]
        )
        np.testing.assert_array_equal(servable.predict_logits(inputs[:4]), expected)
        assert servable.source.startswith("state-file:")

    def test_missing_file_raises(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(StateFileError, match="no such model state file"):
            registry.load_state_file(
                tmp_path / "absent.npz", KEY,
                image_shape=IMAGE_SHAPE, num_classes=NUM_CLASSES,
            )

    def test_unknown_dataset_needs_explicit_geometry(self, tmp_path):
        registry = ModelRegistry()
        key = ModelKey(model="convnet", dataset="imagenet")
        with pytest.raises(StateFileError, match="unknown dataset"):
            registry.load_state_file(tmp_path / "x.npz", key)

    def test_grayscale_dataset_geometry_inferred(self, tmp_path):
        """Pneumonia models are 1-channel; inference must infer that."""
        trained = build_model(
            "convnet", image_shape=(1, 16, 16), num_classes=2, seed=5
        )
        path = tmp_path / "pneumonia.npz"
        save_model(trained, path)
        registry = ModelRegistry()
        key = ModelKey(model="convnet", dataset="pneumonia")
        servable = registry.load_state_file(path, key, scale="smoke")
        x = np.random.default_rng(0).standard_normal((2, 1, 16, 16)).astype(np.float32)
        assert servable.predict_logits(x).shape == (2, 2)


class TestRefitCell:
    def test_refit_is_deterministic(self, monkeypatch):
        """Two refits of the same cell register bitwise-identical models."""
        monkeypatch.setenv("REPRO_EPOCHS", "2")  # keep the fits fast
        config = ExperimentConfig(
            dataset="pneumonia", model="convnet", technique="baseline",
            fault_label="mislabelling@30%", repeats=1, scale="smoke",
        )
        first = ModelRegistry().refit_cell(config)
        second = ModelRegistry().refit_cell(config)
        state_a = first.module.state_dict()
        state_b = second.module.state_dict()
        assert set(state_a) == set(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])
        assert first.source.startswith("refit:smoke")

    def test_refit_rejects_ensemble(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "1")
        config = ExperimentConfig(
            dataset="pneumonia", model="convnet", technique="ensemble",
            fault_label="none", repeats=1, scale="smoke",
        )
        with pytest.raises(ValueError, match="single servable"):
            ModelRegistry().refit_cell(config)
