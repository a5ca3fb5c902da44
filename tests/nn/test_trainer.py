"""Unit tests for the training loop, inference helpers, and early stopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    CrossEntropy,
    Dense,
    DivergenceError,
    EarlyStopping,
    ReLU,
    Sequential,
    StepLR,
    Trainer,
    evaluate_accuracy,
    predict_labels,
    predict_logits,
    predict_proba,
)


class _NaNAfterLoss(CrossEntropy):
    """A loss that turns NaN after a fixed number of batches (fault injection)."""

    def __init__(self, nan_after: int = 0) -> None:
        super().__init__()
        self.calls = 0
        self.nan_after = nan_after

    def __call__(self, logits, targets):
        value = super().__call__(logits, targets)
        if self.calls >= self.nan_after:
            value.data = np.asarray(np.nan, dtype=value.data.dtype)
        self.calls += 1
        return value


def _toy_problem(rng, n=64, dim=6, k=3):
    """A linearly separable toy problem."""
    centers = rng.normal(scale=3.0, size=(k, dim)).astype(np.float32)
    labels = rng.integers(0, k, n)
    x = centers[labels] + rng.normal(scale=0.3, size=(n, dim)).astype(np.float32)
    y = np.eye(k, dtype=np.float32)[labels]
    return x.astype(np.float32), y, labels


def _model(rng, dim=6, k=3):
    return Sequential(Dense(dim, 16, rng=rng), ReLU(), Dense(16, k, rng=rng))


class TestFit:
    def test_learns_separable_problem(self, rng):
        x, y, labels = _toy_problem(rng)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), Adam(model.parameters(), lr=0.01),
                          epochs=30, batch_size=16, rng=rng)
        history = trainer.fit(x, y)
        assert history.final_train_accuracy > 0.95
        assert evaluate_accuracy(model, x, labels) > 0.95

    def test_loss_decreases(self, rng):
        x, y, _ = _toy_problem(rng)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), Adam(model.parameters(), lr=0.01),
                          epochs=15, batch_size=16, rng=rng)
        curve = trainer.fit(x, y).loss_curve()
        assert curve[-1] < curve[0]

    def test_history_records_epochs(self, rng):
        x, y, _ = _toy_problem(rng)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.01),
                          epochs=4, batch_size=16, rng=rng)
        history = trainer.fit(x, y)
        assert [e.epoch for e in history.epochs] == [0, 1, 2, 3]
        assert history.total_time_s > 0
        assert all(e.duration_s >= 0 for e in history.epochs)

    def test_validation_metrics_recorded(self, rng):
        x, y, _ = _toy_problem(rng)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
                          epochs=3, batch_size=16, rng=rng)
        history = trainer.fit(x, y, validation=(x, y))
        assert history.epochs[-1].val_loss is not None
        assert history.final_val_accuracy is not None

    def test_length_mismatch_raises(self, rng):
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.1))
        with pytest.raises(ValueError, match="differ in length"):
            trainer.fit(np.zeros((4, 6), dtype=np.float32), np.zeros((5, 3), dtype=np.float32))

    def test_requires_one_hot_targets(self, rng):
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.1))
        with pytest.raises(ValueError, match="one-hot"):
            trainer.fit(np.zeros((4, 6), dtype=np.float32), np.zeros(4, dtype=np.float32))

    def test_empty_training_set_raises(self, rng):
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.1))
        with pytest.raises(ValueError, match="inputs is empty"):
            trainer.fit(np.zeros((0, 6), dtype=np.float32), np.zeros((0, 3), dtype=np.float32))

    def test_target_transform_applied(self, rng):
        x, y, _ = _toy_problem(rng, n=32)
        model = _model(rng)
        seen: list[np.ndarray] = []

        def transform(targets):
            seen.append(targets)
            return targets

        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.01),
                          epochs=1, batch_size=8, rng=rng, target_transform=transform)
        trainer.fit(x, y)
        assert len(seen) == 4  # 32 / 8 batches

    def test_batch_hook_sees_batches(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        sizes: list[int] = []
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.01),
                          epochs=1, batch_size=5, rng=rng,
                          batch_hook=lambda m, xb, yb: sizes.append(len(xb)))
        trainer.fit(x, y)
        assert sorted(sizes, reverse=True) == [5, 5, 5, 1]

    def test_scheduler_steps_each_epoch(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        opt = SGD(model.parameters(), lr=1.0)
        trainer = Trainer(model, CrossEntropy(), opt, epochs=3, batch_size=8, rng=rng,
                          scheduler=StepLR(opt, step_size=1, gamma=0.1))
        history = trainer.fit(x, y)
        assert opt.lr == pytest.approx(0.001)
        # The LR recorded for epoch 0 is the pre-step value.
        assert history.epochs[0].learning_rate == pytest.approx(1.0)

    def test_epoch_callback_invoked(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        records = []
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.01),
                          epochs=2, batch_size=8, rng=rng, epoch_callback=records.append)
        trainer.fit(x, y)
        assert len(records) == 2

    def test_validation_of_loop_geometry(self, rng):
        model = _model(rng)
        with pytest.raises(ValueError):
            Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.1), epochs=0)
        with pytest.raises(ValueError):
            Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.1), batch_size=0)


class TestHistoryTiming:
    def test_validation_timed_separately_from_training(self, rng):
        x, y, _ = _toy_problem(rng, n=32)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
                          epochs=2, batch_size=16, rng=rng)
        history = trainer.fit(x, y, validation=(x, y))
        assert all(e.val_duration_s > 0 for e in history.epochs)
        assert history.validation_time_s == pytest.approx(
            sum(e.val_duration_s for e in history.epochs)
        )
        # Training durations exclude the validation pass.
        assert history.total_time_s >= sum(
            e.duration_s + e.val_duration_s for e in history.epochs
        )

    def test_no_validation_means_zero_val_time(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
                          epochs=1, batch_size=8, rng=rng)
        history = trainer.fit(x, y)
        assert history.validation_time_s == 0.0
        assert history.epochs[0].val_duration_s == 0.0

    def test_throughput_counts_examples_over_train_time(self, rng):
        x, y, _ = _toy_problem(rng, n=32)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
                          epochs=3, batch_size=16, rng=rng)
        history = trainer.fit(x, y)
        assert all(e.examples == 32 for e in history.epochs)
        assert history.throughput_examples_per_s > 0
        assert history.throughput_examples_per_s == pytest.approx(
            96 / sum(e.duration_s for e in history.epochs)
        )

    def test_untimed_records_report_zero_throughput(self):
        from repro.nn.trainer import EpochRecord, TrainHistory

        record = EpochRecord(epoch=0, train_loss=1.0, train_accuracy=0.5,
                             examples=100, duration_s=0.0)
        assert record.throughput_examples_per_s == 0.0
        assert TrainHistory().throughput_examples_per_s == 0.0

    def test_batch_callback_sees_every_step(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        steps = []
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.01),
                          epochs=2, batch_size=5, rng=rng,
                          batch_callback=lambda e, b, loss: steps.append((e, b, loss)))
        trainer.fit(x, y)
        assert [(e, b) for e, b, _ in steps] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)
        ]
        assert all(np.isfinite(loss) for _, _, loss in steps)

    def test_epoch_spans_emitted_under_telemetry_scope(self, rng):
        from repro.telemetry import RecordingTelemetry, telemetry_scope

        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
                          epochs=2, batch_size=8, rng=rng)
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            trainer.fit(x, y, validation=(x, y))
        starts = [e for e in tel.events if e["ev"] == "span_start"]
        ends = [e for e in tel.events if e["ev"] == "span_end"]
        assert [e["epoch"] for e in starts] == [0, 1]
        assert all(e["name"] == "epoch" for e in starts)
        # Measurements ride on the end event.
        assert all("train_loss" in e and "examples_per_s" in e for e in ends)
        assert all(e["val_loss"] is not None for e in ends)


class TestDivergenceGuard:
    def test_nan_loss_raises_divergence_error(self, rng):
        x, y, _ = _toy_problem(rng, n=32)
        model = _model(rng)
        trainer = Trainer(model, _NaNAfterLoss(nan_after=2), SGD(model.parameters(), lr=0.01),
                          epochs=3, batch_size=8, rng=rng)
        with pytest.raises(DivergenceError) as excinfo:
            trainer.fit(x, y)
        # Batch 2 of epoch 0 (8-sample batches) is where the NaN appears.
        assert excinfo.value.epoch == 0
        assert excinfo.value.batch == 2
        assert np.isnan(excinfo.value.loss)

    def test_guard_can_be_disabled(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        trainer = Trainer(model, _NaNAfterLoss(), SGD(model.parameters(), lr=0.01),
                          epochs=1, batch_size=8, rng=rng, raise_on_divergence=False)
        history = trainer.fit(x, y)  # must not raise
        assert np.isnan(history.epochs[0].train_loss)

    def test_finite_training_unaffected(self, rng):
        x, y, _ = _toy_problem(rng, n=16)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), SGD(model.parameters(), lr=0.01),
                          epochs=2, batch_size=8, rng=rng)
        history = trainer.fit(x, y)
        assert len(history.epochs) == 2


class TestEarlyStopping:
    def test_stops_on_plateau(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        assert not stopper.should_stop(1.0)
        assert not stopper.should_stop(1.0)  # stale 1
        assert stopper.should_stop(1.0)  # stale 2 -> stop

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2, min_delta=0.01)
        assert not stopper.should_stop(1.0)
        assert not stopper.should_stop(1.1)
        assert not stopper.should_stop(0.5)  # improved, reset
        assert not stopper.should_stop(0.51)
        assert stopper.should_stop(0.52)

    def test_trainer_integration(self, rng):
        x, y, _ = _toy_problem(rng)
        model = _model(rng)
        trainer = Trainer(model, CrossEntropy(), Adam(model.parameters(), lr=0.01),
                          epochs=100, batch_size=16, rng=rng,
                          early_stopping=EarlyStopping(patience=3))
        history = trainer.fit(x, y)
        assert history.stopped_early
        assert len(history.epochs) < 100

    def test_patience_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_nan_counts_as_stale_and_sets_flag(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        assert not stopper.should_stop(float("nan"))  # stale 1
        assert stopper.saw_nan
        assert stopper.should_stop(float("nan"))  # stale 2 -> stop

    def test_nan_does_not_corrupt_best(self):
        stopper = EarlyStopping(patience=3, min_delta=0.0)
        assert not stopper.should_stop(1.0)
        assert not stopper.should_stop(float("nan"))
        assert not stopper.should_stop(0.5)  # recovery still registers as improvement
        assert stopper.best == 0.5
        assert stopper.stale_epochs == 0


class TestInferenceHelpers:
    def test_predict_logits_batched_consistency(self, rng):
        x, _, _ = _toy_problem(rng, n=33)
        model = _model(rng)
        full = predict_logits(model, x, batch_size=33)
        batched = predict_logits(model, x, batch_size=7)
        np.testing.assert_allclose(full, batched, rtol=1e-5)

    def test_predict_proba_rows_sum_to_one(self, rng):
        x, _, _ = _toy_problem(rng, n=10)
        probs = predict_proba(_model(rng), x)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), rtol=1e-5)

    def test_predict_labels_in_range(self, rng):
        x, _, _ = _toy_problem(rng, n=10)
        labels = predict_labels(_model(rng), x)
        assert labels.min() >= 0
        assert labels.max() < 3

    def test_evaluate_accuracy_accepts_one_hot(self, rng):
        x, y, labels = _toy_problem(rng, n=20)
        model = _model(rng)
        assert evaluate_accuracy(model, x, y) == evaluate_accuracy(model, x, labels)

    def test_history_empty_raises(self):
        from repro.nn.trainer import TrainHistory

        with pytest.raises(ValueError):
            TrainHistory().final_train_accuracy
