"""Generic mini-batch training loop and inference helpers.

Every mitigation technique in :mod:`repro.mitigation` is expressed in terms of
this trainer: label smoothing supplies a ``target_transform``, distillation a
``batch_hook`` that refreshes teacher probabilities, label correction wraps
two trainers, and ensembles run one trainer per member.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..telemetry import get_metrics, get_telemetry
from .compile import CompileError, compile_tape
from .functional import kernel_mode, softmax_np
from .losses import Loss
from .module import Module
from .optim import LRScheduler, Optimizer
from .tape import Tape, tape_scope
from .tensor import Tensor, no_grad
from .workspace import get_workspace

__all__ = [
    "TrainHistory",
    "EpochRecord",
    "Trainer",
    "EarlyStopping",
    "DivergenceError",
    "predict_logits",
    "predict_proba",
    "predict_labels",
    "evaluate_accuracy",
]


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss (NaN/Inf).

    Carries where the loss exploded so a retry layer (see
    :mod:`repro.experiments.resilience`) can log it and re-run the cell with
    a reduced learning rate and/or a fresh seed.
    """

    def __init__(self, epoch: int, batch: int, loss: float) -> None:
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch}: loss={loss!r}"
        )
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


@dataclass
class EpochRecord:
    """Metrics for one training epoch.

    ``duration_s`` covers the training loop only; validation (when run) is
    timed separately in ``val_duration_s``, so throughput is computed over
    optimisation time and telemetry emitters need not re-derive anything.
    """

    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None = None
    val_accuracy: float | None = None
    learning_rate: float = 0.0
    duration_s: float = 0.0
    val_duration_s: float = 0.0
    examples: int = 0

    @property
    def throughput_examples_per_s(self) -> float:
        """Training examples processed per second this epoch (0.0 if untimed)."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.examples / self.duration_s


@dataclass
class TrainHistory:
    """Sequence of per-epoch records plus total wall-clock time."""

    epochs: list[EpochRecord] = field(default_factory=list)
    total_time_s: float = 0.0
    stopped_early: bool = False

    @property
    def final_train_accuracy(self) -> float:
        if not self.epochs:
            raise ValueError("history is empty")
        return self.epochs[-1].train_accuracy

    @property
    def final_val_accuracy(self) -> float | None:
        if not self.epochs:
            raise ValueError("history is empty")
        return self.epochs[-1].val_accuracy

    @property
    def throughput_examples_per_s(self) -> float:
        """Aggregate training throughput across all epochs (0.0 if untimed)."""
        train_time = sum(e.duration_s for e in self.epochs)
        if train_time <= 0.0:
            return 0.0
        return sum(e.examples for e in self.epochs) / train_time

    @property
    def validation_time_s(self) -> float:
        """Total wall-clock spent in validation passes."""
        return sum(e.val_duration_s for e in self.epochs)

    def loss_curve(self) -> list[float]:
        return [e.train_loss for e in self.epochs]


class EarlyStopping:
    """Stop training when the monitored value stops improving.

    Monitors validation loss when validation data is supplied to the trainer,
    training loss otherwise.
    """

    def __init__(self, patience: int = 5, min_delta: float = 1e-4) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best = float("inf")
        self.stale_epochs = 0
        self.saw_nan = False

    def should_stop(self, value: float) -> bool:
        # A NaN monitored loss compares False against any threshold, so it
        # must be treated as an explicit non-improving epoch — otherwise a
        # diverged run silently burns through patience with no signal.
        if math.isnan(value):
            self.saw_nan = True
            self.stale_epochs += 1
            return self.stale_epochs >= self.patience
        if value < self.best - self.min_delta:
            self.best = value
            self.stale_epochs = 0
            return False
        self.stale_epochs += 1
        return self.stale_epochs >= self.patience


class _CompiledFitState:
    """Per-``fit`` bookkeeping for compiled kernel mode.

    Caches one :class:`~repro.nn.compile.CompiledStep` per feed-shape pair
    (``None`` marks a shape whose recorded step refused to compile, so the
    trainer stops re-recording it) and counts how each optimisation step was
    executed — surfaced in the ``compiled_fit`` telemetry event.
    """

    __slots__ = (
        "cache",
        "compiled_steps",
        "eager_steps",
        "compiles",
        "compile_fallbacks",
    )

    def __init__(self) -> None:
        self.cache: dict = {}
        self.compiled_steps = 0
        self.eager_steps = 0
        self.compiles = 0
        self.compile_fallbacks = 0


class Trainer:
    """Mini-batch gradient-descent trainer.

    Parameters
    ----------
    model, loss, optimizer:
        The three ingredients of the training loop.
    epochs, batch_size:
        Loop geometry.
    rng:
        Generator used for epoch shuffling (seeded by the experiment harness).
    scheduler:
        Optional LR scheduler, stepped once per epoch.
    clip_norm:
        Optional global gradient-norm clip.
    input_transform:
        ``f(x_batch) -> x_batch`` applied to each training batch before the
        forward pass — the data-augmentation hook (see
        :mod:`repro.data.augment`).  Not applied at validation/inference.
    target_transform:
        ``f(targets) -> targets`` applied to each batch's one-hot targets —
        the hook used by classic label smoothing.
    batch_hook:
        ``f(model, x_batch, y_batch) -> None`` called before the forward pass —
        the hook used by distillation to refresh teacher soft targets.
    early_stopping:
        Optional :class:`EarlyStopping` policy.
    epoch_callback:
        ``f(record) -> None`` called after each epoch (logging, tests).
    batch_callback:
        ``f(epoch, batch, loss) -> None`` called after each optimisation
        step — the per-batch emit hook (telemetry, live loss displays).
        Unlike the always-on per-epoch telemetry span, per-batch emission
        only happens when a callback is installed, keeping the inner loop
        free of overhead by default.
    raise_on_divergence:
        When True (default) a non-finite batch loss raises
        :class:`DivergenceError` immediately instead of poisoning the rest
        of the run with NaN weights.
    """

    def __init__(
        self,
        model: Module,
        loss: Loss,
        optimizer: Optimizer,
        epochs: int = 10,
        batch_size: int = 32,
        rng: np.random.Generator | None = None,
        scheduler: LRScheduler | None = None,
        clip_norm: float | None = None,
        input_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        target_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        batch_hook: Callable[[Module, np.ndarray, np.ndarray], None] | None = None,
        early_stopping: EarlyStopping | None = None,
        epoch_callback: Callable[[EpochRecord], None] | None = None,
        batch_callback: Callable[[int, int, float], None] | None = None,
        raise_on_divergence: bool = True,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.epochs = epochs
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng()
        self.scheduler = scheduler
        self.clip_norm = clip_norm
        self.input_transform = input_transform
        self.target_transform = target_transform
        self.batch_hook = batch_hook
        self.early_stopping = early_stopping
        self.epoch_callback = epoch_callback
        self.batch_callback = batch_callback
        self.raise_on_divergence = raise_on_divergence

    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> TrainHistory:
        """Train on ``(inputs, one-hot targets)``; returns the epoch history."""
        inputs = np.asarray(inputs, dtype=np.float32)
        targets = np.asarray(targets, dtype=np.float32)
        if len(inputs) != len(targets):
            raise ValueError(f"inputs ({len(inputs)}) and targets ({len(targets)}) differ in length")
        if len(inputs) == 0:
            raise ValueError("fit needs at least one training example: inputs is empty")
        if targets.ndim != 2:
            raise ValueError("targets must be one-hot encoded (N, K)")

        history = TrainHistory()
        start = time.perf_counter()
        n = len(inputs)
        # Integer labels are fixed for the whole fit; computing them once and
        # indexing per batch avoids an argmax over the one-hot targets on
        # every optimisation step.
        label_idx = targets.argmax(axis=1)
        tel = get_telemetry()
        metrics = get_metrics()
        # Compiled kernel mode: record the first step per feed shape, plan a
        # static CompiledStep, replay it for every later fixed-shape step.
        compiled = _CompiledFitState() if kernel_mode() == "compiled" else None
        for epoch in range(self.epochs):
            with tel.span("epoch", epoch=epoch) as span:
                epoch_start = time.perf_counter()
                self.model.train()
                order = self.rng.permutation(n)
                epoch_loss = 0.0
                epoch_correct = 0
                for lo in range(0, n, self.batch_size):
                    idx = order[lo : lo + self.batch_size]
                    xb, yb = inputs[idx], targets[idx]
                    if self.input_transform is not None:
                        xb = self.input_transform(xb)
                    if self.batch_hook is not None:
                        self.batch_hook(self.model, xb, yb)
                    effective_targets = self.target_transform(yb) if self.target_transform else yb
                    batch_index = lo // self.batch_size
                    if compiled is not None:
                        batch_loss, logits_data = self._compiled_step(
                            compiled, xb, effective_targets, epoch, batch_index, tel
                        )
                    else:
                        batch_loss, logits_t, _ = self._eager_step(
                            xb, effective_targets, epoch, batch_index
                        )
                        logits_data = logits_t.data
                    epoch_loss += batch_loss * len(idx)
                    epoch_correct += int(
                        (logits_data.argmax(axis=1) == label_idx[idx]).sum()
                    )
                    if self.batch_callback is not None:
                        self.batch_callback(epoch, batch_index, batch_loss)

                record = EpochRecord(
                    epoch=epoch,
                    train_loss=epoch_loss / n,
                    train_accuracy=epoch_correct / n,
                    learning_rate=self.optimizer.lr,
                    duration_s=time.perf_counter() - epoch_start,
                    examples=n,
                )
                if validation is not None:
                    val_start = time.perf_counter()
                    val_x, val_y = validation
                    record.val_loss, record.val_accuracy = self._evaluate(val_x, val_y)
                    record.val_duration_s = time.perf_counter() - val_start
                span.set(
                    train_loss=record.train_loss,
                    train_accuracy=record.train_accuracy,
                    val_loss=record.val_loss,
                    examples_per_s=record.throughput_examples_per_s,
                )
            history.epochs.append(record)
            if metrics.enabled:
                metrics.counter("train_epochs_total").inc()
                metrics.counter("train_steps_total").inc(-(-n // self.batch_size))
                metrics.counter("train_examples_total").inc(n)
                metrics.histogram("train_epoch_seconds").observe(record.duration_s)
            if self.epoch_callback is not None:
                self.epoch_callback(record)
            if self.scheduler is not None:
                self.scheduler.step()
            if self.early_stopping is not None:
                monitored = record.val_loss if record.val_loss is not None else record.train_loss
                if self.early_stopping.should_stop(monitored):
                    history.stopped_early = True
                    break

        if compiled is not None:
            workspace = get_workspace()
            tel.event(
                "compiled_fit",
                compiled_steps=compiled.compiled_steps,
                eager_steps=compiled.eager_steps,
                compiles=compiled.compiles,
                compile_fallbacks=compiled.compile_fallbacks,
                workspace_hits=workspace.hits,
                workspace_misses=workspace.misses,
                workspace_dropped=workspace.dropped,
            )
        history.total_time_s = time.perf_counter() - start
        return history

    def _eager_step(
        self, xb: np.ndarray, targets: np.ndarray, epoch: int, batch_index: int
    ) -> tuple[float, Tensor, Tensor]:
        """One define-by-run optimisation step; returns (loss, logits, loss tensor)."""
        logits = self.model(Tensor(xb))
        loss_value = self.loss(logits, targets)
        batch_loss = float(loss_value.item())
        if self.raise_on_divergence and not math.isfinite(batch_loss):
            raise DivergenceError(epoch=epoch, batch=batch_index, loss=batch_loss)
        self.optimizer.zero_grad()
        loss_value.backward()
        if self.clip_norm is not None:
            self.optimizer.clip_grad_norm(self.clip_norm)
        self.optimizer.step()
        return batch_loss, logits, loss_value

    def _compiled_step(
        self,
        state: _CompiledFitState,
        xb: np.ndarray,
        effective_targets: np.ndarray,
        epoch: int,
        batch_index: int,
        tel,
    ) -> tuple[float, np.ndarray]:
        """One optimisation step in compiled kernel mode.

        Dispatch: a cached :class:`CompiledStep` for this feed shape is
        replayed; an uncached shape runs one eager step under a recording
        tape and compiles it; a shape whose recording refused to compile
        stays eager for the rest of the fit.  Every path produces
        bitwise-identical floats, under an armed kernel tap too (it runs
        inside its site ops).  Under ``no_grad`` the recording step raises.
        """
        xb = np.asarray(xb, dtype=np.float32)
        t_arr = np.asarray(effective_targets, dtype=np.float32)
        key = (xb.shape, t_arr.shape)
        if key not in state.cache:
            tape = Tape()
            with tape_scope(tape):
                batch_loss, logits_t, loss_t = self._eager_step(xb, t_arr, epoch, batch_index)
            state.eager_steps += 1
            try:
                step = compile_tape(tape, loss_t, logits_t, (xb, t_arr))
            except CompileError as exc:
                state.cache[key] = None
                state.compile_fallbacks += 1
                tel.event(
                    "tape_compile_fallback",
                    reason=str(exc),
                    feed_shape=list(xb.shape),
                    epoch=epoch,
                    batch=batch_index,
                )
            else:
                state.cache[key] = step
                state.compiles += 1
                tel.event(
                    "tape_compile",
                    entries=step.n_entries,
                    backward_steps=step.n_backward,
                    params=step.n_params,
                    feed_shape=list(xb.shape),
                    epoch=epoch,
                    batch=batch_index,
                )
            return batch_loss, logits_t.data

        step = state.cache[key]
        if step is None:
            state.eager_steps += 1
            batch_loss, logits_t, _ = self._eager_step(xb, t_arr, epoch, batch_index)
            return batch_loss, logits_t.data

        loss_arr, logits_arr = step.forward((xb, t_arr))
        batch_loss = float(loss_arr)
        if self.raise_on_divergence and not math.isfinite(batch_loss):
            raise DivergenceError(epoch=epoch, batch=batch_index, loss=batch_loss)
        self.optimizer.zero_grad()
        step.backward()
        if self.clip_norm is not None:
            self.optimizer.clip_grad_norm(self.clip_norm)
        self.optimizer.step()
        state.compiled_steps += 1
        step.steps_replayed += 1
        return batch_loss, logits_arr

    def _evaluate(self, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
        self.model.eval()
        logits = predict_logits(self.model, inputs, batch_size=self.batch_size)
        loss_value = float(self.loss(Tensor(logits), targets).item())
        accuracy = float((logits.argmax(axis=1) == targets.argmax(axis=1)).mean())
        self.model.train()
        return loss_value, accuracy


def predict_logits(model: Module, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Run the model in eval mode without the gradient tape; returns logits.

    The output array is allocated once (sized from the first batch) and
    filled in place, instead of appending per-batch chunks and paying a full
    extra copy in ``np.concatenate``.
    """
    model.eval()
    inputs = np.asarray(inputs, dtype=np.float32)
    n = len(inputs)
    if n == 0:
        raise ValueError("predict_logits needs at least one input")
    out: np.ndarray | None = None
    with no_grad():
        for lo in range(0, n, batch_size):
            chunk = model(Tensor(inputs[lo : lo + batch_size])).data
            if out is None:
                out = np.empty((n,) + chunk.shape[1:], dtype=chunk.dtype)
            out[lo : lo + len(chunk)] = chunk
    assert out is not None
    return out


def predict_proba(model: Module, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Softmax probabilities for each input.

    Shares the stable-softmax helper with :func:`repro.nn.functional.softmax`
    so the inference path cannot drift from the training-time softmax.
    """
    return softmax_np(predict_logits(model, inputs, batch_size=batch_size), axis=1)


def predict_labels(model: Module, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Hard label predictions."""
    return predict_logits(model, inputs, batch_size=batch_size).argmax(axis=1)


def evaluate_accuracy(
    model: Module, inputs: np.ndarray, labels: Sequence[int] | np.ndarray, batch_size: int = 128
) -> float:
    """Top-1 accuracy against integer labels."""
    labels = np.asarray(labels)
    if labels.ndim == 2:  # accept one-hot as a convenience
        labels = labels.argmax(axis=1)
    predictions = predict_labels(model, inputs, batch_size=batch_size)
    return float((predictions == labels).mean())
