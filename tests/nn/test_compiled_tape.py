"""Compiled-tape equivalence and fallback tests.

The record → plan → execute pipeline (``repro.nn.compile``) promises that a
replayed :class:`CompiledStep` is *bitwise* identical to the define-by-run
step it was recorded from — same floats in every weight and gradient, not
merely close.  These tests pin that contract across every registered
architecture, the direct ``compile_tape`` API, fits under an armed kernel
tap (which replay too: the registry runs the tap inside each site op), the
automatic eager paths (disabled grad mode, uncompilable tape), the op
registry's parity with the closure formulas it replaced, plus the telemetry
the trainer emits about its decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model, model_names
from repro.nn import (
    SGD,
    CrossEntropy,
    NormalizedCrossEntropy,
    Tensor,
    Trainer,
    use_kernel_mode,
)
from repro.nn.compile import CompileError, compile_tape
from repro.nn.functional import batch_norm_2d, kernel_tap_scope
from repro.nn.tape import Tape, tape_scope
from repro.nn.tensor import no_grad
from repro.telemetry import RecordingTelemetry, telemetry_scope
from repro.telemetry.summary import render_trace_summary, summarize_trace

from ..conftest import same_bits

NUM_CLASSES = 5
IMAGE_SHAPE = (3, 16, 16)
#: 12 examples in batches of 5 → per-epoch batches of 5, 5, 2: the ragged
#: tail is a second feed shape, so every fit exercises compile, replay, and
#: the dynamic-shape path at once.
N, BATCH, EPOCHS = 12, 5, 2
STEPS_PER_EPOCH = 3
FEED_SHAPES = 2  # (5, …) and (2, …)


def _data(name: str):
    rng = np.random.default_rng(7)
    feature_shape = (12,) if name == "mlp" else IMAGE_SHAPE
    x = rng.normal(size=(N, *feature_shape)).astype(np.float32)
    y = np.eye(NUM_CLASSES, dtype=np.float32)[rng.integers(0, NUM_CLASSES, N)]
    return feature_shape, x, y


def _fit(name: str, mode: str, loss=None, tap=None, validation=False):
    """Train ``name`` from a fixed seed under kernel ``mode``; returns (model, history)."""
    feature_shape, x, y = _data(name)
    with use_kernel_mode(mode):
        model = build_model(
            name, feature_shape, NUM_CLASSES, width=2, rng=np.random.default_rng(3)
        )
        trainer = Trainer(
            model,
            loss if loss is not None else CrossEntropy(),
            SGD(model.parameters(), lr=0.05),
            epochs=EPOCHS,
            batch_size=BATCH,
            rng=np.random.default_rng(11),
        )
        val = (x, y) if validation else None
        if tap is not None:
            with kernel_tap_scope(tap):
                history = trainer.fit(x, y, validation=val)
        else:
            history = trainer.fit(x, y, validation=val)
    return model, history


def _assert_bitwise_same(fast, compiled):
    fast_model, fast_hist = fast
    comp_model, comp_hist = compiled
    assert fast_hist.loss_curve() == comp_hist.loss_curve()
    assert [e.train_accuracy for e in fast_hist.epochs] == [
        e.train_accuracy for e in comp_hist.epochs
    ]
    fast_params = fast_model.parameters()
    comp_params = comp_model.parameters()
    assert len(fast_params) == len(comp_params)
    for pf, pc in zip(fast_params, comp_params):
        assert same_bits(pf.data, pc.data), "weights diverged"
        assert pf.grad is not None and pc.grad is not None
        assert same_bits(pf.grad, pc.grad), "last-step gradients diverged"


class TestBitwiseEquivalence:
    """Compiled training must equal fast-eager training float-for-float."""

    @pytest.mark.parametrize("name", model_names(include_extensions=True))
    def test_trainer_matches_eager(self, name):
        _assert_bitwise_same(_fit(name, "fast"), _fit(name, "compiled"))

    def test_validation_pass_unaffected(self):
        # Validation runs under no_grad between compiled epochs; metrics and
        # the weights that produced them must stay bitwise-equal.
        fast = _fit("convnet", "fast", validation=True)
        compiled = _fit("convnet", "compiled", validation=True)
        _assert_bitwise_same(fast, compiled)
        assert [e.val_loss for e in fast[1].epochs] == [
            e.val_loss for e in compiled[1].epochs
        ]
        assert [e.val_accuracy for e in fast[1].epochs] == [
            e.val_accuracy for e in compiled[1].epochs
        ]


class _TanhExpLoss(CrossEntropy):
    """CE plus a term through the migrated ``tanh``/``exp`` registry ops."""

    def __call__(self, logits, targets):
        return super().__call__(logits, targets) + (logits.tanh() * 0.1).exp().mean() * 0.01


class _MigratedOpsLoss(CrossEntropy):
    """CE plus a term through the migrated elementwise and shape ops."""

    def __call__(self, logits, targets):
        left = logits[:, :2].sigmoid()
        right = logits[:, 2:].leaky_relu(0.1).abs().clip(0.0, 2.0) ** 2.0
        joined = Tensor.concatenate([left, right], axis=1)
        ratio = joined / (joined.max(axis=1, keepdims=True) + 1.0)
        both = Tensor.stack([ratio.transpose(), (1.0 - ratio).log().transpose()])
        return super().__call__(logits, targets) + (-both.mean()) * 0.01


def _bn_closure(g, x, gamma, beta, mean, var, training):
    """The parent commit's ``batch_norm_2d`` closure formulas, in numpy."""
    shape = (1, x.shape[1], 1, 1)
    inv_std = (1.0 / np.sqrt(var + 1e-5)).reshape(shape).astype(x.dtype)
    x_hat = (x - mean.reshape(shape).astype(x.dtype)) * inv_std
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    grad_sum = g.sum(axis=(0, 2, 3), keepdims=True)
    grad_xhat_sum = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    scale = gamma.reshape(shape) * inv_std
    if training:
        count = g.shape[0] * g.shape[2] * g.shape[3]
        gx = scale * (g - grad_sum / count - x_hat * (grad_xhat_sum / count))
    else:
        gx = g * scale
    return out, [gx, grad_xhat_sum.reshape(-1), grad_sum.reshape(-1)]


def _getitem_closure(g, x):
    full = np.zeros_like(x)
    np.add.at(full, (slice(1, 3), [0, 2]), g)
    return x[1:3, [0, 2]], [full]


def _max_closure(g, x):
    out = x.max(axis=1)
    mask = (x == out[:, None]).astype(x.dtype)
    return out, [g[:, None] * mask / mask.sum(axis=1, keepdims=True)]


_rng = np.random.default_rng(0)
_X = _rng.normal(size=(4, 3)).astype(np.float32)
_Y = _rng.normal(size=(4, 3)).astype(np.float32)
_POS = _rng.uniform(0.5, 2.0, size=(4, 3)).astype(np.float32)
_ROW = _rng.normal(size=(3,)).astype(np.float32)
_IMG = _rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
_CH = _rng.uniform(0.5, 2.0, size=(3,)).astype(np.float32)
_BN_STATS = (_IMG.mean(axis=(0, 2, 3)), _IMG.var(axis=(0, 2, 3)))
_LEAKY = np.where(_X > 0, 1.0, 0.1).astype(np.float32)
_SIG = 1.0 / (1.0 + np.exp(-_X))

#: op id -> (input arrays, op on tensors, closure formula (g, *arrays) -> (out, grads)).
MIGRATED_OPS = {
    "tanh": ([_X], lambda a: a.tanh(), lambda g, x: (np.tanh(x), [g * (1.0 - np.tanh(x) ** 2)])),
    "exp": ([_X], lambda a: a.exp(), lambda g, x: (np.exp(x), [g * np.exp(x)])),
    "neg": ([_X], lambda a: -a, lambda g, x: (-x, [-g])),
    "sub": ([_X, _ROW], lambda a, b: a - b, lambda g, x, r: (x - r, [g, (-g).sum(axis=0)])),
    "div": (
        [_X, _POS],
        lambda a, b: a / b,
        lambda g, x, p: (x / p, [g / p, -g * x / (p**2)]),
    ),
    "pow": ([_POS], lambda a: a**3.0, lambda g, p: (p**3.0, [g * 3.0 * p ** (3.0 - 1)])),
    "log": ([_POS], lambda a: a.log(), lambda g, p: (np.log(p), [g / p])),
    "abs": ([_X], lambda a: a.abs(), lambda g, x: (np.abs(x), [g * np.sign(x)])),
    "clip": (
        [_X],
        lambda a: a.clip(-0.5, 0.5),
        lambda g, x: (np.clip(x, -0.5, 0.5), [g * ((x >= -0.5) & (x <= 0.5))]),
    ),
    "leaky_relu": ([_X], lambda a: a.leaky_relu(0.1), lambda g, x: (x * _LEAKY, [g * _LEAKY])),
    "sigmoid": ([_X], lambda a: a.sigmoid(), lambda g, x: (_SIG, [g * _SIG * (1.0 - _SIG)])),
    "max": ([_X], lambda a: a.max(axis=1), _max_closure),
    "stack": (
        [_X, _Y],
        lambda a, b: Tensor.stack([a, b], axis=1),
        lambda g, x, y: (np.stack([x, y], axis=1), list(np.moveaxis(g, 1, 0))),
    ),
    "transpose": ([_X], lambda a: a.transpose(), lambda g, x: (x.T, [g.transpose((1, 0))])),
    "getitem": ([_X], lambda a: a[1:3, [0, 2]], _getitem_closure),
    "pad2d": (
        [_IMG],
        lambda a: a.pad2d(1),
        lambda g, x: (np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), [g[:, :, 1:-1, 1:-1]]),
    ),
    "concatenate": (
        [_X, _Y],
        lambda a, b: Tensor.concatenate([a, b], axis=0),
        lambda g, x, y: (np.concatenate([x, y]), [g[:4], g[4:]]),
    ),
    "batch_norm_2d_eval": (
        [_IMG, _CH, _ROW],
        lambda x, gm, bt: batch_norm_2d(x, gm, bt, *_BN_STATS, 1e-5, training=False),
        lambda g, x, gm, bt: _bn_closure(g, x, gm, bt, *_BN_STATS, training=False),
    ),
    "batch_norm_2d_train": (
        [_IMG, _CH, _ROW],
        lambda x, gm, bt: batch_norm_2d(x, gm, bt, *_BN_STATS, 1e-5, training=True),
        lambda g, x, gm, bt: _bn_closure(g, x, gm, bt, *_BN_STATS, training=True),
    ),
}


class TestMigratedClosureOps:
    """Every op that used to carry a backward closure lives in the op
    registry now: values and gradients match the old closure formulas
    bit for bit, and tapes routed through them compile (no per-shape
    fallback) and replay bitwise-equal to eager."""

    @pytest.mark.parametrize("loss_cls", [_TanhExpLoss, _MigratedOpsLoss], ids=["tanh_exp", "ops"])
    @pytest.mark.parametrize("name", ["mlp", "convnet"])
    def test_tanh_exp_tape_compiles_and_matches_eager(self, name, loss_cls):
        fast = _fit(name, "fast", loss=loss_cls())
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            compiled = _fit(name, "compiled", loss=loss_cls())
        _assert_bitwise_same(fast, compiled)

        assert not [e for e in tel.events if e.get("name") == "tape_compile_fallback"]
        (fit_event,) = [e for e in tel.events if e.get("name") == "compiled_fit"]
        assert fit_event["compiles"] == FEED_SHAPES
        assert fit_event["eager_steps"] == FEED_SHAPES  # the recording steps only

    @pytest.mark.parametrize("op_id", sorted(MIGRATED_OPS))
    def test_op_matches_closure_formula(self, op_id):
        arrays, op, closure = MIGRATED_OPS[op_id]
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*tensors)
        g = np.random.default_rng(1).normal(size=out.shape).astype(np.float32)
        out.backward(g)
        expected_out, expected_grads = closure(g, *arrays)
        assert same_bits(out.data, expected_out)
        for tensor, expected in zip(tensors, expected_grads):
            assert same_bits(tensor.grad, expected)


class TestCompileApi:
    """Direct record → compile → replay, without the Trainer wrapper."""

    def _make(self):
        model = build_model(
            "convnet", IMAGE_SHAPE, NUM_CLASSES, width=2, rng=np.random.default_rng(3)
        )
        model.train()
        return model, SGD(model.parameters(), lr=0.05), CrossEntropy()

    def test_replay_loop_matches_eager_loop(self):
        _, x, y = _data("convnet")
        xb, yb = x[:BATCH], y[:BATCH]
        with use_kernel_mode("compiled"):
            eager_model, eager_opt, eager_loss = self._make()
            for _ in range(4):
                logits = eager_model(Tensor(xb))
                loss = eager_loss(logits, yb)
                eager_opt.zero_grad()
                loss.backward()
                eager_opt.step()

            comp_model, comp_opt, comp_loss = self._make()
            tape = Tape()
            with tape_scope(tape):
                logits = comp_model(Tensor(xb))
                loss = comp_loss(logits, yb)
                comp_opt.zero_grad()
                loss.backward()
                comp_opt.step()
            step = compile_tape(tape, loss, logits, (xb, yb))
            for _ in range(3):
                loss_arr, logits_arr = step.forward((xb, yb))
                comp_opt.zero_grad()
                step.backward()
                comp_opt.step()

        assert logits_arr.shape == (BATCH, NUM_CLASSES)
        assert np.isfinite(float(loss_arr))
        assert step.steps_replayed == 0  # only Trainer increments the counter
        for pe, pc in zip(eager_model.parameters(), comp_model.parameters()):
            assert same_bits(pe.data, pc.data)
            assert same_bits(pe.grad, pc.grad)

    def test_feed_shape_mismatch_raises(self):
        _, x, y = _data("convnet")
        xb, yb = x[:BATCH], y[:BATCH]
        with use_kernel_mode("compiled"):
            model, opt, loss_fn = self._make()
            tape = Tape()
            with tape_scope(tape):
                logits = model(Tensor(xb))
                loss = loss_fn(logits, yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
            step = compile_tape(tape, loss, logits, (xb, yb))
            with pytest.raises(ValueError, match="feed shape"):
                step.forward((x[:2], y[:2]))

    @pytest.mark.parametrize(
        "extra_term,reason",
        [
            # A graph node computed before the tape opened: the tape holds no
            # entry that could recompute it, so a replay would freeze it.
            (
                lambda logits, yb, pre: (logits + pre).sum() * 0.0,
                "input from op 'mul' was computed outside the recording scope",
            ),
            # A per-batch index array is an op argument, not a feed: a replay
            # would keep indexing with the recorded batch's labels.
            (
                lambda logits, yb, pre: logits[np.arange(BATCH), yb.argmax(axis=1)].mean(),
                "array argument 'index' of op 'getitem' cannot be proven step-invariant",
            ),
        ],
        ids=["non_leaf_before_recording", "array_index"],
    )
    def test_unreplayable_loss_is_refused(self, extra_term, reason):
        _, x, y = _data("convnet")
        xb, yb = x[:BATCH], y[:BATCH]
        model, _, loss_fn = self._make()
        pre = Tensor(np.zeros(NUM_CLASSES, dtype=np.float32), requires_grad=True) * 2.0
        tape = Tape()
        with tape_scope(tape):
            logits = model(Tensor(xb))
            loss = loss_fn(logits, yb) + extra_term(logits, yb, pre)
            loss.backward()
        with pytest.raises(CompileError) as excinfo:
            compile_tape(tape, loss, logits, (xb, yb))
        assert str(excinfo.value) == reason


class TestTappedFits:
    def test_armed_kernel_tap_replays_and_stays_bitwise(self):
        # The tap perturbs conv/pool/dense outputs in place — exactly what
        # the hardware-fault injector does.  It runs inside each site op, so
        # a replayed step routes every output through it as eager does.
        def tap(site, out):
            out += np.float32(1e-3)

        fast = _fit("convnet", "fast", tap=tap)
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            compiled = _fit("convnet", "compiled", tap=tap)
        _assert_bitwise_same(fast, compiled)

        assert not [e for e in tel.events if e.get("name") == "tape_replay_fallback"]
        (fit_event,) = [e for e in tel.events if e.get("name") == "compiled_fit"]
        assert fit_event["compiled_steps"] == EPOCHS * STEPS_PER_EPOCH - FEED_SHAPES
        assert fit_event["compiles"] == FEED_SHAPES

    def test_fault_aware_activation_fit_replays_bitwise(self, monkeypatch):
        # Activation-mode fault-aware training flips bits through the tap in
        # every training forward; its injector's flip sites must not depend
        # on whether the step was eager or replayed.
        from repro.data.dataset import ArrayDataset
        from repro.faults.hardware import injector as injector_module
        from repro.mitigation import FaultAwareTrainingTechnique, TrainingBudget

        injectors = []

        class RecordingInjector(injector_module.HardwareFaultInjector):
            def __init__(self, spec, seed, record_sites=False):
                super().__init__(spec, seed, record_sites=True)
                injectors.append(self)

        monkeypatch.setattr(injector_module, "HardwareFaultInjector", RecordingInjector)
        _, x, y = _data("convnet")
        train = ArrayDataset(x, y.argmax(axis=1), NUM_CLASSES)
        budget = TrainingBudget(epochs=EPOCHS, batch_size=BATCH, width=2)
        technique = FaultAwareTrainingTechnique(mode="activation", hw_rate=1e-2)
        fits = {}
        tel = RecordingTelemetry()
        for mode in ("fast", "compiled"):
            with use_kernel_mode(mode), telemetry_scope(tel):
                fitted = technique.fit(train, "convnet", budget, np.random.default_rng(5))
            fits[mode] = (fitted.model, fitted.history)
        _assert_bitwise_same(fits["fast"], fits["compiled"])

        fast_injector, compiled_injector = injectors
        assert fast_injector.flips  # the tap struck during both fits
        assert compiled_injector.flip_signature() == fast_injector.flip_signature()
        (fit_event,) = [e for e in tel.events if e.get("name") == "compiled_fit"]
        assert fit_event["compiled_steps"] == EPOCHS * STEPS_PER_EPOCH - FEED_SHAPES
        assert not [e for e in tel.events if e.get("name") == "tape_replay_fallback"]


class TestEagerFallbacks:

    def test_uncompilable_tape_falls_back_per_shape(self):
        # NCE's log_softmax subtracts an (N, 1) row-max constant the planner
        # cannot prove step-invariant, so each feed shape is refused once.
        fast = _fit("convnet", "fast", loss=NormalizedCrossEntropy())
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            compiled = _fit("convnet", "compiled", loss=NormalizedCrossEntropy())
        _assert_bitwise_same(fast, compiled)

        fallbacks = [e for e in tel.events if e.get("name") == "tape_compile_fallback"]
        # One refusal per feed shape, then cached.
        assert [e["reason"] for e in fallbacks] == [
            f"non-scalar constant of shape ({n}, 1) cannot be proven step-invariant"
            for n in (BATCH, N % BATCH)
        ]
        (fit_event,) = [e for e in tel.events if e.get("name") == "compiled_fit"]
        assert fit_event["compiled_steps"] == 0
        assert fit_event["compile_fallbacks"] == FEED_SHAPES
        assert fit_event["eager_steps"] == EPOCHS * STEPS_PER_EPOCH

    def test_no_grad_surfaces_the_same_eager_error(self):
        # Training under no_grad is an error either way; in compiled mode the
        # first feed shape's recording step runs the eager step and raises
        # the identical failure, so no stale gradients are ever replayed.
        errors = {}
        for mode in ("fast", "compiled"):
            feature_shape, x, y = _data("convnet")
            with use_kernel_mode(mode):
                model = build_model(
                    "convnet", feature_shape, NUM_CLASSES, width=2,
                    rng=np.random.default_rng(3),
                )
                trainer = Trainer(
                    model, CrossEntropy(), SGD(model.parameters(), lr=0.05),
                    epochs=1, batch_size=BATCH, rng=np.random.default_rng(11),
                )
                with no_grad():
                    with pytest.raises(RuntimeError) as excinfo:
                        trainer.fit(x, y)
            errors[mode] = str(excinfo.value)
        assert errors["fast"] == errors["compiled"]


class TestTelemetry:
    def test_compiled_fit_event_counts_steps_and_workspace(self):
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            _fit("convnet", "compiled")

        compiles = [e for e in tel.events if e.get("name") == "tape_compile"]
        assert len(compiles) == FEED_SHAPES
        assert {tuple(e["feed_shape"]) for e in compiles} == {
            (BATCH, *IMAGE_SHAPE),
            (N % BATCH, *IMAGE_SHAPE),
        }
        assert all(e["entries"] > 0 and e["backward_steps"] > 0 for e in compiles)
        assert all(e["params"] > 0 for e in compiles)

        (fit_event,) = [e for e in tel.events if e.get("name") == "compiled_fit"]
        total = EPOCHS * STEPS_PER_EPOCH
        assert fit_event["compiles"] == FEED_SHAPES
        assert fit_event["eager_steps"] == FEED_SHAPES  # the recording steps
        assert fit_event["compiled_steps"] == total - FEED_SHAPES
        assert fit_event["compile_fallbacks"] == 0
        for key in ("workspace_hits", "workspace_misses", "workspace_dropped"):
            assert key in fit_event

    def test_trace_summary_reports_compiled_execution(self):
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            _fit("convnet", "compiled")
        summary = summarize_trace(tel.events)
        assert summary.compiled_exec["compiled_steps"] == (
            EPOCHS * STEPS_PER_EPOCH - FEED_SHAPES
        )
        assert summary.compiled_exec["compiles"] == FEED_SHAPES
        rendered = render_trace_summary(summary)
        assert "compiled execution:" in rendered

    def test_eager_modes_emit_no_compiled_events(self):
        tel = RecordingTelemetry()
        with telemetry_scope(tel):
            _fit("convnet", "fast")
        names = {e.get("name") for e in tel.events}
        assert "compiled_fit" not in names
        assert "tape_compile" not in names
