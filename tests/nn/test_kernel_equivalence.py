"""Equivalence tests for the vectorized kernel pass.

The ``fast`` kernels (window-view gathers, fused softmax-CE, workspace
buffers, direct pooling scatters) must be *bitwise* interchangeable with the
``reference`` composition — the study archive comparator
(:func:`repro.experiments.persistence.results_equivalent`) uses exact float
equality, so anything weaker would make kernel choice visible in results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, kernel_mode, set_kernel_mode, use_kernel_mode
from repro.nn.functional import (
    avg_pool2d,
    col2im,
    col2im_reference,
    conv2d,
    depthwise_conv2d,
    im2col,
    im2col_reference,
    log_softmax,
    max_pool2d,
    softmax_cross_entropy,
)

# (input shape, kernel kwargs) grids deliberately include stride 2, padding,
# non-square kernels, non-square images, and batch size 1.
CONV_CASES = [
    ((2, 3, 9, 9), (4, 3, 3, 3), dict(stride=1, padding=1)),
    ((2, 3, 9, 9), (4, 3, 3, 3), dict(stride=2, padding=1)),
    ((1, 2, 8, 7), (3, 2, 3, 2), dict(stride=2, padding=1)),  # non-square kernel
    ((1, 1, 5, 5), (2, 1, 1, 1), dict(stride=1, padding=0)),  # 1x1 kernel
    ((3, 2, 11, 11), (2, 2, 5, 5), dict(stride=3, padding=2)),
]
POOL_CASES = [
    ((2, 3, 8, 8), dict(kernel=2, stride=2)),  # disjoint (fast scatter path)
    ((1, 2, 8, 7), dict(kernel=3, stride=2)),  # overlapping windows
    ((2, 1, 9, 9), dict(kernel=3, stride=3)),
    ((1, 4, 7, 7), dict(kernel=2, stride=3)),  # gaps between windows
]


def _run(mode, op, arrays, **kwargs):
    with use_kernel_mode(mode):
        tensors = [
            Tensor(a.copy(), requires_grad=True) if a is not None else None for a in arrays
        ]
        out = op(*tensors, **kwargs)
        out.backward(np.ones_like(out.data))
        return out.data, [t.grad for t in tensors if t is not None]


class TestKernelModeControls:
    def test_default_mode_is_fast(self):
        assert kernel_mode() == "fast"

    def test_set_kernel_mode_returns_previous(self):
        prev = set_kernel_mode("reference")
        try:
            assert prev == "fast"
            assert kernel_mode() == "reference"
        finally:
            set_kernel_mode(prev)

    def test_invalid_mode_rejected(self):
        # "legacy" named the deleted seed kernels; it is now just unknown.
        for mode in ("turbo", "legacy"):
            with pytest.raises(ValueError, match=r"choices: \('fast', 'reference', 'compiled'\)"):
                set_kernel_mode(mode)
        assert kernel_mode() == "fast"

    def test_context_manager_restores_mode(self):
        with use_kernel_mode("reference"):
            assert kernel_mode() == "reference"
        assert kernel_mode() == "fast"


class TestConvEquivalence:
    @pytest.mark.parametrize("x_shape,w_shape,kwargs", CONV_CASES)
    def test_fast_matches_reference_bitwise(self, x_shape, w_shape, kwargs):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=(w_shape[0],)).astype(np.float32)
        fast = _run("fast", conv2d, [x, w, b], **kwargs)
        ref = _run("reference", conv2d, [x, w, b], **kwargs)
        assert np.array_equal(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert np.array_equal(g_fast, g_ref)

    def test_no_bias_conv_equivalent(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        fast = _run("fast", conv2d, [x, w, None], stride=1, padding=1)
        ref = _run("reference", conv2d, [x, w, None], stride=1, padding=1)
        assert np.array_equal(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert np.array_equal(g_fast, g_ref)


class TestDepthwiseEquivalence:
    @pytest.mark.parametrize(
        "x_shape,kwargs",
        [
            ((2, 3, 9, 9), dict(stride=1, padding=1)),
            ((1, 4, 8, 7), dict(stride=2, padding=1)),
            ((2, 2, 7, 7), dict(stride=3, padding=0)),
        ],
    )
    def test_fast_matches_reference_bitwise(self, x_shape, kwargs):
        rng = np.random.default_rng(21)
        c = x_shape[1]
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        b = rng.normal(size=(c,)).astype(np.float32)
        fast = _run("fast", depthwise_conv2d, [x, w, b], **kwargs)
        ref = _run("reference", depthwise_conv2d, [x, w, b], **kwargs)
        assert np.array_equal(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert np.array_equal(g_fast, g_ref)


class TestPoolEquivalence:
    @pytest.mark.parametrize("x_shape,kwargs", POOL_CASES)
    @pytest.mark.parametrize("op", [max_pool2d, avg_pool2d])
    def test_fast_matches_reference_bitwise(self, op, x_shape, kwargs):
        rng = np.random.default_rng(31)
        x = rng.normal(size=x_shape).astype(np.float32)
        fast = _run("fast", op, [x], **kwargs)
        ref = _run("reference", op, [x], **kwargs)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1][0], ref[1][0])


class TestFusedLossEquivalence:
    def _composed(self, logits, targets, temperature):
        # The exact composition the fused op replaces (losses.py pre-fusion).
        return -(
            (log_softmax(logits, axis=1, temperature=temperature) * Tensor(targets))
            .sum(axis=1)
            .mean()
        )

    @pytest.mark.parametrize("temperature", [1.0, 2.0, 4.0])
    def test_fused_matches_composed_bitwise(self, temperature):
        rng = np.random.default_rng(41)
        logits_data = rng.normal(size=(8, 5)).astype(np.float32) * 3.0
        targets = np.eye(5, dtype=np.float32)[rng.integers(0, 5, 8)]

        logits_fused = Tensor(logits_data.copy(), requires_grad=True)
        fused = softmax_cross_entropy(logits_fused, targets, temperature=temperature)
        fused.backward()

        logits_composed = Tensor(logits_data.copy(), requires_grad=True)
        composed = self._composed(logits_composed, targets, temperature)
        composed.backward()

        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(logits_fused.grad, logits_composed.grad)

    def test_soft_targets(self):
        rng = np.random.default_rng(42)
        logits_data = rng.normal(size=(6, 4)).astype(np.float32)
        soft = rng.random((6, 4)).astype(np.float32)
        soft /= soft.sum(axis=1, keepdims=True)

        logits_fused = Tensor(logits_data.copy(), requires_grad=True)
        fused = softmax_cross_entropy(logits_fused, soft)
        fused.backward()

        logits_composed = Tensor(logits_data.copy(), requires_grad=True)
        composed = self._composed(logits_composed, soft, 1.0)
        composed.backward()

        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(logits_fused.grad, logits_composed.grad)

    def test_reference_mode_falls_back_to_composition(self):
        rng = np.random.default_rng(43)
        logits_data = rng.normal(size=(4, 3)).astype(np.float32)
        targets = np.eye(3, dtype=np.float32)[[0, 2, 1, 0]]
        with use_kernel_mode("fast"):
            fast_loss = float(softmax_cross_entropy(Tensor(logits_data), targets).data)
        with use_kernel_mode("reference"):
            ref_loss = float(softmax_cross_entropy(Tensor(logits_data), targets).data)
        assert fast_loss == ref_loss

    def test_shape_mismatch_rejected(self):
        logits = Tensor(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.zeros((4, 2), dtype=np.float32))


class TestPatchLayouts:
    def test_im2col_layout_maps_to_reference(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(2, 3, 8, 7)).astype(np.float32)
        for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 0)]:
            new = im2col(x, 3, 2, stride, padding)  # (N, C*KH*KW, OH*OW)
            old = im2col_reference(x, 3, 2, stride, padding)  # (N*OH*OW, C*KH*KW)
            np.testing.assert_array_equal(
                new.transpose(0, 2, 1).reshape(old.shape), old
            )

    def test_im2col_strided_gather_matches_window_view(self):
        # Fast mode uses sliding_window_view only for stride 1; the strided
        # loop gather must produce identical patches.
        rng = np.random.default_rng(52)
        x = rng.normal(size=(2, 2, 9, 9)).astype(np.float32)
        with use_kernel_mode("fast"):
            fast = im2col(x, 3, 3, 2, 1)
        with use_kernel_mode("reference"):
            ref = im2col(x, 3, 3, 2, 1)
        np.testing.assert_array_equal(fast, ref)

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), c> == <x, col2im(c)> characterises the exact adjoint.
        rng = np.random.default_rng(53)
        x = rng.normal(size=(2, 2, 7, 6))
        unfolded = im2col(x, 3, 3, 2, 1)  # (2, 18, 4*3)
        cols = rng.normal(size=unfolded.shape)
        folded = col2im(cols, x.shape, 3, 3, 2, 1)
        assert np.isclose((unfolded * cols).sum(), (x * folded).sum())

    def test_col2im_matches_reference_layout(self):
        rng = np.random.default_rng(54)
        n, c, h, w = 2, 3, 8, 8
        kh = kw = 3
        stride, padding = 1, 1
        oh = ow = 8
        cols_new = rng.normal(size=(n, c * kh * kw, oh * ow)).astype(np.float32)
        cols_old = cols_new.transpose(0, 2, 1).reshape(n * oh * ow, c * kh * kw)
        folded_new = col2im(cols_new, (n, c, h, w), kh, kw, stride, padding)
        folded_old = col2im_reference(cols_old, (n, c, h, w), kh, kw, stride, padding)
        np.testing.assert_allclose(folded_new, folded_old, rtol=1e-6, atol=1e-6)


class TestModelLevelEquivalence:
    def test_one_training_step_is_bitwise_identical(self):
        from repro.models import ConvNet
        from repro.nn import SGD
        from repro.nn.losses import CrossEntropy

        def step(mode):
            rng = np.random.default_rng(7)
            x = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
            y = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 8)]
            with use_kernel_mode(mode):
                model = ConvNet((3, 16, 16), 4, width=4, rng=np.random.default_rng(7))
                opt = SGD(model.parameters(), lr=0.05)
                loss = CrossEntropy()(model(Tensor(x)), y)
                model.zero_grad()
                loss.backward()
                opt.step()
                return float(loss.data), [p.data.copy() for p in model.parameters()]

        loss_fast, params_fast = step("fast")
        loss_ref, params_ref = step("reference")
        assert loss_fast == loss_ref
        for p_fast, p_ref in zip(params_fast, params_ref):
            assert np.array_equal(p_fast, p_ref)
