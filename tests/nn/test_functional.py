"""Unit tests for differentiable NN ops: conv, pooling, softmax, im2col."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.layers import AvgPool2D, MaxPool2D
from repro.nn.module import Parameter

from ..conftest import assert_grad_close


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = Tensor(rng.normal(size=(5, 7)).astype(np.float32))
        probs = F.softmax(logits, axis=1)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        probs = F.softmax(logits, axis=1)
        np.testing.assert_allclose(probs.data, [[0.5, 0.5]], rtol=1e-5)
        assert np.isfinite(probs.data).all()

    def test_temperature_softens_distribution(self):
        logits = Tensor(np.array([[2.0, 0.0]], dtype=np.float32))
        sharp = F.softmax(logits, axis=1).data
        soft = F.softmax(logits, axis=1, temperature=4.0).data
        assert soft[0, 0] < sharp[0, 0]
        assert soft[0, 1] > sharp[0, 1]

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(logits, axis=1).data,
            np.log(F.softmax(logits, axis=1).data),
            atol=1e-5,
        )

    def test_softmax_gradcheck(self, rng):
        x = rng.normal(size=(2, 4)).astype(np.float32)
        weights = rng.normal(size=(2, 4)).astype(np.float32)

        def forward(arr):
            return float((F.softmax(Tensor(arr), axis=1).data * weights).sum())

        t = Tensor(x.copy(), requires_grad=True)
        (F.softmax(t, axis=1) * Tensor(weights)).sum().backward()
        assert_grad_close(forward, x, t.grad, atol=1e-3)


class TestIm2Col:
    def test_output_shape(self, rng):
        images = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols = F.im2col(images, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 3 * 3, 8 * 8)

    def test_reference_output_shape(self, rng):
        images = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols = F.im2col_reference(images, 3, 3, 1, 1)
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        # <im2col(x), y> == <x, col2im(y)> defines the correct gradient.
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float64)
        cols = F.im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape).astype(np.float64)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, 3, 3, 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_reference_is_adjoint_of_im2col_reference(self, rng):
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float64)
        cols = F.im2col_reference(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape).astype(np.float64)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im_reference(y, x.shape, 3, 3, 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_reference_layout(self, rng):
        # The (N, C*KH*KW, OH*OW) layout holds exactly the seed layout's
        # values, permuted: new[n, ck, p] == old[n*OHW + p, ck].
        images = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        new = F.im2col(images, 3, 2, 2, 1)
        old = F.im2col_reference(images, 3, 2, 2, 1)
        np.testing.assert_array_equal(new.transpose(0, 2, 1).reshape(old.shape), old)

    def test_conv_output_size(self):
        assert F.conv_output_size(16, 3, 1, 1) == 16
        assert F.conv_output_size(16, 3, 2, 1) == 8
        assert F.conv_output_size(5, 2, 2, 0) == 2


class TestConv2D:
    def test_identity_kernel(self):
        images = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
        kernel[0, 0, 1, 1] = 1.0
        out = F.conv2d(images, Tensor(kernel), None, stride=1, padding=1)
        np.testing.assert_allclose(out.data, images.data)

    def test_matches_manual_convolution(self, rng):
        images = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        kernel = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(images), Tensor(kernel), None).data
        # Manual valid convolution (cross-correlation).
        expected = np.zeros((3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                expected[i, j] = (images[0, 0, i : i + 3, j : j + 3] * kernel[0, 0]).sum()
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), None)

    def test_input_gradcheck(self, rng):
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        weights = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)

        def forward(arr):
            out = F.conv2d(Tensor(arr), Tensor(w), None, stride=2, padding=1)
            return float((out.data * weights).sum())

        t = Tensor(x.copy(), requires_grad=True)
        out = F.conv2d(t, Tensor(w), None, stride=2, padding=1)
        (out * Tensor(weights)).sum().backward()
        assert_grad_close(forward, x, t.grad, atol=2e-2)

    def test_weight_and_bias_gradcheck(self, rng):
        x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        w_val = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        b_val = rng.normal(size=(2,)).astype(np.float32)
        mix = rng.normal(size=(2, 2, 2, 2)).astype(np.float32)

        w = Parameter(w_val.copy())
        b = Parameter(b_val.copy())
        out = F.conv2d(Tensor(x), w, b, stride=1, padding=0)
        (out * Tensor(mix)).sum().backward()

        def forward_w(arr):
            out = F.conv2d(Tensor(x), Tensor(arr), Tensor(b_val), stride=1, padding=0)
            return float((out.data * mix).sum())

        assert_grad_close(forward_w, w_val, w.grad, atol=2e-2)
        np.testing.assert_allclose(
            b.grad, mix.sum(axis=(0, 2, 3)), rtol=1e-4, atol=1e-5
        )


class TestDepthwiseConv2D:
    def test_shape_and_independence_of_channels(self, rng):
        images = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        weight = np.zeros((3, 1, 3, 3), dtype=np.float32)
        weight[:, 0, 1, 1] = np.array([1.0, 2.0, 3.0])  # per-channel scaling
        out = F.depthwise_conv2d(Tensor(images), Tensor(weight), None, padding=1)
        np.testing.assert_allclose(out.data[0, 0], images[0, 0] * 1.0, rtol=1e-5)
        np.testing.assert_allclose(out.data[0, 1], images[0, 1] * 2.0, rtol=1e-5)
        np.testing.assert_allclose(out.data[0, 2], images[0, 2] * 3.0, rtol=1e-5)

    def test_rejects_bad_weight_shape(self):
        with pytest.raises(ValueError):
            F.depthwise_conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))), None)

    def test_input_gradcheck(self, rng):
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        mix = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)

        def forward(arr):
            out = F.depthwise_conv2d(Tensor(arr), Tensor(w), None, stride=2, padding=1)
            return float((out.data * mix).sum())

        t = Tensor(x.copy(), requires_grad=True)
        out = F.depthwise_conv2d(t, Tensor(w), None, stride=2, padding=1)
        (out * Tensor(mix)).sum().backward()
        assert_grad_close(forward, x, t.grad, atol=2e-2)

    def test_weight_gradcheck(self, rng):
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        w_val = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
        mix = rng.normal(size=(1, 2, 2, 2)).astype(np.float32)

        w = Parameter(w_val.copy())
        out = F.depthwise_conv2d(Tensor(x), w, None)
        (out * Tensor(mix)).sum().backward()

        def forward(arr):
            out = F.depthwise_conv2d(Tensor(x), Tensor(arr), None)
            return float((out.data * mix).sum())

        assert_grad_close(forward, w_val, w.grad, atol=2e-2)


class TestPooling:
    def test_max_pool_values(self):
        images = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(images, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_grad_routes_to_max(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_avg_pool_values(self):
        images = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32) * 3.0)
        out = F.avg_pool2d(images, 2)
        np.testing.assert_allclose(out.data, np.full((1, 2, 2, 2), 3.0))

    def test_avg_pool_grad_spreads_uniformly(self):
        t = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32), requires_grad=True)
        F.avg_pool2d(t, 2).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool_shape(self, rng):
        images = Tensor(rng.normal(size=(3, 5, 4, 4)).astype(np.float32))
        out = F.global_avg_pool2d(images)
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out.data, images.data.mean(axis=(2, 3)), rtol=1e-5)

    def test_strided_max_pool(self, rng):
        images = Tensor(rng.normal(size=(1, 1, 6, 6)).astype(np.float32))
        out = F.max_pool2d(images, 2, stride=2)
        assert out.shape == (1, 1, 3, 3)


def _images(size):
    return Tensor(np.zeros((1, 1, size, size), dtype=np.float32))


def _filters(size):
    return Tensor(np.zeros((1, 1, size, size), dtype=np.float32))


class TestWindowGeometry:
    """The four windowed ops reject a window that cannot slide or leaves no
    output, naming the geometry, instead of returning an empty map or
    failing inside a kernel."""

    @pytest.mark.parametrize(
        "call,message",
        [
            pytest.param(
                lambda: F.max_pool2d(_images(1), 2),
                "max_pool2d: kernel 2x2, stride 2, padding 0 on a 1x1",
                id="max_pool-map-smaller-than-kernel",
            ),
            pytest.param(
                lambda: F.avg_pool2d(_images(1), 2),
                "avg_pool2d: kernel 2x2, stride 2, padding 0 on a 1x1",
                id="avg_pool-map-smaller-than-kernel",
            ),
            pytest.param(
                lambda: F.max_pool2d(_images(4), 2, stride=0),
                "max_pool2d: kernel 2x2, stride 0,",
                id="max_pool-stride-0",
            ),
            pytest.param(
                lambda: F.avg_pool2d(_images(4), 2, stride=0),
                "avg_pool2d: kernel 2x2, stride 0,",
                id="avg_pool-stride-0",
            ),
            pytest.param(
                lambda: F.max_pool2d(_images(4), 0),
                "max_pool2d: kernel 0x0, stride 0,",
                id="max_pool-kernel-0",
            ),
            pytest.param(
                lambda: F.avg_pool2d(_images(4), 2, stride=-1),
                "avg_pool2d: kernel 2x2, stride -1,",
                id="avg_pool-negative-stride",
            ),
            pytest.param(
                lambda: MaxPool2D(2, stride=0)(_images(4)),
                "max_pool2d: kernel 2x2, stride 0,",
                id="MaxPool2D-stride-0",
            ),
            pytest.param(
                lambda: AvgPool2D(3)(_images(2)),
                "avg_pool2d: kernel 3x3, stride 3, padding 0 on a 2x2",
                id="AvgPool2D-map-smaller-than-kernel",
            ),
            pytest.param(
                lambda: F.conv2d(_images(1), _filters(3), None, stride=-1),
                "conv2d: kernel 3x3, stride -1, padding 0 on a 1x1",
                id="conv2d-negative-stride",
            ),
            pytest.param(
                lambda: F.conv2d(_images(2), _filters(5), None, padding=1),
                "conv2d: kernel 5x5, stride 1, padding 1 on a 2x2",
                id="conv2d-kernel-larger-than-padded-input",
            ),
            pytest.param(
                lambda: F.conv2d(_images(4), _filters(3), None, padding=-1),
                "conv2d: kernel 3x3, stride 1, padding -1 on a 4x4",
                id="conv2d-negative-padding",
            ),
            pytest.param(
                lambda: F.depthwise_conv2d(_images(4), _filters(3), None, stride=0),
                "depthwise_conv2d: kernel 3x3, stride 0, padding 0 on a 4x4",
                id="depthwise-stride-0",
            ),
            pytest.param(
                lambda: F.depthwise_conv2d(_images(2), _filters(3), None),
                "depthwise_conv2d: kernel 3x3, stride 1, padding 0 on a 2x2",
                id="depthwise-kernel-larger-than-input",
            ),
        ],
    )
    def test_bad_window_raises_with_its_geometry(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_window_that_exactly_fits_is_accepted(self):
        assert F.max_pool2d(_images(2), 2).shape == (1, 1, 1, 1)
        assert F.avg_pool2d(_images(3), 3, stride=5).shape == (1, 1, 1, 1)
        assert F.conv2d(_images(1), _filters(3), None, padding=1).shape == (1, 1, 1, 1)


class TestBatchNorm2DFunctional:
    def test_normalises_batch_in_training_mode(self, rng):
        x_val = rng.normal(3.0, 2.0, size=(8, 4, 5, 5)).astype(np.float32)
        x = Tensor(x_val)
        gamma = Parameter(np.ones(4, dtype=np.float32))
        beta = Parameter(np.zeros(4, dtype=np.float32))
        out = F.batch_norm_2d(
            x, gamma, beta, x_val.mean(axis=(0, 2, 3)), x_val.var(axis=(0, 2, 3)), 1e-5, True
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), np.ones(4), atol=1e-3)

    def test_eval_mode_uses_given_stats(self):
        x = Tensor(np.full((2, 1, 2, 2), 10.0, dtype=np.float32))
        gamma = Parameter(np.ones(1, dtype=np.float32))
        beta = Parameter(np.zeros(1, dtype=np.float32))
        out = F.batch_norm_2d(x, gamma, beta, np.array([4.0]), np.array([4.0]), 0.0, False)
        np.testing.assert_allclose(out.data, np.full((2, 1, 2, 2), 3.0), rtol=1e-5)

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            F.batch_norm_2d(
                Tensor(np.zeros((2, 3))),
                Parameter(np.ones(3, dtype=np.float32)),
                Parameter(np.zeros(3, dtype=np.float32)),
                np.zeros(3),
                np.ones(3),
                1e-5,
                True,
            )
