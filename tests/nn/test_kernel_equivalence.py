"""Equivalence tests for the vectorized kernel pass.

The ``fast`` kernels (window-view gathers, fused softmax-CE, workspace
buffers, direct pooling scatters) must be *bitwise* interchangeable with the
``reference`` composition — the study archive comparator
(:func:`repro.experiments.persistence.results_equivalent`) uses exact float
equality, so anything weaker would make kernel choice visible in results.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Tensor, kernel_mode, no_grad, use_kernel_mode
from repro.nn import functional as F
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
from repro.nn.layers import BatchNorm2D
from repro.nn.ops import OP_REGISTRY, OpCtx

from ..conftest import same_bits

#: Output rows shorter than this take the flat-index patch path.
NARROW = F._NARROW_ROW

# (input shape, kernel kwargs) grids deliberately include stride 2, padding,
# non-square kernels, non-square images, and batch size 1.  The second block
# is the geometries the study's ensemble members (paper §III-B5) train on at
# 16x16 inputs, batch 32, plus the rows either side of the narrow-map
# threshold; every case with output rows shorter than NARROW runs the
# flat-index gather, and its backward the flat-index fold wherever it folds
# (disjoint pooling windows scatter instead).
CONV_CASES = [
    ((2, 3, 9, 9), (4, 3, 3, 3), dict(stride=1, padding=1)),
    ((2, 3, 9, 9), (4, 3, 3, 3), dict(stride=2, padding=1)),
    ((1, 2, 8, 7), (3, 2, 3, 2), dict(stride=2, padding=1)),  # non-square kernel
    ((1, 1, 5, 5), (2, 1, 1, 1), dict(stride=1, padding=0)),  # 1x1 kernel
    ((3, 2, 11, 11), (2, 2, 5, 5), dict(stride=3, padding=2)),
    ((32, 16, 1, 1), (16, 16, 3, 3), dict(stride=1, padding=1)),  # VGG16 deepest maps
    ((32, 16, 2, 2), (32, 16, 3, 3), dict(stride=1, padding=1)),
    ((32, 8, 4, 4), (16, 8, 3, 3), dict(stride=1, padding=1)),
    ((32, 16, 2, 2), (24, 16, 1, 1), dict(stride=1, padding=0)),  # MobileNet pointwise
    ((32, 8, 8, 8), (16, 8, 3, 3), dict(stride=2, padding=1)),  # ResNet downsampling
    ((32, 4, 16, 16), (8, 4, 3, 3), dict(stride=1, padding=1)),  # wide: window copy
    ((4, 3, NARROW - 1, NARROW - 1), (4, 3, 3, 3), dict(stride=1, padding=1)),
    ((4, 3, NARROW, NARROW), (4, 3, 3, 3), dict(stride=1, padding=1)),
]
DEPTHWISE_CASES = [
    ((2, 3, 9, 9), dict(stride=1, padding=1)),
    ((1, 4, 8, 7), dict(stride=2, padding=1)),
    ((2, 2, 7, 7), dict(stride=3, padding=0)),
    ((32, 16, 4, 4), dict(stride=1, padding=1)),  # MobileNet depthwise
    ((4, 3, NARROW - 1, NARROW - 1), dict(stride=1, padding=1)),
    ((4, 3, NARROW, NARROW), dict(stride=1, padding=1)),
]
POOL_CASES = [
    ((2, 3, 8, 8), dict(kernel=2, stride=2)),  # disjoint (fast scatter path)
    ((1, 2, 8, 7), dict(kernel=3, stride=2)),  # overlapping windows
    ((2, 1, 9, 9), dict(kernel=3, stride=3)),
    ((1, 4, 7, 7), dict(kernel=2, stride=3)),  # gaps between windows
    ((32, 8, 8, 8), dict(kernel=2, stride=2)),  # study models' pooling
    ((2, 3, 2 * NARROW - 1, 2 * NARROW - 1), dict(kernel=3, stride=2)),  # overlap, narrow
    ((2, 3, 2 * NARROW + 1, 2 * NARROW + 1), dict(kernel=3, stride=2)),  # overlap, wide
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

    def test_invalid_mode_rejected(self):
        # "legacy" named the deleted seed kernels; it is now just unknown.
        for mode in ("turbo", "legacy"):
            with pytest.raises(ValueError, match=r"choices: \('fast', 'reference', 'compiled'\)"):
                use_kernel_mode(mode)
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
        assert same_bits(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert same_bits(g_fast, g_ref)

    def test_no_bias_conv_equivalent(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        fast = _run("fast", conv2d, [x, w, None], stride=1, padding=1)
        ref = _run("reference", conv2d, [x, w, None], stride=1, padding=1)
        assert same_bits(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert same_bits(g_fast, g_ref)


class TestDepthwiseEquivalence:
    @pytest.mark.parametrize("x_shape,kwargs", DEPTHWISE_CASES)
    def test_fast_matches_reference_bitwise(self, x_shape, kwargs):
        rng = np.random.default_rng(21)
        c = x_shape[1]
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        b = rng.normal(size=(c,)).astype(np.float32)
        fast = _run("fast", depthwise_conv2d, [x, w, b], **kwargs)
        ref = _run("reference", depthwise_conv2d, [x, w, b], **kwargs)
        assert same_bits(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert same_bits(g_fast, g_ref)


#: Maps with more than one and fewer than this many pixels take the
#: small-map forms of training batch norm and depthwise convolution.
SMALL_MAP = F._SMALL_MAP
#: ... when the batch holds at least this many maps (samples x channels).
MIN_MAPS = F._SMALL_MAP_MIN_MAPS

# Training batch-norm inputs: the ensemble's 2x2 maps at batch 32, non-square
# maps under 8 pixels, both sides of the 8-pixel threshold and of the map
# floor, one channel (whose batch and pixel axes NumPy merges), and a wide
# map as the control.
BN_TRAIN_CASES = [
    (32, 96, 2, 2),
    (32, 192, 2, 2),
    (32, 24, 1, 2),
    (16, 48, 1, 3),
    (8, 96, 2, 3),
    (4, 200, 1, 7),
    (8, 96, 2, 4),  # 8 pixels
    (8, 96, 3, 3),  # 9 pixels
    (8, 96, 1, 1),
    (1, MIN_MAPS, 2, 2),
    (32, MIN_MAPS // 32 - 1, 2, 2),  # under the map floor
    (MIN_MAPS, 1, 2, 2),
    (16, 12, 16, 16),
]
# (input shape, stride): depthwise 3x3 kernels, padding 1.  Mirrors the
# batch-norm grid, plus MobileNet's stride-2 step from 4x4 to 2x2.
SMALL_DEPTHWISE_CASES = [
    ((32, 96, 2, 2), 1),
    ((32, 192, 2, 2), 1),
    ((32, 24, 4, 4), 2),
    ((32, 24, 1, 2), 1),
    ((32, 24, 1, 3), 1),
    ((32, 24, 2, 3), 1),
    ((32, 24, 3, 2), 2),
    ((32, 24, 1, 1), 1),
    ((32, 24, 2, 4), 1),  # 8 pixels
    ((32, 24, 3, 3), 1),  # 9 pixels
    ((32, 24, 2, 2), 2),  # 1x1 output
    ((1, MIN_MAPS, 2, 3), 1),
    ((MIN_MAPS, 1, 2, 2), 1),
]
KINDS = ["normal", "zeros", "special"]


def _kind_grid(kind, shape, rng):
    """``normal`` draws; ``zeros`` mixes +-0.0 with a few values, so sums
    and products hit signed zeros; ``special`` puts -0.0, +-inf and NaNs of
    both signs among the normal draws."""
    x = rng.normal(size=shape).astype(np.float32)
    if kind == "zeros":
        x = rng.choice(np.array([-0.0, 0.0, -1.0, 1.0, 0.5], np.float32), size=shape)
    elif kind == "special":
        u = rng.random(shape)
        for lo, hi, value in [
            (0.0, 0.1, -0.0), (0.1, 0.12, np.inf), (0.12, 0.14, -np.inf),
            (0.14, 0.15, np.nan), (0.15, 0.16, -np.nan),
        ]:
            x = np.where((u >= lo) & (u < hi), np.float32(value), x)
    return x.astype(np.float32)


def _bn_train_eager(mode, x, gamma, beta, grad):
    """One eager training-mode batch-norm step: outputs, gradients and the
    running statistics it leaves."""
    with use_kernel_mode(mode):
        bn = BatchNorm2D(x.shape[1])
        bn.gamma.data[...] = gamma
        bn.beta.data[...] = beta
        t = Tensor(x.copy(), requires_grad=True)
        out = bn(t)
        out.backward(grad)
        return [out.data, t.grad, bn.gamma.grad, bn.beta.grad, bn.running_mean, bn.running_var]


def _armed_step(op, inputs, kwargs, grad, before=lambda: None):
    """Apply + vjp on one persistent ctx under ``compiled``, twice (the
    second call replays into the armed buffers); the second call's values."""
    ctx = OpCtx(persistent=True)
    with use_kernel_mode("compiled"):
        for _ in range(2):
            before()
            out = op.apply(ctx, inputs, kwargs).copy()
            grads = {}
            op.vjp(ctx, grad, (True,) * len(inputs), lambda i, g: grads.__setitem__(i, g.copy()))
    return [out] + [grads[i].reshape(np.shape(a)) for i, a in enumerate(inputs)]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, 0 * inf
class TestSmallMapBatchNorm:
    """Training batch norm: fast, compiled and armed replay equal
    ``reference`` bit for bit on outputs, every gradient and the running
    statistics, including signed zeros, infinities and NaNs."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", BN_TRAIN_CASES, ids=lambda s: "x".join(map(str, s)))
    def test_modes_match_reference_bitwise(self, shape, kind):
        rng = np.random.default_rng(91)
        x = _kind_grid(kind, shape, rng)
        gamma, beta = _kind_grid(kind, shape[1:2], rng), _kind_grid(kind, shape[1:2], rng)
        grad = _kind_grid(kind, shape, rng)
        want = _bn_train_eager("reference", x, gamma, beta, grad)
        for mode in ("fast", "compiled"):
            got = _bn_train_eager(mode, x, gamma, beta, grad)
            for i, (g, w) in enumerate(zip(got, want)):
                assert same_bits(g, w), (mode, i)
        bn = BatchNorm2D(shape[1])

        def reset():
            bn.running_mean[...] = 0.0
            bn.running_var[...] = 1.0

        got = _armed_step(
            OP_REGISTRY["batch_norm_2d_train"], (x, gamma, beta), {"bn": bn}, grad, reset
        )
        got += [bn.running_mean, bn.running_var]
        for i, (g, w) in enumerate(zip(got, want)):
            assert same_bits(g, w), ("armed", i)

    @pytest.mark.parametrize("shape", BN_TRAIN_CASES, ids=lambda s: "x".join(map(str, s)))
    def test_batch_statistics_are_numpys(self, shape):
        # The oracle itself: every mode's running statistics are one
        # momentum step from np.mean and np.var of the batch.
        rng = np.random.default_rng(92)
        x = _kind_grid("normal", shape, rng)
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        for mode in ("fast", "reference"):
            with use_kernel_mode(mode):
                bn = BatchNorm2D(shape[1])
                bn(Tensor(x))
            m = bn.momentum
            assert same_bits(bn.running_mean, (1 - m) * np.float32(0.0) + m * mean)
            assert same_bits(bn.running_var, (1 - m) * np.float32(1.0) + m * var)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, 0 * inf
class TestSmallMapDepthwise:
    """Depthwise convolution, the same contract as :class:`TestSmallMapBatchNorm`."""

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "x_shape,stride", SMALL_DEPTHWISE_CASES,
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"s{v}",
    )
    def test_modes_match_reference_bitwise(self, x_shape, stride, kind, bias):
        rng = np.random.default_rng(93)
        c = x_shape[1]
        x = _kind_grid(kind, x_shape, rng)
        w = _kind_grid(kind, (c, 1, 3, 3), rng)
        b = _kind_grid(kind, (c,), rng) if bias else None
        out_hw = [F.conv_output_size(size, 3, stride, 1) for size in x_shape[2:]]
        grad = _kind_grid(kind, (x_shape[0], c, *out_hw), rng)
        arrays = [x, w, b]
        kwargs = dict(stride=stride, padding=1)

        def eager(mode):
            with use_kernel_mode(mode):
                tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays if a is not None]
                bias = tensors[2] if b is not None else None
                out = depthwise_conv2d(tensors[0], tensors[1], bias, **kwargs)
                out.backward(grad)
                return [out.data] + [t.grad for t in tensors]

        want = eager("reference")
        for mode in ("fast", "compiled"):
            for i, (g, e) in enumerate(zip(eager(mode), want)):
                assert same_bits(g, e), (mode, i)
        inputs = tuple(a for a in arrays if a is not None)
        got = _armed_step(OP_REGISTRY["depthwise_conv2d"], inputs, kwargs, grad)
        for i, (g, e) in enumerate(zip(got, want)):
            assert same_bits(g, e), ("armed", i)


class TestSmallMapSelection:
    """The grids above check the small-map forms only if fast and compiled
    take them exactly on maps of 2 to 7 pixels (batches of at least
    ``MIN_MAPS`` maps, more than one channel) and ``reference`` never does,
    on a NumPy whose sums the forms copy.  Both forms ask for scratch by
    key; only the small-map forms ask for these keys."""

    SHAPES = [(1, 1), (1, 2), (2, 2), (1, 7), (2, 4), (3, 3)]

    def _keys(self, monkeypatch):
        keys = []
        buffer = F._Temps.buffer
        monkeypatch.setattr(
            F._Temps, "buffer", lambda temps, key, *a: keys.append(key) or buffer(temps, key, *a)
        )
        return keys

    @pytest.mark.parametrize("mode", ["fast", "compiled", "reference"])
    @pytest.mark.parametrize("hw", SHAPES, ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_batch_norm(self, mode, hw, monkeypatch):
        keys = self._keys(monkeypatch)
        rng = np.random.default_rng(94)
        for n, c in [(32, MIN_MAPS // 32), (32, MIN_MAPS // 32 - 1), (MIN_MAPS, 1)]:
            shape = (n, c, *hw)
            keys.clear()
            _bn_train_eager(mode, *(_kind_grid("normal", s, rng) for s in (shape, (c,), (c,), shape)))
            small = mode != "reference" and 1 < hw[0] * hw[1] < SMALL_MAP
            small = small and n * c >= MIN_MAPS and c > 1 and F._orders_copied()
            assert ("partial" in keys, "operand" in keys) == (small, small), shape

    @pytest.mark.parametrize("mode", ["fast", "compiled", "reference"])
    @pytest.mark.parametrize("hw", SHAPES, ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_depthwise(self, mode, hw, monkeypatch):
        keys = self._keys(monkeypatch)
        rng = np.random.default_rng(95)
        c = MIN_MAPS // 32
        x = rng.normal(size=(32, c, *hw)).astype(np.float32)
        w = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        _run(mode, depthwise_conv2d, [x, w, None], stride=1, padding=1)
        # A 1x1 map has a 1x1 output, which keeps einsum.
        small = mode != "reference" and 1 < hw[0] * hw[1] < SMALL_MAP and F._orders_copied()
        assert ("products" in keys, "terms" in keys, "weights" in keys) == (small,) * 3

    def test_probe_rejects_sums_rounded_once(self):
        # An einsum that fuses multiply and add (or accumulates wider)
        # rounds each sum once; the probe must see the difference.
        def fused(spec, a, b):
            return np.einsum(spec, a.astype(np.float64), b.astype(np.float64)).astype(np.float32)

        assert not F._sums_match(fused)

    def test_no_form_where_numpy_sums_otherwise(self, monkeypatch):
        keys = self._keys(monkeypatch)
        monkeypatch.setattr(F, "_orders_copied", lambda: False)
        rng = np.random.default_rng(96)
        shape = (32, MIN_MAPS // 32, 2, 2)
        arrays = [_kind_grid("normal", s, rng) for s in (shape, shape[1:2], shape[1:2], shape)]
        got = _bn_train_eager("fast", *arrays)
        want = _bn_train_eager("reference", *arrays)
        assert all(same_bits(g, e) for g, e in zip(got, want))
        w = rng.normal(size=(shape[1], 1, 3, 3)).astype(np.float32)
        fast = _run("fast", depthwise_conv2d, [arrays[0], w, None], stride=1, padding=1)
        ref = _run("reference", depthwise_conv2d, [arrays[0], w, None], stride=1, padding=1)
        assert same_bits(fast[0], ref[0])
        assert all(same_bits(g, e) for g, e in zip(fast[1], ref[1]))
        assert not {"partial", "operand", "products", "terms", "weights"} & set(keys)


class TestPoolEquivalence:
    @pytest.mark.parametrize("x_shape,kwargs", POOL_CASES)
    @pytest.mark.parametrize("op", [max_pool2d, avg_pool2d])
    def test_fast_matches_reference_bitwise(self, op, x_shape, kwargs):
        rng = np.random.default_rng(31)
        x = rng.normal(size=x_shape).astype(np.float32)
        fast = _run("fast", op, [x], **kwargs)
        ref = _run("reference", op, [x], **kwargs)
        assert same_bits(fast[0], ref[0])
        assert same_bits(fast[1][0], ref[1][0])


#: The hardware campaign's pooling geometries (ConvNet at 16x16, batch 64).
CAMPAIGN_POOL_CASES = [
    ((64, 8, 16, 16), dict(kernel=2, stride=2)),
    ((64, 16, 8, 8), dict(kernel=2, stride=2)),
]
#: (input shape, pool kwargs, dtype): every grid geometry in float32, plus a
#: float64 case because ``Tensor`` keeps float64 for gradient checks.
TIE_CASES = [
    pytest.param(
        shape,
        kwargs,
        dtype,
        id="x".join(map(str, shape)) + f"-k{kwargs['kernel']}s{kwargs['stride']}-{dtype.__name__}",
    )
    for shape, kwargs, dtype in [
        *((shape, kwargs, np.float32) for shape, kwargs in POOL_CASES + CAMPAIGN_POOL_CASES),
        ((32, 8, 8, 8), dict(kernel=2, stride=2), np.float64),
    ]
]


def _tie_grid(kind, shape, dtype, seed=81):
    """Inputs whose window maxima tie: signed zeros, infinities, or NaNs.

    ``zeros`` mixes -0.0 and +0.0 with some -1.0, so most windows have a
    zero maximum of either sign; ``infs`` adds +-inf and +-1.0; ``nans``
    puts NaNs with distinct payloads and both signs into a quarter of the
    zeros grid.
    """
    rng = np.random.default_rng(seed)
    if kind == "infs":
        palette = [-0.0, 0.0, -1.0, 1.0, -np.inf, np.inf]
    else:
        palette = [-0.0, 0.0, -1.0]
    x = rng.choice(np.array(palette, dtype=dtype), size=shape)
    if kind == "nans":
        unsigned = np.dtype(f"u{np.dtype(dtype).itemsize}")
        sign = unsigned.type(1) << unsigned.type(8 * unsigned.itemsize - 1)
        payload = rng.integers(1, 1 << 20, size=shape).astype(unsigned)
        nan_bits = np.array(np.nan, dtype).view(unsigned) | payload
        nan_bits |= np.where(rng.random(shape) < 0.5, sign, 0).astype(unsigned)
        x = np.where(rng.random(shape) < 0.25, nan_bits.view(dtype), x)
    return x


def _argmax_pool_oracle(x, kernel, stride):
    """The element ``argmax`` selects in each window: seed patches, argmax, gather."""
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, 0)
    out_w = F.conv_output_size(w, kernel, stride, 0)
    patches = im2col_reference(x, kernel, kernel, stride, 0).reshape(
        n, out_h, out_w, c, kernel * kernel
    )
    first_max = patches.argmax(axis=-1)[..., None]
    return np.take_along_axis(patches, first_max, axis=-1)[..., 0].transpose(0, 3, 1, 2)


class TestMaxPoolTieRule:
    """Every max-pool forward returns, bit for bit, the element ``argmax``
    picks, which is where the backward routes the gradient: a NaN is the
    maximum and the first NaN wins, and a zero maximum keeps the sign of
    the window's first zero."""

    @pytest.mark.parametrize("kind", ["zeros", "infs", "nans"])
    @pytest.mark.parametrize("x_shape,kwargs,dtype", TIE_CASES)
    def test_forward_is_the_argmax_element(self, x_shape, kwargs, dtype, kind):
        x = _tie_grid(kind, x_shape, dtype)
        want = _argmax_pool_oracle(x, **kwargs)
        for mode in ("fast", "reference"):
            with use_kernel_mode(mode):
                with no_grad():
                    assert same_bits(max_pool2d(Tensor(x), **kwargs).data, want), mode
                assert same_bits(max_pool2d(Tensor(x, requires_grad=True), **kwargs).data, want)
        op, ctx = OP_REGISTRY["max_pool2d"], OpCtx(persistent=True)
        for _ in range(2):  # the second call replays into the armed buffers
            assert same_bits(op.apply(ctx, (x,), kwargs), want), "armed"

    @pytest.mark.parametrize("kind", ["zeros", "infs", "nans"])
    @pytest.mark.parametrize("x_shape,kwargs,dtype", TIE_CASES)
    def test_gradients_match_reference_mode(self, x_shape, kwargs, dtype, kind):
        x = _tie_grid(kind, x_shape, dtype)
        out_shape = _argmax_pool_oracle(x, **kwargs).shape
        g = np.random.default_rng(82).normal(size=out_shape).astype(dtype)

        def eager(mode):
            with use_kernel_mode(mode):
                t = Tensor(x, requires_grad=True)
                max_pool2d(t, **kwargs).backward(g)
                return t.grad

        want = eager("reference")
        assert same_bits(eager("fast"), want)
        op, ctx = OP_REGISTRY["max_pool2d"], OpCtx(persistent=True)
        for _ in range(2):
            grads = []
            op.apply(ctx, (x,), kwargs)
            op.vjp(ctx, g, (True,), lambda i, grad: grads.append(grad.copy()))
            assert len(grads) == 1 and same_bits(grads[0], want), "armed"


class TestMaxPoolArgmaxPath:
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_argmax_patches_are_gathered_only_by_the_backward(self, mode, monkeypatch):
        # The forward is a strided window maximum; only a pass with a
        # backward pays for the patch gather that the argmax needs.
        calls = []
        gather = F.im2col
        monkeypatch.setattr(F, "im2col", lambda *a, **k: calls.append("im2col") or gather(*a, **k))
        x = np.random.default_rng(83).normal(size=(2, 3, 8, 8)).astype(np.float32)
        with use_kernel_mode(mode):
            with no_grad():
                max_pool2d(Tensor(x), kernel=2)
            assert calls == []
            t = Tensor(x, requires_grad=True)
            out = max_pool2d(t, kernel=2)
            assert calls == []
            out.backward(np.ones_like(out.data))
        assert calls == ["im2col"]


class TestNarrowPathSelection:
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_flat_index_path_runs_on_narrow_maps_in_fast_mode_only(self, mode, monkeypatch):
        # The grids above compare fast against reference; that only checks
        # the flat-index kernels if fast takes them on narrow maps and
        # reference never does.
        calls = []
        gather, fold = F._gather_patches, F._fold_rows
        monkeypatch.setattr(F, "_gather_patches", lambda *a: calls.append("gather") or gather(*a))
        monkeypatch.setattr(F, "_fold_rows", lambda *a: calls.append("fold") or fold(*a))
        rng = np.random.default_rng(71)
        for size in (NARROW - 1, NARROW):
            x = rng.normal(size=(2, 3, size, size)).astype(np.float32)
            w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
            calls.clear()
            _run(mode, conv2d, [x, w, None], stride=1, padding=1)
            narrow = mode == "fast" and size < NARROW
            assert calls == (["gather", "fold"] if narrow else [])


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

        assert same_bits(fused.data, composed.data)
        assert same_bits(logits_fused.grad, logits_composed.grad)

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

        assert same_bits(fused.data, composed.data)
        assert same_bits(logits_fused.grad, logits_composed.grad)

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
            assert same_bits(new.transpose(0, 2, 1).reshape(old.shape), old)

    def test_im2col_strided_gather_matches_window_view(self):
        # Fast mode uses sliding_window_view only for stride 1; the strided
        # loop gather must produce identical patches.
        rng = np.random.default_rng(52)
        x = rng.normal(size=(2, 2, 9, 9)).astype(np.float32)
        with use_kernel_mode("fast"):
            fast = im2col(x, 3, 3, 2, 1)
        with use_kernel_mode("reference"):
            ref = im2col(x, 3, 3, 2, 1)
        assert same_bits(fast, ref)

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
            assert same_bits(p_fast, p_ref)

    @pytest.mark.parametrize("name", ["convnet", "mobilenet", "resnet18", "vgg11", "vgg16"])
    def test_ensemble_member_training_step_is_bitwise_identical(self, name):
        # The paper's five-member ensemble at the study's 16x16 inputs: the
        # deep layers convolve 1x1 to 4x4 maps, so most of their patch
        # gathers and folds take the narrow-map path in fast mode.
        from repro.nn import SGD
        from repro.nn.losses import CrossEntropy

        def step(mode):
            rng = np.random.default_rng(17)
            x = rng.normal(size=(32, 3, 16, 16)).astype(np.float32)
            y = np.eye(10, dtype=np.float32)[rng.integers(0, 10, 32)]
            with use_kernel_mode(mode):
                model = build_model(name, (3, 16, 16), 10, seed=17)
                model.train()
                opt = SGD(model.parameters(), lr=0.05)
                loss = CrossEntropy()(model(Tensor(x)), y)
                model.zero_grad()
                loss.backward()
                opt.step()
                return float(loss.data), [p.data.copy() for p in model.parameters()]

        loss_fast, params_fast = step("fast")
        loss_ref, params_ref = step("reference")
        assert loss_fast == loss_ref
        assert len(params_fast) == len(params_ref)
        for p_fast, p_ref in zip(params_fast, params_ref):
            assert same_bits(p_fast, p_ref)


class TestNarrowPathThreads:
    def test_concurrent_narrow_kernels_match_serial(self):
        # Serving runs inference on worker threads, so the cached patch
        # indices (the small-map depthwise form's permuted ones included)
        # are built and read concurrently.  A 1 us switch interval
        # interleaves the threads inside index construction and the gathers;
        # every thread's output and gradients must equal a serial run's.
        geometries = [
            ((32, 24, 2, 2), (24, 1, 3, 3), 1, 1),  # depthwise, small-map form
            ((4, 8, 2, 2), (8, 8, 3, 3), 1, 1),
            ((4, 4, 4, 4), (6, 4, 3, 3), 1, 1),
            ((4, 6, 1, 1), (4, 6, 3, 3), 1, 1),
            ((4, 4, 8, 8), (4, 4, 3, 3), 2, 1),
            ((4, 8, 2, 2), (4, 8, 1, 1), 1, 0),
            ((4, 3, 5, 5), (5, 3, 2, 2), 1, 0),
        ]
        rng = np.random.default_rng(61)
        cases = [
            (
                rng.normal(size=x_shape).astype(np.float32),
                rng.normal(size=w_shape).astype(np.float32),
                stride,
                padding,
            )
            for x_shape, w_shape, stride, padding in geometries
        ]

        def run_case(case):
            # Fast is the default mode, and every new thread starts in it:
            # the kernel mode is per thread, so the threads never set it.
            x, w, stride, padding = case
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            op = depthwise_conv2d if w.shape[1] == 1 and x.shape[1] > 1 else conv2d
            out = op(tx, tw, None, stride=stride, padding=padding)
            out.backward(np.ones_like(out.data))
            return out.data, [tx.grad, tw.grad]

        assert kernel_mode() == "fast"
        expected = [run_case(case) for case in cases]
        F._unfold_index.cache_clear()
        F._fold_index.cache_clear()
        F._offset_major_index.cache_clear()
        mismatches, errors = [], []
        deadline = time.monotonic() + 3.0

        def worker(offset):
            try:
                for i in range(4 * len(cases)):
                    if time.monotonic() > deadline:
                        return
                    k = (offset + i) % len(cases)
                    out, grads = run_case(cases[k])
                    want_out, want_grads = expected[k]
                    if not same_bits(out, want_out) or not all(
                        same_bits(g, e) for g, e in zip(grads, want_grads)
                    ):
                        mismatches.append(k)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
