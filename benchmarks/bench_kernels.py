"""Bench: kernel-level performance of the ``repro.nn`` hot path.

Times the vectorized (``fast``) kernels against their baselines and writes
``benchmarks/results/BENCH_kernel_perf.json``:

* ``im2col`` — the fast-mode gather vs the seed ``im2col_reference`` loop
  (gated: must be >= 1.2x on every shape).  Wide maps take the window-view
  copy; maps whose output rows are shorter than ``_NARROW_ROW`` (the deep
  layers' 2x2 and 4x4 maps, and 2x2/s2 pooling of an 8x8 map) take the
  cached flat-index gather;
* ``col2im`` — the fast-mode fold vs ``col2im_reference`` (report-only):
  wide maps run the same strided offset loop as the seed, only the layout
  differs; narrow maps take the flat-index fold, which here includes the
  copy of ``cols`` into a zero-column buffer that the backward passes skip;
* ``fused_loss`` — fused softmax-CE vs the composed log-softmax expression
  (gated);
* ``max_pool2d`` — the ``no_grad`` 2x2 max-pool forward (a strided window
  maximum) vs an argmax-gather oracle (seed patches, ``argmax``, gather at
  the argmax) on ReLU outputs: the hardware campaign's two batch-64 pooling
  inputs (gated) and a one-image request (report-only), plus a training
  forward+backward row, where the argmax is taken, against ``reference``
  mode (report-only).

The CI smoke gate is 1.2x so container timing noise cannot flake the job.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bench_common import write_bench_json
from repro.nn import Tensor, no_grad, use_kernel_mode
from repro.nn.functional import (
    col2im,
    col2im_reference,
    im2col,
    im2col_reference,
    log_softmax,
    max_pool2d,
    softmax_cross_entropy,
)

GATE_MIN_SPEEDUP = 1.2

# (label, (n, c, h, w), (kh, kw), stride, padding) — VGG/ResNet conv geometries,
# then the narrow maps the study's ensemble members reach at 16x16 inputs.
CONV_SHAPES = [
    ("conv3x3_early", (32, 8, 32, 32), (3, 3), 1, 1),
    ("conv3x3_mid", (32, 32, 16, 16), (3, 3), 1, 1),
    ("conv3x3_late", (32, 64, 8, 8), (3, 3), 1, 1),
    ("conv3x3_2x2_c96", (32, 96, 2, 2), (3, 3), 1, 1),
    ("conv3x3_2x2_c32", (32, 32, 2, 2), (3, 3), 1, 1),
    ("conv3x3_4x4_c16", (32, 16, 4, 4), (3, 3), 1, 1),
    ("pool2x2_s2_8x8", (64, 16, 8, 8), (2, 2), 2, 0),
]

#: (label, (n, c, h, w), gated) — 2x2/s2 max-pool inputs: the hardware
#: campaign's ConvNet pools at batch 64, then a one-image request.
POOL_SHAPES = [
    ("pool2x2_64x8x16x16", (64, 8, 16, 16), True),
    ("pool2x2_64x16x8x8", (64, 16, 8, 8), True),
    ("pool2x2_1x8x16x16", (1, 8, 16, 16), False),
]
POOL_TRAIN_SHAPE = (32, 8, 16, 16)


def _best_ms(fn, reps: int = 10) -> float:
    fn()  # warm-up: page in buffers, trigger any lazy imports
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _bench_im2col() -> dict:
    rng = np.random.default_rng(0)
    section = {}
    for label, x_shape, (kh, kw), stride, padding in CONV_SHAPES:
        x = rng.normal(size=x_shape).astype(np.float32)
        with use_kernel_mode("fast"):
            fast_ms = _best_ms(lambda: im2col(x, kh, kw, stride, padding))
        ref_ms = _best_ms(lambda: im2col_reference(x, kh, kw, stride, padding))
        section[label] = {
            "fast_ms": round(fast_ms, 4),
            "reference_ms": round(ref_ms, 4),
            "speedup": round(ref_ms / fast_ms, 3),
        }
    return section


def _bench_col2im() -> dict:
    rng = np.random.default_rng(1)
    section = {}
    for label, (n, c, h, w), (kh, kw), stride, padding in CONV_SHAPES:
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (w + 2 * padding - kw) // stride + 1
        cols_new = rng.normal(size=(n, c * kh * kw, out_h * out_w)).astype(np.float32)
        cols_old = np.ascontiguousarray(
            cols_new.transpose(0, 2, 1).reshape(n * out_h * out_w, c * kh * kw)
        )
        new_ms = _best_ms(lambda: col2im(cols_new, (n, c, h, w), kh, kw, stride, padding))
        ref_ms = _best_ms(
            lambda: col2im_reference(cols_old, (n, c, h, w), kh, kw, stride, padding)
        )
        section[label] = {
            "fast_ms": round(new_ms, 4),
            "reference_ms": round(ref_ms, 4),
            "speedup": round(ref_ms / new_ms, 3),
        }
    return section


def _bench_fused_loss() -> dict:
    rng = np.random.default_rng(3)
    logits_data = rng.normal(size=(256, 43)).astype(np.float32)  # GTSRB-sized batch
    targets = np.eye(43, dtype=np.float32)[rng.integers(0, 43, 256)]

    def fused():
        logits = Tensor(logits_data, requires_grad=True)
        softmax_cross_entropy(logits, targets).backward()

    def composed():
        logits = Tensor(logits_data, requires_grad=True)
        loss = -((log_softmax(logits, axis=1) * Tensor(targets)).sum(axis=1).mean())
        loss.backward()

    with use_kernel_mode("fast"):
        fused_ms = _best_ms(fused, reps=20)
    composed_ms = _best_ms(composed, reps=20)
    return {
        "fused_ms": round(fused_ms, 4),
        "composed_ms": round(composed_ms, 4),
        "speedup": round(composed_ms / fused_ms, 3),
    }


def _relu_output(rng, shape) -> np.ndarray:
    """A ReLU output, the input every pooling layer of the study models sees."""
    return Tensor(rng.normal(size=shape).astype(np.float32)).relu().data


def _argmax_pool(x: np.ndarray, kernel: int) -> np.ndarray:
    """The argmax-gather oracle: seed patches, first maximum, gather."""
    n, c, h, w = x.shape
    patches = im2col_reference(x, kernel, kernel, kernel, 0).reshape(
        n, h // kernel, w // kernel, c, kernel * kernel
    )
    first_max = patches.argmax(axis=-1)[..., None]
    return np.take_along_axis(patches, first_max, axis=-1)[..., 0].transpose(0, 3, 1, 2)


def _bench_max_pool2d() -> dict:
    rng = np.random.default_rng(4)
    section = {}
    for label, shape, gated in POOL_SHAPES:
        x = _relu_output(rng, shape)

        def forward():
            with no_grad():
                return max_pool2d(Tensor(x), 2)

        with use_kernel_mode("fast"):
            same = forward().data.view(np.uint32) == _argmax_pool(x, 2).view(np.uint32)
            assert same.all(), f"max_pool2d {label}: forward differs from the argmax element"
            fast_ms = _best_ms(forward)
        oracle_ms = _best_ms(lambda: _argmax_pool(x, 2))
        section[label] = {
            "fast_ms": round(fast_ms, 4),
            "oracle_ms": round(oracle_ms, 4),
            "speedup": round(oracle_ms / fast_ms, 3),
            "gated": gated,
        }

    x = _relu_output(rng, POOL_TRAIN_SHAPE)
    n, c, h, w = POOL_TRAIN_SHAPE
    grad = rng.normal(size=(n, c, h // 2, w // 2)).astype(np.float32)

    def train_step():
        images = Tensor(x, requires_grad=True)
        max_pool2d(images, 2).backward(grad)

    with use_kernel_mode("fast"):
        fast_ms = _best_ms(train_step)
    with use_kernel_mode("reference"):
        ref_ms = _best_ms(train_step)
    section["train_fwd_bwd_32x8x16x16"] = {
        "fast_ms": round(fast_ms, 4),
        "reference_ms": round(ref_ms, 4),
        "speedup": round(ref_ms / fast_ms, 3),
        "gated": False,
    }
    return section


def test_kernel_perf():
    payload = {
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "im2col": _bench_im2col(),
        "col2im": _bench_col2im(),
        "fused_loss": _bench_fused_loss(),
        "max_pool2d": _bench_max_pool2d(),
    }
    out = write_bench_json("BENCH_kernel_perf.json", "kernel_perf", payload)
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {out}]")

    # Gates.  im2col: every conv gather must beat the seed loop.
    for label, row in payload["im2col"].items():
        assert row["speedup"] >= GATE_MIN_SPEEDUP, f"im2col {label}: {row}"
    assert payload["fused_loss"]["speedup"] >= GATE_MIN_SPEEDUP, payload["fused_loss"]
    # max_pool2d: the campaign-sized forwards must beat the argmax gather.
    for label, row in payload["max_pool2d"].items():
        if row["gated"]:
            assert row["speedup"] >= GATE_MIN_SPEEDUP, f"max_pool2d {label}: {row}"
