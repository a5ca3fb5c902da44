"""Differentiable neural-network operations built on :class:`repro.nn.tensor.Tensor`.

All image ops use NCHW layout (batch, channels, height, width).  Convolutions
are implemented with im2col/col2im so that the heavy lifting happens inside a
single BLAS matmul — the standard trick for fast CPU convolutions and the one
that keeps the reproduction's training loops tractable on a laptop.

Kernel modes
------------
The hot-path kernels come in three modes, selected per thread for a block of
code by :class:`use_kernel_mode` (an :mod:`repro.nn.context` scope):

``fast`` (default)
    Vectorised patch extraction — a flat-index gather on narrow maps and
    ``numpy.lib.stride_tricks.sliding_window_view`` on wide ones (see
    :func:`im2col`) — the fused :func:`softmax_cross_entropy` tape node, and
    scratch-buffer reuse through :mod:`repro.nn.workspace`.
``reference``
    The loop-based patch extraction and the composed (unfused) loss, with no
    buffer reuse.  ``reference`` and ``fast`` share every GEMM shape and every
    floating-point operation order, so they produce **bitwise-identical**
    forward values and gradients — this is what lets the study harness swap
    kernels without perturbing a single result (``results_equivalent`` does
    exact float comparison).
``compiled``
    The ``fast`` kernels, plus :class:`repro.nn.trainer.Trainer` records one
    training step per feed shape and replays it as a static schedule
    (:mod:`repro.nn.compile`) — bitwise-identical to ``fast``.

All three modes use the same optimiser/trainer code and the same registry
ops; only the kernel bodies differ.  The max-pool forward is one strided
window maximum in every mode (:func:`_window_max`).

Patch layout
------------
``im2col`` produces ``(N, C*KH*KW, OH*OW)`` — channels-first patches kept
per-image.  Compared with the seed's flat ``(N*OH*OW, C*KH*KW)`` layout this
removes the big stage-B transpose copy on the forward path and makes the conv
output a contiguous NCHW reshape instead of a strided transpose, which is
where most of the measured speedup comes from.  The seed layout survives as
:func:`im2col_reference`/:func:`col2im_reference`, the oracles of the
layout-equivalence tests and of ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from .context import current_context, scope
from .ops import OpCtx, register_op
from .tensor import Tensor, _matmul_apply, _matmul_vjp, _unbroadcast, run_op
from .workspace import Workspace, get_workspace

__all__ = [
    "softmax",
    "log_softmax",
    "softmax_np",
    "softmax_cross_entropy",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm_2d",
    "batch_norm_2d_eval",
    "batch_norm_2d_train",
    "dropout_train",
    "im2col",
    "col2im",
    "im2col_reference",
    "col2im_reference",
    "conv_output_size",
    "KERNEL_MODES",
    "kernel_mode",
    "use_kernel_mode",
    "row_stable_inference",
    "row_stable_enabled",
    "dense",
    "kernel_tap",
    "kernel_tap_scope",
]


# ----------------------------------------------------------------------
# Kernel-mode dispatch
# ----------------------------------------------------------------------
KERNEL_MODES = ("fast", "reference", "compiled")

#: Modes that run the vectorised kernel bodies with workspace pooling.
#: ``compiled`` uses the identical kernels as ``fast``; it additionally lets
#: :class:`repro.nn.trainer.Trainer` record one step and replay a static
#: schedule for the rest (see :mod:`repro.nn.compile`).
_FAST_LIKE = ("fast", "compiled")


def kernel_mode() -> str:
    """Return the calling thread's kernel mode (``fast``, ``reference``, or ``compiled``)."""
    return current_context().kernels


class use_kernel_mode(scope):
    """Context manager that runs its body on the calling thread in kernel
    mode ``mode``; ``fast``, ``reference`` and ``compiled`` are
    bitwise-equivalent.

    >>> with use_kernel_mode("reference"):
    ...     loss = model_loss(...)
    """

    def __init__(self, mode: str) -> None:
        if mode not in KERNEL_MODES:
            raise ValueError(f"unknown kernel mode {mode!r}; choices: {KERNEL_MODES}")
        super().__init__(kernels=mode)

    def __enter__(self) -> "use_kernel_mode":
        if self.changes["kernels"] not in _FAST_LIKE:
            get_workspace().clear()  # no buffer reuse: drop this thread's cache
        return super().__enter__()


def _pool() -> Workspace | None:
    """The scratch-buffer arena, or None when buffer reuse is disabled."""
    return get_workspace() if current_context().kernels in _FAST_LIKE else None


# ----------------------------------------------------------------------
# Row-stable inference
# ----------------------------------------------------------------------
# BLAS gemm picks its kernel/blocking from the matrix shapes, so the result
# row for one sample in an ``(N, D) @ (D, K)`` product can differ in the last
# bit between N=1 and N=8.  Row-stable mode makes the batch-crossing matmuls
# (currently only :class:`~repro.nn.layers.Dense`) compute each sample as its
# own ``(1, D) @ (D, K)`` product via a batched gemm — bitwise identical to a
# single-sample call, at any coalesced batch size.  The serving paths
# (:mod:`repro.serve`) enter it around each forward so micro-batched
# predictions are bitwise-equal to one-at-a-time ``predict_logits`` calls.
# It holds only on the entering thread, as every context knob does.
def row_stable_enabled() -> bool:
    """Whether row-stable inference is active on the calling thread."""
    return current_context().row_stable


def row_stable_inference() -> scope:
    """Scope enabling row-stable (batch-size-invariant) inference.

    Inside the scope, forward passes produce per-sample results that do not
    depend on how samples were coalesced into batches: splitting a batch of 8
    into 8 singles (or any chunking in between) yields bitwise-identical rows.
    Only affects inference-shaped code paths; training (tape-recording) passes
    keep the plain gemm.
    """
    return scope(row_stable=True)


# ----------------------------------------------------------------------
# Kernel output taps
# ----------------------------------------------------------------------
# The hook point the hardware-fault injector (:mod:`repro.faults.hardware`)
# uses to corrupt activations: a callable ``tap(site, array) -> None`` that
# mutates a kernel op's fresh output in place.  The sites are the ``site=``
# of the :func:`~repro.nn.ops.register_op` calls below, and the registry runs
# the tap inside those ops, so eager steps, compiled replays and forward
# plans are struck alike.  Like every context knob a tap holds only on the
# thread that armed it.  With none armed a site op pays one context read and
# its outputs are bitwise-identical to a build without the hook.
def kernel_tap():
    """The active kernel output tap on the calling thread, or ``None``."""
    return current_context().tap


def kernel_tap_scope(fn) -> scope:
    """Scope installing ``fn`` as the kernel output tap on this thread.

    Scopes nest: entering replaces the current tap and exiting restores it,
    so an inner injection context cleanly shadows an outer one.
    """
    if not callable(fn):
        raise TypeError("kernel tap must be callable as tap(site, array)")
    return scope(tap=fn)


# ----------------------------------------------------------------------
# Dense
# ----------------------------------------------------------------------
def dense(x: Tensor, weight: Tensor, bias: Tensor | None, row_stable: bool = False) -> Tensor:
    """``x @ weight + bias`` as one op: a matmul then an add, float for float.

    ``row_stable`` runs each row of an ``(N, D)`` input as its own M=1 gemm
    of a batched matmul (see :func:`row_stable_inference`).
    """
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return run_op(_DENSE, inputs, {"row_stable": row_stable})


def _dense_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    x, w = inputs[0], inputs[1]
    if kwargs["row_stable"]:
        ctx.saved = (x, w)
        out3 = None
        if ctx.bufs is not None:
            out3 = ctx.buffer("out", (x.shape[0], 1, w.shape[1]), np.result_type(x, w))
        out = np.matmul(x[:, None, :], w, out=out3)[:, 0, :]
    else:
        out = _matmul_apply(ctx, (x, w), kwargs)
    if len(inputs) == 3:
        out += inputs[2]  # the add's bits, into the product's buffer
    return out


def _dense_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if len(needs) == 3 and needs[2]:
        acc(2, _unbroadcast(grad, grad.shape[-1:]))
    _matmul_vjp(ctx, grad, needs, acc)


_DENSE = register_op("dense", _dense_apply, _dense_vjp, site="dense")


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(logits: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Numerically stable softmax.

    ``temperature`` implements the distilled softmax of Hinton et al. used by
    the knowledge-distillation technique (paper §III-B4): ``T > 1`` softens the
    output distribution.
    """
    scaled = logits * (1.0 / temperature) if temperature != 1.0 else logits
    shifted = scaled - Tensor(scaled.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Numerically stable ``log(softmax(x))`` via the log-sum-exp trick."""
    scaled = logits * (1.0 / temperature) if temperature != 1.0 else logits
    shifted = scaled - Tensor(scaled.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax_np(logits: np.ndarray, axis: int = -1, temperature: float = 1.0) -> np.ndarray:
    """Stable softmax on a plain NumPy array (no tape).

    The single softmax used by every inference path — ``predict_proba``, the
    distillation teacher, label correction — so that temperature and
    stability handling cannot drift between them.  Performs exactly the same
    float32 operation sequence as :func:`softmax`, so switching a ``no_grad``
    call site from the Tensor version to this one does not change a bit.
    """
    x = np.asarray(logits)
    if temperature != 1.0:
        x = x * np.asarray(1.0 / temperature, dtype=np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray, temperature: float = 1.0) -> Tensor:
    """Fused softmax + cross-entropy: mean of ``-sum(targets * log_softmax(logits))``.

    A single tape node replacing the composed sub/exp/sum/log/mul/sum/mean/neg
    chain (forward via log-sum-exp, backward in closed form), with the
    distillation temperature folded in.  ``targets`` may be one-hot or soft
    distributions of shape ``(N, K)``.

    In ``fast`` kernel mode this runs fused; in other modes it falls back to
    the composed Tensor expression.  Both replicate the composed chain's
    float32 operation order exactly, so the loss value and the logit gradient
    are bitwise-identical across modes.
    """
    t = np.asarray(targets, dtype=np.float32)
    if logits.ndim != 2 or t.shape != tuple(logits.shape):
        raise ValueError(
            f"expected matching (N, K) logits and targets; got {logits.shape} and {t.shape}"
        )
    if current_context().kernels not in _FAST_LIKE:
        return -(log_softmax(logits, axis=1, temperature=temperature) * Tensor(t)).sum(
            axis=1
        ).mean()
    return run_op(_SOFTMAX_CE, (logits, Tensor(t)), {"temperature": temperature})


def _softmax_ce_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    x, t = inputs
    temperature = kwargs["temperature"]
    if temperature != 1.0:
        inv_t = np.asarray(1.0 / temperature, dtype=np.float32)
        scaled = x * inv_t
    else:
        inv_t = None
        scaled = x
    # Forward replicates the composed chain step for step:
    #   shifted = scaled - max; lp = shifted - log(sum(exp(shifted)))
    #   loss = -((lp * t).sum(axis=1).sum() * (1/N))
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sums)
    rowsum = (log_probs * t).sum(axis=1)
    inv_n = np.asarray(1.0 / rowsum.shape[0], dtype=np.float32)
    out_data = -(rowsum.sum() * inv_n)
    ctx.saved = (t, exps, sums, inv_n, inv_t)
    return out_data


def _softmax_ce_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    t, exps, sums, inv_n, inv_t = ctx.saved
    # Closed-form gradient, in the exact operation order of the composed
    # tape (down to the order the two shifted-gradient terms are added).
    g_lp = ((-grad) * inv_n) * t
    g_logsum = (-g_lp).sum(axis=1, keepdims=True)
    gx = g_lp + (g_logsum / sums) * exps
    if inv_t is not None:
        gx *= inv_t
    acc(0, gx)


_SOFTMAX_CE = register_op("softmax_ce", _softmax_ce_apply, _softmax_ce_vjp)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def _check_window(op: str, shape, kernel_h: int, kernel_w: int, stride: int, padding: int) -> None:
    """Reject a window geometry that cannot slide or leaves no output.

    The windowed ops call this on entry, so a bad geometry fails here with
    a message instead of as an empty map or a reshape error deep in a kernel.
    """
    h, w = shape[-2:]
    if (
        min(kernel_h, kernel_w) >= 1
        and stride >= 1
        and padding >= 0
        and conv_output_size(h, kernel_h, stride, padding) >= 1
        and conv_output_size(w, kernel_w, stride, padding) >= 1
    ):
        return
    raise ValueError(
        f"{op}: kernel {kernel_h}x{kernel_w}, stride {stride}, padding {padding} on a {h}x{w} "
        "input leaves no output window (need kernel >= 1, stride >= 1, padding >= 0 and "
        "kernel <= input + 2 * padding)"
    )


# ----------------------------------------------------------------------
# Patch extraction (im2col / col2im)
# ----------------------------------------------------------------------
#: Output rows shorter than this take the flat-index path of :func:`im2col`
#: and :func:`col2im` in the fast modes.  NumPy's strided copies run an inner
#: loop one output row long, which costs several ns per element on the 1x1 to
#: 4x4 maps of a deep layer; a flat-index gather costs ~1 ns on any map.  The
#: measured crossover is 8 columns.
_NARROW_ROW = 8


def _narrow(out_w: int) -> bool:
    """Whether a gather with ``out_w``-long output rows takes the flat index."""
    return out_w < _NARROW_ROW and current_context().kernels in _FAST_LIKE


@functools.lru_cache(maxsize=128)
def _unfold_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """Source column of every patch element, in :func:`im2col`'s layout.

    Indexes a row of ``C*H*W + 1`` values: one flattened image plus a zero
    column, which every padding position points at.  The cache is bounded and
    its read-only arrays are shared by every caller of the geometry, at any
    batch size and on any thread (``lru_cache`` is thread-safe; a race at
    worst builds an index twice).
    """
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    ch = np.arange(c)[:, None, None, None, None]
    y = np.arange(kh)[:, None, None, None] + stride * np.arange(out_h)[:, None] - padding
    x = np.arange(kw)[:, None, None] + stride * np.arange(out_w) - padding
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    index = np.where(inside, (ch * h + y) * w + x, c * h * w).ravel()
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=128)
def _fold_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """Patch elements each pixel sums, as ``(M, C*H*W)`` blocks for :func:`col2im`.

    Indexes a row of ``C*KH*KW*OH*OW + 1`` patch gradients whose last column
    is zero.  Block ``j`` holds, per pixel, the ``j``-th kernel offset (in the
    offset loop's ``(ky, kx)`` order) whose window covers it; pixels with
    fewer covering offsets read the zero column.  ``M`` is the most offsets
    any pixel has — 4 rather than 9 for a 3x3 kernel on a 2x2 map or at
    stride 2.  Read-only and shared like :func:`_unfold_index`.
    """
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    ky = np.arange(kh)[:, None, None, None, None]
    kx = np.arange(kw)[:, None, None, None]
    ch = np.arange(c)[:, None, None]
    oy, ry = np.divmod(np.arange(h)[:, None] + padding - ky, stride)
    ox, rx = np.divmod(np.arange(w) + padding - kx, stride)
    covered = (ry == 0) & (oy >= 0) & (oy < out_h) & (rx == 0) & (ox >= 0) & (ox < out_w)
    source = (((ch * kh + ky) * kw + kx) * out_h + oy) * out_w + ox
    index = np.where(covered, source, c * kh * kw * out_h * out_w).reshape(kh * kw, -1)
    covered = np.broadcast_to(covered, source.shape).reshape(kh * kw, -1)
    # A stable sort per pixel moves the covering offsets to the front in
    # (ky, kx) order; rows past the largest cover count are all zero column.
    order = np.argsort(~covered, axis=0, kind="stable")
    index = np.take_along_axis(index, order, axis=0)[: covered.sum(axis=0).max()].ravel()
    index.flags.writeable = False
    return index


def _gather_patches(
    images: np.ndarray, index: np.ndarray, out: np.ndarray, rows: np.ndarray | None
) -> np.ndarray:
    """Narrow-map unfold: fill ``out`` with one ``np.take`` through ``index``.

    ``index`` comes from :func:`_unfold_index`.  ``rows`` is the
    ``(N, C*H*W + 1)`` buffer with a zero last column that padded geometries
    gather from (compiled replay keeps one per site); without padding no
    position reads the zero column and ``rows`` is ``None``.  Every index is
    in range by construction: ``mode="clip"`` only spares the bounds check
    and the temporary copy NumPy makes of ``out`` under ``mode="raise"``.
    """
    n = len(images)
    src = images.reshape(n, -1)
    if rows is not None:
        rows[:, :-1] = src
        src = rows
    np.take(src, index, axis=1, mode="clip", out=out.reshape(n, index.size))
    return out


def _fold_rows(
    rows: np.ndarray, index: np.ndarray, blocks: np.ndarray, grad: np.ndarray
) -> np.ndarray:
    """Narrow-map fold of zero-column patch rows into ``grad`` (N, C*H*W).

    ``blocks`` (N, ``index.size``) receives the blocks of :func:`_fold_index`,
    which are then added into the zeroed ``grad`` in block order.
    """
    np.take(rows, index, axis=1, mode="clip", out=blocks)
    grad.fill(0)
    for block in blocks.reshape(len(grad), -1, grad.shape[1]).transpose(1, 0, 2):
        grad += block
    return grad


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold NCHW image patches into matrices of shape ``(N, C*KH*KW, OH*OW)``.

    Three paths write the same elements, all by pure copies, so their
    outputs are bitwise-identical:

    * narrow maps in the fast modes (output rows shorter than
      ``_NARROW_ROW``): the input is copied into an ``(N, C*H*W + 1)`` row
      buffer whose last column is zero, and one ``np.take`` through a flat
      index cached per geometry fills the patches — padding positions read
      the zero column, so no pad buffer is built;
    * other stride-1 gathers in the fast modes: one strided-view transpose
      copy via ``sliding_window_view``;
    * strided gathers and ``reference`` mode: a per-kernel-offset copy loop.

    ``out``, when given, must be a ``(N, C*KH*KW, OH*OW)`` C-contiguous buffer
    of the image dtype (e.g. from the :mod:`repro.nn.workspace` arena); it is
    fully overwritten and returned.
    """
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if out is None:
        out = np.empty((n, c * kernel_h * kernel_w, out_h * out_w), dtype=images.dtype)
    if _narrow(out_w):
        rows = np.zeros((n, c * h * w + 1), images.dtype) if padding > 0 else None
        index = _unfold_index(c, h, w, kernel_h, kernel_w, stride, padding)
        return _gather_patches(images, index, out, rows)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=images.dtype)
        padded[:, :, padding:-padding, padding:-padding] = images
        images = padded

    cols = out.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    if current_context().kernels in _FAST_LIKE and stride == 1:
        # The six-axis window-view copy wins for dense (stride-1) convolution
        # gathers but loses to the offset loop once the windows are strided
        # (pooling geometries), so strided gathers fall through to the loop.
        windows = np.lib.stride_tricks.sliding_window_view(
            images, (kernel_h, kernel_w), axis=(2, 3)
        )
        cols[...] = windows.transpose(0, 1, 4, 5, 2, 3)
    else:
        for ky in range(kernel_h):
            y_max = ky + stride * out_h
            for kx in range(kernel_w):
                x_max = kx + stride * out_w
                cols[:, :, ky, kx, :, :] = images[:, :, ky:y_max:stride, kx:x_max:stride]
    return out


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    workspace: Workspace | None = None,
    padded_out: np.ndarray | None = None,
) -> np.ndarray:
    """Fold ``(N, C*KH*KW, OH*OW)`` patch matrices back to NCHW, accumulating overlaps.

    This is the adjoint of :func:`im2col` and therefore exactly the gradient
    routing a convolution backward pass needs.  Two paths:

    * wide maps, and every map in ``reference`` mode: a per-kernel-offset
      loop of strided adds into a zeroed padded accumulator.  Each iteration
      is a fully vectorised add over ``(N, C, OH, OW)``; the windowed
      alternative measures ~4x slower on disjoint (pooling) windows because
      of its extra indexing.
    * narrow maps in the fast modes (output rows shorter than
      ``_NARROW_ROW``): the patches sit in an ``(N, C*KH*KW*OH*OW + 1)`` row
      buffer whose last column is zero (the conv and pooling backward passes
      write theirs there directly; a caller's ``cols`` is copied in).  One
      ``np.take`` through a cached index (:func:`_fold_index`) gathers
      ``(N, C*H*W)`` blocks: block ``j`` holds each pixel's ``j``-th covering
      kernel offset in the loop's ``(ky, kx)`` order, or the zero column once
      a pixel has no more.  The blocks are added into a zeroed accumulator
      in block order.

    Both paths are bitwise-identical: every pixel receives the same float
    adds in the same order, the narrow path's extra trailing terms being
    ``+0.0``.  Adding ``+0.0`` is exact for every value except ``-0.0``, and
    a sum that starts at ``+0.0`` is never ``-0.0`` (round-to-nearest gives
    ``x + -x == +0.0``).  A NaN sum stays NaN on both paths; which operand's
    sign ``NaN + NaN`` keeps depends on NumPy's add loop, so NaN sign bits
    are outside the contract.

    ``workspace`` and ``padded_out`` serve the offset loop.  When
    ``workspace`` is given, the padded accumulator is drawn from it; the
    caller owns releasing the returned array's base buffer after consuming the
    values.  ``padded_out``, when given, is a persistent accumulator (compiled
    replay arms one per site) that is zero-filled in place instead — same
    values, no allocation.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if _narrow(out_w):
        size = cols.size // n
        rows = np.zeros((n, size + 1), cols.dtype)
        rows[:, :-1] = cols.reshape(n, size)
        index = _fold_index(c, h, w, kernel_h, kernel_w, stride, padding)
        blocks = np.empty((n, index.size), cols.dtype)
        grad = np.empty((n, c * h * w), cols.dtype)
        return _fold_rows(rows, index, blocks, grad).reshape(input_shape)
    cols6 = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)

    padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    if padded_out is not None:
        padded = padded_out
        padded.fill(0)
    elif workspace is not None:
        padded = workspace.acquire_zeros(padded_shape, cols.dtype)
    else:
        padded = np.zeros(padded_shape, dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols6[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def im2col_reference(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Seed im2col: unfold NCHW patches into a flat ``(N*OH*OW, C*KH*KW)`` matrix.

    Retained verbatim as the oracle for layout-equivalence tests and the
    im2col benchmark gate; the hot path uses :func:`im2col`.
    """
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if padding > 0:
        images = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=images.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = images[:, :, ky:y_max:stride, kx:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)


def col2im_reference(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Seed col2im: fold a flat ``(N*OH*OW, C*KH*KW)`` matrix back to NCHW.

    The adjoint of :func:`im2col_reference`; retained verbatim as an
    equivalence-test and benchmark oracle.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)

    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _scratch(ctx: OpCtx, ws: Workspace | None, key: str, shape, dtype) -> np.ndarray:
    """An uninitialised buffer: pooled in fast eager mode, persistent when armed."""
    return ws.acquire(shape, dtype) if ws is not None else ctx.buffer(key, shape, dtype)


def _fold_patch_grads(
    ctx: OpCtx, ws: Workspace | None, acc, x_shape, kh: int, kw: int, stride: int,
    padding: int, ckk: int, dtype, fill,
) -> None:
    """Route patch gradients to input 0: ``acc(0, col2im(fill(gcols)))``.

    ``fill(gcols)`` overwrites the ``(N, C*KH*KW, OH*OW)`` patch gradients.
    On narrow maps ``gcols`` is the body of the zero-column row buffer the
    flat-index fold gathers from (see :func:`col2im`), so the gradients land
    there without a copy; an armed ctx keeps those buffers and the index as
    a plan.  Otherwise the offset loop folds them.  Every workspace buffer
    is released once ``acc`` has consumed the values.
    """
    plan = None if ctx.bufs is None else ctx.bufs.get("fold_plan")
    if plan is None or plan[0] != x_shape:
        n, c, h, w = x_shape
        out_h = conv_output_size(h, kh, stride, padding)
        out_w = conv_output_size(w, kw, stride, padding)
        ohw = out_h * out_w
        if not _narrow(out_w):
            gcols = _scratch(ctx, ws, "gcols", (n, ckk, ohw), dtype)
            fill(gcols)
            fold = None
            if ctx.bufs is not None:
                fold = ctx.buffer("fold", (n, c, h + 2 * padding, w + 2 * padding), dtype)
            grad_img = col2im(
                gcols, x_shape, kh, kw, stride, padding, workspace=ws, padded_out=fold
            )
            acc(0, grad_img)
            if ws is not None:
                # With padding, col2im returns the interior view of the pooled buffer.
                ws.release(gcols)
                ws.release(grad_img if grad_img.base is None else grad_img.base)
            return
        rows = _scratch(ctx, ws, "fold_rows", (n, ckk * ohw + 1), dtype)
        rows[:, -1] = 0
        index = _fold_index(c, h, w, kh, kw, stride, padding)
        blocks = _scratch(ctx, ws, "fold_blocks", (n, index.size), dtype)
        grad = _scratch(ctx, ws, "fold_sum", (n, c * h * w), dtype)
        plan = (x_shape, rows, rows[:, :-1].reshape(n, ckk, ohw), index, blocks, grad)
        if ctx.bufs is not None:
            ctx.bufs["fold_plan"] = plan
    _, rows, gcols, index, blocks, grad = plan
    fill(gcols)
    acc(0, _fold_rows(rows, index, blocks, grad).reshape(x_shape))
    if ws is not None:
        for buf in (rows, blocks, grad):
            ws.release(buf)


def _armed_pad(ctx: OpCtx, x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` zero-padded into an armed context's ``pad`` buffer.

    The buffer may share memory with other ops (a forward plan's arena), so
    every call writes the border as well as the interior, through views
    built once per buffer: four small fills keep the border zero whatever
    wrote there since.
    """
    n, c, h, w = x.shape
    p = padding
    pad = ctx.buffer("pad", (n, c, h + 2 * p, w + 2 * p), x.dtype)
    views = ctx.bufs.get("pad_views")
    if views is None or views[0] is not pad:
        border = (pad[:, :, :p], pad[:, :, -p:], pad[:, :, p:-p, :p], pad[:, :, p:-p, -p:])
        views = ctx.bufs["pad_views"] = (pad, pad[:, :, p:-p, p:-p], border)
    for view in views[2]:
        view.fill(0)
    views[1][...] = x
    return pad


def _armed_im2col(
    ctx: OpCtx, x: np.ndarray, kh: int, kw: int, stride: int, padding: int, cols: np.ndarray
) -> np.ndarray:
    """:func:`im2col` into an armed cols buffer, with plan-cached strided views.

    Narrow maps keep the flat index on the ctx and gather with one
    ``np.take``.  Wider maps pad into the ctx's pad buffer (:func:`_armed_pad`)
    and unfold that with no further padding.  For the stride-1 window path
    the sliding-window source view and the target six-axis view are pure
    functions of the (persistent) pad buffer and cols buffer, so they are
    built once and cached on the ctx; steady-state steps run exactly two
    copies — pad interior and window gather — the identical element
    movement :func:`im2col` performs, minus its per-call view setup.  Every
    buffer is rewritten on each call, so a forward plan's arena may share
    its memory with other ops.
    """
    n, c, h, w = x.shape
    plan = ctx.bufs.get("gather")
    if plan is None or plan[0] != x.shape:
        index = None
        if _narrow(conv_output_size(w, kw, stride, padding)):
            index = _unfold_index(c, h, w, kh, kw, stride, padding)
        plan = ctx.bufs["gather"] = (x.shape, index)
    if plan[1] is not None:
        rows = None
        if padding > 0:
            rows = ctx.buffer("rows", (n, c * h * w + 1), x.dtype)
            rows[:, -1] = 0
        return _gather_patches(x, plan[1], cols, rows)
    src = x if padding == 0 else _armed_pad(ctx, x, padding)
    if stride != 1:
        return im2col(src, kh, kw, stride, 0, out=cols)
    plan = ctx.bufs.get("i2c")
    # Keyed on the buffer objects themselves: ``cols`` may be a view (a
    # forward plan's arena hands out views), whose reshape shares its base.
    if plan is None or plan[0] is not src or plan[3] is not cols:
        windows = np.lib.stride_tricks.sliding_window_view(src, (kh, kw), axis=(2, 3))
        out_h, out_w = windows.shape[2], windows.shape[3]
        cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
        plan = ctx.bufs["i2c"] = (src, windows.transpose(0, 1, 4, 5, 2, 3), cols6, cols)
    plan[2][...] = plan[1]
    return cols


# ----------------------------------------------------------------------
# Convolutions
# ----------------------------------------------------------------------
def conv2d(
    images: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0
) -> Tensor:
    """2-D convolution.

    Parameters
    ----------
    images:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    """
    c_in = images.shape[1]
    c_in_w = weight.shape[1]
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}")
    _check_window("conv2d", images.shape, *weight.shape[2:], stride, padding)
    inputs = (images, weight) if bias is None else (images, weight, bias)
    return run_op(_CONV2D, inputs, {"stride": stride, "padding": padding})


def _conv2d_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    x, w = inputs[0], inputs[1]
    b = inputs[2] if len(inputs) == 3 else None
    stride = kwargs["stride"]
    padding = kwargs["padding"]
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w_in, kw, stride, padding)
    ohw = out_h * out_w
    ckk = c_in * kh * kw

    if ctx.bufs is None:
        ws = _pool()
        cols = ws.acquire((n, ckk, ohw), x.dtype) if ws is not None else None
        cols = im2col(x, kh, kw, stride, padding, out=cols)  # (N, C*KH*KW, OH*OW)
        flat_weight = w.reshape(c_out, -1)  # (C_out, C*KH*KW)
        out3 = np.matmul(flat_weight, cols)  # (N, C_out, OH*OW)
    else:
        # Armed replay: patch columns and the pad buffer live on the ctx, so
        # steady-state steps do no workspace churn and no pad alloc/memset.
        ws = None
        cols = _armed_im2col(
            ctx, x, kh, kw, stride, padding, ctx.buffer("cols", (n, ckk, ohw), x.dtype)
        )
        flat_weight = w.reshape(c_out, -1)
        out3 = np.matmul(flat_weight, cols, out=ctx.buffer("out3", (n, c_out, ohw), x.dtype))
    if b is not None:
        out3 += b[:, None]
    out_data = out3.reshape(n, c_out, out_h, out_w)
    ctx.saved = (x.shape, w.shape, cols, flat_weight, ws, (n, c_out, ohw, kh, kw, stride, padding))
    return out_data


def _conv2d_discard(ctx: OpCtx) -> None:
    _, _, cols, _, ws, _ = ctx.saved
    if ws is not None:
        ws.release(cols)


def _conv2d_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    x_shape, w_shape, cols, flat_weight, ws, geom = ctx.saved
    n, c_out, ohw, kh, kw, stride, padding = geom
    ckk = flat_weight.shape[1]
    grad3 = grad.reshape(n, c_out, ohw)
    if len(needs) == 3 and needs[2]:
        acc(2, grad3.sum(axis=(0, 2)))
    if needs[1]:
        if c_out > 4 * ohw:
            # Deep layers (many channels, few positions): contract batch
            # and position axes in one GEMM; the batched alternative would
            # materialise an (N, C_out, C*KH*KW) intermediate.
            grad_w = np.tensordot(grad3, cols, axes=([0, 2], [0, 2]))  # (C_out, C*KH*KW)
        elif ctx.bufs is None:
            # Wide-spatial layers: per-sample GEMMs are large enough that
            # the batched product beats tensordot's internal transposes.
            grad_w = np.matmul(grad3, cols.transpose(0, 2, 1)).sum(axis=0)
        else:
            gw3 = np.matmul(
                grad3, cols.transpose(0, 2, 1), out=ctx.buffer("gw3", (n, c_out, ckk), grad.dtype)
            )
            grad_w = gw3.sum(axis=0, out=ctx.buffer("gw", (c_out, ckk), grad.dtype))
        acc(1, grad_w.reshape(w_shape))
    if needs[0]:
        _fold_patch_grads(
            ctx, ws, acc, x_shape, kh, kw, stride, padding, ckk, grad.dtype,
            lambda gcols: np.matmul(flat_weight.T, grad3, out=gcols),
        )
    if ws is not None:
        ws.release(cols)


_CONV2D = register_op("conv2d", _conv2d_apply, _conv2d_vjp, _conv2d_discard, site="conv2d")


def depthwise_conv2d(
    images: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0
) -> Tensor:
    """Depthwise 2-D convolution (one filter per input channel).

    The building block of MobileNet's depthwise-separable convolutions
    (paper Table III).  ``weight`` has shape ``(C, 1, KH, KW)``.
    """
    c = images.shape[1]
    c_w, one = weight.shape[0], weight.shape[1]
    if c_w != c or one != 1:
        raise ValueError(f"depthwise weight must be (C, 1, KH, KW); got {weight.shape}")
    _check_window("depthwise_conv2d", images.shape, *weight.shape[2:], stride, padding)
    inputs = (images, weight) if bias is None else (images, weight, bias)
    return run_op(_DEPTHWISE_CONV2D, inputs, {"stride": stride, "padding": padding})


def _depthwise_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    x, w = inputs[0], inputs[1]
    b = inputs[2] if len(inputs) == 3 else None
    stride = kwargs["stride"]
    padding = kwargs["padding"]
    n, c, h, w_in = x.shape
    _, _, kh, kw = w.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w_in, kw, stride, padding)
    ohw = out_h * out_w
    kk = kh * kw

    if ctx.bufs is None:
        ws = _pool()
        cols = ws.acquire((n, c * kk, ohw), x.dtype) if ws is not None else None
        cols = im2col(x, kh, kw, stride, padding, out=cols)
        cols4 = cols.reshape(n, c, kk, ohw)
        flat_weight = w.reshape(c, kk)  # (C, KH*KW)
        out = np.einsum("nckp,ck->ncp", cols4, flat_weight)  # (N, C, OH*OW)
    else:
        ws = None
        cols = _armed_im2col(
            ctx, x, kh, kw, stride, padding, ctx.buffer("cols", (n, c * kk, ohw), x.dtype)
        )
        cols4 = cols.reshape(n, c, kk, ohw)
        flat_weight = w.reshape(c, kk)
        out = np.einsum(
            "nckp,ck->ncp", cols4, flat_weight, out=ctx.buffer("out", (n, c, ohw), x.dtype)
        )
    if b is not None:
        out += b[:, None]
    out_data = out.reshape(n, c, out_h, out_w)
    ctx.saved = (x.shape, w.shape, cols, cols4, flat_weight, ws, (n, c, kk, ohw, kh, kw, stride, padding))
    return out_data


def _depthwise_discard(ctx: OpCtx) -> None:
    cols, ws = ctx.saved[2], ctx.saved[5]
    if ws is not None:
        ws.release(cols)


def _depthwise_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    x_shape, w_shape, cols, cols4, flat_weight, ws, geom = ctx.saved
    n, c, kk, ohw, kh, kw, stride, padding = geom
    grad3 = grad.reshape(n, c, ohw)
    if len(needs) == 3 and needs[2]:
        acc(2, grad3.sum(axis=(0, 2)))
    if needs[1]:
        grad_w = np.einsum("ncp,nckp->ck", grad3, cols4)
        acc(1, grad_w.reshape(w_shape))
    if needs[0]:
        _fold_patch_grads(
            ctx, ws, acc, x_shape, kh, kw, stride, padding, c * kk, grad.dtype,
            lambda gcols: np.einsum(
                "ncp,ck->nckp", grad3, flat_weight, out=gcols.reshape(n, c, kk, ohw)
            ),
        )
    if ws is not None:
        ws.release(cols)


_DEPTHWISE_CONV2D = register_op(
    "depthwise_conv2d", _depthwise_apply, _depthwise_vjp, _depthwise_discard, site="depthwise_conv2d"
)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(images: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = kernel if stride is None else stride
    _check_window("max_pool2d", images.shape, kernel, kernel, stride, 0)
    return run_op(_MAX_POOL2D, (images,), {"kernel": kernel, "stride": stride})


def _has_both_zero_signs(x: np.ndarray) -> bool:
    """Whether a float array holds both ``+0.0`` and ``-0.0``.

    Two reductions over integer views and no temporaries: ``+0.0`` is the
    only all-zero bit pattern, and ``-0.0`` the most negative signed one.
    """
    if x.dtype.kind != "f" or x.size == 0:
        return False
    signed = np.dtype(f"i{x.itemsize}")
    return bool(
        x.view(f"u{x.itemsize}").min() == 0 and x.view(signed).min() == np.iinfo(signed).min
    )


def _window_max(x: np.ndarray, kernel: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Each pooling window's maximum, into ``out`` of shape ``(N, C, OH, OW)``.

    A chain of ``np.maximum`` over the ``kernel x kernel`` strided views of
    ``x``, with no patch gather.  The result is, bit for bit, the element
    ``argmax`` over the window's patch selects, which is where the backward
    pass routes the gradient:

    * the running maximum is ``np.maximum``'s first operand, so a NaN counts
      as the maximum and the first NaN in ``(ky, kx)`` order wins (NumPy's
      rule: "if both elements are NaNs then the first is returned");
    * ``-0.0`` and ``+0.0`` tie, and ``np.maximum`` may return either while
      ``argmax`` keeps the first, so a zero maximum takes the sign of the
      window's first zero.  That fix-up only runs when ``x`` holds zeros of
      both signs; a ReLU output's zeros are all ``-0.0``.
    """
    _, _, out_h, out_w = out.shape
    views = [
        x[:, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
        for ky in range(kernel)
        for kx in range(kernel)
    ]
    if len(views) == 1:
        np.copyto(out, views[0])
        return out
    np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
    if _has_both_zero_signs(x):
        zero_max = out == 0
        first_zero = np.empty_like(out)
        for view in reversed(views):
            np.copyto(first_zero, view, where=view == 0)
        np.copyto(out, first_zero, where=zero_max)
    return out


def _max_pool2d_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (x,) = inputs
    kernel = kwargs["kernel"]
    stride = kwargs["stride"]
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    out_data = _window_max(x, kernel, stride, ctx.buffer("out", (n, c, out_h, out_w), x.dtype))
    # Only a backward pass needs the argmax; it takes it from the input.
    ctx.saved = (x, (kernel, stride, out_h, out_w))
    return out_data


def _max_pool2d_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    x, (kernel, stride, out_h, out_w) = ctx.saved
    n, c, h, w = x_shape = x.shape
    x_dtype = x.dtype
    ohw = out_h * out_w
    kk = kernel * kernel
    # Each forward maximum is its patch's first maximum (a NaN counting as
    # the largest value), and the gradient goes to that element.
    ws = _pool() if ctx.bufs is None else None
    cols = _scratch(ctx, ws, "cols", (n, c * kk, ohw), x_dtype)
    im2col(x, kernel, kernel, stride, 0, out=cols)
    argmax = np.argmax(  # (N, C, OH*OW)
        cols.reshape(n, c, kk, ohw), axis=2, out=ctx.buffer("argmax", (n, c, ohw), np.intp)
    )
    if ws is not None:
        ws.release(cols)
    grad3 = grad.reshape(n, c, ohw)
    if (ws is not None or ctx.bufs is not None) and stride >= kernel:
        # Disjoint windows: route each gradient straight to its argmax
        # pixel instead of materialising patch columns plus col2im.  Every
        # destination is written at most once, so the scatter is bitwise
        # identical to the column route the reference mode takes.
        if ctx.bufs is None:
            ky, kx = np.divmod(argmax, kernel)
            flat = ky * w
            flat += kx
            oy, ox = np.divmod(np.arange(ohw), out_w)
            flat += (oy * stride) * w + ox * stride
            grad_img = np.zeros((n, c, h * w), dtype=x_dtype)
        else:
            # Integer index arithmetic into persistent buffers; the window
            # position offsets are geometry-only and computed once.
            pos = ctx.bufs.get("pos")
            if pos is None or pos.shape != (ohw,):
                oy, ox = np.divmod(np.arange(ohw), out_w)
                pos = ctx.bufs["pos"] = (oy * stride) * w + ox * stride
            flat = np.floor_divide(argmax, kernel, out=ctx.buffer("flat", argmax.shape, argmax.dtype))
            kx = np.remainder(argmax, kernel, out=ctx.buffer("kx", argmax.shape, argmax.dtype))
            flat *= w
            flat += kx
            flat += pos
            grad_img = ctx.buffer("grad_img", (n, c, h * w), x_dtype)
            grad_img.fill(0)
        np.put_along_axis(grad_img, flat, grad3, axis=2)
        acc(0, grad_img.reshape(n, c, h, w))
        return

    def fill(gcols):
        gcols.fill(0)
        np.put_along_axis(
            gcols.reshape(n, c, kk, ohw), argmax[:, :, None, :], grad3[:, :, None, :], axis=2
        )

    _fold_patch_grads(ctx, ws, acc, x_shape, kernel, kernel, stride, 0, c * kk, x_dtype, fill)


_MAX_POOL2D = register_op("max_pool2d", _max_pool2d_apply, _max_pool2d_vjp, site="max_pool2d")


def avg_pool2d(images: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over windows."""
    stride = kernel if stride is None else stride
    _check_window("avg_pool2d", images.shape, kernel, kernel, stride, 0)
    return run_op(_AVG_POOL2D, (images,), {"kernel": kernel, "stride": stride})


def _avg_pool2d_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (x,) = inputs
    kernel = kwargs["kernel"]
    stride = kwargs["stride"]
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    ohw = out_h * out_w
    kk = kernel * kernel

    if ctx.bufs is None:
        ws = _pool()
        cols = ws.acquire((n, c * kk, ohw), x.dtype) if ws is not None else None
        cols4 = im2col(x, kernel, kernel, stride, 0, out=cols).reshape(n, c, kk, ohw)
        out_data = cols4.mean(axis=2).reshape(n, c, out_h, out_w)
    else:
        ws = None
        cols4 = im2col(
            x, kernel, kernel, stride, 0, out=ctx.buffer("cols", (n, c * kk, ohw), x.dtype)
        ).reshape(n, c, kk, ohw)
        out_data = cols4.mean(axis=2, out=ctx.buffer("out", (n, c, ohw), x.dtype)).reshape(
            n, c, out_h, out_w
        )
    if ws is not None:
        # Average-pool backward is a uniform spread; the patches are not needed.
        ws.release(cols)
    ctx.saved = (x.shape, x.dtype, ws, (kernel, stride, out_h, out_w, ohw, kk))
    return out_data


def _avg_pool2d_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    x_shape, x_dtype, ws, geom = ctx.saved
    kernel, stride, out_h, out_w, ohw, kk = geom
    n, c, h, w = x_shape
    grad3 = grad.reshape(n, c, ohw)
    if (ws is not None or ctx.bufs is not None) and stride >= kernel:
        # Disjoint windows: each source pixel belongs to at most one
        # window, so the uniform spread is k*k strided assignments of the
        # scaled gradient — no patch-column buffer, no col2im.
        if ctx.bufs is None:
            spread = grad3.reshape(n, c, out_h, out_w) / kk
        else:
            spread = np.divide(
                grad3.reshape(n, c, out_h, out_w),
                kk,
                out=ctx.buffer("spread", (n, c, out_h, out_w), grad.dtype),
            )
        if ctx.bufs is None:
            grad_img = np.zeros((n, c, h, w), dtype=x_dtype)
        else:
            grad_img = ctx.buffer("grad_img", (n, c, h, w), x_dtype)
            grad_img.fill(0)
        for ky in range(kernel):
            for kx in range(kernel):
                grad_img[
                    :, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride
                ] = spread
        acc(0, grad_img)
        return
    _fold_patch_grads(
        ctx, ws, acc, x_shape, kernel, kernel, stride, 0, c * kk, x_dtype,
        lambda gcols: np.divide(grad3[:, :, None, :], kk, out=gcols.reshape(n, c, kk, ohw)),
    )


_AVG_POOL2D = register_op("avg_pool2d", _avg_pool2d_apply, _avg_pool2d_vjp, site="avg_pool2d")


def global_avg_pool2d(images: Tensor) -> Tensor:
    """Average each channel over all spatial positions: (N,C,H,W) -> (N,C)."""
    return images.mean(axis=(2, 3))


def batch_norm_2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
    training: bool,
) -> Tensor:
    """Fused batch normalisation over the channel axis of NCHW inputs.

    In training mode ``mean``/``var`` must be the *batch* statistics and the
    backward pass differentiates through them (the full Ioffe & Szegedy
    gradient); in eval mode they are the running statistics and are treated
    as constants.
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm_2d expects NCHW input; got shape {x.shape}")
    kwargs = {"mean": mean, "var": var, "eps": eps, "training": training}
    return run_op(_BATCH_NORM_2D, (x, gamma, beta), kwargs)


def batch_norm_2d_eval(x: Tensor, gamma: Tensor, beta: Tensor, bn) -> Tensor:
    """Eval-mode batch norm over ``bn``'s running statistics, read at every call.

    The float sequence of :func:`batch_norm_2d` with ``training=False``.  The
    statistics travel as the owning :class:`~repro.nn.layers.BatchNorm2D`
    module, never as arrays, so a forward plan (:mod:`repro.nn.compile`)
    re-reads them at every replay: ``load_state_dict``, a shared-block
    ``attach`` and in-place weight faults all reach the next replay.
    """
    return run_op(_BATCH_NORM_2D_EVAL, (x, gamma, beta), {"bn": bn})


def _bn_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    return _bn_normalize(
        ctx, inputs, kwargs["mean"], kwargs["var"], kwargs["eps"], kwargs["training"]
    )


def _bn_eval_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    bn = kwargs["bn"]
    return _bn_normalize(ctx, inputs, bn.running_mean, bn.running_var, bn.eps, False)


def _bn_normalize(ctx: OpCtx, inputs, mean, var, eps: float, training: bool) -> np.ndarray:
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` over NCHW channels."""
    x, g, b = inputs
    c = x.shape[1]
    shape = (1, c, 1, 1)
    mean_b = mean.reshape(shape).astype(x.dtype)
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(shape).astype(x.dtype)
    if ctx.bufs is None:
        x_hat = (x - mean_b) * inv_std
        out_data = g.reshape(shape) * x_hat + b.reshape(shape)
    else:
        x_hat = np.subtract(x, mean_b, out=ctx.buffer("x_hat", x.shape, x.dtype))
        x_hat *= inv_std
        out_data = np.multiply(g.reshape(shape), x_hat, out=ctx.buffer("out", x.shape, x.dtype))
        out_data += b.reshape(shape)
    ctx.saved = (x_hat, inv_std, g, shape, c, training)
    return out_data


def _bn_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    """Backward of both batch-norm ops, contributions in beta → gamma → x order.

    The beta/gamma sums double as the mean statistics of the training-mode
    input gradient (mean = sum / count, the exact op np.mean performs), so
    each full-size product and reduction is computed once and shared.
    """
    x_hat, inv_std, g, shape, c, training = ctx.saved
    need_x = needs[0]
    grad_sum = None
    if needs[2] or (need_x and training):
        grad_sum = grad.sum(axis=(0, 2, 3), keepdims=True)
    if needs[2]:
        acc(2, grad_sum.reshape(c))
    grad_xhat_sum = None
    if needs[1] or (need_x and training):
        if ctx.bufs is None:
            grad_xhat = grad * x_hat
        else:
            grad_xhat = np.multiply(grad, x_hat, out=ctx.buffer("gxh", grad.shape, grad.dtype))
        grad_xhat_sum = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
    if needs[1]:
        acc(1, grad_xhat_sum.reshape(c))
    if not need_x:
        return
    scale = g.reshape(shape) * inv_std
    if not training:
        acc(0, grad * scale)
        return
    # Full training-mode gradient: d/dx of ((x - mu(x)) / sigma(x)).
    count = grad.shape[0] * grad.shape[2] * grad.shape[3]
    grad_mean = grad_sum / count
    grad_xhat_mean = grad_xhat_sum / count
    if ctx.bufs is None:
        acc(0, scale * (grad - grad_mean - x_hat * grad_xhat_mean))
    else:
        # The identical elementwise sequence as the expression above, staged
        # through two persistent buffers (``gxh`` is dead once summed).
        gx = np.subtract(grad, grad_mean, out=ctx.buffer("gx", grad.shape, grad.dtype))
        term = np.multiply(x_hat, grad_xhat_mean, out=ctx.buffer("gxh", grad.shape, grad.dtype))
        gx -= term
        gx *= scale
        acc(0, gx)


_BATCH_NORM_2D = register_op("batch_norm_2d", _bn_apply, _bn_vjp, site="batch_norm_2d")
_BATCH_NORM_2D_EVAL = register_op("batch_norm_2d_eval", _bn_eval_apply, _bn_vjp, site="batch_norm_2d")


# ----------------------------------------------------------------------
# Stateful training ops (batch-norm batch statistics, dropout rng)
# ----------------------------------------------------------------------
# These two ops advance external state inside ``apply`` — batch-norm updates
# the module's running mean/variance buffers, dropout consumes the module's
# rng stream — which is exactly why they must be *ops* and not layer-level
# Python: a compiled replay (repro.nn.compile) re-runs every op's apply each
# step, so the running statistics and the dropout mask sequence evolve
# identically to eager training.  Both are marked ``stateful`` so the planner
# never prunes them.


def batch_norm_2d_train(x: Tensor, gamma: Tensor, beta: Tensor, bn) -> Tensor:
    """Training-mode batch norm as a single stateful op.

    Computes the batch statistics, updates ``bn``'s running buffers, and
    applies the affine normalisation — the float sequence of
    :func:`batch_norm_2d` with ``training=True`` fed the batch statistics,
    fused into one recordable op.  ``bn`` is the owning
    :class:`~repro.nn.layers.BatchNorm2D` module.
    """
    return run_op(_BATCH_NORM_2D_TRAIN, (x, gamma, beta), {"bn": bn})


def _bn_train_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    x, g, b = inputs
    bn = kwargs["bn"]
    c = x.shape[1]
    shape = (1, c, 1, 1)
    # Batch statistics + running-buffer update.
    mean = x.mean(axis=(0, 2, 3))
    if ctx.bufs is None:
        var = x.var(axis=(0, 2, 3))
    else:
        # ``np.var`` unrolled into persistent buffers: the same sum → divide →
        # subtract → square → sum → divide sequence ``np._methods._var`` runs
        # (the mean division is bitwise-identical to ``x.mean``'s, and the
        # final divide keeps _var's intp divisor so the f8-loop-then-cast
        # rounding matches).  The centred difference is kept — it *is* the
        # x_hat numerator — which drops np.var's hidden x-sized temp and one
        # full subtract pass per step.
        d = np.subtract(x, mean.reshape(shape), out=ctx.buffer("x_hat", x.shape, x.dtype))
        sq = np.multiply(d, d, out=ctx.buffer("sq", x.shape, x.dtype))
        ssum = sq.sum(axis=(0, 2, 3))
        count = np.intp(x.shape[0] * x.shape[2] * x.shape[3])
        var = np.true_divide(ssum, count, out=ssum, casting="unsafe")
    bn.running_mean[...] = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
    bn.running_var[...] = (1 - bn.momentum) * bn.running_var + bn.momentum * var
    # Normalisation, verbatim from batch_norm_2d's apply.
    mean_b = mean.reshape(shape).astype(x.dtype)
    inv_std = (1.0 / np.sqrt(var + bn.eps)).reshape(shape).astype(x.dtype)
    if ctx.bufs is None:
        x_hat = (x - mean_b) * inv_std
        out_data = g.reshape(shape) * x_hat + b.reshape(shape)
    else:
        x_hat = d  # already x - mean_b, computed for the variance
        x_hat *= inv_std
        out_data = np.multiply(g.reshape(shape), x_hat, out=ctx.buffer("out", x.shape, x.dtype))
        out_data += b.reshape(shape)
    ctx.saved = (x_hat, inv_std, g, shape, c, True)
    return out_data


_BATCH_NORM_2D_TRAIN = register_op(
    "batch_norm_2d_train", _bn_train_apply, _bn_vjp, stateful=True, site="batch_norm_2d"
)


def dropout_train(x: Tensor, module) -> Tensor:
    """Training-mode inverted dropout as a single stateful op.

    Draws the keep mask from ``module.rng`` inside ``apply`` so a compiled
    replay consumes the rng stream exactly like eager training.  ``module``
    is the owning :class:`~repro.nn.layers.Dropout`.
    """
    return run_op(_DROPOUT_TRAIN, (x,), {"module": module})


def _dropout_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (x,) = inputs
    module = kwargs["module"]
    keep = 1.0 - module.rate
    mask = (module.rng.random(x.shape) < keep).astype(np.float32) / keep
    if ctx.bufs is None:
        out = x * mask
    else:
        out = np.multiply(x, mask, out=ctx.buffer("out", x.shape, x.dtype))
    ctx.saved = mask
    return out


def _dropout_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    if ctx.bufs is None:
        acc(0, grad * ctx.saved)
    else:
        acc(0, np.multiply(grad, ctx.saved, out=ctx.buffer("gx", grad.shape, grad.dtype)))


_DROPOUT_TRAIN = register_op("dropout_train", _dropout_apply, _dropout_vjp, stateful=True)
