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
    :func:`im2col`) — the fused :func:`softmax_cross_entropy` tape node, the
    small-map forms of training batch norm and depthwise convolution (see
    :func:`_small_map`), and scratch-buffer reuse through
    :mod:`repro.nn.workspace`.
``reference``
    The loop-based patch extraction, the composed (unfused) loss, and
    NumPy's own channel sums and depthwise einsums, with no buffer reuse.
    ``reference`` and ``fast`` share every GEMM shape and every
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


@functools.lru_cache(maxsize=128)
def _offset_major_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """:func:`_unfold_index` and :func:`_fold_index` for offset-major patches.

    The small-map depthwise form lays each sample's patches out as
    ``(KH*KW, C, OH*OW)`` instead of im2col's ``(C, KH*KW, OH*OW)``, so the
    per-offset products run over whole ``(C, OH*OW)`` planes.  Returns the
    unfold index in that order and the fold index pointing into it (the
    zero column stays last).  Read-only and shared like the two it permutes.
    """
    kk = kh * kw
    ohw = conv_output_size(h, kh, stride, padding) * conv_output_size(w, kw, stride, padding)
    unfold = _unfold_index(c, h, w, kh, kw, stride, padding)
    unfold = unfold.reshape(c, kk, ohw).transpose(1, 0, 2).ravel()
    fold = _fold_index(c, h, w, kh, kw, stride, padding)
    ch, rest = np.divmod(fold, kk * ohw)
    k, p = np.divmod(rest, ohw)
    fold = np.where(fold == c * kk * ohw, fold, (k * c + ch) * ohw + p)
    unfold.flags.writeable = False
    fold.flags.writeable = False
    return unfold, fold


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


# ----------------------------------------------------------------------
# Small-map forms (training batch norm, depthwise convolution)
# ----------------------------------------------------------------------
#: Maps with more than one and fewer than this many pixels take the
#: small-map forms of training batch norm and depthwise convolution in the
#: fast modes.  On such a map NumPy runs each channel reduction, each
#: ``(1, C, 1, 1)`` broadcast and each depthwise einsum as one inner loop of
#: H·W elements per sample and channel, so its per-loop overhead dominates;
#: the small-map forms run C·H·W-long loops over the same element pairs, in
#: NumPy's own summation order.  The 8 is not tuned: below 8 elements
#: NumPy's pairwise sum adds in order and einsum's 4-lane sum of products
#: runs one pass per lane, and at 8 both change order.
#:
#: Those are the loops of a NumPy built for the x86-64 baseline (SSE): 4
#: float32 lanes, each product rounded before it is added.  Builds whose
#: einsum fuses the multiply and add (an FMA baseline, or aarch64's NEON) or
#: runs wider lanes round the depthwise sums differently, with no NaN to
#: show it, so no form is taken until :func:`_orders_copied` has checked the
#: copied orders against this NumPy.
_SMALL_MAP = 8
#: The small-map forms make more NumPy calls per pass, so they also need
#: this many maps (samples × channels) to pay: training batch norm's form
#: broke even between 512 and 768 maps on 2x2 inputs, depthwise
#: convolution's near 128 (``benchmarks/bench_kernels.py``'s ``small_map``
#: rows).
_SMALL_MAP_MIN_MAPS = 768


def _small_map(shape) -> bool:
    """Whether ops on ``(N, C, H, W)`` inputs of ``shape`` take their
    small-map form.  NumPy merges a single channel's batch and pixel axes
    into one long loop, with another summation order and another loop for
    a broadcast operand, so one channel never does."""
    n, c, h, w = shape
    return (
        1 < h * w < _SMALL_MAP
        and c > 1
        and n * c >= _SMALL_MAP_MIN_MAPS
        and current_context().kernels in _FAST_LIKE
        and _orders_copied()
    )


@functools.cache
def _orders_copied() -> bool:
    """Whether this NumPy sums as the small-map forms do; checked once."""
    return _sums_match(np.einsum)


def _sums_match(einsum) -> bool:
    """Whether the small-map channel sum, depthwise forward and depthwise
    weight gradient equal ``a.sum`` and ``einsum``, bit for bit, on random
    float32 maps of 2 to 7 pixels (offset-major patches of 9 offsets)."""
    rng = np.random.default_rng(0)
    temps = _Temps(OpCtx(persistent=True), True)
    for p in range(2, _SMALL_MAP):
        x = rng.normal(size=(4, 8, 1, p)).astype(np.float32)
        cols = rng.normal(size=(4, 9, 8, p)).astype(np.float32)
        flat_weight = rng.normal(size=(8, 9)).astype(np.float32)
        grad = rng.normal(size=(4, 8, p)).astype(np.float32)
        channel_major = _channel_major(cols)
        forward = np.add.reduce(cols * _offset_weights(flat_weight, p, temps), axis=1)
        grad_w = np.add.reduce(_lane_sum(cols * grad[:, None]), axis=0).T
        pairs = [
            (_channel_sum(x, temps), x.sum(axis=(0, 2, 3))),
            (forward, einsum("nckp,ck->ncp", channel_major, flat_weight)),
            (grad_w, einsum("ncp,nckp->ck", grad, channel_major)),
        ]
        if any(ours.tobytes() != numpys.tobytes() for ours, numpys in pairs):
            return False
    return True


def _has_nan(a: np.ndarray) -> bool:
    """Whether ``a`` holds a NaN, in one pass (``min`` propagates NaNs)."""
    return bool(np.isnan(a.min()))


class _Temps:
    """The temporaries of one apply or vjp call, one buffer per key.

    ``small`` says whether the call takes the small-map form.  Fast eager
    calls draw temporaries from the thread's workspace and hand them back
    in :meth:`release`; an armed ctx keeps one persistent buffer per key,
    rewritten on every call; ``reference`` mode allocates.  Asking for a key
    again returns its buffer (and its stale contents) in every mode.
    """

    __slots__ = ("ctx", "ws", "small", "held")

    def __init__(self, ctx: OpCtx, small: bool) -> None:
        self.ctx = ctx
        self.ws = _pool() if ctx.bufs is None else None
        self.small = small
        self.held: dict[str, np.ndarray] = {}

    def buffer(self, key: str, shape, dtype) -> np.ndarray:
        if self.ws is None:
            return self.ctx.buffer(key, shape, dtype)
        buf = self.held.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            if buf is not None:
                self.ws.release(buf)
            buf = self.held[key] = self.ws.acquire(shape, dtype)
        return buf

    def release(self) -> None:
        for buf in self.held.values():
            self.ws.release(buf)
        self.held.clear()


def _channel_sum(a: np.ndarray, temps: _Temps) -> np.ndarray:
    """Per-channel sum of an ``(N, C, ...)`` array: NumPy's
    ``a.sum(axis=(0, 2, ...))``, bit for bit, as a fresh ``(C,)`` array.

    NumPy adds each sample's pixels of a channel in order (its pairwise sum
    runs in order below 8 elements), then those partial sums over the batch
    from +0.  The small-map form does the same adds as one call per pixel
    column and one batch reduce.  NumPy also starts each partial sum from
    +0, which changes only the sign of a zero partial; the batch sum from +0
    erases that.  It needs the layout NumPy iterates that way, a
    C-contiguous array (see also :func:`_small_map`).  Sums are exact
    whatever the operand order, except which NaN's sign survives
    ``NaN + NaN``, so a NaN result is recomputed by NumPy.
    """
    axes = (0, *range(2, a.ndim))
    n, c = a.shape[:2]
    if not temps.small or not a.flags.c_contiguous:
        return a.sum(axis=axes)
    columns = a.reshape(n, c, -1)
    partial = np.add(columns[:, :, 0], columns[:, :, 1], out=temps.buffer("partial", (n, c), a.dtype))
    for j in range(2, columns.shape[2]):
        partial += columns[:, :, j]
    total = np.add.reduce(partial, axis=0)
    return a.sum(axis=axes) if _has_nan(total) else total


def _per_channel(v: np.ndarray, shape, temps: _Temps) -> np.ndarray:
    """Per-channel values ``v`` (C,) as an operand of elementwise ops on an
    ``(N, C, ...)`` array of ``shape``.

    As a ``(1, C, 1, ...)`` broadcast, NumPy runs one pixel-long inner loop
    per sample and channel; the small-map form copies ``v`` out to a
    contiguous ``(1, C, ...)`` operand, so the op runs C·H·W-long loops on
    the same element pairs.  The copy reuses one buffer per call, so use
    each operand before asking for the next.
    """
    column = v.reshape((1, -1) + (1,) * (len(shape) - 2))
    if not temps.small:
        return column
    operand = temps.buffer("operand", (1,) + tuple(shape[1:]), v.dtype)
    np.copyto(operand, column)
    return operand


def _fold_patch_grads(
    ctx: OpCtx, ws: Workspace | None, acc, x_shape, kh: int, kw: int, stride: int,
    padding: int, ckk: int, dtype, fill, index: np.ndarray | None = None,
) -> None:
    """Route patch gradients to input 0: ``acc(0, col2im(fill(gcols)))``.

    ``fill(gcols)`` overwrites the ``(N, C*KH*KW, OH*OW)`` patch gradients.
    On narrow maps ``gcols`` is the body of the zero-column row buffer the
    flat-index fold gathers from (see :func:`col2im`), so the gradients land
    there without a copy; an armed ctx keeps those buffers and the index as
    a plan.  Otherwise the offset loop folds them.  ``index``, when given,
    is the fold index of another patch layout (the small-map depthwise
    form's offset-major patches), and always takes the flat-index fold.
    Every workspace buffer is released once ``acc`` has consumed the values.
    """
    plan = None if ctx.bufs is None else ctx.bufs.get("fold_plan")
    if plan is None or plan[0] != x_shape:
        n, c, h, w = x_shape
        out_h = conv_output_size(h, kh, stride, padding)
        out_w = conv_output_size(w, kw, stride, padding)
        ohw = out_h * out_w
        if index is None and not _narrow(out_w):
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
        if index is None:
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
    flat_weight = w.reshape(c, kk)  # (C, KH*KW)
    # einsum runs a 1x1 output through another loop, and sums 8 or more
    # terms per lane pass in another order, so those outputs keep it.
    temps = _Temps(ctx, _small_map(x.shape) and 1 < ohw < _SMALL_MAP)
    ws = temps.ws
    cols = None
    if ws is not None or ctx.bufs is not None:
        cols = _scratch(ctx, ws, "cols", (n, c * kk, ohw), x.dtype)
    out = ctx.buffer("out", (n, c, ohw), x.dtype)
    if temps.small:
        # Offset-major patches (N, KH*KW, C, OH*OW): einsum's sum over the
        # offsets, from +0 in offset order, as one reduce over the products.
        rows = None
        if padding > 0:
            rows = temps.buffer("rows", (n, c * h * w_in + 1), x.dtype)
            rows[:, -1] = 0
        index = _offset_major_index(c, h, w_in, kh, kw, stride, padding)[0]
        cols4 = _gather_patches(x, index, cols, rows).reshape(n, kk, c, ohw)
        weights = _offset_weights(flat_weight, ohw, temps)
        products = np.multiply(cols4, weights, out=temps.buffer("products", cols4.shape, x.dtype))
        np.add.reduce(products, axis=1, out=out)
        if _has_nan(out):  # einsum's operand order picks which NaN survives
            np.einsum("nckp,ck->ncp", _channel_major(cols4), flat_weight, out=out)
    else:
        if ctx.bufs is None:
            cols = im2col(x, kh, kw, stride, padding, out=cols)
        else:
            cols = _armed_im2col(ctx, x, kh, kw, stride, padding, cols)
        np.einsum("nckp,ck->ncp", cols.reshape(n, c, kk, ohw), flat_weight, out=out)
    if b is not None:
        out += _per_channel(b, out.shape, temps)
    temps.release()
    ctx.saved = (x.shape, w.shape, cols, flat_weight, ws, temps.small, (n, c, kk, ohw, kh, kw, stride, padding))
    return out.reshape(n, c, out_h, out_w)


def _offset_weights(flat_weight: np.ndarray, ohw: int, temps: _Temps) -> np.ndarray:
    """The ``(C, KH*KW)`` depthwise weights as a contiguous ``(KH*KW, C, OH*OW)``
    operand of the offset-major patches."""
    c, kk = flat_weight.shape
    weights = temps.buffer("weights", (kk, c, ohw), flat_weight.dtype)
    np.copyto(weights, flat_weight.T[:, :, None])
    return weights


def _channel_major(cols4: np.ndarray) -> np.ndarray:
    """Offset-major patches copied to the ``(N, C, KH*KW, OH*OW)`` layout of
    the einsums, which iterate in a different order over other layouts."""
    return np.ascontiguousarray(cols4.transpose(0, 2, 1, 3))


def _lane_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the last axis of ``terms`` (2 to 7 long) as einsum's sum of
    products does, in place; returns a view of the sums.

    einsum's 4-lane loop puts term ``j`` in lane ``j % 4``, each lane summed
    in order, then adds the lanes as ``(l0 + l1) + (l2 + l3)``.  Its lanes
    start from +0; this sum does not, which changes only the sign of a zero
    sum, and the batch sum that follows from +0 erases that.
    """
    p = terms.shape[-1]
    for j in range(p - 4):
        terms[..., j] += terms[..., j + 4]
    terms[..., 0] += terms[..., 1]
    if p > 3:
        terms[..., 2] += terms[..., 3]
    if p > 2:
        terms[..., 0] += terms[..., 2]
    return terms[..., 0]


def _depthwise_discard(ctx: OpCtx) -> None:
    cols, ws = ctx.saved[2], ctx.saved[4]
    if ws is not None:
        ws.release(cols)


def _depthwise_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    x_shape, w_shape, cols, flat_weight, ws, offset_major, geom = ctx.saved
    n, c, kk, ohw, kh, kw, stride, padding = geom
    grad3 = grad.reshape(n, c, ohw)
    temps = _Temps(ctx, offset_major)
    if len(needs) == 3 and needs[2]:
        acc(2, _channel_sum(grad3, temps))
    if needs[1]:
        grad_w = None
        # The einsum iterates a non-contiguous gradient in another order.
        if offset_major and grad.flags.c_contiguous:
            cols4 = cols.reshape(n, kk, c, ohw)
            terms = temps.buffer("terms", cols4.shape, grad.dtype)
            lanes = _lane_sum(np.multiply(cols4, grad3[:, None], out=terms))
            grad_w = np.add.reduce(lanes, axis=0).T  # summed over the batch from +0
        if grad_w is None or _has_nan(grad_w):
            cols4 = cols.reshape(n, c, kk, ohw)
            if offset_major:
                cols4 = _channel_major(cols.reshape(n, kk, c, ohw))
            grad_w = np.einsum("ncp,nckp->ck", grad3, cols4)
        acc(1, grad_w.reshape(w_shape))
    if needs[0]:
        index = None
        if offset_major:
            index = _offset_major_index(c, *x_shape[2:], kh, kw, stride, padding)[1]

        def fill(gcols):
            if not offset_major:
                gcols = gcols.reshape(n, c, kk, ohw)
                return np.einsum("ncp,ck->nckp", grad3, flat_weight, out=gcols)
            gcols = gcols.reshape(n, kk, c, ohw)
            if not _has_nan(flat_weight):
                # The products einsum writes, up to the sign of zeros, which
                # the fold's sum from +0 erases.  NaN * NaN keeps whichever
                # NaN the loop reads first, so NaN weights take einsum.
                weights = _offset_weights(flat_weight, ohw, temps)
                return np.multiply(grad3[:, None], weights, out=gcols)
            products = np.einsum("ncp,ck->nckp", grad3, flat_weight)
            np.copyto(gcols, products.transpose(0, 2, 1, 3))

        _fold_patch_grads(
            ctx, ws, acc, x_shape, kh, kw, stride, padding, c * kk, grad.dtype, fill, index
        )
    temps.release()
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


def _bn_temps(ctx: OpCtx, shape, training: bool) -> _Temps:
    """Batch norm's temporaries; only training-mode calls take the small-map form."""
    return _Temps(ctx, training and _small_map(shape))


def _bn_normalize(ctx: OpCtx, inputs, mean, var, eps: float, training: bool) -> np.ndarray:
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` over NCHW channels."""
    x = inputs[0]
    mean_b = mean.reshape(1, -1, 1, 1).astype(x.dtype)
    x_hat = np.subtract(x, mean_b, out=ctx.buffer("x_hat", x.shape, x.dtype))
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    return _bn_affine(ctx, _bn_temps(ctx, x.shape, training), inputs, x_hat, inv_std, training)


def _bn_affine(ctx: OpCtx, temps: _Temps, inputs, x_hat, inv_std, training: bool) -> np.ndarray:
    """Scale the centred ``x_hat`` by ``inv_std`` in place, then return
    ``gamma * x_hat + beta``; saves what :func:`_bn_vjp` reads."""
    _, g, b = inputs
    x_hat *= _per_channel(inv_std, x_hat.shape, temps)
    out = ctx.buffer("out", x_hat.shape, x_hat.dtype)
    np.multiply(_per_channel(g, x_hat.shape, temps), x_hat, out=out)
    out += _per_channel(b, x_hat.shape, temps)
    temps.release()
    ctx.saved = (x_hat, inv_std, g, training)
    return out


def _bn_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    """Backward of the batch-norm ops, contributions in beta → gamma → x order.

    The beta/gamma sums double as the mean statistics of the training-mode
    input gradient (mean = sum / count, the exact op np.mean performs), so
    each full-size product and reduction is computed once and shared.
    """
    x_hat, inv_std, g, training = ctx.saved
    temps = _bn_temps(ctx, grad.shape, training)
    need_x = needs[0]
    grad_sum = None
    if needs[2] or (need_x and training):
        grad_sum = _channel_sum(grad, temps)
    if needs[2]:
        acc(2, grad_sum)
    grad_xhat_sum = None
    if needs[1] or (need_x and training):
        grad_xhat = np.multiply(grad, x_hat, out=temps.buffer("gxh", grad.shape, grad.dtype))
        grad_xhat_sum = _channel_sum(grad_xhat, temps)
    if needs[1]:
        acc(1, grad_xhat_sum)
    if need_x:
        scale = g * inv_std
        gx = temps.buffer("gx", grad.shape, grad.dtype)
        if training:
            # Full training-mode gradient, d/dx of ((x - mu(x)) / sigma(x)):
            # scale * (grad - grad_mean - x_hat * grad_xhat_mean).
            count = grad.shape[0] * grad.shape[2] * grad.shape[3]
            np.subtract(grad, _per_channel(grad_sum / count, grad.shape, temps), out=gx)
            grad_xhat_mean = _per_channel(grad_xhat_sum / count, grad.shape, temps)
            gx -= np.multiply(x_hat, grad_xhat_mean, out=grad_xhat)  # dead once summed
            np.multiply(_per_channel(scale, grad.shape, temps), gx, out=gx)
        else:
            np.multiply(grad, scale.reshape(1, -1, 1, 1), out=gx)
        acc(0, gx)
    temps.release()


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
    x = inputs[0]
    bn = kwargs["bn"]
    n, _, h, w = x.shape
    temps = _bn_temps(ctx, x.shape, True)
    # Batch statistics by ``np.var``'s own sequence (``np._methods._var``):
    # sum → divide → subtract → square → sum → divide, with _var's intp
    # divisor, so the f8-loop-then-cast rounding matches and the mean is
    # ``x.mean``'s bit for bit.  The centred difference is kept: it is the
    # x_hat numerator.
    count = np.intp(n * h * w)
    mean = _channel_sum(x, temps)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    x_hat = np.subtract(
        x, _per_channel(mean, x.shape, temps), out=ctx.buffer("x_hat", x.shape, x.dtype)
    )
    squares = np.multiply(x_hat, x_hat, out=temps.buffer("squares", x.shape, x.dtype))
    var = _channel_sum(squares, temps)
    np.true_divide(var, count, out=var, casting="unsafe")
    bn.running_mean[...] = (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
    bn.running_var[...] = (1 - bn.momentum) * bn.running_var + bn.momentum * var
    inv_std = (1.0 / np.sqrt(var + bn.eps)).astype(x.dtype)
    return _bn_affine(ctx, temps, inputs, x_hat, inv_std, True)


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
