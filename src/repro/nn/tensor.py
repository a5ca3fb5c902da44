"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the :mod:`repro.nn` substrate: a tape-based
``Tensor`` that records the operations applied to it and can replay them
backwards to accumulate gradients.  It deliberately mirrors the define-by-run
semantics of mainstream frameworks (every forward op runs a registry
:class:`~repro.nn.ops.OpDef` through :func:`run_op`, and its output keeps the
``(op, ctx, needs)`` record that ``backward`` hands to ``op.vjp``), because the
paper's five mitigation techniques are all expressed as modifications of a
standard gradient-descent training loop.

Only the operator set needed by the reproduction is implemented, but each op
handles full NumPy broadcasting so the layer implementations stay simple.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .context import current_context, scope
from .ops import OpCtx, OpDef, register_op

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "run_op"]


def no_grad() -> scope:
    """Scope that disables gradient tape recording on the calling thread.

    Used by evaluation loops and by the fitted-model prediction paths so that
    inference does not pay the cost of building a backward graph; inference
    on a serving thread never disables another thread's tape.
    """
    return scope(grad=False)


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape."""
    return current_context().grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    When a forward op broadcast an operand from ``shape`` up to ``grad.shape``,
    the gradient w.r.t. that operand is the sum of ``grad`` over every axis the
    broadcast expanded.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    squeeze_axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: "Tensor | np.ndarray | float | int | Sequence") -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float32)


class Tensor:
    """A NumPy array with an attached gradient tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless already a
        ``float32``/``float64`` NumPy array (``float64`` arrays are preserved
        for gradient checking — everything else, including Python scalars and
        lists, becomes ``float32`` so constants cannot promote a computation
        to double precision).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_record")

    def __init__(
        self,
        data: "np.ndarray | float | int | Sequence",
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _record: "tuple[OpDef, OpCtx, tuple[bool, ...]] | None" = None,
    ) -> None:
        if isinstance(data, Tensor):  # defensive: wrapping a Tensor is a bug upstream
            raise TypeError("cannot wrap a Tensor inside a Tensor")
        if isinstance(data, np.ndarray):
            # Respect an explicit float64 array (gradient checking relies on
            # it); convert every other dtype to the framework's float32.
            arr = data if data.dtype in (np.float32, np.float64) else data.astype(np.float32)
        else:
            # Python scalars and sequences default to float64 under
            # ``np.asarray``; pin them to float32 so wrapping a constant can
            # never promote a whole downstream computation to float64.
            arr = np.asarray(data, dtype=np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        # ``(op, ctx, needs)`` of the op that produced this tensor on the
        # tape; ``None`` for leaves.  It never refers back to the tensor
        # itself, so dropped activations are freed by refcount, not the GC.
        self._record = _record

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def _op(self) -> str:
        return self._record[0].name if self._record is not None else ""

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op or 'leaf'})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar payload; raises if the tensor is not 0-d/1-element."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data, off the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_parent(self, index: int, grad: np.ndarray) -> None:
        """The ``acc`` callback ``op.vjp`` routes this node's input cotangents to."""
        self._parents[index]._accumulate(grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient of exactly this tensor's shape.  Defaults to ones,
            which for the usual scalar loss is the conventional ``dL/dL = 1``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=self.data.dtype)
        if seed.shape != self.shape:
            raise ValueError(
                f"seed gradient of shape {seed.shape} does not match tensor of shape {self.shape}"
            )

        # Topological sort of the tape reachable from this tensor.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # A recording tape needs the exact DFS order: float32 gradient
        # accumulation is order-sensitive, so a compiled replay must run vjps
        # in precisely this sequence to stay bitwise-equal (see nn.compile).
        tape = current_context().tape
        if tape is not None:
            tape.set_topo(topo, self)

        self._accumulate(seed)
        for node in reversed(topo):
            if node._record is not None and node.grad is not None:
                op, ctx, needs = node._record
                op.vjp(ctx, node.grad, needs, node._accumulate_parent)

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return run_op(_ADD, (self, other_t), _NO_KWARGS)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return run_op(_NEG, (self,), _NO_KWARGS)

    def __sub__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return run_op(_SUB, (self, other_t), _NO_KWARGS)

    def __rsub__(self, other: "float | np.ndarray") -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return run_op(_MUL, (self, other_t), _NO_KWARGS)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return run_op(_DIV, (self, other_t), _NO_KWARGS)

    def __rtruediv__(self, other: "float | np.ndarray") -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        return run_op(_POW, (self,), {"exponent": exponent})

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return run_op(_MATMUL, (self, other_t), _NO_KWARGS)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return run_op(_EXP, (self,), _NO_KWARGS)

    def log(self) -> "Tensor":
        return run_op(_LOG, (self,), _NO_KWARGS)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        return run_op(_ABS, (self,), _NO_KWARGS)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient flows only through the unclipped region."""
        return run_op(_CLIP, (self,), {"low": low, "high": high})

    def relu(self) -> "Tensor":
        return run_op(_RELU, (self,), _NO_KWARGS)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        return run_op(_LEAKY_RELU, (self,), {"negative_slope": negative_slope})

    def sigmoid(self) -> "Tensor":
        return run_op(_SIGMOID, (self,), _NO_KWARGS)

    def tanh(self) -> "Tensor":
        return run_op(_TANH, (self,), _NO_KWARGS)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        return run_op(_SUM, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return run_op(_MAX, (self,), {"axis": axis, "keepdims": keepdims})

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Minimum reduction (gradient split equally among ties)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mean = self.mean(axis=axis, keepdims=True)
        squared = (self - mean) ** 2
        return squared.mean(axis=axis, keepdims=keepdims)

    def std(
        self,
        axis: int | tuple[int, ...] | None = None,
        keepdims: bool = False,
        eps: float = 1e-12,
    ) -> "Tensor":
        """Population standard deviation; ``eps`` keeps the sqrt differentiable
        at zero variance."""
        return (self.var(axis=axis, keepdims=keepdims) + eps) ** 0.5

    @staticmethod
    def stack(tensors: "Iterable[Tensor]", axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis with gradient routing."""
        tensors = tuple(tensors)
        if not tensors:
            raise ValueError("stack needs at least one tensor")
        return run_op(_STACK, tensors, {"axis": axis})

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return run_op(_RESHAPE, (self,), {"shape": shape})

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        return run_op(_TRANSPOSE, (self,), {"axes": axes_t})

    def __getitem__(self, index: object) -> "Tensor":
        return run_op(_GETITEM, (self,), {"index": index})

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the two trailing spatial axes of an NCHW tensor."""
        if padding == 0:
            return self
        return run_op(_PAD2D, (self,), {"padding": padding})

    @staticmethod
    def concatenate(tensors: "Iterable[Tensor]", axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        return run_op(_CONCAT, tuple(tensors), {"axis": axis})


# ----------------------------------------------------------------------
# Registry-op dispatch
# ----------------------------------------------------------------------
_NO_KWARGS: dict = {}


def run_op(op: OpDef, inputs: tuple["Tensor", ...], kwargs: dict) -> "Tensor":
    """Execute a registry op eagerly, recording it on the active tape.

    The eager twin of a compiled executor's inner loop: run ``apply``, and if
    any input is on the tape keep ``(op, ctx, needs)`` on the output so
    ``Tensor.backward`` can call the op's ``vjp`` — the identical ``apply``/
    ``vjp`` bodies later replayed by :class:`repro.nn.compile.CompiledStep`.
    """
    ctx = OpCtx()
    out_data = op.apply(ctx, tuple(t.data for t in inputs), kwargs)
    state = current_context()
    if not (state.grad and any(t.requires_grad for t in inputs)):
        if op.discard is not None:
            op.discard(ctx)
        out = Tensor(out_data)
        tape = state.tape
        if tape is not None and (state.grad or tape.forward_only):
            # Grad-free ops still go on a recording tape: their outputs feed
            # later entries as *computed* values, and the planner must re-run
            # them every step rather than freeze them as constants.  Under
            # ``no_grad`` only a forward plan's tape records.
            tape.record(op, inputs, out, kwargs)
        return out
    needs = tuple(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=True, _parents=inputs, _record=(op, ctx, needs))
    if state.tape is not None:
        state.tape.record(op, inputs, out, kwargs)
    return out


# ----------------------------------------------------------------------
# Core op definitions
# ----------------------------------------------------------------------
# Where an apply/vjp has an armed branch (``ctx.bufs`` set by a compiled
# replay), it differs from the eager branch only by computing into a
# persistent ``out=`` buffer — same ufunc, same values.  Ops without one
# allocate in both modes.


def _out_spec(a: np.ndarray, b: np.ndarray) -> tuple:
    """Shape and dtype of a binary ufunc's result, without the per-call cost
    of ``np.broadcast_shapes`` in the common cases: equal shapes, or ``b``
    matching ``a``'s trailing axes (a bias, a scalar)."""
    shape = a.shape
    if shape != b.shape and shape[a.ndim - b.ndim :] != b.shape:
        shape = np.broadcast_shapes(shape, b.shape)
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return shape, dtype


def _add_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    a, b = inputs
    ctx.saved = (a.shape, b.shape)
    if ctx.bufs is None:
        return a + b
    return np.add(a, b, out=ctx.buffer("out", *_out_spec(a, b)))


def _add_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a_shape, b_shape = ctx.saved
    if needs[0]:
        acc(0, _unbroadcast(grad, a_shape))
    if needs[1]:
        acc(1, _unbroadcast(grad, b_shape))


def _mul_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    a, b = inputs
    ctx.saved = (a, b)
    if ctx.bufs is None:
        return a * b
    return np.multiply(a, b, out=ctx.buffer("out", *_out_spec(a, b)))


def _mul_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a, b = ctx.saved
    if ctx.bufs is None:
        if needs[0]:
            acc(0, _unbroadcast(grad * b, a.shape))
        if needs[1]:
            acc(1, _unbroadcast(grad * a, b.shape))
        return
    if needs[0]:
        ga = np.multiply(
            grad, b, out=ctx.buffer("ga", np.broadcast_shapes(grad.shape, b.shape), np.result_type(grad, b))
        )
        acc(0, _unbroadcast(ga, a.shape))
    if needs[1]:
        gb = np.multiply(
            grad, a, out=ctx.buffer("gb", np.broadcast_shapes(grad.shape, a.shape), np.result_type(grad, a))
        )
        acc(1, _unbroadcast(gb, b.shape))


def _matmul_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    a, b = inputs
    ctx.saved = (a, b)
    if ctx.bufs is None or a.ndim != 2 or b.ndim != 2:
        return a @ b
    return np.matmul(a, b, out=ctx.buffer("out", (a.shape[0], b.shape[1]), np.result_type(a, b)))


def _matmul_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a, b = ctx.saved
    armed = ctx.bufs is not None and a.ndim == 2 and b.ndim == 2
    if needs[0]:
        if armed:
            ga = ctx.buffer("ga", a.shape, np.result_type(grad, b))
            acc(0, np.matmul(grad, b.swapaxes(-1, -2), out=ga))
        else:
            acc(0, grad @ b.swapaxes(-1, -2))
    if needs[1]:
        if armed:
            gb = ctx.buffer("gb", b.shape, np.result_type(a, grad))
            acc(1, np.matmul(a.swapaxes(-1, -2), grad, out=gb))
        else:
            acc(1, a.swapaxes(-1, -2) @ grad)


def _relu_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    if ctx.bufs is None:
        mask = a > 0
        ctx.saved = mask
        return a * mask
    mask = np.greater(a, 0, out=ctx.buffer("mask", a.shape, np.bool_))
    ctx.saved = mask
    return np.multiply(a, mask, out=ctx.buffer("out", a.shape, a.dtype))


def _relu_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    if ctx.bufs is None:
        acc(0, grad * ctx.saved)
    else:
        acc(0, np.multiply(grad, ctx.saved, out=ctx.buffer("gx", grad.shape, grad.dtype)))


def _sum_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    axis = kwargs["axis"]
    keepdims = kwargs["keepdims"]
    ctx.saved = (a.shape, axis, keepdims)
    return a.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    in_shape, axis, keepdims = ctx.saved
    g = grad
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else axis
        ndim = len(in_shape)
        for ax in sorted(a % ndim for a in axes):
            g = np.expand_dims(g, ax)
    if ctx.bufs is None:
        acc(0, np.broadcast_to(g, in_shape).copy())
    else:
        gx = ctx.buffer("gx", tuple(in_shape), grad.dtype)
        np.copyto(gx, g)
        acc(0, gx)


def _exp_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    if ctx.bufs is None:
        out = np.exp(a)
    else:
        out = np.exp(a, out=ctx.buffer("out", a.shape, a.dtype))
    ctx.saved = out
    return out


def _exp_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    out = ctx.saved
    if ctx.bufs is None:
        acc(0, grad * out)
    else:
        acc(0, np.multiply(grad, out, out=ctx.buffer("gx", grad.shape, grad.dtype)))


def _tanh_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    if ctx.bufs is None:
        out = np.tanh(a)
    else:
        out = np.tanh(a, out=ctx.buffer("out", a.shape, a.dtype))
    ctx.saved = out
    return out


def _tanh_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    out = ctx.saved
    if ctx.bufs is None:
        acc(0, grad * (1.0 - out**2))
        return
    tmp = np.power(out, 2, out=ctx.buffer("tmp", out.shape, out.dtype))
    np.subtract(1.0, tmp, out=tmp)
    acc(0, np.multiply(grad, tmp, out=ctx.buffer("gx", grad.shape, grad.dtype)))


def _reshape_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    ctx.saved = a.shape
    return a.reshape(kwargs["shape"])


def _reshape_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if needs[0]:
        acc(0, grad.reshape(ctx.saved))


def _neg_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    return -inputs[0]


def _neg_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if needs[0]:
        acc(0, -grad)


def _sub_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    a, b = inputs
    ctx.saved = (a.shape, b.shape)
    return a - b


def _sub_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a_shape, b_shape = ctx.saved
    if needs[0]:
        acc(0, _unbroadcast(grad, a_shape))
    if needs[1]:
        acc(1, _unbroadcast(-grad, b_shape))


def _div_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    a, b = inputs
    ctx.saved = (a, b)
    return a / b


def _div_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a, b = ctx.saved
    if needs[0]:
        acc(0, _unbroadcast(grad / b, a.shape))
    if needs[1]:
        acc(1, _unbroadcast(-grad * a / (b**2), b.shape))


def _pow_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    exponent = kwargs["exponent"]
    ctx.saved = (a, exponent)
    return a**exponent


def _pow_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a, exponent = ctx.saved
    if needs[0]:
        acc(0, grad * exponent * a ** (exponent - 1))


def _log_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    ctx.saved = inputs[0]
    return np.log(inputs[0])


def _log_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if needs[0]:
        acc(0, grad / ctx.saved)


def _abs_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    ctx.saved = inputs[0]
    return np.abs(inputs[0])


def _abs_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if needs[0]:
        acc(0, grad * np.sign(ctx.saved))


def _clip_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    low, high = kwargs["low"], kwargs["high"]
    ctx.saved = (a, low, high)
    return np.clip(a, low, high)


def _clip_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a, low, high = ctx.saved
    if needs[0]:
        mask = (a >= low) & (a <= high)
        acc(0, grad * mask)


def _leaky_relu_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    mask = a > 0
    scale = np.where(mask, 1.0, kwargs["negative_slope"]).astype(a.dtype)
    ctx.saved = scale
    return a * scale


def _leaky_relu_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if needs[0]:
        acc(0, grad * ctx.saved)


def _sigmoid_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    out = 1.0 / (1.0 + np.exp(-inputs[0]))
    ctx.saved = out
    return out


def _sigmoid_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    out = ctx.saved
    if needs[0]:
        acc(0, grad * out * (1.0 - out))


def _max_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    axis, keepdims = kwargs["axis"], kwargs["keepdims"]
    out = a.max(axis=axis, keepdims=keepdims)
    ctx.saved = (a, out, axis, keepdims)
    return out


def _max_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if not needs[0]:
        return
    a, out, axis, keepdims = ctx.saved
    g = grad
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
        out = np.expand_dims(out, axis)
    mask = (a == out).astype(a.dtype)
    # Split gradient equally among ties to keep the op well-defined.
    denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    acc(0, g * mask / denom)


def _stack_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    ctx.saved = kwargs["axis"]
    return np.stack(inputs, axis=kwargs["axis"])


def _stack_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    slices = np.moveaxis(grad, ctx.saved, 0)
    for i, piece in enumerate(slices):
        if needs[i]:
            acc(i, piece)


def _transpose_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    axes = kwargs["axes"]
    ctx.saved = tuple(np.argsort(axes))
    return inputs[0].transpose(axes)


def _transpose_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    if needs[0]:
        acc(0, grad.transpose(ctx.saved))


def _getitem_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    (a,) = inputs
    index = kwargs["index"]
    ctx.saved = (a, index)
    return a[index]


def _getitem_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    a, index = ctx.saved
    if needs[0]:
        full = np.zeros_like(a)
        np.add.at(full, index, grad)
        acc(0, full)


def _pad2d_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    padding = kwargs["padding"]
    ctx.saved = padding
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    return np.pad(inputs[0], pad_width)


def _pad2d_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    padding = ctx.saved
    if needs[0]:
        acc(0, grad[:, :, padding:-padding, padding:-padding])


def _concat_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
    axis = kwargs["axis"]
    out = np.concatenate(inputs, axis=axis)
    sizes = [a.shape[axis] for a in inputs]
    ctx.saved = (axis, np.cumsum([0] + sizes))
    return out


def _concat_vjp(ctx: OpCtx, grad, needs, acc) -> None:
    axis, offsets = ctx.saved
    for i, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        if needs[i]:
            slicer: list[slice] = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            acc(i, grad[tuple(slicer)])


_ADD = register_op("add", _add_apply, _add_vjp)
_MUL = register_op("mul", _mul_apply, _mul_vjp)
_MATMUL = register_op("matmul", _matmul_apply, _matmul_vjp)
_RELU = register_op("relu", _relu_apply, _relu_vjp)
_EXP = register_op("exp", _exp_apply, _exp_vjp)
_TANH = register_op("tanh", _tanh_apply, _tanh_vjp)
_SUM = register_op("sum", _sum_apply, _sum_vjp)
_RESHAPE = register_op("reshape", _reshape_apply, _reshape_vjp)
_NEG = register_op("neg", _neg_apply, _neg_vjp)
_SUB = register_op("sub", _sub_apply, _sub_vjp)
_DIV = register_op("div", _div_apply, _div_vjp)
_POW = register_op("pow", _pow_apply, _pow_vjp)
_LOG = register_op("log", _log_apply, _log_vjp)
_ABS = register_op("abs", _abs_apply, _abs_vjp)
_CLIP = register_op("clip", _clip_apply, _clip_vjp)
_LEAKY_RELU = register_op("leaky_relu", _leaky_relu_apply, _leaky_relu_vjp)
_SIGMOID = register_op("sigmoid", _sigmoid_apply, _sigmoid_vjp)
_MAX = register_op("max", _max_apply, _max_vjp)
_STACK = register_op("stack", _stack_apply, _stack_vjp)
_TRANSPOSE = register_op("transpose", _transpose_apply, _transpose_vjp)
_GETITEM = register_op("getitem", _getitem_apply, _getitem_vjp)
_PAD2D = register_op("pad2d", _pad2d_apply, _pad2d_vjp)
_CONCAT = register_op("concat", _concat_apply, _concat_vjp)
