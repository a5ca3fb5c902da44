"""Declarative op registry for the record → plan → execute autodiff pipeline.

The registry is the only autodiff mechanism in :mod:`repro.nn`: every
differentiable op is data (an :class:`OpDef` holding a pure ``apply`` and a
pure ``vjp``) plus a per-call :class:`OpCtx` carrying the saved
intermediates.  Eager mode runs ops immediately — :func:`~repro.nn.tensor.run_op`
calls ``apply`` and leaves ``(op, ctx, needs)`` on the output for
``Tensor.backward`` to hand to ``vjp`` — and because the op is data, a
recorded step can be replayed without rebuilding the graph (see
:mod:`repro.nn.compile`).

Bitwise contract
----------------
``apply`` and ``vjp`` are the *single* implementation used by both eager and
compiled execution, so the two modes perform the identical float operation
sequence by construction.  The only compiled-mode difference is *where*
results land: when an executor pre-arms ``ctx.bufs``, applies may compute into
persistent ``out=`` buffers instead of fresh allocations — same ufunc/GEMM
call, same values, no allocator traffic.

Contracts:

``apply(ctx, inputs, kwargs) -> np.ndarray``
    Pure function of the input arrays and kwargs (``stateful`` ops may also
    advance an rng or running statistics referenced via kwargs).  Saves
    whatever the backward pass needs on ``ctx.saved``.

``vjp(ctx, grad, needs, acc)``
    Routes the output cotangent to the inputs: for each input ``i`` with
    ``needs[i]`` true, computes the gradient contribution and calls
    ``acc(i, g)``.  The callback owns accumulation (``Tensor._accumulate`` of
    input ``i`` in eager mode, a preplanned gradient slot in compiled mode),
    so contribution order — which fixes the bitwise result of ``+=`` chains —
    is identical in both modes.  ``ctx`` must not refer back to the op's
    output tensor: eager mode keeps ``ctx`` on that tensor, and the cycle
    would leave every activation to the cyclic garbage collector.

``discard(ctx)``
    Optional cleanup for the not-recording eager path (returns workspace
    buffers that ``vjp`` would otherwise release).

An op registered with a ``site`` is a hardware-fault tap site: its
:class:`OpDef` wraps ``apply`` once, so the calling thread's armed kernel tap
(:func:`repro.nn.functional.kernel_tap_scope`) mutates the output right
after it.  Eager dispatch, compiled replay and forward plans all call that
``apply``, so no executor or kernel body looks for the tap.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .context import current_context

__all__ = ["OpCtx", "OpDef", "OP_REGISTRY", "register_op"]


class OpCtx:
    """Per-call context: saved intermediates plus optional persistent buffers.

    ``saved`` is whatever tuple the op's ``apply`` stashes for its ``vjp``.
    ``bufs`` is ``None`` in eager mode (every call allocates) and a dict in
    compiled execution, where the same :class:`OpCtx` instance is reused
    every step so :meth:`buffer` returns the same hot array each time.
    """

    __slots__ = ("saved", "bufs")

    def __init__(self, persistent: bool = False) -> None:
        self.saved = None
        self.bufs: dict | None = {} if persistent else None

    def buffer(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An output buffer: persistent across steps when armed, fresh otherwise."""
        if self.bufs is None:
            return np.empty(shape, dtype)
        buf = self.bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self.bufs[key] = self._allocate(shape, dtype)
        return buf

    def _allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Memory for a new persistent buffer (a forward plan's contexts
        draw it from the plan's liveness arena instead)."""
        return np.empty(shape, dtype)


class OpDef:
    """A differentiable op as data: name + pure apply/vjp (+ cleanup)."""

    __slots__ = ("name", "apply", "vjp", "discard", "stateful", "site")

    def __init__(
        self,
        name: str,
        apply: Callable,
        vjp: Callable,
        discard: Callable | None = None,
        stateful: bool = False,
        site: str | None = None,
    ) -> None:
        self.name = name
        self.apply = apply if site is None else _tapped(apply, site)
        self.vjp = vjp
        self.discard = discard
        # Stateful ops advance external state (an rng stream, batch-norm
        # running statistics) inside ``apply``; a planner must re-run them
        # every step and may never prune them.
        self.stateful = stateful
        #: The tap site this op's output is handed to, or ``None``.
        self.site = site

    def __repr__(self) -> str:
        flag = ", stateful" if self.stateful else ""
        return f"OpDef({self.name!r}{flag})"


def _tapped(apply: Callable, site: str) -> Callable:
    """``apply``, then the calling thread's armed tap on its output."""

    def tapped_apply(ctx: OpCtx, inputs, kwargs) -> np.ndarray:
        out = apply(ctx, inputs, kwargs)
        tap = current_context().tap
        if tap is not None:
            tap(site, out)
        return out

    return tapped_apply


#: Every registered op, by name.  Populated by :mod:`repro.nn.tensor` (tensor
#: arithmetic, elementwise, reduction and shape ops) and
#: :mod:`repro.nn.functional` (kernel ops) at import time.
OP_REGISTRY: dict[str, OpDef] = {}


def register_op(
    name: str,
    apply: Callable,
    vjp: Callable,
    discard: Callable | None = None,
    stateful: bool = False,
    site: str | None = None,
) -> OpDef:
    """Create and register an :class:`OpDef`; returns it for direct dispatch."""
    if name in OP_REGISTRY:
        raise ValueError(f"op {name!r} is already registered")
    op = OpDef(name, apply, vjp, discard=discard, stateful=stateful, site=site)
    OP_REGISTRY[name] = op
    return op
