"""The execution context: every knob that changes what an op does.

One frozen :class:`ExecutionContext` — kernel mode, grad mode, the recording
tape, row-stable inference and the kernel output tap — lives in one
:class:`contextvars.ContextVar`.  Each public knob scope (``no_grad``,
``tape_scope``, ``row_stable_inference``, ``kernel_tap_scope``,
``use_kernel_mode``) is a :class:`scope`, and each getter reads
:func:`current_context`.  Scopes nest and shadow, and hold only on the thread
that entered them: every thread starts at the defaults, and a forked child
keeps the forking thread's context.
"""

from __future__ import annotations

import contextvars
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .tape import Tape

__all__ = ["ExecutionContext", "current_context", "scope"]


class ExecutionContext(NamedTuple):
    """The knobs an op reads; the defaults are what a fresh thread sees."""

    #: ``fast``, ``reference`` or ``compiled`` (see :mod:`repro.nn.functional`).
    kernels: str = "fast"
    #: Whether ops record ``(op, ctx, needs)`` for ``backward``.
    grad: bool = True
    #: The :class:`~repro.nn.tape.Tape` recording every registry op, if any.
    tape: "Tape | None" = None
    #: Per-sample (batch-size-invariant) gemms in the batch-crossing layers.
    row_stable: bool = False
    #: ``tap(site, array)``, applied in place to each tapped kernel's output.
    tap: "Callable[[str, np.ndarray], None] | None" = None


_CONTEXT: contextvars.ContextVar[ExecutionContext] = contextvars.ContextVar(
    "repro_execution_context", default=ExecutionContext()
)

#: The calling thread's :class:`ExecutionContext` (the variable's bound
#: ``get``: one C call on the op hot path).
current_context = _CONTEXT.get


class scope:
    """Context manager running its body under the current context with
    ``changes`` applied; exiting restores exactly what was there before."""

    def __init__(self, **changes: object) -> None:
        self.changes = changes

    def __enter__(self) -> "scope":
        self._token = _CONTEXT.set(_CONTEXT.get()._replace(**self.changes))
        return self

    def __exit__(self, *exc_info: object) -> None:
        _CONTEXT.reset(self._token)
