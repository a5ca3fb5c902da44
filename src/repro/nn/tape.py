"""Recording tape for the record → plan → execute training pipeline.

A :class:`Tape` passively observes one training step: every registry op that
runs while a tape is active appends a :class:`TapeEntry` (op, input tensors,
output tensor, kwargs), and the first ``backward()`` that runs hands the tape
its topologically-sorted node list.  A ``forward_only`` tape observes one
inference forward instead: it also records the ops that run under
``no_grad``, which a training tape skips.  Recording changes nothing about
the step itself — ops still execute eagerly and the recorded step's results
are used normally — so the record step is just a regular step that happens
to leave a trace behind.

The captured topo order matters: gradient accumulation (``+=`` chains into
shared tensors) is order-sensitive in float32, and eager backward runs vjps
in reverse topological order as discovered by ``Tensor.backward``'s DFS.
Replaying that exact order is what keeps a compiled step bitwise-identical to
the eager one (see :mod:`repro.nn.compile`).
"""

from __future__ import annotations

from .context import current_context, scope

__all__ = ["Tape", "TapeEntry", "tape_scope", "active_tape"]


class TapeEntry:
    """One recorded op invocation: ``out = op(*inputs, **kwargs)``."""

    __slots__ = ("op", "inputs", "out", "kwargs")

    def __init__(self, op, inputs, out, kwargs) -> None:
        self.op = op
        self.inputs = inputs
        self.out = out
        self.kwargs = kwargs

    def __repr__(self) -> str:
        return f"TapeEntry({self.op.name}, n_inputs={len(self.inputs)})"


class Tape:
    """An append-only record of one step's op calls plus its backward order.

    Holds strong references to every tensor it saw, which keeps ``id()``-based
    bookkeeping in the planner unambiguous for the tape's lifetime.
    ``forward_only`` tapes record ops run under ``no_grad`` too: they feed
    :func:`~repro.nn.compile.compile_forward`, not a training step.
    """

    def __init__(self, forward_only: bool = False) -> None:
        self.entries: list[TapeEntry] = []
        self.topo: list | None = None
        self.root = None
        self.forward_only = forward_only

    def record(self, op, inputs, out, kwargs) -> None:
        self.entries.append(TapeEntry(op, inputs, out, kwargs))

    def set_topo(self, topo: list, root) -> None:
        """Capture the backward topological order (first backward call wins)."""
        if self.topo is None:
            self.topo = list(topo)
            self.root = root

    def __len__(self) -> int:
        return len(self.entries)


def active_tape() -> Tape | None:
    """The tape currently recording on this thread, or ``None``."""
    return current_context().tape


def tape_scope(tape: Tape) -> scope:
    """Scope that records every registry op run inside it on ``tape``.

    Scopes nest by shadowing: the inner tape records until it exits, then the
    outer tape resumes.  Only the calling thread's ops are recorded.
    """
    return scope(tape=tape)
