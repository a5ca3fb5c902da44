"""Plan & execute: compile a recorded tape into a static training step.

This is the *plan* stage of the record → plan → execute pipeline
(:mod:`repro.nn.tape` is the record stage).  :func:`compile_tape` takes one
recorded training step — the tape's op entries plus the backward topological
order captured by the step's ``backward()`` call — and emits a
:class:`CompiledStep`: a static schedule that replays the identical op
sequence without rebuilding the graph.  Steady-state replay does

- **no graph construction** — no ``Tensor`` wrappers, no op records, no
  per-step topological sort; just two flat lists of ``(apply, ctx, slots)``
  and ``(vjp, ctx, slots)`` steps,
- **no hot-loop allocation** — each entry owns a persistent
  :class:`~repro.nn.ops.OpCtx` whose output buffers are reused every step, the
  kernel ops keep drawing their scratch from the :mod:`repro.nn.workspace`
  arena, and gradients accumulate into preplanned per-slot buffers,
- **dead-adjoint elimination** — an entry's ``needs`` flags are frozen from
  ``requires_grad`` at record time, so cotangents for constant inputs are
  never computed.

Bitwise contract
----------------
A replayed step runs the same ``apply``/``vjp`` bodies, on the same values,
in the same order as the eager step it was recorded from — forward in
recorded order, backward in the captured DFS topological order (float32
``+=`` accumulation is order-sensitive, so the order *is* part of the
contract).  Gradient slots mirror ``Tensor._accumulate`` exactly: the first
contribution of a step is a copy, later ones are in-place ``+=``.  The
equivalence is locked by ``tests/nn/test_compiled_tape.py`` for all registry
networks.

Structural limits
-----------------
Every op is a registry :class:`~repro.nn.ops.OpDef`, so the planner sees the
whole graph.  Graphs are rejected with :exc:`CompileError` — and the trainer
falls back to eager, results unchanged — when they contain a non-scalar leaf
constant or an array op argument (e.g. a ``getitem`` index) whose value the
planner cannot prove step-invariant: a distillation teacher's per-batch
probabilities, or the ``(N, 1)`` row maxima that :func:`~repro.nn.functional.softmax`
and :func:`~repro.nn.functional.log_softmax` subtract as constants.  Scalar
leaves (shape-derived factors like ``1/N``) are assumed step-invariant for a
fixed geometry.  A non-leaf input computed before the recording scope opened
is refused too: the tape holds no entry that could recompute it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ops import OpCtx
from .tape import Tape
from .tensor import Tensor

__all__ = ["CompileError", "CompiledStep", "compile_tape"]


class CompileError(RuntimeError):
    """The recorded step cannot be compiled; callers should stay eager."""


class _SlotSpace:
    """Assigns one value slot per distinct tensor seen during planning."""

    def __init__(self) -> None:
        self.slot_of: dict[int, int] = {}
        self.tensors: list[Tensor] = []  # strong refs keep id()s unambiguous

    def slot(self, tensor: Tensor) -> int:
        key = id(tensor)
        existing = self.slot_of.get(key)
        if existing is not None:
            return existing
        index = len(self.tensors)
        self.slot_of[key] = index
        self.tensors.append(tensor)
        return index


class CompiledStep:
    """A static, replayable training step.

    Produced by :func:`compile_tape`; drive it as::

        loss_arr, logits_arr = step.forward((xb, targets))
        step.backward()          # assigns .grad on the bound parameters

    ``forward`` feeds must match the recorded shapes — the trainer keys its
    compile cache on the feed shapes and re-records when they change.
    """

    def __init__(
        self,
        forward_steps: list,
        backward_steps: list,
        feed_bindings: list[tuple[int, int]],
        feed_shapes: list[tuple[int, ...]],
        param_slots: list,
        vals: list,
        grad_dtypes: list,
        loss_slot: int,
        logits_slot: int,
        fwd_names: "list[str] | None" = None,
        bwd_names: "list[str] | None" = None,
    ) -> None:
        self._fwd = forward_steps
        self._bwd = backward_steps
        self._feed_bindings = feed_bindings
        self.feed_shapes = tuple(feed_shapes)
        self._param_slots = param_slots
        self._vals = vals
        self._grad_dtypes = grad_dtypes
        self._loss_slot = loss_slot
        self._logits_slot = logits_slot
        n = len(vals)
        self._grads: list[np.ndarray | None] = [None] * n
        self._written = [0] * n
        self._token = 0
        self._ones = np.ones_like(np.asarray(vals[loss_slot]))
        # Replay accounting, surfaced through trainer telemetry.
        self.steps_replayed = 0
        # Per-op profiling: None (the default) keeps forward/backward on the
        # branch-free armed loops; enable_profile() swaps in the timed twins.
        self.fwd_names = tuple(fwd_names or ("?",) * len(forward_steps))
        self.bwd_names = tuple(bwd_names or ("?",) * len(backward_steps))
        self._profile = None

    # -- introspection -------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._fwd)

    @property
    def n_backward(self) -> int:
        return len(self._bwd)

    @property
    def n_params(self) -> int:
        return len(self._param_slots)

    def __repr__(self) -> str:
        return (
            f"CompiledStep(entries={self.n_entries}, backward={self.n_backward}, "
            f"params={self.n_params}, feeds={len(self.feed_shapes)})"
        )

    # -- profiling -----------------------------------------------------
    @property
    def profile(self):
        """The live :class:`~repro.nn.profiler.StepProfile`, or ``None``."""
        return self._profile

    def enable_profile(self):
        """Arm per-op timing on subsequent replays (idempotent).

        Replayed values stay bitwise-identical — the profiled loops run the
        same ``apply``/``vjp`` bodies in the same order, only bracketed by
        ``perf_counter`` reads.  The unprofiled loops are untouched: the
        only cost when disabled is one ``is None`` check per ``forward``/
        ``backward`` *call*, never per op.
        """
        if self._profile is None:
            from .profiler import StepProfile

            self._profile = StepProfile(self.fwd_names, self.bwd_names)
        return self._profile

    def disable_profile(self):
        """Disarm profiling; returns the accumulated profile (or ``None``)."""
        profile, self._profile = self._profile, None
        return profile

    # -- execution -----------------------------------------------------
    def forward(self, feeds: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Replay the forward schedule on fresh feed arrays.

        Returns ``(loss, logits)`` as raw arrays (the loss is 0-d).
        """
        if self._profile is not None:
            return self._forward_profiled(feeds)
        vals = self._vals
        for arr, shape in zip(feeds, self.feed_shapes):
            if arr.shape != shape:
                raise ValueError(f"feed shape {arr.shape} does not match compiled {shape}")
        for feed_index, slot in self._feed_bindings:
            vals[slot] = feeds[feed_index]
        for param, slot in self._param_slots:
            # Read .data fresh each step: load_state_dict swaps the array.
            vals[slot] = param.data
        for apply, ctx, in_slots, out_slot, kwargs, cleanup in self._fwd:
            k = len(in_slots)
            if k == 1:
                inputs = (vals[in_slots[0]],)
            elif k == 2:
                inputs = (vals[in_slots[0]], vals[in_slots[1]])
            elif k == 3:
                inputs = (vals[in_slots[0]], vals[in_slots[1]], vals[in_slots[2]])
            else:
                inputs = tuple(vals[s] for s in in_slots)
            vals[out_slot] = apply(ctx, inputs, kwargs)
            if cleanup is not None:
                cleanup(ctx)
        return vals[self._loss_slot], vals[self._logits_slot]

    def _forward_profiled(self, feeds: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The timed twin of :meth:`forward` — identical ops, identical order."""
        from time import perf_counter

        profile = self._profile
        vals = self._vals
        for arr, shape in zip(feeds, self.feed_shapes):
            if arr.shape != shape:
                raise ValueError(f"feed shape {arr.shape} does not match compiled {shape}")
        for feed_index, slot in self._feed_bindings:
            vals[slot] = feeds[feed_index]
        for param, slot in self._param_slots:
            vals[slot] = param.data
        fwd_s, fwd_calls = profile.fwd_s, profile.fwd_calls
        for index, (apply, ctx, in_slots, out_slot, kwargs, cleanup) in enumerate(self._fwd):
            inputs = tuple(vals[s] for s in in_slots)
            t0 = perf_counter()
            vals[out_slot] = apply(ctx, inputs, kwargs)
            if cleanup is not None:
                cleanup(ctx)
            fwd_s[index] += perf_counter() - t0
            fwd_calls[index] += 1
        profile.steps += 1
        return vals[self._loss_slot], vals[self._logits_slot]

    def _acc(self, slot: int, g: np.ndarray) -> None:
        """Accumulate a cotangent into a slot's persistent gradient buffer.

        First contribution per step copies (``Tensor._accumulate`` does
        ``astype(dtype, copy=True)``), later ones add in place — the identical
        value sequence, without the per-step allocation.
        """
        buf = self._grads[slot]
        if buf is None or buf.shape != g.shape:
            buf = self._grads[slot] = np.empty(g.shape, dtype=self._grad_dtypes[slot])
        if self._written[slot] != self._token:
            np.copyto(buf, g)
            self._written[slot] = self._token
        else:
            buf += g

    def backward(self) -> None:
        """Replay the backward schedule; assigns ``.grad`` on bound params."""
        if self._profile is not None:
            return self._backward_profiled()
        self._token += 1
        self._acc(self._loss_slot, self._ones)
        grads = self._grads
        written = self._written
        token = self._token
        for vjp, ctx, out_slot, needs, acc in self._bwd:
            if written[out_slot] != token:
                # Mirrors eager's ``node.grad is None`` skip.
                continue
            vjp(ctx, grads[out_slot], needs, acc)
        for param, slot in self._param_slots:
            if written[slot] == token:
                param.grad = grads[slot]

    def _backward_profiled(self) -> None:
        """The timed twin of :meth:`backward` — identical vjps, identical order."""
        from time import perf_counter

        profile = self._profile
        self._token += 1
        self._acc(self._loss_slot, self._ones)
        grads = self._grads
        written = self._written
        token = self._token
        bwd_s, bwd_calls = profile.bwd_s, profile.bwd_calls
        for index, (vjp, ctx, out_slot, needs, acc) in enumerate(self._bwd):
            if written[out_slot] != token:
                continue
            t0 = perf_counter()
            vjp(ctx, grads[out_slot], needs, acc)
            bwd_s[index] += perf_counter() - t0
            bwd_calls[index] += 1
        for param, slot in self._param_slots:
            if written[slot] == token:
                param.grad = grads[slot]


def _is_array_arg(value) -> bool:
    """Whether an op argument is (or holds) an array a replay would freeze."""
    if isinstance(value, tuple):
        return any(_is_array_arg(v) for v in value)
    return isinstance(value, (np.ndarray, list))


def compile_tape(
    tape: Tape,
    loss: Tensor,
    logits: Tensor,
    feeds: Sequence[np.ndarray],
) -> CompiledStep:
    """Plan a :class:`CompiledStep` from one recorded training step.

    Parameters
    ----------
    tape:
        The :class:`~repro.nn.tape.Tape` that observed the step, including
        the backward topological order (``backward()`` must have run inside
        the recording scope).
    loss:
        The scalar loss tensor the recorded ``backward()`` was seeded from.
    logits:
        The model output tensor (returned by every replayed forward).
    feeds:
        The per-step input arrays of the recorded step, by object identity —
        typically ``(batch_images, batch_targets)``.  Leaf tensors whose
        ``.data`` *is* one of these arrays become feed slots; all other
        non-parameter leaves must be scalars, or compilation is refused.

    Raises
    ------
    CompileError
        If the step contains non-scalar constants or array op arguments,
        consumes a non-leaf computed before recording, or has no recorded
        backward.
    """
    if not tape.entries:
        raise CompileError("tape recorded no registry ops")
    if tape.topo is None:
        raise CompileError("no backward() ran inside the recording scope")
    if tape.root is not loss:
        raise CompileError("recorded backward root is not the loss tensor")

    entry_index_of = {id(e.out): i for i, e in enumerate(tape.entries)}
    if id(loss) not in entry_index_of:
        raise CompileError(f"loss is not a registry-op output (op={loss._op or 'leaf'!r})")
    if id(logits) not in entry_index_of:
        raise CompileError(f"logits is not a registry-op output (op={logits._op or 'leaf'!r})")

    space = _SlotSpace()
    feed_list = list(feeds)
    feed_shapes = [np.asarray(f).shape for f in feed_list]
    feed_bindings: list[tuple[int, int]] = []
    param_slots: list[tuple[Tensor, int]] = []
    const_slots: list[tuple[int, np.ndarray]] = []
    bound: set[int] = set()

    def bind_leaf(tensor: Tensor) -> None:
        slot = space.slot(tensor)
        if slot in bound:
            return
        bound.add(slot)
        if tensor._record is not None:
            raise CompileError(
                f"input from op {tensor._op!r} was computed outside the recording scope"
            )
        if tensor.requires_grad:
            param_slots.append((tensor, slot))
            return
        for i, feed in enumerate(feed_list):
            if tensor.data is feed:
                feed_bindings.append((i, slot))
                return
        if tensor.data.size != 1:
            raise CompileError(
                f"non-scalar constant of shape {tensor.shape} cannot be proven step-invariant"
            )
        const_slots.append((slot, tensor.data))

    # Forward schedule: every recorded entry, in recorded (eager) order.
    planned_fwd: list[tuple] = []
    for entry in tape.entries:
        for name, value in entry.kwargs.items():
            if _is_array_arg(value):
                raise CompileError(
                    f"array argument {name!r} of op {entry.op.name!r} "
                    "cannot be proven step-invariant"
                )
        for parent in entry.inputs:
            if id(parent) not in entry_index_of:
                bind_leaf(parent)
        in_slots = tuple(space.slot(t) for t in entry.inputs)
        out_slot = space.slot(entry.out)
        bound.add(out_slot)
        planned_fwd.append((entry, in_slots, out_slot))

    # Backward schedule: the captured DFS topological order, reversed,
    # restricted to registry-op outputs (leaves receive their gradients
    # through the accumulation callbacks).
    step = [None]  # resolved after CompiledStep exists; closures capture the cell

    def make_acc(in_slots: tuple[int, ...]):
        def acc(i: int, g: np.ndarray) -> None:
            step[0]._acc(in_slots[i], g)

        return acc

    ctxs = [OpCtx(persistent=True) for _ in tape.entries]
    backward_steps: list[tuple] = []
    bwd_names: list[str] = []
    backward_out_ids: set[int] = set()
    for node in reversed(tape.topo):
        idx = entry_index_of.get(id(node))
        if idx is None:
            continue
        entry = tape.entries[idx]
        needs = tuple(t.requires_grad for t in entry.inputs)
        in_slots = tuple(space.slot(t) for t in entry.inputs)
        backward_steps.append(
            (entry.op.vjp, ctxs[idx], space.slot(node), needs, make_acc(in_slots))
        )
        bwd_names.append(entry.op.name)
        backward_out_ids.add(id(node))

    # Entries outside the backward graph never run a vjp, so their workspace
    # cleanup (normally the vjp's job) runs right after apply instead.
    forward_steps: list[tuple] = []
    for idx, (entry, in_slots, out_slot) in enumerate(planned_fwd):
        cleanup = None
        if id(entry.out) not in backward_out_ids and entry.op.discard is not None:
            cleanup = entry.op.discard
        forward_steps.append(
            (entry.op.apply, ctxs[idx], in_slots, out_slot, entry.kwargs, cleanup)
        )

    vals: list = [None] * len(space.tensors)
    for slot, value in const_slots:
        vals[slot] = value
    loss_slot = space.slot(loss)
    vals[loss_slot] = loss.data  # seeds the ones template in CompiledStep
    grad_dtypes = [t.data.dtype for t in space.tensors]

    compiled = CompiledStep(
        forward_steps,
        backward_steps,
        feed_bindings,
        feed_shapes,
        param_slots,
        vals,
        grad_dtypes,
        loss_slot,
        space.slot(logits),
        fwd_names=[entry.op.name for entry, _, _ in planned_fwd],
        bwd_names=bwd_names,
    )
    step[0] = compiled
    return compiled
