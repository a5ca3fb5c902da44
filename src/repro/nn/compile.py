"""Plan & execute: compile a recorded tape into a static training step or forward.

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

Forward plans
-------------
:func:`compile_forward` plans one recorded *inference* forward (a
``forward_only`` tape, run under ``no_grad``) into a :class:`ForwardPlan`:
the forward schedule alone, with no adjoint slots, and every entry's
``discard`` right after its ``apply``, as the training step does for entries
outside its backward graph.  The plan's op contexts draw every buffer from a
liveness arena: a buffer's memory is reused once the last op that reads it
has run, so a plan holds about one stage's buffers instead of every op's.
Only the logits are copied out.  The same refusals apply, and the same
bitwise contract: ``tests/nn/test_forward_plan.py`` locks plan ≡ eager for
all registry networks.  :class:`~repro.serve.registry.ServableModel` serves
every prediction from one plan per thread and input shape.

A plan also knows which op first reads each parameter.  Every value computed
before that op is independent of the parameter, so after a change to some
parameters alone a replay may start at the first op reading any of them
(:meth:`ForwardPlan.first_reader`), from copies of the values live there that
an earlier run of the same feed kept (``run(feed, keep=...)``, then
:meth:`ForwardPlan.resume`).  The hardware-fault campaign resumes its
weight-fault trials this way.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .ops import OpCtx
from .tape import Tape
from .tensor import Tensor

__all__ = ["CompileError", "CompiledStep", "ForwardPlan", "compile_forward", "compile_tape"]


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


def _replay(steps: list, vals: list) -> None:
    """Run ``(apply, ctx, in_slots, out_slot, kwargs, cleanup)`` steps in order.

    The one forward loop of both replays; the common arities unpack without
    building a generator.
    """
    for apply, ctx, in_slots, out_slot, kwargs, cleanup in steps:
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
        _replay(self._fwd, vals)
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


#: Byte alignment of every arena block (one cache line).
_ALIGNMENT = 64


class _Arena:
    """Liveness-shared memory for a :class:`ForwardPlan`'s op buffers.

    Buffers are assigned during the plan's first run, in op order.  Each new
    buffer an op asks for takes the smallest free block that fits, or a new
    block.  A block is free again once no live value sits in it: a scratch
    buffer after its own op, an output (and any view of it) after the last
    op that reads it.  Later runs make the same requests in the same order
    and find every buffer already in place, so they allocate nothing.
    """

    def __init__(self) -> None:
        self.blocks: list[np.ndarray] = []  # flat uint8 memory, aligned
        self._end: list[int] = []  # last step each block is live
        self._index_of: dict[int, int] = {}  # id(block's allocation) -> index
        self.step = 0
        self.planning = True

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        if not self.planning:  # pragma: no cover - a plan's shapes never change
            return np.empty(shape, dtype)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        free = [
            i for i, end in enumerate(self._end)
            if end < self.step and self.blocks[i].nbytes >= nbytes
        ]
        if free:
            index = min(free, key=lambda i: self.blocks[i].nbytes)
        else:
            # Cache-line aligned, as NumPy aligns its own allocations: the
            # ufunc loops run measurably slower on 16-byte aligned output.
            memory = np.empty(nbytes + _ALIGNMENT, np.uint8)
            start = -memory.ctypes.data % _ALIGNMENT
            index = len(self.blocks)
            self.blocks.append(memory[start : start + nbytes])
            self._end.append(0)
            self._index_of[id(memory)] = index
        self._end[index] = self.step
        return self.blocks[index][:nbytes].view(dtype).reshape(shape)

    def hold(self, value: np.ndarray, end: int) -> None:
        """Keep the block ``value`` lives in (if any) until step ``end``."""
        root = value
        while isinstance(root.base, np.ndarray):
            root = root.base
        index = self._index_of.get(id(root))
        if index is not None and self._end[index] < end:
            self._end[index] = end


class _ArenaCtx(OpCtx):
    """A persistent op context whose new buffers come from a plan's arena."""

    __slots__ = ("arena",)

    def __init__(self, arena: _Arena) -> None:
        super().__init__(persistent=True)
        self.arena = arena

    def _allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        return self.arena.take(shape, dtype)


def _held_bytes(ctxs: Sequence[OpCtx]) -> int:
    """Bytes of writable memory the contexts' buffers pin, each block once."""
    roots: dict[int, np.ndarray] = {}
    pending = [value for ctx in ctxs for value in ctx.bufs.values()]
    while pending:
        value = pending.pop()
        if isinstance(value, tuple):
            pending.extend(value)
        elif isinstance(value, np.ndarray) and value.flags.writeable:
            # Read-only arrays are the shared index caches or window views
            # of a buffer listed on its own.
            while isinstance(value.base, np.ndarray):
                value = value.base
            roots[id(value)] = value
    return sum(root.nbytes for root in roots.values())


class ForwardPlan:
    """A static, replayable inference forward: a batch in, a logits copy out.

    Produced by :func:`compile_forward`; run it as ``logits = plan.run(batch)``
    with a batch of the recorded shape.  Every op keeps a persistent context,
    so a replay does no module dispatch, builds no ``Tensor`` and allocates
    nothing but the returned copy.  The contexts' buffers share memory by
    liveness (:class:`_Arena`), assigned on the first run.  Parameters are
    re-read at every run, and eval batch norm reads its module's running
    statistics inside its op, so weight updates made in place or by
    swapping arrays reach the next run.

    The *resume points* are the first-reader ops of the parameters, but op 0.
    A run given ``keep`` copies the values live at each resume point, and
    :meth:`resume` replays a feed from one of them on those copies.
    """

    def __init__(
        self,
        steps: list,
        arena: _Arena,
        feed_bindings: list[tuple[int, int]],
        feed_shape: tuple[int, ...],
        param_slots: list,
        vals: list,
        logits_slot: int,
        last_read: list[int],
    ) -> None:
        self._steps = steps
        self._arena = arena
        self._feed_bindings = feed_bindings
        self.feed_shape = feed_shape
        self._param_slots = param_slots
        self._vals = vals
        self._logits_slot = logits_slot
        self._last_read = last_read
        #: Bytes of buffer memory the plan holds (set by the first run).
        self.nbytes = 0
        n = len(steps)
        first_read: dict[int, int] = {}
        produced_at: dict[int, int] = {}
        for index, (_, _, in_slots, out_slot, _, _) in enumerate(steps):
            for slot in in_slots:
                first_read.setdefault(slot, index)
            produced_at[out_slot] = index
        # By id(): the parameter tensors stay referenced by ``param_slots``.
        self._first_read = {id(param): first_read.get(slot, n) for param, slot in param_slots}
        #: Per resume point, in op order: the slots computed before it and
        #: read at or after it, which a resumed replay takes from kept copies.
        self._resume_slots = {
            point: tuple(s for s, at in produced_at.items() if at < point <= last_read[s])
            for point in sorted(set(self._first_read.values()) - {0, n})
        }

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        return (
            f"ForwardPlan(entries={len(self._steps)}, feed={self.feed_shape}, "
            f"bytes={self.nbytes})"
        )

    def first_reader(self, params) -> int:
        """The first op reading any of ``params`` (tensors, by identity).

        The plan's length when no op reads one of them.  Values computed
        before that op do not depend on ``params``, so a replay after a
        change to those parameters alone may :meth:`resume` there.
        """
        n = len(self._steps)
        return min((self._first_read.get(id(param), n) for param in params), default=n)

    def run(self, feed: np.ndarray, keep: "dict | None" = None) -> np.ndarray:
        """Replay the forward on ``feed``; returns a fresh copy of the logits.

        With ``keep`` (a dict), the run also stores in it, per resume point,
        copies of the values live there: what :meth:`resume` needs to replay
        ``feed`` from that op.  Each is copied before its resume point runs,
        since the arena reuses its memory once its last reader has run.
        """
        vals = self._bind(feed)
        if self._arena.planning:
            self._first_run(vals, keep)
        elif keep is None:
            _replay(self._steps, vals)
        else:
            start = 0
            for point in self._resume_slots:
                _replay(self._steps[start:point], vals)
                keep[point] = self._copy_live(point, vals)
                start = point
            _replay(self._steps[start:], vals)
        return vals[self._logits_slot].copy()

    def resume(self, feed: np.ndarray, kept: dict, start: int) -> np.ndarray:
        """Replay ``feed``'s forward from op ``start``; returns a copy of the logits.

        ``kept`` holds what ``run(feed, keep=kept)`` stored and ``start`` is
        one of its resume points, or 0 for a whole run.  The ops from
        ``start`` on read the kept values, the feed and the parameters as
        they are now, so the logits equal a whole run's when no parameter
        read before ``start`` changed since ``kept`` was stored.
        """
        if not start:
            return self.run(feed)
        vals = self._bind(feed)
        for slot, value in zip(self._resume_slots[start], kept[start]):
            vals[slot] = value
        _replay(self._steps[start:], vals)
        return vals[self._logits_slot].copy()

    def _bind(self, feed: np.ndarray) -> list:
        """The value slots, with ``feed`` and the current parameters bound."""
        if feed.shape != self.feed_shape:
            raise ValueError(f"feed shape {feed.shape} does not match planned {self.feed_shape}")
        vals = self._vals
        for _, slot in self._feed_bindings:
            vals[slot] = feed
        for param, slot in self._param_slots:
            vals[slot] = param.data
        return vals

    def _copy_live(self, point: int, vals: list) -> tuple:
        # Layout-preserving copies: an op reads a copy as it read the value.
        return tuple(np.copy(vals[slot], order="K") for slot in self._resume_slots[point])

    def _first_run(self, vals: list, keep: "dict | None") -> None:
        """The first replay, assigning every op buffer an arena block."""
        arena, last_read = self._arena, self._last_read
        for index, (apply, ctx, in_slots, out_slot, kwargs, discard) in enumerate(self._steps):
            if keep is not None and index in self._resume_slots:
                keep[index] = self._copy_live(index, vals)
            arena.step = index
            out = vals[out_slot] = apply(ctx, tuple(vals[s] for s in in_slots), kwargs)
            if discard is not None:
                discard(ctx)
            arena.hold(out, last_read[out_slot])
        arena.planning = False
        self.nbytes = _held_bytes([step[1] for step in self._steps])


def compile_forward(tape: Tape, feed: np.ndarray, logits: Tensor) -> ForwardPlan:
    """Plan a :class:`ForwardPlan` from one recorded inference forward.

    ``tape`` is a ``forward_only`` :class:`~repro.nn.tape.Tape` that observed
    the forward (under ``no_grad``); ``feed`` is the input batch array the
    forward read, by identity; ``logits`` is its output tensor.  A replay runs
    the recorded entries in recorded order with the same ``apply`` bodies,
    and every entry's ``discard`` runs right after its ``apply``: a forward
    plan has no backward, so no entry keeps scratch for a vjp.  A liveness
    arena (:class:`_Arena`) backs the op buffers, so a plan holds about the
    largest set of buffers live at one op, not the sum over its ops.

    Raises
    ------
    CompileError
        As :func:`compile_tape` does, for anything a replay could not
        reproduce: a non-scalar constant, an array op argument, an input
        computed outside the recording scope, or logits that no registry op
        produced.
    """
    sched = _forward_schedule(tape, (feed,), {"logits": logits})
    planned = sched.planned
    arena = _Arena()
    steps = [
        (entry.op.apply, _ArenaCtx(arena), in_slots, out_slot, entry.kwargs, entry.op.discard)
        for entry, in_slots, out_slot in planned
    ]
    last_read = [-1] * len(sched.space.tensors)
    for index, (_, in_slots, _) in enumerate(planned):
        for slot in in_slots:
            last_read[slot] = index
    logits_slot = sched.space.slot(logits)
    last_read[logits_slot] = len(planned)  # live until copied out
    vals: list = [None] * len(sched.space.tensors)
    for slot, value in sched.const_slots:
        vals[slot] = value
    return ForwardPlan(
        steps,
        arena,
        sched.feed_bindings,
        tuple(sched.feed_shapes[0]),
        sched.param_slots,
        vals,
        logits_slot,
        last_read,
    )


def _is_array_arg(value) -> bool:
    """Whether an op argument is (or holds) an array a replay would freeze."""
    if isinstance(value, tuple):
        return any(_is_array_arg(v) for v in value)
    return isinstance(value, (np.ndarray, list))


class _Schedule(NamedTuple):
    """The recorded forward, slotted: what both planners start from."""

    space: _SlotSpace
    #: ``(entry, in_slots, out_slot)`` per recorded entry, in eager order.
    planned: list
    entry_index_of: dict
    feed_bindings: list
    feed_shapes: list
    param_slots: list
    const_slots: list


def _forward_schedule(
    tape: Tape, feeds: Sequence[np.ndarray], outputs: "dict[str, Tensor]"
) -> _Schedule:
    """Slot every value of the recorded forward; shared by both planners.

    Leaf tensors that require grad are parameters, re-read at every replay;
    leaves whose ``.data`` *is* a feed array become feed slots; every other
    leaf must be a scalar.  ``outputs`` names the tensors a replay returns;
    each must be a registry-op output.
    """
    if not tape.entries:
        raise CompileError("tape recorded no registry ops")
    entry_index_of = {id(e.out): i for i, e in enumerate(tape.entries)}
    for name, tensor in outputs.items():
        if id(tensor) not in entry_index_of:
            raise CompileError(
                f"{name} is not a registry-op output (op={tensor._op or 'leaf'!r})"
            )

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
    planned: list[tuple] = []
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
        planned.append((entry, in_slots, out_slot))
    return _Schedule(
        space, planned, entry_index_of, feed_bindings, feed_shapes, param_slots, const_slots
    )


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
    sched = _forward_schedule(tape, feeds, {"loss": loss, "logits": logits})
    space, entry_index_of = sched.space, sched.entry_index_of

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
    for idx, (entry, in_slots, out_slot) in enumerate(sched.planned):
        cleanup = None
        if id(entry.out) not in backward_out_ids and entry.op.discard is not None:
            cleanup = entry.op.discard
        forward_steps.append(
            (entry.op.apply, ctxs[idx], in_slots, out_slot, entry.kwargs, cleanup)
        )

    vals: list = [None] * len(space.tensors)
    for slot, value in sched.const_slots:
        vals[slot] = value
    loss_slot = space.slot(loss)
    vals[loss_slot] = loss.data  # seeds the ones template in CompiledStep
    grad_dtypes = [t.data.dtype for t in space.tensors]

    compiled = CompiledStep(
        forward_steps,
        backward_steps,
        sched.feed_bindings,
        sched.feed_shapes,
        sched.param_slots,
        vals,
        grad_dtypes,
        loss_slot,
        space.slot(logits),
        fwd_names=[entry.op.name for entry, _, _ in sched.planned],
        bwd_names=bwd_names,
    )
    step[0] = compiled
    return compiled
