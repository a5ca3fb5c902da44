"""Deterministic in-cell data parallelism: shard a batch, allreduce gradients.

One optimisation step under ``ddp = N`` is defined as *sharded-step
semantics*: the shuffled batch is split into ``N`` contiguous shards
(:func:`shard_slices`), each shard runs a full forward/backward on its own
replica, and the shard gradients are combined by a fixed-order, chunked
tree reduction (:func:`reduce_gradients`) that replays the eager
``Tensor._accumulate`` copy-then-``+=`` order — so the combined gradient,
the combined loss (:func:`combine_shard_losses`), and therefore every
weight byte after ``optimizer.step()`` are a pure function of the batch and
the replica states, never of scheduling.

Two interchangeable backends execute those semantics:

- ``"process"`` — rank 0 *is* the trainer's process; ranks 1..N-1 are
  forked workers exchanging shards and flat gradients through the
  :class:`~repro.nn.shared.SharedBlock` mapping they inherited (parameters
  are re-broadcast through it every step, so workers track the optimizer
  exactly).  A dead worker raises ``RuntimeError("ddp worker {rank} ...")``.
- ``"inproc"`` — the same shard loop run serially in one process, swapping
  per-replica state (batch-norm running buffers, dropout rng streams) in
  and out of the live model between shards.  This is the executable
  specification: both backends call the identical per-shard step and the
  identical reduction helpers on identical replica states, so their fits
  are bitwise-equal by construction — the equivalence tests pin it.

Replica state: parameters are always broadcast from rank 0 (the optimizer
lives there alone), while batch-norm running statistics and dropout rng
streams are *replica-local* — each rank's evolve only from the shards it
saw, and rank 0's (the live model's) are the canonical ones used for
validation and the final model.  The CRC32 seed chain of the study is
untouched: shuffling stays in the trainer, shard boundaries are derived
from the already-shuffled order.

The world size is a process-global knob mirroring the kernel-mode switch:
``REPRO_DDP`` in the environment, :func:`set_ddp` / :func:`use_ddp` in
code; :class:`~repro.nn.trainer.Trainer` picks it up per fit.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Iterator

import multiprocessing
import numpy as np

from .shared import SharedBlock
from .tensor import Tensor

__all__ = [
    "get_ddp",
    "set_ddp",
    "use_ddp",
    "shard_slices",
    "reduce_gradients",
    "combine_shard_losses",
    "DataParallelGroup",
]

#: Chunk length (float32 elements) for the chunked reduction — large enough
#: to amortise ufunc dispatch, small enough to stay cache-resident.
_REDUCE_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# The process-global world-size knob (mirrors the kernel-mode switch)
# ----------------------------------------------------------------------

def _parse_world(value: "str | int") -> int:
    world = int(value)
    if world < 1:
        raise ValueError(f"ddp world size must be >= 1; got {world}")
    return world


_DDP_WORLD = _parse_world(os.environ.get("REPRO_DDP", "1"))


def get_ddp() -> int:
    """The active data-parallel world size (1 = ordinary single-step fit)."""
    return _DDP_WORLD


def set_ddp(world: int) -> int:
    """Select the data-parallel world size; returns the previous value."""
    global _DDP_WORLD
    previous = _DDP_WORLD
    _DDP_WORLD = _parse_world(world)
    return previous


@contextmanager
def use_ddp(world: int) -> Iterator[int]:
    """Scoped :func:`set_ddp`, restoring the previous world size on exit."""
    previous = set_ddp(world)
    try:
        yield _DDP_WORLD
    finally:
        set_ddp(previous)


# ----------------------------------------------------------------------
# The deterministic combination helpers (shared by both backends)
# ----------------------------------------------------------------------

def shard_slices(n: int, world: int) -> list[slice]:
    """Split ``range(n)`` into ``world`` contiguous shards, larger ones first.

    Always returns exactly ``world`` slices; trailing shards may be empty
    when ``n < world`` (those ranks idle for the step).  Shard boundaries
    depend only on ``(n, world)``, so the sharding itself is deterministic.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0; got {n}")
    if world < 1:
        raise ValueError(f"world must be >= 1; got {world}")
    base, extra = divmod(n, world)
    out = []
    lo = 0
    for rank in range(world):
        size = base + (1 if rank < extra else 0)
        out.append(slice(lo, lo + size))
        lo += size
    return out


def reduce_gradients(
    flats: "list[np.ndarray]",
    lens: "list[int]",
    out: "np.ndarray | None" = None,
    chunk: int = _REDUCE_CHUNK,
) -> np.ndarray:
    """Combine per-shard flat gradients into the full-batch gradient.

    Each shard backward produced the gradient of its *shard-mean* loss, so
    the batch gradient is ``sum_r (n_r / n) * g_r``.  The reduction is a
    fixed left-deep chain in rank order, processed in ``chunk``-sized
    pieces: chunk by chunk, the first scaled shard is *written* and every
    later one is ``+=``-accumulated — exactly the copy-then-add order
    ``Tensor._accumulate`` uses in the eager backward pass, so chunking
    changes nothing bitwise (the operations are elementwise) while keeping
    the working set cache-resident.
    """
    if not flats:
        raise ValueError("reduce_gradients needs at least one shard")
    if len(flats) != len(lens):
        raise ValueError(f"{len(flats)} gradient shards but {len(lens)} lengths")
    total = sum(lens)
    if total <= 0:
        raise ValueError("total shard length must be positive")
    scales = [n / total for n in lens]
    size = flats[0].size
    if out is None:
        out = np.empty(size, dtype=flats[0].dtype)
    tmp = np.empty(min(chunk, size), dtype=flats[0].dtype)
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        np.multiply(flats[0][lo:hi], scales[0], out=out[lo:hi])
        for flat, scale in zip(flats[1:], scales[1:]):
            piece = tmp[: hi - lo]
            np.multiply(flat[lo:hi], scale, out=piece)
            out[lo:hi] += piece
    return out


def combine_shard_losses(losses: "list[float]", lens: "list[int]") -> float:
    """Batch-mean loss from shard-mean losses: ``sum_r (n_r / n) * L_r``.

    Accumulated left-to-right in rank order at float64, so the combined
    loss is deterministic and — for ``world == 1`` — exactly the plain
    single-step loss (``(n/n) * L == L``).
    """
    if len(losses) != len(lens):
        raise ValueError(f"{len(losses)} losses but {len(lens)} lengths")
    total = sum(lens)
    if total <= 0:
        raise ValueError("total shard length must be positive")
    combined = 0.0
    for loss, n in zip(losses, lens):
        combined += (n / total) * loss
    return combined


# ----------------------------------------------------------------------
# Per-shard step + replica-local state (shared by both backends)
# ----------------------------------------------------------------------

def _param_layout(params) -> "list[tuple[int, int, tuple]]":
    """(offset, size, shape) for each parameter in ``parameters()`` order."""
    layout = []
    offset = 0
    for p in params:
        size = int(p.data.size)
        layout.append((offset, size, p.data.shape))
        offset += size
    return layout


def _flatten_grads(params, layout, out: np.ndarray) -> np.ndarray:
    for p, (offset, size, _) in zip(params, layout):
        if p.grad is None:
            out[offset : offset + size] = 0.0
        else:
            out[offset : offset + size] = p.grad.ravel()
    return out


def _shard_step(model, loss_fn, params, layout, xb, yb, out: np.ndarray):
    """Forward/backward one shard on ``model``; flat gradient into ``out``.

    This single function is the per-shard step for rank 0, for forked
    workers, and for the in-process reference — the backends cannot drift.
    """
    for p in params:
        p.zero_grad()
    logits = model(Tensor(xb))
    loss_t = loss_fn(logits, yb)
    loss_value = float(loss_t.item())
    loss_t.backward()
    _flatten_grads(params, layout, out)
    return loss_value, logits.data


class _ReplicaState:
    """A replica's non-parameter training state: BN buffers + dropout rngs.

    Parameters are broadcast from rank 0 every step, but running statistics
    and rng streams are replica-local — this is what the in-process backend
    swaps in and out of the live model to emulate N forked replicas.
    """

    __slots__ = ("buffers", "rng_states")

    def __init__(self, buffers: "list[np.ndarray]", rng_states: list) -> None:
        self.buffers = buffers
        self.rng_states = rng_states


def _dropout_rngs(model) -> list:
    rngs = []
    for module in model.modules():
        rng = getattr(module, "rng", None)
        if rng is not None and hasattr(rng, "bit_generator"):
            rngs.append(rng)
    return rngs


def _live_buffers(model) -> "list[np.ndarray]":
    return [buf for _, buf in model.named_buffers()]


def _capture_state(buffers, rngs) -> _ReplicaState:
    return _ReplicaState(
        [buf.copy() for buf in buffers],
        [rng.bit_generator.state for rng in rngs],
    )


def _restore_state(buffers, rngs, state: _ReplicaState) -> None:
    for live, saved in zip(buffers, state.buffers):
        live[...] = saved
    for rng, saved in zip(rngs, state.rng_states):
        rng.bit_generator.state = saved


# ----------------------------------------------------------------------
# The group
# ----------------------------------------------------------------------

class DataParallelGroup:
    """Run sharded optimisation steps for one model, over ``world`` replicas.

    ``forward_backward(xb, yb)`` executes one full data-parallel step —
    shard, per-replica forward/backward, fixed-order gradient reduction —
    and leaves the combined batch gradient installed on the live model's
    ``.grad`` slots, returning ``(batch_loss, logits)`` with logits
    concatenated in shard (= batch) order.  The caller owns the optimizer:
    clip/step/schedule happen outside, exactly as in a plain fit.

    ``backend``: ``"process"`` forks ``world - 1`` shard workers wired up
    over shared memory, ``"inproc"`` runs the reference loop, ``"auto"``
    picks ``"process"`` where ``fork`` exists (everywhere we support) and
    falls back to ``"inproc"`` otherwise.  Construction is cheap; workers
    and buffers materialise lazily on the first step, which also fixes the
    feed geometry (``batch_capacity`` bounds the batch length, the first
    step's feature/class shapes bound the rest).
    """

    def __init__(
        self,
        model,
        loss_fn,
        world: int,
        batch_capacity: int,
        backend: str = "auto",
    ) -> None:
        if world < 1:
            raise ValueError(f"world must be >= 1; got {world}")
        if batch_capacity < 1:
            raise ValueError(f"batch_capacity must be >= 1; got {batch_capacity}")
        if backend not in ("auto", "process", "inproc"):
            raise ValueError(f"unknown ddp backend {backend!r}")
        if backend == "auto":
            backend = (
                "process"
                if world > 1 and "fork" in multiprocessing.get_all_start_methods()
                else "inproc"
            )
        self.model = model
        self.loss_fn = loss_fn
        self.world = world
        self.batch_capacity = batch_capacity
        self.backend = backend
        self.steps = 0
        self._started = False
        self._params = model.parameters()
        self._layout = _param_layout(self._params)
        self._nparams = self._layout[-1][0] + self._layout[-1][1] if self._layout else 0
        self._buffers = _live_buffers(model)
        self._rngs = _dropout_rngs(model)
        # inproc backend state
        self._replicas: "list[_ReplicaState | None]" = []
        self._flat_bufs: "list[np.ndarray]" = []
        # process backend state
        self._block: "SharedBlock | None" = None
        self._conns: list = []
        self._procs: list = []
        self._views: list = []
        self._param_view: "np.ndarray | None" = None
        self._combined: "np.ndarray | None" = None
        self._grad_views: "list[np.ndarray]" = []
        self._feat: "tuple | None" = None
        self._classes = 0
        self._cap_shard = 0

    # -- lifecycle -----------------------------------------------------

    def _start(self, xb: np.ndarray, yb: np.ndarray) -> None:
        self._feat = tuple(xb.shape[1:])
        self._classes = int(yb.shape[1])
        self._cap_shard = math.ceil(self.batch_capacity / self.world)
        self._combined = np.empty(self._nparams, dtype=np.float32)
        self._grad_views = [
            self._combined[offset : offset + size].reshape(shape)
            for offset, size, shape in self._layout
        ]
        self._flat_bufs = [
            np.empty(self._nparams, dtype=np.float32) for _ in range(self.world)
        ]
        if self.backend == "inproc":
            # Every replica starts from the live model's pre-fit state.
            self._replicas = [
                _capture_state(self._buffers, self._rngs) for _ in range(self.world)
            ]
        else:
            self._start_processes()
        self._started = True

    def _start_processes(self) -> None:
        flat = ((self._nparams,), np.float32)
        rows = ((self._cap_shard, self._classes), np.float32)
        regions = {"params": flat}
        for rank in range(1, self.world):
            regions.update({
                f"grads{rank}": flat,
                f"x{rank}": ((self._cap_shard,) + self._feat, np.float32),
                f"y{rank}": rows,
                f"logits{rank}": rows,
                f"loss{rank}": ((1,), np.float64),
            })
        self._block = SharedBlock(regions)
        self._param_view = self._block.view("params")
        ctx = multiprocessing.get_context("fork")
        for rank in range(1, self.world):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(self, rank, child_conn),
                daemon=True,
                name=f"repro-ddp-{rank}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
            self._views.append(self._rank_views(rank))

    def _rank_views(self, rank: int) -> tuple:
        """Worker ``rank``'s ``(grads, x, y, logits, loss)`` views."""
        regions = ("grads", "x", "y", "logits", "loss")
        return tuple(self._block.view(f"{region}{rank}") for region in regions)

    def close(self) -> None:
        """Stop workers and release the shared block (idempotent)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:  # the worker is already gone
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker safety net
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []
        self._views = []
        self._param_view = None
        self._grad_views = []
        if self._block is not None:
            self._block.close()

    def __enter__(self) -> "DataParallelGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the step ------------------------------------------------------

    def forward_backward(self, xb: np.ndarray, yb: np.ndarray):
        """One sharded step; returns ``(batch_loss, logits)``.

        On return the live model's ``.grad`` slots hold the combined batch
        gradient (views into one flat buffer, rewritten next step).
        """
        xb = np.ascontiguousarray(xb, dtype=np.float32)
        yb = np.ascontiguousarray(yb, dtype=np.float32)
        if not self._started:
            self._start(xb, yb)
        if len(xb) > self.batch_capacity:
            raise ValueError(
                f"batch of {len(xb)} exceeds ddp capacity {self.batch_capacity}"
            )
        if tuple(xb.shape[1:]) != self._feat or yb.shape[1] != self._classes:
            raise ValueError(
                f"feed shape changed mid-fit: got {xb.shape[1:]}/{yb.shape[1]}, "
                f"group started with {self._feat}/{self._classes}"
            )
        slices = shard_slices(len(xb), self.world)
        active = [(r, sl) for r, sl in enumerate(slices) if sl.stop > sl.start]
        if self.backend == "process":
            result = self._step_process(xb, yb, active)
        else:
            result = self._step_inproc(xb, yb, active)
        self.steps += 1
        return result

    def _finish(self, flats, losses, lens, logits_parts):
        reduce_gradients(flats, lens, out=self._combined)
        for p, view in zip(self._params, self._grad_views):
            p.grad = view
        batch_loss = combine_shard_losses(losses, lens)
        logits = (
            logits_parts[0]
            if len(logits_parts) == 1
            else np.concatenate(logits_parts, axis=0)
        )
        return batch_loss, logits

    def _step_inproc(self, xb, yb, active):
        flats, losses, lens, logits_parts = [], [], [], []
        live_zero: "_ReplicaState | None" = None
        for r, sl in active:
            if r > 0:
                if live_zero is None:
                    live_zero = _capture_state(self._buffers, self._rngs)
                _restore_state(self._buffers, self._rngs, self._replicas[r])
            loss_value, logits = _shard_step(
                self.model, self.loss_fn, self._params, self._layout,
                xb[sl], yb[sl], self._flat_bufs[r],
            )
            if r > 0:
                self._replicas[r] = _capture_state(self._buffers, self._rngs)
            flats.append(self._flat_bufs[r])
            losses.append(loss_value)
            lens.append(sl.stop - sl.start)
            logits_parts.append(logits)
        if live_zero is not None:
            _restore_state(self._buffers, self._rngs, live_zero)
        return self._finish(flats, losses, lens, logits_parts)

    def _step_process(self, xb, yb, active):
        # Broadcast current parameters, then dispatch worker shards before
        # computing our own, so replicas run concurrently with rank 0.
        for p, (offset, size, _) in zip(self._params, self._layout):
            self._param_view[offset : offset + size] = p.data.ravel()
        for r, sl in active[1:]:
            _, x, y, _, _ = self._views[r - 1]
            n_s = sl.stop - sl.start
            x[:n_s] = xb[sl]
            y[:n_s] = yb[sl]
            try:
                self._conns[r - 1].send(("step", n_s))
            except OSError as exc:  # BrokenPipeError: the worker is gone
                raise RuntimeError(f"ddp worker {r} died: {exc!r}") from exc
        _, sl0 = active[0]
        loss0, logits0 = _shard_step(
            self.model, self.loss_fn, self._params, self._layout,
            xb[sl0], yb[sl0], self._flat_bufs[0],
        )
        flats = [self._flat_bufs[0]]
        losses = [loss0]
        lens = [sl0.stop - sl0.start]
        logits_parts = [logits0]
        for r, sl in active[1:]:
            try:
                reply = self._conns[r - 1].recv()
            except (EOFError, OSError) as exc:
                raise RuntimeError(f"ddp worker {r} died mid-step") from exc
            if reply[0] != "ok":
                raise RuntimeError(f"ddp worker {r} failed: {reply[1]}")
            grads, _, _, logits_v, loss_v = self._views[r - 1]
            n_s = sl.stop - sl.start
            flats.append(grads)
            losses.append(float(loss_v[0]))
            lens.append(n_s)
            logits_parts.append(logits_v[:n_s].copy())
        return self._finish(flats, losses, lens, logits_parts)


def _worker_main(group: DataParallelGroup, rank: int, conn) -> None:
    """Forked shard worker: loop over ``("step", n)`` commands until stopped.

    Runs the identical :func:`_shard_step` on the forked model copy; only
    parameters are re-synced (from the shared block, through the mapping
    inherited at fork) each step — running statistics and rng streams stay
    replica-local by construction.
    """
    model, loss_fn = group.model, group.loss_fn
    params, layout = group._params, group._layout
    param_view = group._param_view
    grads, x, y, logits_v, loss_v = group._rank_views(rank)
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            n_s = msg[1]
            try:
                for p, (offset, size, shape) in zip(params, layout):
                    p.data[...] = param_view[offset : offset + size].reshape(shape)
                loss_value, logits = _shard_step(
                    model, loss_fn, params, layout, x[:n_s], y[:n_s], grads
                )
                logits_v[:n_s] = logits
                loss_v[0] = loss_value
                conn.send(("ok",))
            except BaseException as exc:  # ship the failure, don't hang rank 0
                try:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                except OSError:
                    break
    finally:
        conn.close()
