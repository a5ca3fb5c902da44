"""Reusable scratch-buffer arena for the convolution/pooling hot path.

Every conv or pool forward pass needs an im2col patch buffer, and every
backward pass needs a patch-gradient buffer plus a padded ``col2im``
accumulator.  Allocating those with ``np.empty``/``np.zeros`` on each batch
makes the allocator (and the page-faulting of fresh pages) a measurable
fraction of a training step.  The :class:`Workspace` keeps released buffers
in small free-lists keyed by ``(shape, dtype)`` so that steady-state training
reuses the same hot pages batch after batch.

Ownership discipline is strictly scoped: a kernel *acquires* a buffer, fully
overwrites (or zero-fills) it, and *releases* it as soon as the values have
been consumed — within the forward call, or within the op's ``vjp`` right
after the gradient has been accumulated.  Buffers that are never released are
simply garbage-collected; the arena never hands out a buffer twice without an
intervening release.

Each thread has its own workspace (:func:`get_workspace`).  The calling
thread's arena is flushed by ``Module.train()``/``Module.eval()`` so mode
transitions (epoch boundaries, evaluation passes) act as natural free points
and shape changes between phases cannot strand memory.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Workspace", "get_workspace"]


class Workspace:
    """A pool of reusable NumPy buffers keyed by shape and dtype.

    Parameters
    ----------
    max_per_key:
        Maximum number of free buffers retained per ``(shape, dtype)`` key.
        Training a conv net needs at most a handful of live buffers per
        distinct shape (patch buffer + gradient buffer + accumulator), so a
        small cap bounds worst-case memory while still giving a ~100% hit
        rate in steady state.
    """

    def __init__(self, max_per_key: int = 4) -> None:
        if max_per_key < 1:
            raise ValueError(f"max_per_key must be >= 1; got {max_per_key}")
        self.max_per_key = max_per_key
        self._pool: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.dropped = 0

    @staticmethod
    def _key(shape: tuple[int, ...], dtype: np.dtype) -> tuple[tuple[int, ...], str]:
        return (tuple(shape), np.dtype(dtype).str)

    def acquire(self, shape: tuple[int, ...], dtype: np.dtype = np.float32) -> np.ndarray:
        """Return an uninitialised buffer of ``shape``/``dtype``.

        The contents are arbitrary (possibly stale values from a previous
        use); callers must fully overwrite the buffer or use
        :meth:`acquire_zeros`.
        """
        free = self._pool.get(self._key(shape, dtype))
        if free:
            self.hits += 1
            return free.pop()
        self.misses += 1
        return np.empty(shape, dtype=dtype)

    def acquire_zeros(self, shape: tuple[int, ...], dtype: np.dtype = np.float32) -> np.ndarray:
        """Return a zero-filled buffer of ``shape``/``dtype`` (for accumulators)."""
        buf = self.acquire(shape, dtype)
        buf.fill(0)
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` to the pool for reuse.

        Only arrays that own their memory are pooled; views are ignored (a
        view's base may still be referenced elsewhere, so recycling it would
        alias live data).  Buffers beyond ``max_per_key`` are dropped to the
        garbage collector.
        """
        if buf.base is not None:
            return
        key = self._key(buf.shape, buf.dtype)
        free = self._pool.setdefault(key, [])
        if len(free) >= self.max_per_key:
            self.dropped += 1
            return
        free.append(buf)

    def clear(self) -> None:
        """Drop every pooled buffer (counters are preserved)."""
        self._pool.clear()

    @property
    def num_free(self) -> int:
        """Total buffers currently sitting in free-lists."""
        return sum(len(free) for free in self._pool.values())

    @property
    def bytes_free(self) -> int:
        """Total bytes held by pooled buffers."""
        return sum(buf.nbytes for free in self._pool.values() for buf in free)

    def __repr__(self) -> str:
        return (
            f"Workspace(free={self.num_free}, hits={self.hits}, "
            f"misses={self.misses}, dropped={self.dropped})"
        )


_WORKSPACES = threading.local()


def get_workspace() -> Workspace:
    """Return the calling thread's workspace used by the conv/pool kernels.

    One arena per thread: the kernels acquire and release buffers without
    locking, which is only safe if no two threads ever share a free-list.
    Serving fleet thread replicas (:mod:`repro.serve`) run inference on
    worker threads concurrently with whatever the main thread is doing, so
    each thread gets its own pool — the main-thread behaviour (and the
    training hot path) is unchanged, and a worker's steady-state buffers stay
    hot per worker.
    """
    workspace = getattr(_WORKSPACES, "workspace", None)
    if workspace is None:
        workspace = _WORKSPACES.workspace = Workspace()
    return workspace
