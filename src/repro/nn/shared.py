"""One shared-memory packer: named arrays in a single ``shared_memory`` block.

:class:`SharedBlock` lays out named ``(shape, dtype)`` arrays at 64-byte
aligned offsets and hands out zero-copy views by name.  Its one user is
the serving fleet (:mod:`repro.serve.fleet`), which packs each model's
weights into a block and forks its replicas from the creating process, so
a child uses the mapping it inherited.

:meth:`SharedBlock.close` unlinks the name at once and unmaps the pages
once no view is left.  Views come from ``np.frombuffer``, which holds a
buffer export while any view lives, so ``SharedMemory.close()`` raises
``BufferError`` rather than unmap pages a straggler may still read; such a
block stays in :data:`_PINNED` and every later ``close()`` retries it.
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ALIGNMENT", "SharedBlock"]

#: Byte alignment of every region's offset (one cache line).
ALIGNMENT = 64

#: Closed blocks whose pages a live view still reads, retried by every
#: ``close()``.  Process-wide, like the mappings: views outlive their owners.
_PINNED: "list[SharedBlock]" = []
_PINNED_LOCK = threading.Lock()


class SharedBlock:
    """Named arrays packed at aligned offsets into one shared block.

    ``specs`` maps each region name to its ``(shape, dtype)``; regions are
    laid out in ``specs`` order and :attr:`layout` records each one's
    ``(offset, shape, dtype)``.
    """

    def __init__(self, specs: "dict[str, tuple]") -> None:
        self.layout: "dict[str, tuple[int, tuple, np.dtype]]" = {}
        offset = 0
        for name, (shape, dtype) in specs.items():
            offset = -(-offset // ALIGNMENT) * ALIGNMENT
            shape, dtype = tuple(int(d) for d in shape), np.dtype(dtype)
            self.layout[name] = (offset, shape, dtype)
            offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        self.name = self._shm.name
        self.closed = False

    @classmethod
    def from_module(cls, module) -> "SharedBlock":
        """A block holding a copy of every parameter and buffer of ``module``."""
        arrays = {name: param.data for name, param in module.named_parameters()}
        arrays.update(module.named_buffers())
        block = cls({name: (a.shape, a.dtype) for name, a in arrays.items()})
        for name, array in arrays.items():
            block.view(name)[...] = array
        return block

    def view(self, name: str) -> np.ndarray:
        """A writable zero-copy view of region ``name``."""
        offset, shape, dtype = self.layout[name]
        count = int(np.prod(shape, dtype=np.int64))
        return np.frombuffer(
            self._shm.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    def attach(self, module) -> "list[np.ndarray]":
        """Point ``module``'s parameters and buffers at read-only views.

        ``module`` must be structurally identical to the one the block was
        packed from.  Views are read-only: serving never writes weights, and
        a stray write should fail loudly rather than corrupt every replica.
        Returns the views.
        """
        views = []

        def readonly(name: str) -> np.ndarray:
            view = self.view(name)
            view.flags.writeable = False
            views.append(view)
            return view

        for name, param in module.named_parameters():
            param.data = readonly(name)
        # ``modules()`` walks in ``named_buffers()`` order, so zip pairs each
        # buffer name with the module attribute that holds it.
        owners = [
            (sub, attr)
            for sub in module.modules()
            for attr in getattr(sub, "_buffer_names", ())
        ]
        for (name, _), (sub, attr) in zip(list(module.named_buffers()), owners):
            setattr(sub, attr, readonly(name))
        return views

    def close(self) -> None:
        """Unlink the block; unmap it now or once no view is left (idempotent)."""
        with _PINNED_LOCK:
            if self.closed:
                return
            self.closed = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - unlinked behind our back
                pass
            _PINNED.append(self)
            for block in list(_PINNED):  # this block and any earlier ones
                try:
                    block._shm.close()
                except BufferError:  # a view still reads its pages
                    continue
                _PINNED.remove(block)
