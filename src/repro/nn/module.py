"""Base class for neural-network modules.

``Module`` provides the parameter registry, train/eval mode propagation, and
state-dict (de)serialisation that the seven paper architectures and the five
mitigation techniques are built on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor
from .workspace import get_workspace

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A trainable tensor — identical to :class:`Tensor` but always on the tape."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Composable network component with automatic parameter discovery.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; :meth:`parameters` and :meth:`state_dict` discover them by
    introspection, in deterministic attribute order.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in attribute order."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch to training mode (enables dropout, batch-norm batch stats).

        Mode transitions also flush the kernel scratch-buffer arena (see
        :mod:`repro.nn.workspace`): batch geometry usually changes across
        train/eval boundaries, so this is the natural point to drop buffers
        of shapes that will not recur.
        """
        for module in self.modules():
            module.training = True
        get_workspace().clear()
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (and flush the kernel workspace)."""
        for module in self.modules():
            module.training = False
        get_workspace().clear()
        return self

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array plus registered buffers, keyed by name."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({name: buf.copy() for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter and buffer arrays produced by :meth:`state_dict`."""
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: module {param.data.shape}, state {state[name].shape}"
                )
            param.data = state[name].astype(param.data.dtype).copy()
        for name, buf in own_buffers.items():
            buf[...] = state[name]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield non-trainable persistent arrays (e.g. batch-norm running stats)."""
        buffer_names = getattr(self, "_buffer_names", ())
        for name in buffer_names:
            yield f"{prefix}{name}", getattr(self, name)
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value.named_buffers(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{full}.{i}.")

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register a persistent non-trainable array, included in state dicts."""
        setattr(self, name, array)
        names = list(getattr(self, "_buffer_names", ()))
        if name not in names:
            names.append(name)
        self._buffer_names = tuple(names)
