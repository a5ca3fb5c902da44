"""Shared pytest fixtures and numeric-gradient helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)


def same_bits(a, b) -> bool:
    """Whether two arrays hold identical bit patterns, element for element.

    The bitwise checks compare through unsigned views because
    ``np.array_equal`` calls ``-0.0`` equal to ``+0.0`` and a NaN unequal to
    itself.  Shapes and dtypes must match too.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind == "f":
        unsigned = f"u{a.dtype.itemsize}"
        a = np.ascontiguousarray(a).view(unsigned)
        b = np.ascontiguousarray(b).view(unsigned)
    return bool(np.array_equal(a, b))


def numeric_gradient(func, array: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar ``func(array)`` w.r.t. ``array``.

    ``func`` must not capture stale state: it is called repeatedly with the
    perturbed array.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = func(array)
        flat[i] = original - eps
        f_minus = func(array)
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def assert_grad_close(
    forward, value: np.ndarray, analytic: np.ndarray, atol: float = 2e-2, eps: float = 1e-3
) -> None:
    """Compare an analytic gradient against central differences.

    ``forward(arr)`` -> scalar float; ``value`` is the point; ``analytic`` the
    gradient produced by the tape.
    """
    numeric = numeric_gradient(forward, value.copy(), eps=eps)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=5e-2)


def tape_gradient(op, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Run ``loss = op(Tensor(x))`` and return ``(loss, dloss/dx)``."""
    t = Tensor(x.copy(), requires_grad=True)
    loss = op(t)
    loss.backward()
    return float(loss.item()), t.grad.copy()
