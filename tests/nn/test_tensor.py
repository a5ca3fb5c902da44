"""Unit tests for the autodiff Tensor: every op's forward value and gradient."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.nn import Tensor, is_grad_enabled, no_grad

from ..conftest import assert_grad_close, tape_gradient


class TestConstruction:
    def test_converts_ints_to_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_preserves_float64(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_rejects_tensor_wrapping(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_item_on_scalar(self):
        assert Tensor(np.float32(2.5)).item() == pytest.approx(2.5)

    def test_detach_shares_data_but_drops_tape(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestArithmetic:
    def test_add_forward_and_grad(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        y = rng.normal(size=(3, 4)).astype(np.float32)
        a = Tensor(x, requires_grad=True)
        b = Tensor(y, requires_grad=True)
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones_like(x))
        np.testing.assert_allclose(b.grad, np.ones_like(y))

    def test_add_broadcasting_grad(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        bias = rng.normal(size=(4,)).astype(np.float32)
        b = Tensor(bias, requires_grad=True)
        out = (Tensor(x) + b).sum()
        out.backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_radd_with_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = (3.0 + t).sum()
        out.backward()
        np.testing.assert_allclose(out.data, 9.0)
        np.testing.assert_allclose(t.grad, [1.0, 1.0])

    def test_sub_grad_signs(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0

    def test_rsub(self):
        t = Tensor([2.0], requires_grad=True)
        out = 10.0 - t
        out.backward()
        assert out.data[0] == 8.0
        assert t.grad[0] == -1.0

    def test_mul_grad(self, rng):
        x = rng.normal(size=(2, 3)).astype(np.float32)
        _, grad = tape_gradient(lambda t: (t * t).sum(), x)
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-5)

    def test_div_grad_numeric(self, rng):
        x = rng.uniform(0.5, 2.0, size=(2, 3)).astype(np.float32)
        _, analytic = tape_gradient(lambda t: (1.0 / t).sum(), x)
        assert_grad_close(
            lambda arr: float((1.0 / arr).sum()), x, analytic
        )

    def test_pow_grad(self, rng):
        x = rng.uniform(0.5, 2.0, size=(4,)).astype(np.float32)
        _, grad = tape_gradient(lambda t: (t**3).sum(), x)
        np.testing.assert_allclose(grad, 3 * x**2, rtol=1e-4)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        t = Tensor([1.0, -2.0], requires_grad=True)
        (-t).sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, -1.0])

    def test_matmul_grads(self, rng):
        a_val = rng.normal(size=(3, 4)).astype(np.float32)
        b_val = rng.normal(size=(4, 2)).astype(np.float32)
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_val.T, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a_val.T @ np.ones((3, 2)), rtol=1e-5)


class TestElementwise:
    @pytest.mark.parametrize(
        "op_name",
        ["exp", "log", "sigmoid", "tanh", "abs", "relu", "sqrt"],
    )
    def test_unary_gradcheck(self, rng, op_name):
        x = rng.uniform(0.2, 1.5, size=(6,)).astype(np.float32)
        _, analytic = tape_gradient(lambda t: getattr(t, op_name)().sum(), x)

        def forward(arr):
            t = Tensor(arr)
            return float(getattr(t, op_name)().sum().item())

        assert_grad_close(forward, x, analytic)

    def test_relu_zero_below(self):
        t = Tensor([-1.0, 0.5], requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])

    def test_leaky_relu_slope(self):
        t = Tensor([-2.0, 2.0], requires_grad=True)
        out = t.leaky_relu(0.1)
        np.testing.assert_allclose(out.data, [-0.2, 2.0], rtol=1e-6)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.1, 1.0])

    def test_clip_masks_gradient(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_sum_multiple_axes(self, rng):
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        t.sum(axis=(0, 2)).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_mean_grad_scaling(self, rng):
        x = rng.normal(size=(4, 5)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / 20))

    def test_mean_axis(self, rng):
        x = rng.normal(size=(4, 5)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        t.mean(axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / 4))

    def test_max_grad_routes_to_argmax(self):
        t = Tensor([[1.0, 3.0], [2.0, 0.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_splits_grad_between_ties(self):
        t = Tensor([[2.0, 2.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestExtendedReductions:
    def test_min_forward_and_grad(self):
        t = Tensor([[3.0, 1.0], [0.5, 2.0]], requires_grad=True)
        out = t.min(axis=1)
        np.testing.assert_allclose(out.data, [1.0, 0.5])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_var_matches_numpy(self, rng):
        x = rng.normal(size=(4, 5)).astype(np.float32)
        t = Tensor(x)
        np.testing.assert_allclose(t.var().item(), x.var(), rtol=1e-4)
        np.testing.assert_allclose(t.var(axis=0).data, x.var(axis=0), rtol=1e-4)

    def test_var_gradcheck(self, rng):
        x = rng.normal(size=(6,)).astype(np.float32)
        _, analytic = tape_gradient(lambda t: t.var(), x)
        assert_grad_close(lambda arr: float(arr.var()), x, analytic)

    def test_std_matches_numpy(self, rng):
        x = rng.normal(size=(3, 7)).astype(np.float32)
        np.testing.assert_allclose(Tensor(x).std().item(), x.std(), rtol=1e-3)

    def test_std_stable_at_zero_variance(self):
        t = Tensor(np.full(4, 2.0, dtype=np.float32), requires_grad=True)
        out = t.std()
        out.backward()
        assert np.isfinite(t.grad).all()

    def test_stack_forward_and_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 2)
        (out * Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_stack_new_axis_position(self):
        a = Tensor(np.zeros((2, 3)))
        out = Tensor.stack([a, a, a], axis=1)
        assert out.shape == (2, 3, 3)

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            Tensor.stack([])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        x = rng.normal(size=(2, 6)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        (t.reshape(3, 4) * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 2.0))

    def test_reshape_minus_one(self):
        t = Tensor(np.zeros((4, 3)))
        assert t.reshape(2, -1).shape == (2, 6)

    def test_transpose_grad(self, rng):
        x = rng.normal(size=(2, 3)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        scale = np.array([[1.0], [2.0], [3.0]], dtype=np.float32)
        (t.transpose(1, 0) * Tensor(scale)).sum().backward()
        np.testing.assert_allclose(t.grad, np.tile(scale.T, (2, 1)).reshape(2, 3))

    def test_getitem_accumulates(self):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (t[np.array([0, 0, 2])]).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])

    def test_pad2d_shape_and_grad(self, rng):
        x = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        padded = t.pad2d(2)
        assert padded.shape == (1, 1, 7, 7)
        padded.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert t.pad2d(0) is t

    def test_concatenate_grad_routing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        (out * Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])


class TestBackwardMachinery:
    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        out = t * 2.0
        out.backward()
        out2 = t * 2.0
        out2.backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).backward()
        t.zero_grad()
        assert t.grad is None

    @pytest.mark.parametrize(
        "op,seed_shape",
        [(lambda x: x.relu(), (3,)), (lambda x: x * 2.0, (1,))],
        ids=["broadcastable", "size_one"],
    )
    def test_backward_rejects_mismatched_seed(self, op, seed_shape):
        # Before the check, (3,) silently broadcast into a (4, 3) gradient
        # and (1,) died inside _unbroadcast with a reshape error.
        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match=rf"shape \({seed_shape[0]},\) .* shape \(4, 3\)"):
            op(x).backward(np.ones(seed_shape))
        assert x.grad is None

    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        # A node's (op, ctx, needs) record never refers back to the node, so
        # dropping the output frees every activation by refcount alone.
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        gc.disable()
        try:
            mid = (x - 0.5).sigmoid()
            out = (mid / 2.0).max(axis=1)
            refs = [weakref.ref(mid.data), weakref.ref(out.data)]
            del mid, out
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor([2.0], requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a + b).backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_deep_chain_does_not_recurse(self):
        # The topo sort is iterative; 5000 chained ops must not hit the
        # Python recursion limit.
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_no_grad_disables_tape(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2.0
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()
