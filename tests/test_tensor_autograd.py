"""Gradient correctness tests for the autograd engine.

Every differentiable operation is checked against a central-difference
numerical gradient on small random inputs (float64 to keep the comparison
tight).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Function, OpError, Tensor

from tests.helpers import numeric_gradient

RNG = np.random.default_rng(42)
TOL = dict(rtol=1e-5, atol=1e-6)


def check_gradient(build_scalar, x0, tolerance=1e-5):
    """Compare autograd gradient of ``build_scalar(Tensor)`` with numerics."""
    x = Tensor(x0, requires_grad=True, dtype=np.float64)
    scalar = build_scalar(x)
    scalar.backward()
    numeric = numeric_gradient(lambda arr: build_scalar(Tensor(arr, dtype=np.float64)).item(), x0)
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, numeric, rtol=tolerance, atol=tolerance)


class TestElementwiseGradients:
    def test_add_mul_chain(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: ((x * 3.0 + 1.0) * x).sum(), x0)

    def test_sub_div(self):
        x0 = RNG.standard_normal((3, 4)) + 3.0
        check_gradient(lambda x: ((x - 1.5) / (x + 2.0)).sum(), x0)

    def test_pow(self):
        x0 = np.abs(RNG.standard_normal((4,))) + 0.5
        check_gradient(lambda x: (x ** 3).sum(), x0)

    def test_exp_log_sqrt(self):
        x0 = np.abs(RNG.standard_normal((5,))) + 0.5
        check_gradient(lambda x: (x.exp() + x.log() + x.sqrt()).sum(), x0)

    def test_abs_clip(self):
        x0 = RNG.standard_normal((6,)) * 2
        check_gradient(lambda x: (x.abs() + x.clip(-1.0, 1.0)).sum(), x0)

    def test_activations(self):
        x0 = RNG.standard_normal((4, 4))
        check_gradient(lambda x: x.sigmoid().sum(), x0)
        check_gradient(lambda x: x.tanh().sum(), x0)
        check_gradient(lambda x: x.leaky_relu(0.2).sum(), x0)

    def test_relu_gradient_masks_negatives(self):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float64), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones((4,)), requires_grad=True, dtype=np.float64)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcast_mul_gradient(self):
        x0 = RNG.standard_normal((2, 3))
        scale = RNG.standard_normal((3,))
        check_gradient(lambda x: (x * scale).sum(), x0)


class TestReductionGradients:
    def test_sum_axis(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), x0)

    def test_mean_axis_keepdims(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: (x.mean(axis=1, keepdims=True) * x).sum(), x0)

    def test_max_reduction(self):
        x0 = RNG.standard_normal((3, 5))
        # Ensure unique maxima so the numerical gradient is well-defined.
        x0 += np.arange(15).reshape(3, 5) * 1e-3
        check_gradient(lambda x: x.max(axis=1).sum(), x0)

    def test_global_max(self):
        x0 = RNG.standard_normal((4, 4))
        x0[2, 2] = 10.0
        check_gradient(lambda x: x.max() * 2.0, x0)


class TestLinearAlgebraGradients:
    def test_matmul_both_sides(self):
        a0 = RNG.standard_normal((3, 4))
        b0 = RNG.standard_normal((4, 2))
        a = Tensor(a0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        (a @ b).sum().backward()
        numeric_a = numeric_gradient(
            lambda arr: (Tensor(arr, dtype=np.float64) @ Tensor(b0, dtype=np.float64)).sum().item(), a0
        )
        numeric_b = numeric_gradient(
            lambda arr: (Tensor(a0, dtype=np.float64) @ Tensor(arr, dtype=np.float64)).sum().item(), b0
        )
        np.testing.assert_allclose(a.grad, numeric_a, **TOL)
        np.testing.assert_allclose(b.grad, numeric_b, **TOL)

    def test_linear_fused(self):
        x0 = RNG.standard_normal((5, 3))
        w0 = RNG.standard_normal((4, 3))
        b0 = RNG.standard_normal((4,))
        x = Tensor(x0, requires_grad=True, dtype=np.float64)
        w = Tensor(w0, requires_grad=True, dtype=np.float64)
        b = Tensor(b0, requires_grad=True, dtype=np.float64)
        (F.linear(x, w, b) ** 2).sum().backward()
        numeric_w = numeric_gradient(
            lambda arr: (F.linear(Tensor(x0, dtype=np.float64), Tensor(arr, dtype=np.float64), Tensor(b0, dtype=np.float64)) ** 2).sum().item(),
            w0,
        )
        np.testing.assert_allclose(w.grad, numeric_w, **TOL)
        assert b.grad.shape == (4,)
        assert x.grad.shape == (5, 3)


class TestShapeOpGradients:
    def test_reshape_transpose(self):
        x0 = RNG.standard_normal((2, 6))
        check_gradient(lambda x: (x.reshape(3, 4).transpose() ** 2).sum(), x0)

    def test_getitem(self):
        x0 = RNG.standard_normal((4, 5))
        check_gradient(lambda x: (x[1:3, ::2] ** 2).sum(), x0)

    def test_concatenate(self):
        x0 = RNG.standard_normal((2, 3))
        check_gradient(lambda x: (nn.concatenate([x, x * 2], axis=1) ** 2).sum(), x0)

    def test_softmax_gradients(self):
        x0 = RNG.standard_normal((3, 4))
        check_gradient(lambda x: (x.softmax(axis=-1) * np.arange(4)).sum(), x0)
        check_gradient(lambda x: (x.log_softmax(axis=-1) * np.arange(4)).sum(), x0)


class TestBackwardMechanics:
    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulation(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        y = x * 3
        z = (y + y * y).sum()
        z.backward()
        # d/dx (3x + 9x^2) = 3 + 18x = 39 at x=2
        np.testing.assert_allclose(x.grad, [39.0])

    def test_leaf_only_gradients_by_default(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2
        y.sum().backward()
        assert x.grad is not None
        assert y.grad is None

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor(np.ones(4), requires_grad=True)
        out = x
        for _ in range(500):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(4))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sum_gradient_is_ones_property(rows, cols, seed):
    """Property: d(sum(x))/dx == 1 for every element, any shape."""
    data = np.random.default_rng(seed).standard_normal((rows, cols))
    x = Tensor(data, requires_grad=True, dtype=np.float64)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((rows, cols)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_softmax_rows_sum_to_one_property(seed):
    """Property: softmax output is a probability distribution per row."""
    data = np.random.default_rng(seed).standard_normal((4, 6)) * 5
    out = Tensor(data).softmax(axis=-1)
    assert np.all(out.data >= 0)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-5)


class _PickyFunction(Function):
    def forward(self, x):
        assert x.ndim == 2, "expected a 2-D operand"
        return x * 2

    def backward(self, grad_output):
        return (grad_output,)


class TestOpError:
    def test_function_apply_raises_op_error(self):
        with pytest.raises(OpError) as excinfo:
            _PickyFunction.apply(nn.Tensor(np.ones(3, dtype=np.float32)))
        assert excinfo.value.op == "_PickyFunction"
        assert "(3,)/float32" in str(excinfo.value)
        assert "expected a 2-D operand" in str(excinfo.value)
