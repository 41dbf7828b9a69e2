"""Tests for the autograd engine (numerical gradient checks)."""

import gc

import numpy as np
import pytest

from helpers import assert_grad_close, numerical_gradient
from repro.nn.tensor import Tensor, no_grad


def check_unary(op, x0, **kwargs):
    """Gradient-check a scalar-reduced unary op at x0."""
    x = Tensor(x0, requires_grad=True)
    out = op(x, **kwargs).sum()
    out.backward()

    def f(arr):
        return float(op(Tensor(arr), **kwargs).sum().data)

    assert_grad_close(x.grad, numerical_gradient(f, x0))


class TestArithmetic:
    def test_add_backward(self, rng):
        a0 = rng.random((3, 4), dtype=np.float32)
        b0 = rng.random((3, 4), dtype=np.float32)
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.ones((3, 4)))

    def test_mul_backward(self, rng):
        a0 = rng.random((3, 4), dtype=np.float32)
        b0 = rng.random((3, 4), dtype=np.float32)
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b0, rtol=1e-6)
        np.testing.assert_allclose(b.grad, a0, rtol=1e-6)

    def test_broadcast_add(self, rng):
        a = Tensor(rng.random((3, 4), dtype=np.float32), requires_grad=True)
        bias = Tensor(rng.random(4, dtype=np.float32), requires_grad=True)
        (a + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))

    def test_scalar_coercion(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (2.0 * a + 1.0 - a / 2.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 1.5))

    def test_sub_and_neg(self, rng):
        a0 = rng.random((2, 3), dtype=np.float32)
        check_unary(lambda x: -x + 3.0, a0)
        check_unary(lambda x: 5.0 - x, a0)

    def test_pow(self, rng):
        a0 = rng.random((2, 3), dtype=np.float32) + 0.5
        check_unary(lambda x: x**3.0, a0)

    def test_div_by_tensor(self, rng):
        a0 = rng.random((2, 2), dtype=np.float32) + 1.0
        b0 = rng.random((2, 2), dtype=np.float32) + 1.0
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1 / b0, rtol=1e-5)

    def test_matmul(self, rng):
        a0 = rng.random((3, 4), dtype=np.float32)
        b0 = rng.random((4, 2), dtype=np.float32)
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a @ b).sum().backward()

        def fa(arr):
            return float((Tensor(arr) @ Tensor(b0)).sum().data)

        def fb(arr):
            return float((Tensor(a0) @ Tensor(arr)).sum().data)

        assert_grad_close(a.grad, numerical_gradient(fa, a0))
        assert_grad_close(b.grad, numerical_gradient(fb, b0))


class TestShapesAndReductions:
    def test_reshape(self, rng):
        x0 = rng.random((2, 6), dtype=np.float32)
        check_unary(lambda x: x.reshape(3, 4) * 2.0, x0)

    def test_transpose(self, rng):
        x0 = rng.random((2, 3), dtype=np.float32)
        x = Tensor(x0, requires_grad=True)
        (x.transpose() * Tensor(np.ones((3, 2)))).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_slice_rows(self, rng):
        x0 = rng.random((5, 3), dtype=np.float32)
        x = Tensor(x0, requires_grad=True)
        x.slice_rows(2).sum().backward()
        expected = np.zeros((5, 3))
        expected[:2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_slice_rows_out_of_range(self):
        with pytest.raises(IndexError):
            Tensor(np.zeros((2, 2))).slice_rows(3)

    def test_concat_cols(self, rng):
        a = Tensor(rng.random((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.random((2, 2), dtype=np.float32), requires_grad=True)
        out = a.concat_cols(b)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_sum_axis(self, rng):
        x0 = rng.random((3, 4), dtype=np.float32)
        check_unary(lambda x: x.sum(axis=1) * 2.0, x0)
        check_unary(lambda x: x.sum(axis=0, keepdims=True), x0)

    def test_mean(self, rng):
        x = Tensor(rng.random((4, 2), dtype=np.float32), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 2), 1 / 8))

    def test_exp_log(self, rng):
        x0 = rng.random((2, 3), dtype=np.float32) + 0.5
        check_unary(lambda x: x.exp(), x0)
        check_unary(lambda x: x.log(), x0)


class TestEngine:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * x).backward()  # d(x^2)/dx = 2x = 4
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2.0
        z = y + y  # both branches through y
        z.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_without_grad_flag(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_context(self):
        with no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * 2.0
        assert not x.requires_grad  # creation inside no_grad disables it
        assert not y.requires_grad

    def test_no_grad_restores(self):
        with no_grad():
            pass
        x = Tensor(np.ones(2), requires_grad=True)
        assert x.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 3.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_custom_seed_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(grad=np.array([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 4.0])

    def test_backward_leaves_no_reference_cycles(self, tiny_dataset):
        """A training step's graph is freed by reference counting alone,
        not left for the cyclic collector."""
        from repro.nn import build_model, cross_entropy
        from repro.sampling import NeighborSampler

        seeds = tiny_dataset.train_ids[:16]
        sampler = NeighborSampler(tiny_dataset.graph, (3, 3), rng=0)
        subgraph = sampler.sample(seeds)
        features = Tensor(tiny_dataset.features.gather(subgraph.input_nodes))
        model = build_model("gcn", tiny_dataset.feature_dim,
                            tiny_dataset.num_classes, hidden_dim=8,
                            num_layers=2, seed=0)
        gc.collect()
        gc.disable()
        try:
            loss = cross_entropy(model(subgraph, features),
                                 tiny_dataset.labels[seeds])
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_backward_through_a_deep_chain(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):  # deeper than the interpreter's recursion
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_float32_storage(self):
        x = Tensor(np.ones(3, dtype=np.float64))
        assert x.data.dtype == np.float32
