"""Tests for modules (Linear/MLP) and optimizers."""

import gc

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, MLP, Tensor, build_model
from repro.nn.modules import Module


def _recursive_parameters(obj, seen=None) -> list:
    """Reference walk: depth-first, in attribute declaration order."""
    seen = set() if seen is None else seen
    if isinstance(obj, Tensor):
        if obj.requires_grad and id(obj) not in seen:
            seen.add(id(obj))
            return [obj]
        return []
    children = ()
    if isinstance(obj, Module):
        children = vars(obj).values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    return [p for child in children
            for p in _recursive_parameters(child, seen)]


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(6, 3, rng=rng)
        out = layer(Tensor(np.ones((5, 6), dtype=np.float32)))
        assert out.shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_glorot_scale(self):
        layer = Linear(100, 100, rng=0)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound + 1e-6

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 4)


class TestModule:
    def test_parameters_recursion(self, rng):
        mlp = MLP(4, 8, 2, rng=rng)
        params = mlp.parameters()
        assert len(params) == 4  # two weights + two biases
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2
        assert mlp.parameter_bytes() == mlp.num_parameters() * 4

    def test_parameters_deduplicated(self):
        class Shared(Module):
            def __init__(self):
                self.a = Tensor(np.ones(2), requires_grad=True)
                self.b = self.a

        assert len(Shared().parameters()) == 1

    def test_parameters_in_lists(self, rng):
        class Stack(Module):
            def __init__(self):
                self.layers = [Linear(2, 2, rng=rng) for _ in range(3)]

        assert len(Stack().parameters()) == 6

    def test_train_eval_propagates(self, rng):
        class Outer(Module):
            def __init__(self):
                self.inner = MLP(2, 2, 2, rng=rng)

        model = Outer()
        model.eval()
        assert not model.inner.training
        model.train()
        assert model.inner.training

    @pytest.mark.parametrize("kind", ["gcn", "gin", "gat"])
    def test_parameters_leave_no_reference_cycles(self, kind):
        model = build_model(kind, 6, 3, hidden_dim=8, num_layers=2, seed=0)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                model.parameters()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", ["gcn", "gin", "gat"])
    def test_parameters_order_matches_recursive_walk(self, kind, rng):
        class Wrapper(Module):
            def __init__(self):
                self.model = build_model(kind, 6, 3, hidden_dim=8,
                                         num_layers=3, seed=1)
                self.heads = (Linear(3, 2, rng=rng),
                              [MLP(2, 4, 2, rng=rng), Linear(2, 2, rng=rng)])
                self.tied = self.heads[0].weight

        for module in (build_model(kind, 6, 3, hidden_dim=8, num_layers=3),
                       Wrapper()):
            got = module.parameters()
            want = _recursive_parameters(module)
            assert len(got) == len(want) > 0
            assert all(g is w for g, w in zip(got, want))

    def test_zero_grad(self, rng):
        mlp = MLP(3, 4, 2, rng=rng)
        out = mlp(Tensor(np.ones((2, 3), dtype=np.float32)))
        out.sum().backward()
        assert mlp.fc1.weight.grad is not None
        mlp.zero_grad()
        assert mlp.fc1.weight.grad is None


def quadratic_problem():
    """Minimize ||x - t||^2 from a fixed start."""
    target = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)

    def loss_fn():
        diff = x - Tensor(target)
        return (diff * diff).sum()

    return x, target, loss_fn


class TestSGD:
    def test_converges(self):
        x, target, loss_fn = quadratic_problem()
        opt = SGD([x], lr=0.1)
        for _ in range(100):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(x.data, target, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            x, _, loss_fn = quadratic_problem()
            opt = SGD([x], lr=0.02, momentum=momentum)
            for _ in range(30):
                loss = loss_fn()
                opt.zero_grad()
                loss.backward()
                opt.step()
            return float(loss_fn().data)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        x = Tensor(np.ones(2, dtype=np.float32) * 10, requires_grad=True)
        opt = SGD([x], lr=0.1, weight_decay=1.0)
        x.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        assert np.all(np.abs(x.data) < 10)

    def test_skips_none_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        SGD([x], lr=0.1).step()  # no grad: no-op, no crash
        np.testing.assert_allclose(x.data, 1.0)

    def test_invalid_lr(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([x], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges(self):
        x, target, loss_fn = quadratic_problem()
        opt = Adam([x], lr=0.1)
        for _ in range(200):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(x.data, target, atol=1e-2)

    def test_state_bytes(self):
        x = Tensor(np.ones(10, dtype=np.float32), requires_grad=True)
        opt = Adam([x])
        assert opt.state_bytes() == 2 * 40

    def test_bias_correction_first_step(self):
        x = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        opt = Adam([x], lr=0.5)
        x.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # First Adam step moves ~lr regardless of gradient scale.
        assert abs(x.data[0] + 0.5) < 1e-4
