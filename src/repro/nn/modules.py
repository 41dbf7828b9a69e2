"""Module/parameter containers: Linear, MLP, and the Module base class."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng


class Module:
    """Base class; discovers parameters through attribute traversal."""

    training: bool = True

    def parameters(self) -> list:
        """All trainable tensors of this module, depth-first, in attribute
        declaration order (stable for optimizer state)."""
        params: list = []
        seen: set = set()
        # An explicit stack (children pushed in reverse, so they pop in
        # declaration order): a recursive closure would reference itself
        # and leave a reference cycle behind on every call.
        stack: list = [self]
        while stack:
            obj = stack.pop()
            if isinstance(obj, Tensor):
                if obj.requires_grad and id(obj) not in seen:
                    seen.add(id(obj))
                    params.append(obj)
            elif isinstance(obj, Module):
                stack.extend(reversed(list(vars(obj).values())))
            elif isinstance(obj, (list, tuple)):
                stack.extend(reversed(obj))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def named_parameters(self) -> list:
        """(path, tensor) pairs, depth-first; paths like ``convs.0.weight``."""
        out: list = []
        seen: set = set()

        def collect(obj, prefix: str) -> None:
            if isinstance(obj, Tensor):
                if obj.requires_grad and id(obj) not in seen:
                    seen.add(id(obj))
                    out.append((prefix, obj))
            elif isinstance(obj, Module):
                for name, value in vars(obj).items():
                    collect(value, f"{prefix}.{name}" if prefix else name)
            elif isinstance(obj, (list, tuple)):
                for index, item in enumerate(obj):
                    collect(item, f"{prefix}.{index}")

        collect(self, "")
        return out

    def state_dict(self) -> dict:
        """Copy of all parameters keyed by attribute path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        """Load parameters saved by :meth:`state_dict` (strict matching)."""
        named = dict(self.named_parameters())
        missing = set(named) - set(state)
        unexpected = set(state) - set(named)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, tensor in named.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {tensor.data.shape}"
                )
            tensor.data = value.copy()

    def save(self, path) -> None:
        """Write the state dict to an ``.npz`` file."""
        np.savez_compressed(path, **self.state_dict())

    def load(self, path) -> None:
        """Load an ``.npz`` written by :meth:`save`."""
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        """Bytes of all parameters (gradient all-reduce payload)."""
        return sum(p.data.nbytes for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``x @ W + b`` with Glorot-uniform init."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True,
                 rng=None) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("dimensions must be positive")
        rng = ensure_rng(rng)
        bound = float(np.sqrt(6.0 / (in_dim + out_dim)))
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_dim, out_dim)),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_dim), requires_grad=True) if bias else None
        )
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP(Module):
    """Two-layer perceptron with ReLU (GIN's update function)."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 rng=None) -> None:
        rng = ensure_rng(rng)
        self.fc1 = Linear(in_dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        from repro.nn.functional import relu

        return self.fc2(relu(self.fc1(x)))
