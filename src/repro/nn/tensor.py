"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape-based engine: each :class:`Tensor` records the
tensors it was computed from and a closure that routes its gradient to
them; ``backward()`` topologically sorts the tape and runs the closures.
Broadcasting is supported by summing gradients back to the operand shape.

Only the operations the GNN models need are implemented — this is a
substrate, not a framework.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (inference / evaluation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an optional gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------
    @classmethod
    def _from_op(cls, data, parents, backward) -> "Tensor":
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float32, copy=True)
        else:
            self.grad += grad

    # -- autograd engine -------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        # Post-order DFS over the tape, iterative: a recursive closure
        # would reference itself, and that cycle would keep every
        # tensor of the graph alive until the cyclic GC runs.
        topo: list = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in seen and parent.requires_grad:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1.0)
                )

        return Tensor._from_op(self.data**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._from_op(self.data @ other.data, (self, other), backward)

    # -- shape ops -----------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._from_op(self.data.reshape(shape), (self,), backward)

    def transpose(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._from_op(self.data.T, (self,), backward)

    def slice_rows(self, stop: int) -> "Tensor":
        """The first ``stop`` rows (used to peel targets off source blocks)."""
        n = self.shape[0]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[:stop] = grad
                self._accumulate(full)

        if stop > n:
            raise IndexError(f"slice_rows({stop}) on {n} rows")
        return Tensor._from_op(self.data[:stop], (self,), backward)

    def concat_cols(self, other: "Tensor") -> "Tensor":
        """Concatenate along the last axis (multi-head outputs)."""
        other = self._coerce(other)
        split = self.shape[-1]

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad[..., :split])
            if other.requires_grad:
                other._accumulate(grad[..., split:])

        return Tensor._from_op(
            np.concatenate([self.data, other.data], axis=-1),
            (self, other),
            backward,
        )

    # -- reductions ------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._from_op(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- pointwise nonlinearities ----------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(np.log(self.data), (self,), backward)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"
