"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operation that
produced it; calling :meth:`Tensor.backward` on a scalar result walks the
graph in reverse topological order and accumulates gradients into every
leaf created with ``requires_grad=True``.  Only the operations needed by
the training losses are implemented; each backward rule lives next to its
forward as a closure, micrograd-style.

Broadcasting in binary ops is supported; gradients are summed back down
to each operand's original shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "constant", "parameter", "maximum_of"]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    # -- graph plumbing ------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Backpropagate from this scalar node to all grad-requiring leaves."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.data.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def item(self) -> float:
        return float(self.data.item())

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        req = self.requires_grad or other.requires_grad

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, req, (self, other), back if req else None)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._lift(other)
        req = self.requires_grad or other.requires_grad

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, req, (self, other), back if req else None)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __truediv__(self, other):
        other = Tensor._lift(other)
        req = self.requires_grad or other.requires_grad

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * self.data / (other.data * other.data), other.data.shape))

        return Tensor(self.data / other.data, req, (self, other), back if req else None)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        p = float(exponent)
        req = self.requires_grad

        def back(g):
            self._accumulate(g * p * self.data ** (p - 1.0))

        return Tensor(self.data ** p, req, (self,), back if req else None)

    def __matmul__(self, other):
        other = Tensor._lift(other)
        req = self.requires_grad or other.requires_grad

        def back(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return Tensor(self.data @ other.data, req, (self, other), back if req else None)

    # -- elementwise functions ------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        req = self.requires_grad

        def back(g):
            self._accumulate(g * out_data)

        return Tensor(out_data, req, (self,), back if req else None)

    def log(self):
        req = self.requires_grad

        def back(g):
            self._accumulate(g / self.data)

        return Tensor(np.log(self.data), req, (self,), back if req else None)

    def sqrt(self):
        out_data = np.sqrt(self.data)
        req = self.requires_grad

        def back(g):
            self._accumulate(g * 0.5 / out_data)

        return Tensor(out_data, req, (self,), back if req else None)

    def abs(self):
        req = self.requires_grad

        def back(g):
            self._accumulate(g * np.sign(self.data))

        return Tensor(np.abs(self.data), req, (self,), back if req else None)

    def relu(self):
        req = self.requires_grad

        def back(g):
            self._accumulate(g * (self.data > 0))

        return Tensor(np.maximum(self.data, 0.0), req, (self,), back if req else None)

    def sigmoid(self):
        x = self.data
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)
        req = self.requires_grad

        def back(g):
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor(out_data, req, (self,), back if req else None)

    def clip(self, lo: float, hi: float):
        """Clamp values to [lo, hi]; gradient passes only where unclamped."""
        inside = (self.data >= lo) & (self.data <= hi)
        req = self.requires_grad

        def back(g):
            self._accumulate(g * inside)

        return Tensor(np.clip(self.data, lo, hi), req, (self,), back if req else None)

    def qroot(self, q: float):
        """Entrywise x**(1/q) with a zero subgradient where x <= 0."""
        q = float(q)
        positive = self.data > 0
        out_data = np.where(positive, np.power(np.maximum(self.data, 1e-300), 1.0 / q), 0.0)
        req = self.requires_grad

        def back(g):
            d = np.where(positive, out_data / np.where(positive, self.data, 1.0), 0.0)
            self._accumulate(g * d / q)

        return Tensor(out_data, req, (self,), back if req else None)

    # -- reductions and shape ops ----------------------------------------

    def sum(self, axis=None, keepdims=False):
        req = self.requires_grad

        def back(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
            else:
                ge = np.expand_dims(g, axis) if not keepdims else g
                self._accumulate(np.broadcast_to(ge, self.data.shape).copy())

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), req, (self,), back if req else None)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def max(self, axis: int):
        """Maximum along ``axis``; gradient routes to the first argmax."""
        idx = np.argmax(self.data, axis=axis)
        out_data = np.take_along_axis(self.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)
        req = self.requires_grad

        def back(g):
            full = np.zeros_like(self.data)
            np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
            self._accumulate(full)

        return Tensor(out_data, req, (self,), back if req else None)

    def logsumexp(self, axis: int = 1):
        m = self.data.max(axis=axis, keepdims=True)
        e = np.exp(self.data - m)
        s = e.sum(axis=axis, keepdims=True)
        out_data = (m + np.log(s)).squeeze(axis)
        req = self.requires_grad

        def back(g):
            soft = e / s
            self._accumulate(np.expand_dims(g, axis) * soft)

        return Tensor(out_data, req, (self,), back if req else None)

    def pad_to(self, n: int):
        """Zero-pad a 1-D tensor on the right to length ``n``."""
        if self.data.ndim != 1:
            raise ValueError("pad_to expects a 1-D tensor")
        k = self.data.shape[0]
        if n < k:
            raise ValueError(f"cannot pad length {k} down to {n}")
        out_data = np.zeros(n, dtype=np.float64)
        out_data[:k] = self.data
        req = self.requires_grad

        def back(g):
            self._accumulate(g[:k])

        return Tensor(out_data, req, (self,), back if req else None)


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise maximum; on ties the gradient goes to the first operand."""
    b = Tensor._lift(b)
    req = a.requires_grad or b.requires_grad
    a_wins = a.data >= b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * a_wins, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ~a_wins, b.data.shape))

    return Tensor(np.maximum(a.data, b.data), req, (a, b), back if req else None)


def maximum_of(tensors) -> Tensor:
    """Elementwise maximum over a sequence of tensors (earlier wins ties)."""
    tensors = list(tensors)
    out = tensors[0] if isinstance(tensors[0], Tensor) else Tensor(tensors[0])
    for t in tensors[1:]:
        out = maximum(out, t)
    return out


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)
