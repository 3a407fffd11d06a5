"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operation that
produced it; calling :meth:`Tensor.backward` on a scalar result walks the
graph in reverse topological order and accumulates gradients into every
leaf created with ``requires_grad=True``.  Each loss term and each noisy
layer is a single node with its own closed-form gradient (see
:mod:`.losses` and :mod:`.student`); the engine itself keeps only the
operations that join those nodes and build the teacher's plain MLP:
``+``, ``*``, ``@``, ``relu``, ``sigmoid`` and ``sum``.

Broadcasting in binary ops is supported; gradients are summed back down
to each operand's original shape.
"""

from __future__ import annotations

import numpy as np

from .tensor import sigmoid

__all__ = ["Tensor"]


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

    def _accumulate(self, g: np.ndarray, fresh: bool = False):
        """Add ``g`` to the gradient.  The first ``g`` is copied unless ``fresh`` says the caller
        made it for this leaf alone: ``+`` hands one ``g`` to both operands, and clipping scales
        gradients in place."""
        if self.grad is not None:
            self.grad += g
        elif fresh and isinstance(g, np.ndarray):  # a numpy scalar could not be scaled in place
            self.grad = g
        else:
            self.grad = np.array(g, dtype=np.float64)

    def _grad_buffer(self) -> np.ndarray:
        """The gradient as a flat view of an owned, contiguous array, zeros if none has
        arrived yet, for a node whose backward adds into it block by block."""
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        else:
            self.grad = np.ascontiguousarray(self.grad)
        return self.grad.reshape(-1)

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
                self._accumulate(_unbroadcast(g * other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape), fresh=True)

        return Tensor(self.data * other.data, req, (self, other), back if req else None)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Tensor._lift(other)
        req = self.requires_grad or other.requires_grad

        def back(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T, fresh=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ g, fresh=True)

        return Tensor(self.data @ other.data, req, (self, other), back if req else None)

    # -- activations and the full sum ------------------------------------

    def relu(self):
        req = self.requires_grad

        def back(g):
            self._accumulate(g * (self.data > 0), fresh=True)

        return Tensor(np.maximum(self.data, 0.0), req, (self,), back if req else None)

    def sigmoid(self):
        out_data = sigmoid(self.data)
        req = self.requires_grad

        def back(g):
            self._accumulate(g * out_data * (1.0 - out_data), fresh=True)

        return Tensor(out_data, req, (self,), back if req else None)

    def sum(self):
        """Sum of every entry, as a scalar node."""
        req = self.requires_grad

        def back(g):
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor(self.data.sum(), req, (self,), back if req else None)
