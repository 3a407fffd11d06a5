"""Dense float64 matrix primitives and reproducible Gaussian sampling.

Matrices are plain 2-D C-contiguous ``numpy`` arrays of float64; every
function here returns a fresh array and never mutates its inputs.  All
stochastic behaviour flows through :class:`RngStream`, a splittable
counter-based generator, so results are reproducible bit-for-bit from a
seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "RngStream",
    "as_matrix",
    "matmul",
    "row_softmax",
    "gaussian_sample",
    "elementwise",
    "sigmoid",
    "relu",
]


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array (copying only if needed)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class RngStream:
    """Deterministic random stream keyed by a seed and a derivation path.

    Built on the counter-based Philox generator, so two streams created
    with the same ``(seed, path)`` produce identical samples in any
    process, and :meth:`child` splits off statistically independent
    streams without consuming state from the parent.
    """

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, *path) -> "RngStream":
        """Derive an independent stream for a sub-task (epoch, batch, ...)."""
        return RngStream(self.seed, self.path + tuple(int(p) for p in path))

    def uniform(self, *shape) -> np.ndarray:
        """Uniform samples in [0, 1)."""
        return self._gen.random(shape, dtype=np.float64)

    def normal(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal matrix via Box-Muller on Philox uniforms."""
        n = int(rows) * int(cols)
        half = (n + 1) // 2
        u = self._gen.random(2 * half, dtype=np.float64)
        u1 = 1.0 - u[:half]  # (0, 1], keeps log() finite
        u2 = u[half:]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:n].reshape(int(rows), int(cols))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ")
    return a @ b


def row_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``logits / temperature``.

    Stabilised by subtracting each row's maximum before exponentiation,
    so arbitrarily large logits (or small temperatures) stay finite.
    """
    if not temperature > 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    z = as_matrix(logits) / float(temperature)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def gaussian_sample(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    """i.i.d. standard normal matrix drawn from ``rng``."""
    if rows < 1 or cols < 1:
        raise DomainError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    return rng.normal(rows, cols)


def sigmoid(x) -> np.ndarray:
    """Logistic function, computed without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    # 1 / (1 + exp(-x)) where x >= 0, since exp(-|x|) <= 1 there, and
    # exp(x) / (1 + exp(x)) elsewhere; no masked indexing, which is slow
    ex = np.exp(-np.abs(x))
    return np.maximum(ex, x >= 0) / (1.0 + ex)


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


_UNARY = {
    "square": np.square,
    "sqrt": None,  # domain-checked below
    "exp": np.exp,
    "log": None,
    "sigmoid": sigmoid,
    "relu": relu,
    "neg": np.negative,
    "abs": np.abs,
}

_BINARY = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
}


def elementwise(kind: str, a, b=None, *, scale: float | None = None) -> np.ndarray:
    """Entrywise operation dispatch.

    Unary kinds: square, sqrt, exp, log, sigmoid, relu, neg, abs, scale
    (with the ``scale`` keyword).  Binary kinds: add, subtract, multiply.
    Domain violations (log of a non-positive entry, sqrt of a negative
    entry) raise :class:`DomainError`; binary shape mismatches raise
    :class:`ShapeError`.
    """
    a = np.asarray(a, dtype=np.float64)
    if kind == "scale":
        if scale is None:
            raise DomainError("elementwise('scale', ...) requires the scale keyword")
        return a * float(scale)
    if kind in _BINARY:
        if b is None:
            raise DomainError(f"elementwise('{kind}', ...) requires two operands")
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ShapeError(f"shape mismatch for '{kind}': {a.shape} vs {b.shape}")
        return _BINARY[kind](a, b)
    if kind not in _UNARY:
        raise DomainError(f"unknown elementwise kind '{kind}'")
    if b is not None:
        raise DomainError(f"elementwise('{kind}', ...) takes a single operand")
    if kind == "log":
        if np.any(a <= 0):
            raise DomainError("log requires strictly positive entries")
        return np.log(a)
    if kind == "sqrt":
        if np.any(a < 0):
            raise DomainError("sqrt requires non-negative entries")
        return np.sqrt(a)
    return _UNARY[kind](a)
