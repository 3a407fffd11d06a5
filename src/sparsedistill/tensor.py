"""Reproducible random streams and the hidden-layer nonlinearities.

All stochastic behaviour flows through :class:`RngStream`, a splittable
counter-based generator, so results are reproducible bit-for-bit from a
seed.  :data:`ACTIVATIONS` maps each hidden nonlinearity's name to its
function, for the teacher and the student alike.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream", "sigmoid", "relu", "ACTIVATIONS"]


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


def sigmoid(x) -> np.ndarray:
    """Logistic function, computed without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    # 1 / (1 + exp(-x)) where x >= 0, since exp(-|x|) <= 1 there, and
    # exp(x) / (1 + exp(x)) elsewhere; no masked indexing, which is slow
    ex = np.exp(-np.abs(x))
    return np.maximum(ex, x >= 0) / (1.0 + ex)


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid}
