"""Reproducible random streams, the hidden-layer nonlinearities and the dense forward.

All stochastic behaviour flows through :class:`RngStream`, a splittable
counter-based generator, so results are reproducible bit-for-bit from a
seed.  :data:`ACTIVATIONS` names the hidden nonlinearities; :func:`check_layers` and
:func:`dense_forward` check and run a stack of dense layers, for the teacher and the student alike,
and :func:`derived` keeps what a frozen network computes from its read-only arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ShapeError

__all__ = ["RngStream", "sigmoid", "relu", "ACTIVATIONS", "check_layers", "dense_forward",
           "derived"]

_FORWARD_ROWS = 1024  # at most, per block: a 1024 x 1200 activation is 9.4 MiB in float64
# elements per block of the flat elementwise loops (Adam's update, the KL penalty): a block's
# handful of float64 arrays (under 1 MiB) stays in L2 between the passes over it
ELEMENT_BLOCK = 16384


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
        """Standard normal matrix from the Philox generator's own sampler."""
        return self._gen.standard_normal((int(rows), int(cols)))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def _as_float(x) -> np.ndarray:
    """``x`` as an array of its own float type, float32 or float64; anything else as float64."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


def sigmoid(x) -> np.ndarray:
    """Logistic function, computed without overflow for large |x|, in ``x``'s float type."""
    x = _as_float(x)
    # 1 / (1 + exp(-x)) where x >= 0, since exp(-|x|) <= 1 there, and
    # exp(x) / (1 + exp(x)) elsewhere; no masked indexing, which is slow
    ex = np.exp(-np.abs(x))
    return np.maximum(ex, x >= 0) / (1.0 + ex)


def relu(x) -> np.ndarray:
    return np.maximum(_as_float(x), 0.0)


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid}


def check_layers(weights, biases) -> None:
    """Raise :class:`ConsistencyError` unless there is at least one layer, one bias per weight
    matrix, and each layer's width equals its bias length and the next layer's input width."""
    if not weights or len(weights) != len(biases):
        raise ConsistencyError(f"{len(weights)} weight matrices and {len(biases)} bias vectors: "
                               "a network needs at least one layer, and one bias per layer")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape[1] != b.shape[0]:
            raise ConsistencyError(f"layer {i} bias length {b.shape[0]} != width {w.shape[1]}")
        if i + 1 < len(weights) and w.shape[1] != weights[i + 1].shape[0]:
            raise ConsistencyError(f"layer {i} output {w.shape[1]} != "
                                   f"layer {i + 1} input {weights[i + 1].shape[0]}")


def dense_forward(x, weights, biases, activation: str, cols=None) -> np.ndarray:
    """Last-layer pre-activations as float64, in row blocks of at most ``_FORWARD_ROWS`` whose
    sizes differ by at most one: BLAS would sum a short last block's few rows in another order.
    Each block is cast to the float type of ``weights`` (float32 weights give float32 products
    and hidden activations); the input is never widened as a whole.  ``cols``, a boolean mask
    over the input's columns, picks those the first layer reads, block by block."""
    x = np.asarray(x)
    width = weights[0].shape[0] if cols is None else len(cols)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"batch shape {x.shape} incompatible with input width {width}")
    act = ACTIVATIONS[activation]
    out = np.empty((len(x), weights[-1].shape[1]))
    n_blocks = max(1, -(-len(x) // _FORWARD_ROWS))
    edges = [len(x) * i // n_blocks for i in range(n_blocks + 1)]  # not np.array_split: ~40 us a call
    for lo, hi in zip(edges, edges[1:]):
        h, block = x[lo:hi], out[lo:hi]
        if cols is not None:
            h = h.compress(cols, axis=1)
        h = h.astype(weights[0].dtype, copy=False)
        for w, b in zip(weights[:-1], biases[:-1]):
            # the bias is added in place so that one fewer block-by-width array is live
            h = h @ w
            h += b
            h = act(h)
        np.matmul(h, weights[-1], out=block)  # computed in h's type, stored as float64
        block += biases[-1]
    return out


def derived(net, name: str, arrays, compute, tag=None):
    """``compute(arrays)``, kept on ``net`` when every one of ``arrays``, those it is computed
    from, is a read-only array: a frozen network computes each such value once.

    The value is kept in ``net._kept[name]`` beside the arrays and the ``tag`` it came from,
    with its own arrays made read-only; a replaced array or another ``tag`` computes a fresh
    value, which replaces it, so each ``name`` holds one value.  A writable array can change in
    place (Adam updates a live network's arrays), so then the value is computed on every call.
    An array made writable again and edited in place would leave the kept value stale.
    """
    arrays = list(arrays)
    if not all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays):
        return compute(arrays)
    kept = net._kept.get(name)  # (arrays, tag, value): holding the arrays keeps their ids unique
    if kept is None or kept[1] != tag or list(map(id, kept[0])) != list(map(id, arrays)):
        value = compute(arrays)
        _read_only(value)
        kept = net._kept[name] = (arrays, tag, value)
    return kept[2]


def _read_only(value) -> None:
    """Mark every array in ``value``, an array or a nest of lists and tuples, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (list, tuple)):
        for v in value:
            _read_only(v)
