"""The group term as the paper defines it: a mixed norm over the rows of a
zero-padded stack of every weight matrix from both networks.

This materialises the stack (1200x1200x6 float64, about 69 MB, at the
paper's shapes), so training never uses it; it is the oracle that
``losses.bsr_node`` is compared against.
"""

import math
from dataclasses import dataclass

import numpy as np

from sparsedistill.errors import DomainError, ShapeError, UsageError


@dataclass
class ConcatTensor:
    """Zero-padded stack of weight matrices from both networks.

    Axis 0 indexes rows (padded to the tallest matrix), axis 1 columns
    (padded to the widest), axis 2 the matrices themselves, teacher
    layers first.
    """

    tensor: np.ndarray
    n_teacher: int
    shapes: list

    @property
    def m(self) -> int:
        return self.tensor.shape[0]


def concat_weights(teacher_weights, student_weights) -> ConcatTensor:
    mats = [np.asarray(w, dtype=np.float64) for w in list(teacher_weights) + list(student_weights)]
    for w in mats:
        if w.ndim != 2:
            raise ShapeError(f"expected 2-D weight matrices, got shape {w.shape}")
    m = max(w.shape[0] for w in mats)
    n = max(w.shape[1] for w in mats)
    out = np.zeros((m, n, len(mats)))
    for l, w in enumerate(mats):
        out[:w.shape[0], :w.shape[1], l] = w
    return ConcatTensor(out, n_teacher=len(list(teacher_weights)), shapes=[w.shape for w in mats])


def bsr(concat: ConcatTensor, variant: str, q: float = 2.0) -> float:
    """Mixed norm over the stacked tensor: an outer sum over rows of an
    inner q-norm (or max) across everything in that row.

    Aggregation walks the matrices through their true shapes and the outer
    sum is correctly rounded, so padded zeros cannot perturb the value
    even at the last bit.
    """
    t = np.abs(concat.tensor)
    if variant == "l1linf":
        row_max = np.zeros(concat.m)
        for l, (h, _) in enumerate(concat.shapes):
            row_max[:h] = np.maximum(row_max[:h], t[:h, :, l].max(axis=1))
        return float(math.fsum(row_max))
    if variant == "l1lq":
        if not (np.isfinite(q) and q >= 1):
            raise DomainError(f"q must be a finite number >= 1, got {q}")
        rows = np.zeros(concat.m)
        for l, (h, c) in enumerate(concat.shapes):
            rows[:h] += (t[:h, :c, l] ** q).sum(axis=1)
        return float(math.fsum(rows ** (1.0 / q)))
    raise UsageError(f"unknown group-norm variant {variant!r}")
