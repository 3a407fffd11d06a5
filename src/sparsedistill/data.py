"""MNIST-style dataset loading, subsampling, and batching.

Files follow the classic IDX layout: big-endian 32-bit header words, then
a flat payload of unsigned bytes.  Images use magic 0x00000803 followed by
count, rows, cols; labels use magic 0x00000801 followed by count.  Byte ``k``
becomes the float32 ``np.float32(k / 255)`` on load, the value the float32 matrix
products read, at 4 bytes a pixel; nothing else (no mean centering) is applied.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, DomainError, FormatError, LengthError, as_int
from .tensor import BIT_GENERATOR, RngStream

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

__all__ = ["Dataset", "load_idx", "write_idx", "subset_indices", "batch_iter"]


@dataclass(frozen=True)
class Dataset:
    """Immutable pairing of flattened images (N x pixels) and labels (N,)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 2:
            raise ConsistencyError(f"images must be 2-D, got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ConsistencyError(
                f"image count {len(self.images)} != label count {len(self.labels)}"
            )

    def __len__(self):
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.images.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def take(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.images[indices], self.labels[indices])


def _read_words(raw: bytes, count: int, path) -> tuple:
    if len(raw) < 4 * count:
        raise LengthError(f"{path}: header truncated ({len(raw)} bytes)")
    return struct.unpack(f">{count}I", raw[: 4 * count])


def load_idx(images_path, labels_path) -> Dataset:
    """Load an images/labels file pair into a :class:`Dataset`.

    Raises :class:`FormatError` on a wrong magic number,
    :class:`LengthError` on a truncated payload, and
    :class:`ConsistencyError` when the two files disagree on the sample
    count.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    raw = images_path.read_bytes()
    magic, n, rows, cols = _read_words(raw, 4, images_path)
    if magic != IMAGES_MAGIC:
        raise FormatError(
            f"{images_path}: expected images magic {IMAGES_MAGIC:#010x}, found {magic:#010x}"
        )
    expected = 16 + n * rows * cols
    if len(raw) != expected:
        raise LengthError(f"{images_path}: expected {expected} bytes, found {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, rows * cols)

    raw = labels_path.read_bytes()
    magic, n_labels = _read_words(raw, 2, labels_path)
    if magic != LABELS_MAGIC:
        raise FormatError(
            f"{labels_path}: expected labels magic {LABELS_MAGIC:#010x}, found {magic:#010x}"
        )
    if len(raw) != 8 + n_labels:
        raise LengthError(f"{labels_path}: expected {8 + n_labels} bytes, found {len(raw)}")
    if n_labels != n:
        raise ConsistencyError(f"{n} images but {n_labels} labels")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)

    images = pixels.astype(np.float32)
    images /= np.float32(255.0)  # in place: one float32 copy of the pixels is held, not two
    return Dataset(images, labels)


def write_idx(images_u8: np.ndarray, labels: np.ndarray, images_path, labels_path,
              rows: int = 28, cols: int = 28):
    """Write raw byte images (N x rows*cols, uint8) and labels as IDX files."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n = len(images_u8)
    if images_u8.shape[1] != rows * cols:
        raise ConsistencyError(f"images have {images_u8.shape[1]} pixels, expected {rows * cols}")
    if len(labels) != n:
        raise ConsistencyError(f"{n} images but {len(labels)} labels")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4I", IMAGES_MAGIC, n, rows, cols))
        f.write(images_u8.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2I", LABELS_MAGIC, n))
        f.write(labels.tobytes())


def subset_indices(ds: Dataset, n: int, seed: int) -> np.ndarray:
    """Indices of a class-stratified sample of ``n`` examples, without replacement.

    Per-class quotas are proportional to the class frequencies, rounded by
    largest remainder so they sum to exactly ``n``.  Deterministic for a
    given seed.
    """
    n, total = as_int(n, "subset size", 1, DomainError), len(ds)
    if n > total:
        raise DomainError(f"subset size {n} out of range [1, {total}]")
    classes = np.unique(ds.labels)
    counts = np.array([(ds.labels == c).sum() for c in classes], dtype=np.int64)
    quota = counts * (n / total)
    base = np.floor(quota).astype(np.int64)
    remainder = n - base.sum()
    # distribute leftovers to the largest fractional parts (stable order)
    order = np.argsort(-(quota - base), kind="stable")
    base[order[:remainder]] += 1

    rng = RngStream(seed)
    picks = []
    for c, k in zip(classes, base):
        members = np.flatnonzero(ds.labels == c)
        perm = rng.child(0, int(c)).permutation(len(members))
        picks.append(members[perm[:k]])
    out = np.concatenate(picks)
    return out[rng.child(1).permutation(len(out))]


def batch_iter(ds: Dataset, batch_size: int, shuffle_seed=None):
    """Yield ``(images, labels, indices)`` batches covering one epoch.

    Every example appears exactly once; the final batch may be short.
    With ``shuffle_seed=None`` batches follow stored order; otherwise the
    order is a deterministic permutation of the seed.
    """
    batch_size = as_int(batch_size, "batch_size", 1, DomainError)
    n = len(ds)
    if shuffle_seed is None:
        indices = np.arange(n)
    else:
        gen = np.random.Generator(BIT_GENERATOR(np.random.SeedSequence(shuffle_seed)))
        indices = gen.permutation(n)
    for start in range(0, n, batch_size):
        batch = indices[start:start + batch_size]
        yield ds.images[batch], ds.labels[batch], batch
