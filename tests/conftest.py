"""Shared test infrastructure.

Provides synthetic cluster datasets (as in-memory ``Dataset`` objects or
IDX file pairs on disk), a central finite-difference gradient checker for
the autograd graph, and a locator for the real MNIST files, which are
only used by the slow quantitative tests and are found through the
``MNIST_DIR`` environment variable.
"""

from __future__ import annotations

import gzip
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsedistill.autograd import Tensor
from sparsedistill.data import Dataset, load_idx, write_idx
from sparsedistill.tensor import RngStream


# -- synthetic data -------------------------------------------------------------


def make_blobs(n: int, d: int, classes: int, seed: int, spread: float = 0.35) -> Dataset:
    """Well-separated Gaussian clusters scaled into [0, 1], balanced labels."""
    rng = RngStream(seed)
    centers = rng.child(0).normal(classes, d) * 2.0
    labels = (np.arange(n) % classes).astype(np.int64)
    images = centers[labels] + rng.child(1).normal(n, d) * spread
    lo, hi = images.min(), images.max()
    return Dataset((images - lo) / (hi - lo), labels)


def write_blob_idx(dirpath, n_train: int, n_test: int, d: int, classes: int,
                   seed: int, rows: int, cols: int) -> dict:
    """Quantize blob data to bytes and write train/test IDX pairs."""
    assert rows * cols == d
    full = make_blobs(n_train + n_test, d, classes, seed)
    u8 = np.clip(np.round(full.images * 255.0), 0, 255).astype(np.uint8)
    paths = {
        "train_images": Path(dirpath) / "train-images.idx",
        "train_labels": Path(dirpath) / "train-labels.idx",
        "test_images": Path(dirpath) / "test-images.idx",
        "test_labels": Path(dirpath) / "test-labels.idx",
    }
    write_idx(u8[:n_train], full.labels[:n_train],
              paths["train_images"], paths["train_labels"], rows=rows, cols=cols)
    write_idx(u8[n_train:], full.labels[n_train:],
              paths["test_images"], paths["test_labels"], rows=rows, cols=cols)
    return paths


def traced_peak(fn, *args):
    """``(fn(*args), peak bytes allocated during the call)``; numpy reports its arrays to
    :mod:`tracemalloc`."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def blobs():
    """Factory fixture: blobs(n, d, classes, seed) -> Dataset."""
    return make_blobs


# -- gradient checking ----------------------------------------------------------


def finite_difference_check(build, params, sample: int | None = None,
                            h: float = 1e-5, tol: float = 1e-4, seed: int = 0) -> float:
    """Compare backward() gradients of ``build()`` against central differences.

    ``build`` must reconstruct the scalar loss from the live ``params``
    tensors on every call (leaves are reused, the graph is rebuilt).  When
    ``sample`` is given, at most that many coordinates per tensor are
    perturbed, chosen deterministically.  Asserts the worst relative error
    (with a small-denominator floor) stays under ``tol`` and returns it.
    """
    for p in params:
        p.grad = None
    out = build()
    out.backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        coords = np.arange(flat.size)
        if sample is not None and flat.size > sample:
            coords = rng.choice(flat.size, size=sample, replace=False)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + h
            up = build().item()
            flat[i] = saved - h
            down = build().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, err)
    assert worst < tol, f"max relative gradient error {worst:.3e} >= {tol}"
    return worst


def assert_matches_reference(got: np.ndarray, want: np.ndarray, rel: float = 1e-12) -> None:
    """A fused node's gradient against its composed-graph reference: within ``rel``
    of the reference's largest entry, and exactly zero wherever the reference is."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rel * np.max(np.abs(want)))
    np.testing.assert_array_equal(got[want == 0.0], 0.0)


def net_param_tensors(net) -> list:
    """Wrap a student net's arrays as (theta, log_sigma2, bias) leaf triples."""
    return [(Tensor(l.theta, requires_grad=True),
             Tensor(l.log_sigma2, requires_grad=True),
             Tensor(l.bias, requires_grad=True)) for l in net.layers]


def kl_value(node, log_alpha) -> float:
    """A KL node's summed penalty at ``log_alpha``: at theta 1, log alpha is log sigma^2 exactly."""
    la = np.asarray(log_alpha, dtype=np.float64)
    return node(Tensor(np.ones_like(la)), Tensor(la)).item()


@pytest.fixture
def gradcheck():
    return finite_difference_check


# -- MNIST locator ---------------------------------------------------------------

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@pytest.fixture(scope="session")
def mnist(tmp_path_factory):
    """The four classic MNIST files as loaded Datasets, or a skip.

    Looks under ``$MNIST_DIR`` for each file, accepting either the plain
    name or a ``.gz`` copy (decompressed into a session temp dir).
    """
    root = os.environ.get("MNIST_DIR")
    if not root:
        pytest.skip("MNIST_DIR is not set; full-dataset runs need the real files")
    root = Path(root)
    paths = {}
    unpack_dir = None
    for key, name in _MNIST_FILES.items():
        plain, gz = root / name, root / (name + ".gz")
        if plain.exists():
            paths[key] = plain
        elif gz.exists():
            if unpack_dir is None:
                unpack_dir = tmp_path_factory.mktemp("mnist")
            dest = unpack_dir / name
            with gzip.open(gz, "rb") as src, open(dest, "wb") as dst:
                shutil.copyfileobj(src, dst)
            paths[key] = dest
        else:
            pytest.skip(f"missing {name}(.gz) under {root}")
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test
