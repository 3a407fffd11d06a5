"""IDX file round-trips, stratified subsets, and epoch batching."""

import struct

import numpy as np
import pytest

from sparsedistill.data import Dataset, batch_iter, load_idx, subset_indices, write_idx
from sparsedistill.errors import ConsistencyError, DomainError, FormatError, LengthError

from conftest import make_blobs


def write_pair(tmp_path, images_u8, labels, rows=2, cols=2):
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(images_u8, labels, ip, lp, rows=rows, cols=cols)
    return ip, lp


class TestDataset:
    def test_basic_accessors(self):
        ds = Dataset(np.zeros((6, 8)), np.array([0, 1, 2, 0, 1, 2]))
        assert len(ds) == 6
        assert ds.n_features == 8
        assert ds.n_classes == 3

    def test_take_preserves_alignment(self):
        ds = make_blobs(30, 4, 3, seed=0)
        sub = ds.take([5, 1, 20])
        np.testing.assert_array_equal(sub.images, ds.images[[5, 1, 20]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[5, 1, 20]])

    def test_validation(self):
        with pytest.raises(ConsistencyError):
            Dataset(np.zeros(5), np.zeros(5, dtype=np.int64))
        with pytest.raises(ConsistencyError):
            Dataset(np.zeros((5, 2)), np.zeros(4, dtype=np.int64))

    def test_empty_class_count(self):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        assert ds.n_classes == 0


class TestIdxRoundTrip:
    def test_write_then_load(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 4), dtype=np.uint8)
        labels = rng.integers(0, 5, size=10).astype(np.uint8)
        ip, lp = write_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.images, np.float32(images / 255.0))
        np.testing.assert_array_equal(ds.labels, labels)

    def test_every_byte_loads_as_the_float32_of_its_float64_scale(self, tmp_path):
        # np.float32(k / 255), the value the float32 products read, held at 4 bytes a pixel
        ip, lp = write_pair(tmp_path, np.arange(256, dtype=np.uint8).reshape(64, 4),
                            np.zeros(64, dtype=np.uint8))
        images = load_idx(ip, lp).images
        assert images.dtype == np.float32 and images.itemsize == 4
        want = np.array([np.float32(k / 255.0) for k in range(256)]).reshape(64, 4)
        np.testing.assert_array_equal(images.view(np.uint32), want.view(np.uint32))

    def test_write_idx_validation(self, tmp_path):
        with pytest.raises(ConsistencyError):
            write_idx(np.zeros((3, 5), dtype=np.uint8), np.zeros(3, dtype=np.uint8),
                      tmp_path / "a", tmp_path / "b", rows=2, cols=2)
        with pytest.raises(ConsistencyError):
            write_idx(np.zeros((3, 4), dtype=np.uint8), np.zeros(2, dtype=np.uint8),
                      tmp_path / "a", tmp_path / "b", rows=2, cols=2)

    def test_wrong_images_magic(self, tmp_path):
        images = np.zeros((2, 4), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ip, lp = write_pair(tmp_path, images, labels)
        raw = bytearray(ip.read_bytes())
        raw[:4] = struct.pack(">I", 0x00000801)
        ip.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_wrong_labels_magic(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((2, 4), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8))
        raw = bytearray(lp.read_bytes())
        raw[:4] = struct.pack(">I", 0x00000803)
        lp.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((3, 4), dtype=np.uint8),
                            np.zeros(3, dtype=np.uint8))
        ip.write_bytes(ip.read_bytes()[:-2])
        with pytest.raises(LengthError):
            load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((3, 4), dtype=np.uint8),
                            np.zeros(3, dtype=np.uint8))
        ip.write_bytes(ip.read_bytes()[:10])
        with pytest.raises(LengthError):
            load_idx(ip, lp)

    def test_count_mismatch_between_files(self, tmp_path):
        ip, _ = write_pair(tmp_path, np.zeros((3, 4), dtype=np.uint8),
                           np.zeros(3, dtype=np.uint8))
        lp2 = tmp_path / "other.idx"
        with open(lp2, "wb") as f:
            f.write(struct.pack(">2I", 0x00000801, 2))
            f.write(bytes(2))
        with pytest.raises(ConsistencyError):
            load_idx(ip, lp2)


class TestSubset:
    def test_exact_size_and_no_duplicates(self):
        ds = make_blobs(90, 4, 3, seed=1)
        for n in (1, 10, 45, 90):
            idx = subset_indices(ds, n, seed=0)
            assert len(idx) == n
            assert len(np.unique(idx)) == n

    def test_stratification_largest_remainder(self):
        # class counts 37/33/30; a subset of 10 gets quotas 3.7/3.3/3.0,
        # so the leftover seat goes to the largest fractional part
        labels = np.array([0] * 37 + [1] * 33 + [2] * 30)
        ds = Dataset(np.zeros((100, 2)), labels)
        idx = subset_indices(ds, 10, seed=3)
        picked = ds.labels[idx]
        assert (picked == 0).sum() == 4
        assert (picked == 1).sum() == 3
        assert (picked == 2).sum() == 3

    def test_balanced_split_stays_balanced(self):
        ds = make_blobs(120, 4, 3, seed=2)
        for seed in range(5):
            idx = subset_indices(ds, 30, seed=seed)
            counts = np.bincount(ds.labels[idx], minlength=3)
            np.testing.assert_array_equal(counts, [10, 10, 10])

    def test_deterministic_per_seed(self):
        ds = make_blobs(60, 4, 3, seed=3)
        np.testing.assert_array_equal(subset_indices(ds, 20, seed=7),
                                      subset_indices(ds, 20, seed=7))
        assert not np.array_equal(subset_indices(ds, 20, seed=7),
                                  subset_indices(ds, 20, seed=8))

    def test_subset_wraps_take(self):
        ds = make_blobs(60, 4, 3, seed=4)
        sub = ds.take(subset_indices(ds, 12, seed=1))
        assert len(sub) == 12
        assert sub.n_features == 4

    def test_out_of_range(self):
        ds = make_blobs(10, 4, 2, seed=5)
        with pytest.raises(DomainError):
            subset_indices(ds, 0, seed=0)
        with pytest.raises(DomainError):
            subset_indices(ds, 11, seed=0)

    def test_size_must_be_an_integer(self):
        ds = make_blobs(10, 4, 2, seed=5)
        for n in (2.5, True):
            with pytest.raises(DomainError, match=f"subset size {n!r} is not an integer"):
                subset_indices(ds, n, seed=0)


class TestBatchIter:
    def test_covers_every_index_once(self):
        ds = make_blobs(53, 4, 3, seed=6)
        for shuffle_seed in (None, 5, (5, 2)):
            seen = np.concatenate([idx for _, _, idx in batch_iter(ds, 8, shuffle_seed)])
            np.testing.assert_array_equal(np.sort(seen), np.arange(53))

    def test_batches_align_with_indices(self):
        ds = make_blobs(20, 4, 2, seed=7)
        for xb, yb, idx in batch_iter(ds, 6, shuffle_seed=9):
            np.testing.assert_array_equal(xb, ds.images[idx])
            np.testing.assert_array_equal(yb, ds.labels[idx])

    def test_final_batch_short(self):
        ds = make_blobs(10, 4, 2, seed=8)
        sizes = [len(yb) for _, yb, _ in batch_iter(ds, 4)]
        assert sizes == [4, 4, 2]

    def test_unshuffled_order_is_stored_order(self):
        ds = make_blobs(9, 4, 3, seed=9)
        seen = np.concatenate([idx for _, _, idx in batch_iter(ds, 4, shuffle_seed=None)])
        np.testing.assert_array_equal(seen, np.arange(9))

    def test_tuple_seed_determinism(self):
        ds = make_blobs(40, 4, 2, seed=10)
        order = lambda s: np.concatenate([i for _, _, i in batch_iter(ds, 16, shuffle_seed=s)])
        np.testing.assert_array_equal(order((3, 0)), order((3, 0)))
        assert not np.array_equal(order((3, 0)), order((3, 1)))

    def test_batch_size_validation(self):
        ds = make_blobs(10, 4, 2, seed=11)
        with pytest.raises(DomainError):
            list(batch_iter(ds, 0))

    def test_batch_size_must_be_an_integer(self):
        ds = make_blobs(10, 4, 2, seed=11)
        for batch_size in (True, 2.5):
            with pytest.raises(DomainError, match=f"batch_size {batch_size!r} is not an integer"):
                list(batch_iter(ds, batch_size))
