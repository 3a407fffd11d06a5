"""The splittable random stream, the package's softmax, and the nonlinearities."""

import numpy as np
import pytest

from sparsedistill.errors import ShapeError
from sparsedistill.losses import _log_softmax
from sparsedistill.tensor import RngStream, dense_forward, relu, sigmoid

from conftest import traced_peak


def row_softmax(z, temperature=1.0):
    return np.exp(_log_softmax(np.asarray(z, dtype=np.float64) / temperature))


class TestRngStream:
    def test_same_seed_and_path_reproduce(self):
        a = RngStream(7, (1, 2)).uniform(4, 5)
        b = RngStream(7, (1, 2)).uniform(4, 5)
        np.testing.assert_array_equal(a, b)

    def test_child_matches_explicit_path(self):
        via_child = RngStream(3).child(4, 5).normal(3, 3)
        direct = RngStream(3, (4, 5)).normal(3, 3)
        np.testing.assert_array_equal(via_child, direct)

    def test_distinct_paths_differ(self):
        root = RngStream(11)
        a = root.child(0).uniform(64)
        b = root.child(1).uniform(64)
        assert not np.array_equal(a, b)

    def test_child_does_not_consume_parent_state(self):
        root = RngStream(5)
        before = RngStream(5).uniform(8)
        root.child(9)
        np.testing.assert_array_equal(root.uniform(8), before)

    def test_uniform_range(self):
        u = RngStream(0).uniform(1000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = RngStream(42).normal(200, 200).ravel()
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_normal_shape_and_determinism_over_seeds(self):
        for seed in range(5):
            a = RngStream(seed).normal(3, 7)
            assert a.shape == (3, 7)
            np.testing.assert_array_equal(a, RngStream(seed).normal(3, 7))

    @pytest.mark.parametrize("seed, path", [(0, ()), (7, (5, 0, 3)), (2**40 + 9, (1,)),
                                            (123, (5, 2, 17, 1))])
    @pytest.mark.parametrize("rows, cols", [(4, 6), (3, 5), (1, 9), (0, 4)])
    def test_normal_is_the_keyed_sfc64_standard_normal(self, seed, path, rows, cols):
        ss = np.random.SeedSequence(seed, spawn_key=path)
        expected = np.random.Generator(np.random.SFC64(ss)).standard_normal((rows, cols))
        z = RngStream(seed, path).normal(rows, cols)
        assert z.shape == (rows, cols) and z.dtype == np.float64
        np.testing.assert_array_equal(z, expected)

    @pytest.mark.parametrize("seed, path", [(0, ()), (7, (5, 0, 3)), (2**40 + 9, (1,))])
    def test_uniform_and_permutation_are_the_keyed_sfc64_draws(self, seed, path):
        def keyed():
            return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path)))
        np.testing.assert_array_equal(RngStream(seed, path).uniform(3, 4), keyed().random((3, 4)))
        np.testing.assert_array_equal(RngStream(seed, path).permutation(50), keyed().permutation(50))

    def test_permutation_is_permutation(self):
        p = RngStream(13).permutation(50)
        np.testing.assert_array_equal(np.sort(p), np.arange(50))


class TestRowSoftmax:
    """The one softmax in the package, behind the data and the hint terms."""

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(10, 7)) * 5
        p = row_softmax(z)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(2)
        for temperature in (0.5, 1.0, 2.0, 8.0):
            z = rng.normal(size=(6, 5)) * 3
            np.testing.assert_allclose(row_softmax(z, temperature),
                                       special.softmax(z / temperature, axis=1),
                                       rtol=1e-12, atol=1e-15)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
        shifted = z + np.array([[100.0], [-50.0]])
        np.testing.assert_allclose(row_softmax(z), row_softmax(shifted), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1e4, -1e4, 0.0]])
        p = row_softmax(z, temperature=0.01)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-12)



class TestScalarNonlinearities:
    def test_sigmoid_symmetry(self):
        x = np.random.default_rng(3).uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_extreme_inputs(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu(self):
        x = np.array([-2.0, -0.0, 0.5, 3.0])
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 0.5, 3.0])

    @pytest.mark.parametrize("act", [relu, sigmoid])
    def test_float_type_is_kept(self, act):
        x = np.random.default_rng(5).uniform(-30, 30, size=200)
        x32 = x.astype(np.float32)
        out = act(x32)
        assert out.dtype == np.float32
        assert act(x).dtype == np.float64
        assert act([1, -2]).dtype == np.float64
        # float64 bits are today's: the formulas written out in float64
        want = (np.maximum(x, 0.0) if act is relu
                else np.maximum(np.exp(-np.abs(x)), x >= 0) / (1.0 + np.exp(-np.abs(x))))
        np.testing.assert_array_equal(act(x), want)
        np.testing.assert_allclose(out, act(x32.astype(np.float64)),
                                   rtol=4 * np.finfo(np.float32).eps)


class TestDenseForward:
    def layers(self):
        rng = np.random.default_rng(9)
        weights = [rng.normal(size=(6, 5)), rng.normal(size=(5, 4))]
        biases = [rng.normal(size=5), rng.normal(size=4)]
        return weights, biases, rng.normal(size=(9, 6))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_float32_weights_give_float32_products_and_float64_logits(self, activation):
        weights, biases, x = self.layers()
        act = relu if activation == "relu" else sigmoid
        w32 = [w.astype(np.float32) for w in weights]
        h = x.astype(np.float32) @ w32[0]
        h += biases[0]
        h = act(h)
        want = (h @ w32[1]).astype(np.float64)
        want += biases[1]
        got = dense_forward(x, w32, biases, activation)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, dense_forward(x, weights, biases, activation))
        with pytest.raises(ShapeError):
            dense_forward(np.zeros((2, 5)), w32, biases, activation)

    def test_float32_rows_are_widened_one_block_at_a_time(self):
        # float64 weights read float32 rows as the same rows widened to float64, bit for bit,
        # and never widen the whole input: a 1024-row block's float64 copy is a quarter of it
        rng = np.random.default_rng(10)
        weights = [rng.normal(size=(64, 8)), rng.normal(size=(8, 3))]
        biases = [rng.normal(size=8), rng.normal(size=3)]
        x32 = rng.random((4096, 64), dtype=np.float32)
        got, peak = traced_peak(dense_forward, x32, weights, biases, "relu")
        np.testing.assert_array_equal(got, dense_forward(x32.astype(np.float64), weights,
                                                         biases, "relu"))
        assert peak < x32.size * 8 // 2
