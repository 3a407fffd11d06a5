"""Dense teacher: init, forward, training, checkpoints, and the logit cache."""

import numpy as np
import pytest

from sparsedistill import checkpoint
from sparsedistill import teacher as teacher_module
from sparsedistill.checkpoint import parse_arch, read_manifest, write_artifact
from sparsedistill.data import Dataset
from sparsedistill.errors import (ConsistencyError, FormatError, LengthError,
                                  ShapeError, StalenessError, TrainingError, UsageError)
from sparsedistill.teacher import (DenseMLP, TeacherConfig, count_parameters,
                                   forward_logits, init_mlp, load_checkpoint,
                                   load_logit_cache, payload_digest, precompute_logits,
                                   save_checkpoint, save_logit_cache, train_teacher)
from sparsedistill.student import init_student, load_student, save_student
from sparsedistill.tensor import dense_forward, relu, sigmoid

from conftest import make_blobs, traced_peak


def float32_forward(net, x, act):
    """``forward_logits`` written out: the input and the weights cast to float32, each hidden
    bias added in place (rounding to float32), the last product widened to float64 before its
    bias."""
    h = x.astype(np.float32)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = h @ w.astype(np.float32)
        h += b
        h = act(h)
    out = (h @ net.weights[-1].astype(np.float32)).astype(np.float64)
    out += net.biases[-1]
    return out


class TestParseArch:
    def test_string_and_sequence_forms(self):
        assert parse_arch("784-500-50-10") == [784, 500, 50, 10]
        assert parse_arch([16, 8, 3]) == [16, 8, 3]
        assert parse_arch((4, 2)) == [4, 2]

    def test_malformed_strings(self):
        for bad in ("a-b", "10", "", "784--10", "16-8-3x"):
            with pytest.raises(FormatError):
                parse_arch(bad)

    def test_rejects_non_positive_widths(self):
        with pytest.raises(FormatError):
            parse_arch([16, 0, 3])
        with pytest.raises(FormatError):
            parse_arch([5])

    def test_rejects_widths_that_are_not_integers(self):
        for bad in (4.9, True, np.True_, "4", None, float("nan"), float("inf")):
            with pytest.raises(FormatError, match=f"width {bad!r} is not an integer"):
                parse_arch([6, bad, 3])
        assert parse_arch([6, 4.0, np.int64(3)]) == [6, 4, 3]

    def test_rejects_layers_numpy_cannot_size(self):
        # k * h float64 weights past np.intp's range: refused before any array is made
        for arch, layer in (("16-8-99999999999999999999", "8x99999999999999999999"),
                            ([2 ** 62, 2, 3], f"{2 ** 62}x2"), ([2, 2 ** 60], f"2x{2 ** 60}")):
            with pytest.raises(FormatError, match=f"a {layer} layer is too wide"):
                parse_arch(arch)
        assert parse_arch([2, 2 ** 58]) == [2, 2 ** 58]


class TestCountParameters:
    def test_teacher_architecture_count(self):
        # 784*1200+1200 + 1200*1200+1200 + 1200*10+10, summed by hand
        assert count_parameters("784-1200-1200-10") == 2_395_210

    def test_student_architecture_count(self):
        # 784*500+500 + 500*50+50 + 50*10+10, summed by hand
        assert count_parameters("784-500-50-10") == 418_060

    def test_accepts_net_or_arch(self):
        net = init_mlp([6, 4, 3], seed=0)
        assert count_parameters(net) == 6 * 4 + 4 + 4 * 3 + 3
        assert count_parameters([6, 4, 3]) == count_parameters(net)


class TestInitAndForward:
    def test_init_shapes_and_ranges(self):
        net = init_mlp([20, 8, 5], seed=0)
        assert [w.shape for w in net.weights] == [(20, 8), (8, 5)]
        assert [b.shape for b in net.biases] == [(8,), (5,)]
        for w in net.weights:
            limit = np.sqrt(6.0 / w.shape[0])
            assert np.all(np.abs(w) <= limit)
        for b in net.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_init_determinism(self):
        a, b = init_mlp([10, 6, 3], seed=4), init_mlp([10, 6, 3], seed=4)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = init_mlp([10, 6, 3], seed=5)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_arch_property(self):
        assert init_mlp([7, 5, 2], seed=0).arch == [7, 5, 2]

    def test_forward_matches_hand_computation(self):
        w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[1.0], [-1.0]])
        b2 = np.array([0.5])
        net = DenseMLP([w1, w2], [b1, b2], activation="relu")
        x = np.array([[1.0, 2.0], [0.0, -1.0]])
        hidden = x.astype(np.float32) @ w1.astype(np.float32)
        hidden += b1
        hidden = np.maximum(hidden, 0.0)
        want = (hidden @ w2.astype(np.float32)).astype(np.float64) + b2
        np.testing.assert_allclose(forward_logits(net, x), want, rtol=1e-15)

    def test_forward_sigmoid_activation(self):
        net = init_mlp([4, 3, 2], seed=1, activation="sigmoid")
        x = np.random.default_rng(0).normal(size=(5, 4))
        z = x.astype(np.float32) @ net.weights[0].astype(np.float32)
        z += net.biases[0]
        ex = np.exp(-np.abs(z))  # the overflow-safe logistic, as the library writes it
        h = np.maximum(ex, z >= 0) / (1 + ex)
        want = (h @ net.weights[1].astype(np.float32)).astype(np.float64) + net.biases[1]
        np.testing.assert_array_equal(forward_logits(net, x), want)

    def test_forward_is_exact_and_leaves_inputs_alone(self):
        rng = np.random.default_rng(2)
        for activation, act in (("relu", relu), ("sigmoid", sigmoid)):
            net = init_mlp([6, 5, 4, 3], seed=3, activation=activation)
            net.biases = [rng.normal(size=b.shape) for b in net.biases]
            x = rng.normal(size=(7, 6))
            x_before, weights_before = x.copy(), [w.copy() for w in net.weights]
            biases_before = [b.copy() for b in net.biases]
            np.testing.assert_array_equal(forward_logits(net, x), float32_forward(net, x, act))
            np.testing.assert_array_equal(x, x_before)
            for a, before in zip(net.weights + net.biases, weights_before + biases_before):
                assert a.dtype == np.float64
                np.testing.assert_array_equal(a, before)

    def test_row_blocks_equal_a_single_pass(self):
        # the paper's last layer (1200 -> 10), where BLAS sums a few rows in
        # another order than many, so a short last block would change the bits
        net = init_mlp([32, 1200, 10], seed=0)
        x = np.random.default_rng(4).random((2049, 32))
        for n in (1023, 1024, 1025, 2049):
            np.testing.assert_array_equal(forward_logits(net, x[:n]),
                                          float32_forward(net, x[:n], relu))

    def test_float32_rows_are_read_as_they_are(self):
        # the float32 products read float32 rows directly: the same bits as float64 rows,
        # and no copy of the input in either type
        net = init_mlp([64, 8, 3], seed=5)
        x32 = np.random.default_rng(11).random((4096, 64), dtype=np.float32)
        got, peak = traced_peak(forward_logits, net, x32)
        np.testing.assert_array_equal(got, forward_logits(net, x32.astype(np.float64)))
        assert peak < x32.nbytes // 2

    def test_forward_shape_check(self):
        net = init_mlp([4, 3, 2], seed=0)
        with pytest.raises(ShapeError):
            forward_logits(net, np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            forward_logits(net, np.zeros(4))

    def test_mlp_validation(self):
        with pytest.raises(ConsistencyError):
            DenseMLP([np.zeros((4, 3)), np.zeros((2, 5))], [np.zeros(3), np.zeros(5)])
        with pytest.raises(ConsistencyError):
            DenseMLP([np.zeros((4, 3))], [np.zeros(2)])

    def test_mlp_needs_one_bias_per_layer_and_a_layer(self):
        for weights, biases in (([np.ones((4, 3)), np.ones((3, 2))], [np.zeros(3)]),
                                ([np.ones((4, 3))], [np.zeros(3), np.zeros(2)]),
                                ([], [])):
            with pytest.raises(ConsistencyError, match=f"{len(weights)} weight matrices and "
                                                       f"{len(biases)} bias vectors"):
                DenseMLP(weights, biases)


class TestTeacherConfig:
    def test_schedule_validation(self):
        with pytest.raises(UsageError, match="epochs must be >= 1, got 0"):
            TeacherConfig(epochs=0)
        with pytest.raises(UsageError, match="batch size must be >= 1, got 0"):
            TeacherConfig(batch_size=0)
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(UsageError, match="lr must be"):
                TeacherConfig(lr=bad)

    def test_schedule_must_be_integers(self):
        with pytest.raises(UsageError, match="epochs True is not an integer"):
            TeacherConfig(epochs=True, batch_size=True)
        with pytest.raises(UsageError, match="batch size 1.5 is not an integer"):
            TeacherConfig(batch_size=1.5)
        with pytest.raises(UsageError, match="lr must be a real number, got True"):
            TeacherConfig(lr=True)
        cfg = TeacherConfig(epochs=2.0, batch_size=8.0, seed=3.0)
        assert [type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)] == [int] * 3

    def test_seed_must_be_a_non_negative_integer(self):
        with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
            TeacherConfig(seed=-1)
        with pytest.raises(UsageError, match="seed 1.5 is not an integer"):
            TeacherConfig(seed=1.5)

    def test_activation_must_be_known(self):
        with pytest.raises(UsageError, match="unknown activation 'tanh'"):
            TeacherConfig(activation="tanh")

    def test_arch_is_parsed_where_it_enters(self):
        with pytest.raises(FormatError, match="width True is not an integer"):
            TeacherConfig(arch=[6, True, 3])
        assert TeacherConfig(arch="6-5-3").arch == [6, 5, 3]


class TestTrainTeacher:
    def test_loss_decreases_on_separable_blobs(self):
        ds = make_blobs(180, 8, 3, seed=0)
        net, records = train_teacher(ds, TeacherConfig(arch=[8, 10, 3], epochs=12,
                                                       batch_size=32, seed=0))
        assert len(records) == 12
        assert records[-1]["train_loss"] < records[0]["train_loss"]
        assert records[-1]["train_error"] <= records[0]["train_error"]

    def test_records_include_test_error_when_given(self):
        ds = make_blobs(90, 8, 3, seed=1)
        test = make_blobs(30, 8, 3, seed=99)
        _, records = train_teacher(ds, TeacherConfig(arch=[8, 6, 3], epochs=2,
                                                     batch_size=32, seed=0), test_ds=test)
        assert all("test_error" in r for r in records)
        assert all(set(r) >= {"epoch", "train_loss", "train_error"} for r in records)

    def test_training_determinism(self):
        ds = make_blobs(90, 8, 3, seed=2)
        cfg = TeacherConfig(arch=[8, 6, 3], epochs=3, batch_size=32, seed=7)
        a, _ = train_teacher(ds, cfg)
        b, _ = train_teacher(ds, cfg)
        assert payload_digest(a) == payload_digest(b)

    def test_non_finite_input_raises_training_error(self):
        images = np.full((32, 4), np.nan)
        ds = Dataset(images, np.zeros(32, dtype=np.int64))
        with pytest.raises(TrainingError):
            train_teacher(ds, TeacherConfig(arch=[4, 3, 2], epochs=1, batch_size=32))


class TestLogitCache:
    def test_matches_direct_forward(self):
        ds = make_blobs(50, 6, 3, seed=3)
        net = init_mlp([6, 5, 3], seed=0)
        cache = precompute_logits(net, ds)
        np.testing.assert_array_equal(cache.logits, forward_logits(net, ds.images))
        assert cache.teacher_digest == payload_digest(net)
        assert len(cache) == 50

    def test_round_trip_and_staleness(self, tmp_path):
        ds = make_blobs(20, 6, 3, seed=4)
        net_a = init_mlp([6, 5, 3], seed=0)
        net_b = init_mlp([6, 5, 3], seed=1)
        cache = precompute_logits(net_a, ds)
        save_logit_cache(cache, tmp_path / "cache.ckpt")

        loaded = load_logit_cache(tmp_path / "cache.ckpt")
        np.testing.assert_array_equal(loaded.logits, cache.logits)
        load_logit_cache(tmp_path / "cache.ckpt", payload_digest(net_a))
        with pytest.raises(StalenessError):
            load_logit_cache(tmp_path / "cache.ckpt", payload_digest(net_b))

    def test_wrong_kind_rejected(self, tmp_path):
        net = init_mlp([6, 5, 3], seed=0)
        save_checkpoint(net, tmp_path / "teacher.ckpt")
        with pytest.raises(FormatError):
            load_logit_cache(tmp_path / "teacher.ckpt")


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        net = init_mlp([6, 5, 3], seed=9, activation="sigmoid")
        digest = save_checkpoint(net, tmp_path / "t.ckpt")
        loaded = load_checkpoint(tmp_path / "t.ckpt")
        for w, lw in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(w, lw)
        for b, lb in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(b, lb)
        assert loaded.activation == "sigmoid"
        assert loaded.seed == 9
        assert payload_digest(loaded) == digest

    def test_tampered_payload_detected(self, tmp_path):
        net = init_mlp([6, 5, 3], seed=0)
        save_checkpoint(net, tmp_path / "t.ckpt")
        bin_path = tmp_path / "t.ckpt.bin"
        raw = bytearray(bin_path.read_bytes())
        raw[8] ^= 0xFF
        bin_path.write_bytes(bytes(raw))
        with pytest.raises(ConsistencyError):
            load_checkpoint(tmp_path / "t.ckpt")

    def test_truncated_payload_detected(self, tmp_path):
        net = init_mlp([6, 5, 3], seed=0)
        save_checkpoint(net, tmp_path / "t.ckpt")
        bin_path = tmp_path / "t.ckpt.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(LengthError):
            load_checkpoint(tmp_path / "t.ckpt")

    def test_wrong_kind_rejected(self, tmp_path):
        ds = make_blobs(10, 6, 2, seed=0)
        cache = precompute_logits(init_mlp([6, 4, 2], seed=0), ds)
        save_logit_cache(cache, tmp_path / "cache.ckpt")
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "cache.ckpt")

    def test_manifest_parsing(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment\n\nkey=value\n spaced = out \n")
        assert read_manifest(path) == {"key": "value", "spaced": "out"}
        path.write_text("no equals sign\n")
        with pytest.raises(FormatError):
            read_manifest(path)

    def test_manifest_round_trip(self, tmp_path):
        fields = {"architecture": "6-5-3", "activation": "relu", "seed": None}
        sha = write_artifact(tmp_path / "m.txt", "dense_mlp", fields, [])
        back = read_manifest(tmp_path / "m.txt")
        assert back == {"kind": "dense_mlp", "architecture": "6-5-3", "activation": "relu",
                        "seed": "", "digest": sha}

    def test_payload_is_each_array_as_contiguous_float64(self, tmp_path):
        # the payload is written array by array: a transposed view and a float32 array are
        # stored as row-major little-endian float64, as one joined copy would hold them
        arrays = [np.arange(6.0).reshape(2, 3).T, np.array([0.5, -1.25], dtype=np.float32)]
        sha = write_artifact(tmp_path / "t.ckpt", "dense_mlp",
                             {"architecture": "3-2", "activation": "relu", "seed": 0}, arrays)
        want = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
        assert (tmp_path / "t.ckpt.bin").read_bytes() == want
        loaded = load_checkpoint(tmp_path / "t.ckpt")
        assert sha == checkpoint.digest(arrays) == payload_digest(loaded)


def trained_and_loaded(tmp_path):
    """A teacher as ``train_teacher`` returns it, and the same teacher loaded back."""
    net, _ = train_teacher(make_blobs(64, 6, 3, seed=5),
                           TeacherConfig(arch=[6, 5, 3], epochs=2, batch_size=32, seed=0))
    save_checkpoint(net, tmp_path / "t.ckpt")
    return net, load_checkpoint(tmp_path / "t.ckpt")


def payload_arrays(net):
    return [a for wb in zip(net.weights, net.biases) for a in wb]


def writable_copy(net):
    return DenseMLP([w.copy() for w in net.weights], [b.copy() for b in net.biases],
                    activation=net.activation, seed=net.seed)


class TestFrozenTeacher:
    """A trained or loaded teacher is read-only, and its float32 weights and digest are kept."""

    def test_trained_and_loaded_teachers_refuse_writes(self, tmp_path):
        trained, loaded_teacher = trained_and_loaded(tmp_path)
        for net in (trained, loaded_teacher):
            for a in net.weights + net.biases:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
        # a loaded cache and student are read-only views too
        cache = precompute_logits(trained, make_blobs(4, 6, 3, seed=0))
        save_logit_cache(cache, tmp_path / "c.ckpt")
        save_student(init_student([6, 4, 3], seed=1), tmp_path / "s.ckpt")
        loaded = [load_logit_cache(tmp_path / "c.ckpt").logits]
        loaded += [a for l in load_student(tmp_path / "s.ckpt")[0].layers
                   for a in (l.theta, l.log_sigma2, l.bias)]
        assert not any(a.flags.writeable for a in loaded)

    def test_frozen_forward_equals_a_writable_copy_and_casts_once(self, tmp_path, monkeypatch):
        nets, calls = trained_and_loaded(tmp_path), []

        def spy(x, weights, *args):
            calls.append(weights)
            return dense_forward(x, weights, *args)
        monkeypatch.setattr(teacher_module, "dense_forward", spy)
        x = np.random.default_rng(6).random((1025, 6))
        for net in nets:
            live = writable_copy(net)
            for n in (1, 100, 1025):
                np.testing.assert_array_equal(forward_logits(net, x[:n]),
                                              forward_logits(live, x[:n]))
            frozen, cast = calls[0::2], calls[1::2]
            assert all(w.dtype == np.float32 for w in frozen[0])
            assert all(a is b for ws in frozen[1:] for a, b in zip(frozen[0], ws))
            assert not any(a is b for ws in cast[1:] for a, b in zip(cast[0], ws))
            calls.clear()

    def test_replacing_an_array_gives_fresh_values(self, tmp_path):
        for net in trained_and_loaded(tmp_path):
            x = np.random.default_rng(7).random((20, 6))
            before, digest = forward_logits(net, x), payload_digest(net)
            w = net.weights[0] * 2.0
            w.flags.writeable = False
            net.weights[0] = w
            after = forward_logits(net, x)
            assert not np.array_equal(after, before)
            np.testing.assert_array_equal(after, forward_logits(writable_copy(net), x))
            assert payload_digest(net) != digest
            assert payload_digest(net) == checkpoint.digest(payload_arrays(net))

    def test_loaded_digest_is_the_verified_one(self, tmp_path, monkeypatch):
        net = init_mlp([6, 5, 3], seed=4)
        save_checkpoint(net, tmp_path / "t.ckpt")
        loaded = load_checkpoint(tmp_path / "t.ckpt")
        monkeypatch.setattr(checkpoint, "digest", lambda arrays: pytest.fail("digest recomputed"))
        digest = payload_digest(loaded)
        monkeypatch.undo()
        assert digest == checkpoint.digest(payload_arrays(loaded))

    def test_saved_digest_is_the_written_one(self, tmp_path, monkeypatch):
        # train-teacher saves the teacher, then tags its logit cache with the digest
        trained, _ = train_teacher(make_blobs(64, 6, 3, seed=5),
                                   TeacherConfig(arch=[6, 5, 3], epochs=2, batch_size=32, seed=0))
        written = save_checkpoint(trained, tmp_path / "t.ckpt")
        monkeypatch.setattr(checkpoint, "digest", lambda arrays: pytest.fail("digest recomputed"))
        digest = payload_digest(trained)
        monkeypatch.undo()
        assert digest == written == checkpoint.digest(payload_arrays(trained))

    def test_live_net_follows_in_place_edits(self):
        # the training record and the benchmark's tracer read nets that Adam updates in place
        net = init_mlp([6, 5, 3], seed=8)
        x = np.random.default_rng(8).random((10, 6))
        before = forward_logits(net, x)
        net.weights[0] *= 2.0
        net.biases[0] += 0.5
        after = forward_logits(net, x)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, float32_forward(net, x, relu))
