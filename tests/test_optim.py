"""Optimizer behavior, the training loop's contracts, and the data-size sweep."""

from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from sparsedistill import optim
from sparsedistill.autograd import Tensor
from sparsedistill.data import Dataset, load_idx, subset_indices
from sparsedistill.errors import (ConsistencyError, DomainError, FormatError, TrainingError,
                                  UsageError)
from sparsedistill.losses import LossConfig, resolve_variant
from sparsedistill.optim import (Adam, StudentTrainConfig, _clip_global_norm, evaluate_student,
                                 lowdata_sweep, report_student, summarize_sweep, train_student)
from sparsedistill.metrics import (compression_ratio, footprint, remaining_parameters,
                                   top1_error)
from sparsedistill.student import (compact, init_student, prune_masks, student_digest,
                                   student_logits)
from sparsedistill.teacher import TeacherConfig, count_parameters, init_mlp, train_teacher
from sparsedistill.tensor import ELEMENT_BLOCK

from conftest import make_blobs, traced_peak, write_blob_idx


def blob_dataset(n=60, d=8, classes=3, seed=0):
    return make_blobs(n, d, classes, seed)


def quick_cfg(**overrides):
    base = dict(arch=[8, 6, 3], epochs=2, batch_size=16, lr=1e-3, seed=0, tau=3.0)
    return StudentTrainConfig(**{**base, **overrides})


class TestStudentTrainConfig:
    def test_epochs_and_batch_must_be_positive(self):
        with pytest.raises(UsageError, match="epochs must be >= 1, got 0"):
            quick_cfg(epochs=0)
        with pytest.raises(UsageError, match="batch size must be >= 1, got 0"):
            quick_cfg(batch_size=0)

    def test_lr_must_be_finite_and_positive(self):
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="lr must be"):
                quick_cfg(lr=bad)

    def test_epochs_and_batch_must_be_integers(self):
        for name, label in (("epochs", "epochs"), ("batch_size", "batch size")):
            for bad in (2.5, True, np.True_, "2", None, float("nan"), float("inf")):
                with pytest.raises(UsageError, match=f"{label} {bad!r} is not an integer"):
                    quick_cfg(**{name: bad})
        cfg = quick_cfg(epochs=3.0, batch_size=np.int64(16))
        assert (cfg.epochs, cfg.batch_size) == (3, 16)
        assert type(cfg.epochs) is int and type(cfg.batch_size) is int

    def test_lr_must_not_be_a_bool(self):
        for bad in (True, np.True_):
            with pytest.raises(UsageError, match=f"lr must be a real number, got {bad!r}"):
                quick_cfg(lr=bad)

    def test_seed_must_be_a_non_negative_integer(self):
        with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
            quick_cfg(seed=-1)
        for bad in (1.5, True, "0", None):
            with pytest.raises(UsageError, match=f"seed {bad!r} is not an integer"):
                quick_cfg(seed=bad)
        cfg = quick_cfg(seed=4.0)
        assert cfg.seed == 4 and type(cfg.seed) is int

    def test_activation_must_be_known(self):
        with pytest.raises(UsageError, match="unknown activation 'tanh'; expected one of relu, sigmoid"):
            quick_cfg(activation="tanh")
        assert quick_cfg(activation="sigmoid").activation == "sigmoid"

    def test_log_sigma2_init_must_be_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(UsageError, match=f"log_sigma2_init must be .*, got {bad}"):
                quick_cfg(log_sigma2_init=bad)

    def test_tau_must_not_be_nan(self):
        with pytest.raises(UsageError, match="tau"):
            quick_cfg(tau=float("nan"))
        quick_cfg(tau=float("inf"))  # keeps every weight

    def test_grad_clip_must_be_finite_and_positive(self):
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match=f"grad clip must be .*got {bad}"):
                quick_cfg(grad_clip=bad)
        assert quick_cfg(grad_clip=0.5).grad_clip == 0.5

    def test_arch_is_parsed_where_it_enters(self):
        with pytest.raises(FormatError, match="width 4.9 is not an integer"):
            quick_cfg(arch=[6, 4.9, 3])
        with pytest.raises(FormatError, match="'6-x-3'"):
            quick_cfg(arch="6-x-3")
        assert asdict(quick_cfg(arch=(8, 6.0, 3)))["arch"] == [8, 6, 3]  # what session.jsonl records


class TestAdam:
    def test_missing_gradient_leaves_parameter_untouched(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_moves_by_learning_rate_toward_sign(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        p.grad = np.array([3.0, -0.5])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-6)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_bias_correction_keeps_early_steps_full_size(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1e-6])
        Adam([p], lr=0.01).step()
        assert 0.95 * 0.01 <= abs(p.data[0]) <= 0.01

    def test_nonfinite_gradient_raises_with_index(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([0.5])
        b.grad = np.array([np.nan])
        with pytest.raises(TrainingError) as err:
            Adam([a, b], lr=0.01).step()
        assert err.value.param == 1

    def test_a_nan_in_a_later_block_raises_before_that_block_and_later_parameters(self):
        before, nan, after = (Tensor(np.zeros(n), requires_grad=True)
                              for n in (5, 3 * ELEMENT_BLOCK, 2 * ELEMENT_BLOCK))
        for p in (before, nan, after):
            p.grad = np.ones(p.data.size)
        nan.grad[2 * ELEMENT_BLOCK + 3] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient in parameter 1") as err:
            Adam([before, nan, after], lr=0.01).step()
        assert err.value.param == 1
        assert np.all(before.data < 0) and np.all(nan.data[:2 * ELEMENT_BLOCK] < 0)
        assert not nan.data[2 * ELEMENT_BLOCK:].any() and not after.data.any()

    def test_a_step_allocates_less_than_four_blocks_of_bytes(self):
        # the finiteness check reads one block at a time: no whole-gradient bool temporary
        p = Tensor(np.zeros(8 * ELEMENT_BLOCK), requires_grad=True)
        p.grad = np.random.default_rng(0).normal(size=p.data.size)
        opt = Adam([p], lr=0.01)
        _, peak = traced_peak(opt.step)
        assert peak < 4 * ELEMENT_BLOCK
        assert np.all(p.data != 0)

    def test_updates_are_in_place(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        buf = p.data
        p.grad = np.array([1.0, 1.0])
        Adam([p], lr=0.01).step()
        assert p.data is buf

    def test_moments_update_in_place_and_match_the_formula(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(4, 3)),
                  rng.normal(size=3 * ELEMENT_BLOCK + 7),        # three blocks and a tail
                  rng.normal(size=1),
                  np.asfortranarray(rng.normal(size=(5, 7))),
                  rng.normal(size=(7, 5)).T,
                  rng.normal(size=(6, 8))[::2, ::3]]             # neither C nor F order
        params = [Tensor(a, requires_grad=True) for a in arrays]
        assert all(p.data is a for p, a in zip(params, arrays))
        want, textbook = [a.copy() for a in arrays], [a.copy() for a in arrays]
        m, v, ms, vs = ([np.zeros(a.shape) for a in arrays] for _ in range(4))
        opt = Adam(params, lr=0.01)
        moments = opt._m + opt._v
        for t in range(1, 4):
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            scale = np.sqrt((1.0 - 0.999) / c2)
            alpha, eps = 0.01 * (1.0 - 0.9) / (c1 * scale), 1e-8 / scale
            for k, p in enumerate(params):
                g = rng.normal(size=p.data.shape)
                # one gradient in column-major order, as a transposed product gives
                p.grad = np.asfortranarray(g) if k == 0 else g.copy()
                # the scaled moments m / (1 - 0.9) and v / (1 - 0.999), in the step's order
                ms[k] = 0.9 * ms[k] + g
                vs[k] = 0.999 * vs[k] + np.square(g)
                want[k] -= alpha * ms[k] / (np.sqrt(vs[k]) + eps)
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * np.square(g)
                textbook[k] -= 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
            opt.step()
        for p, a, w, tb in zip(params, arrays, want, textbook):
            assert p.data is a
            np.testing.assert_array_equal(p.data, w)
            np.testing.assert_allclose(p.data, tb, rtol=1e-12)
        assert all(x is y for x, y in zip(opt._m + opt._v, moments))

    def test_zero_grad_resets_to_none(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        opt = Adam([p])
        opt.zero_grad()
        assert p.grad is None

    def test_deterministic_trajectory(self):
        def run():
            p = Tensor(np.array([0.7, -0.3]), requires_grad=True)
            opt = Adam([p], lr=0.02)
            for _ in range(50):
                opt.zero_grad()
                ((p + -2.0) * (p + -2.0)).sum().backward()
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestGradientClipping:
    def test_scales_joint_norm_down_to_limit(self):
        a = Tensor(np.array([0.0]), requires_grad=True)
        b = Tensor(np.array([0.0]), requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        _clip_global_norm([a, b], 2.5)
        np.testing.assert_allclose(a.grad, [1.5])
        np.testing.assert_allclose(b.grad, [2.0])

    def test_leaves_small_gradients_alone(self):
        a = Tensor(np.array([0.0]), requires_grad=True)
        a.grad = np.array([0.3, -0.4])
        _clip_global_norm([a], 2.5)
        np.testing.assert_array_equal(a.grad, [0.3, -0.4])

    def test_sums_of_squares_allocate_less_than_half_a_gradient(self):
        a = Tensor(np.zeros(8 * ELEMENT_BLOCK), requires_grad=True)
        a.grad = np.random.default_rng(1).normal(size=a.data.size)
        _, peak = traced_peak(_clip_global_norm, [a], 1.0)
        assert peak < a.grad.nbytes / 2
        np.testing.assert_allclose(np.linalg.norm(a.grad), 1.0, rtol=1e-12)

    def test_skips_missing_gradients(self):
        a = Tensor(np.array([0.0]), requires_grad=True)
        b = Tensor(np.array([0.0]), requires_grad=True)
        a.grad = np.array([6.0, 8.0])
        _clip_global_norm([a, b], 5.0)
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        assert b.grad is None


class TestTrainStudent:
    def test_misaligned_cache_is_rejected(self):
        ds = blob_dataset()
        logits = np.zeros((len(ds) - 1, 3))
        with pytest.raises(ConsistencyError):
            train_student(ds, logits, LossConfig(), quick_cfg())

    @staticmethod
    def refuse_before_the_student_is_built(monkeypatch, cfg, named):
        def built(*args, **kwargs):
            raise AssertionError("the student was built")
        monkeypatch.setattr(optim, "init_student", built)
        with pytest.raises(UsageError, match=named):
            train_student(blob_dataset(), None, cfg, quick_cfg())

    def test_hint_without_cache_is_rejected(self, monkeypatch):
        self.refuse_before_the_student_is_built(monkeypatch, LossConfig(lambda_t=2.0),
                                                "lambda_t 2.0")

    def test_group_norm_without_teacher_weights_is_rejected(self, monkeypatch):
        cfg = LossConfig(lambda_t=0.0, lambda_g=0.01, bsr_variant="l1lq")
        self.refuse_before_the_student_is_built(monkeypatch, cfg, "lambda_g 0.01")

    def test_returned_net_is_live(self):
        # the benchmark's input generator sparsifies this net by writing log_sigma2 in place
        net, _ = train_student(blob_dataset(), None, resolve_variant("simple"), quick_cfg())
        assert all(a.flags.writeable for l in net.layers for a in (l.theta, l.log_sigma2, l.bias))
        x = blob_dataset(n=20, seed=3).images
        before = student_logits(net, x, masks=prune_masks(net, 3.0))
        first, last = net.layers
        gone = np.arange(first.theta.size).reshape(first.shape) % 2 == 0
        first.log_sigma2[...] = np.log(np.square(first.theta)) + np.where(gone, 5.0, -2.0)
        masks = prune_masks(net, 3.0)
        np.testing.assert_array_equal(masks[0], ~gone)
        logits = student_logits(net, x, masks=masks)
        assert not np.array_equal(logits, before)
        h = np.maximum(x @ (first.theta * masks[0]) + first.bias, 0.0)
        np.testing.assert_allclose(logits, h @ (last.theta * masks[1]) + last.bias, rtol=1e-12)

    def test_record_structure(self):
        ds = blob_dataset()
        test = blob_dataset(n=30, seed=1)
        cfg = LossConfig(lambda_t=0.0, kl_variant="svd", warmup_epochs=0)
        net, records = train_student(ds, None, cfg, quick_cfg(epochs=3), test_ds=test)
        assert len(records) == 3
        assert [r["epoch"] for r in records] == [0, 1, 2]
        for r in records:
            for key in ("lambda_v_eff", "ce", "hint", "kl", "bsr", "total",
                        "r_s", "per_layer_sparsity", "test_error_pct"):
                assert key in r
            assert len(r["per_layer_sparsity"]) == 2
        assert len(net.layers) == 2

    def test_no_test_set_means_no_error_column(self):
        ds = blob_dataset()
        _, records = train_student(ds, None, LossConfig(lambda_t=0.0),
                                   quick_cfg(epochs=1))
        assert "test_error_pct" not in records[0]

    def test_loss_decreases_on_separable_data(self):
        ds = blob_dataset(n=120)
        cfg = LossConfig(lambda_t=0.0)
        _, records = train_student(ds, None, cfg, quick_cfg(epochs=8, lr=5e-3))
        assert records[-1]["ce"] < records[0]["ce"]

    def test_session_log_is_byte_identical_across_runs(self, tmp_path):
        ds = blob_dataset()
        logits = np.random.default_rng(3).normal(size=(len(ds), 3))
        cfg = resolve_variant("st-svd", LossConfig(warmup_epochs=2))
        teacher_w = [np.random.default_rng(4).normal(size=(8, 5)),
                     np.random.default_rng(5).normal(size=(5, 3))]
        for d in ("one", "two"):
            train_student(ds, logits, cfg, quick_cfg(), teacher_weights=teacher_w,
                          log_dir=tmp_path / d)
        a = (tmp_path / "one" / "session.jsonl").read_bytes()
        b = (tmp_path / "two" / "session.jsonl").read_bytes()
        assert a == b
        assert (tmp_path / "one" / "timing.jsonl").exists()

    def test_warmup_ramps_effective_weight(self):
        ds = blob_dataset()
        cfg = LossConfig(lambda_t=0.0, kl_variant="vbd", lambda_v_max=0.1,
                         warmup_epochs=4)
        _, records = train_student(ds, None, cfg, quick_cfg(epochs=3))
        assert records[0]["lambda_v_eff"] == 0.0
        assert records[2]["lambda_v_eff"] == pytest.approx(0.05)
        assert records[0]["lambda_v_eff"] < records[2]["lambda_v_eff"]

    def test_named_variant_equals_handbuilt_config(self):
        ds = blob_dataset()
        simple = resolve_variant("simple")
        manual = LossConfig(lambda_t=0.0, kl_variant=None, lambda_g=0.0)
        net_a, _ = train_student(ds, None, simple, quick_cfg())
        net_b, _ = train_student(ds, None, manual, quick_cfg())
        assert student_digest(net_a) == student_digest(net_b)

    def test_teacher_inputs_are_not_mutated(self):
        ds = blob_dataset()
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(len(ds), 3))
        teacher_w = [rng.normal(size=(8, 5)), rng.normal(size=(5, 3))]
        logits_before = logits.copy()
        w_before = [w.copy() for w in teacher_w]
        cfg = resolve_variant("st-vbd", LossConfig(warmup_epochs=1))
        train_student(ds, logits, cfg, quick_cfg(epochs=1), teacher_weights=teacher_w)
        np.testing.assert_array_equal(logits, logits_before)
        for w, before in zip(teacher_w, w_before):
            np.testing.assert_array_equal(w, before)

    @pytest.mark.parametrize("variant", ["kd", "st-svd"])
    def test_float32_pixels_train_the_student_float64_pixels_do(self, tmp_path, variant):
        # load_idx holds byte k as np.float32(k / 255), the value the float32 products cast
        # a float64 k / 255 to: the same student from either
        paths = write_blob_idx(tmp_path, 60, 12, 8, 3, seed=0, rows=2, cols=4)
        ds32 = load_idx(paths["train_images"], paths["train_labels"])
        assert ds32.images.dtype == np.float32
        pixels = np.frombuffer(paths["train_images"].read_bytes(), np.uint8, offset=16)
        ds64 = Dataset(pixels.reshape(60, 8) / 255.0, ds32.labels)
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(60, 3))
        teacher_w = [rng.normal(size=(8, 5)), rng.normal(size=(5, 3))]
        cfg = resolve_variant(variant, LossConfig(warmup_epochs=1))
        nets = [train_student(ds, logits, cfg, quick_cfg(), teacher_weights=teacher_w)[0]
                for ds in (ds32, ds64)]
        assert student_digest(nets[0]) == student_digest(nets[1])

    def test_float32_products_keep_float64_gradients_moments_and_weights(self, monkeypatch):
        # only the noisy layers' matrix products are float32; Adam sees float64 throughout
        seen, step = set(), Adam.step

        def checked(opt):
            seen.update(a.dtype.name for p in opt.params for a in (p.data, p.grad))
            seen.update(m.dtype.name for m in (*opt._m, *opt._v))
            step(opt)
        monkeypatch.setattr(Adam, "step", checked)
        ds = blob_dataset()
        logits = np.random.default_rng(3).normal(size=(len(ds), 3))
        teacher_w = [np.random.default_rng(4).normal(size=(8, 5)),
                     np.random.default_rng(5).normal(size=(5, 3))]
        cfg = resolve_variant("st-svd", LossConfig(warmup_epochs=0))
        nets = [train_student(ds, logits, cfg, quick_cfg(), teacher_weights=teacher_w)[0]
                for _ in range(2)]
        assert seen == {"float64"}
        assert {a.dtype.name for l in nets[0].layers
                for a in (l.theta, l.log_sigma2, l.bias)} == {"float64"}
        assert student_digest(nets[0]) == student_digest(nets[1])

    @pytest.mark.filterwarnings("ignore:every weight was pruned")
    def test_extreme_log_variance_stops_with_a_training_error(self):
        # float32 products overflow a hidden layer's x^2 @ sigma^2 sooner than float64 ones
        # (README "Library"); the divergence check reports it, and no NaN weights come back
        ds = make_blobs(200, 64, 10, seed=3)
        cfg = partial(quick_cfg, arch=[64, 16, 8, 10], batch_size=50)
        for init in (-8.0, 20.0):
            net, _ = train_student(ds, None, resolve_variant("simple"),
                                   cfg(log_sigma2_init=init))
            assert all(np.isfinite(a).all() for l in net.layers
                       for a in (l.theta, l.log_sigma2, l.bias))
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingError, match="loss diverged at epoch 0 step 0"):
            train_student(ds, None, resolve_variant("simple"), cfg(log_sigma2_init=40.0))

    def test_gradient_clipping_changes_trajectory(self):
        ds = blob_dataset()
        cfg = LossConfig(lambda_t=0.0)
        net_a, _ = train_student(ds, None, cfg, quick_cfg(epochs=1))
        net_b, _ = train_student(ds, None, cfg, quick_cfg(epochs=1, grad_clip=1e-3))
        assert student_digest(net_a) != student_digest(net_b)



@pytest.mark.parametrize("train", [
    lambda ds: train_teacher(ds, TeacherConfig(arch=[4, 3, 2], epochs=2, batch_size=16)),
    lambda ds: train_student(ds, None, resolve_variant("kd-vbd", LossConfig(lambda_t=0.0)),
                             quick_cfg(arch=[4, 3, 2], batch_size=16)),
], ids=["teacher", "student"])
def test_non_finite_batch_stops_either_network_at_its_step(train):
    ds = Dataset(np.full((32, 4), np.nan), np.zeros(32, dtype=np.int64))
    with pytest.raises(TrainingError) as err:
        train(ds)
    assert (err.value.epoch, err.value.batch) == (0, 0)


@pytest.mark.parametrize("train", [
    lambda ds, log_dir: train_teacher(ds, TeacherConfig(arch=[4, 3, 2], epochs=1),
                                      log_dir=log_dir),
    lambda ds, log_dir: train_student(ds, None, LossConfig(lambda_t=0.0), quick_cfg(arch=[4, 3, 2]),
                                      log_dir=log_dir),
], ids=["teacher", "student"])
def test_an_empty_training_set_stops_either_network_before_its_first_step(train, tmp_path):
    ds = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    with pytest.raises(DomainError, match="no rows"):
        train(ds, tmp_path / "log")
    assert not (tmp_path / "log").exists()

class TestEvaluateStudent:
    def test_repeat_evaluation_is_identical(self):
        ds = blob_dataset(n=40, seed=2)
        net = init_student([8, 6, 3], seed=0)
        a = evaluate_student(net, ds, tau=3.0)
        b = evaluate_student(net, ds, tau=3.0)
        assert a == b
        assert set(a) == {"test_error_pct", "per_layer_sparsity", "r_s", "tau"}
        assert a["tau"] == 3.0

    def test_error_is_that_of_one_direct_pass(self):
        # 4097 rows span several forward blocks
        ds = make_blobs(4097, 8, 3, seed=4)
        net = init_student([8, 6, 3], seed=1)
        want = top1_error(student_logits(net, ds.images, masks=prune_masks(net, 3.0)), ds.labels)
        assert evaluate_student(net, ds, tau=3.0)["test_error_pct"] == 100.0 * want

    def test_student_forward_stays_float64(self):
        # classes 0 and 1 read the same weights but for a relative 1e-12, which float64
        # products resolve and float32 products round away, tying them (argmax picks 0)
        ds = make_blobs(50, 8, 3, seed=5)
        ds.labels[:] = 1
        net = init_student([8, 6, 3], seed=2)
        last = net.layers[-1]
        last.theta[:, 0] = np.abs(last.theta[:, 0]) + 0.1
        last.theta[:, 1] = last.theta[:, 0] * (1.0 + 1e-12)
        last.theta[:, 2] = -1.0
        last.bias[:] = 0.0
        net.layers[0].bias[:] = 1.0
        masks = prune_masks(net, 3.0)
        h = np.maximum(ds.images @ (net.layers[0].theta * masks[0]) + net.layers[0].bias, 0.0)
        want = h @ (last.theta * masks[1]) + last.bias
        np.testing.assert_array_equal(student_logits(net, ds.images, masks=masks), want)
        assert top1_error(want, ds.labels) == 0.0
        assert evaluate_student(net, ds, tau=3.0)["test_error_pct"] == 0.0

    def test_fully_pruned_network_predicts_first_class(self):
        ds = make_blobs(100, 6, 10, seed=3)
        net = init_student([6, 5, 10], seed=0)
        for layer in net.layers:
            layer.theta[:] = 0.0
            layer.log_sigma2[:] = 0.0
            layer.bias[:] = 0.0
        with pytest.warns(UserWarning):
            scored = evaluate_student(net, ds, tau=3.0)
        assert scored["test_error_pct"] == pytest.approx(90.0)
        assert np.isinf(scored["r_s"])
        assert scored["per_layer_sparsity"] == [100.0, 100.0]

    def test_nan_tau_is_refused(self):
        net = init_student([8, 6, 3], seed=0)
        for ds in (blob_dataset(), None):
            with pytest.raises(UsageError, match="got nan"):
                evaluate_student(net, ds, tau=float("nan"))

    def test_no_dataset_compacts_nothing(self, monkeypatch):
        def refuse(net, masks):
            raise AssertionError("compacted without rows to score")

        monkeypatch.setattr(optim, "compact", refuse)
        scored = evaluate_student(init_student([8, 6, 3], seed=0), None, tau=3.0)
        assert "test_error_pct" not in scored


class TestReportStudent:
    TAU = 0.0

    @staticmethod
    def case():
        # log-variances spread around log theta^2, so tau 0 prunes a share of the weights
        net = init_student([8, 6, 3], seed=1)
        rng = np.random.default_rng(3)
        for layer in net.layers:
            layer.log_sigma2 = np.log(np.square(layer.theta)) + rng.normal(0.0, 2.0, layer.shape)
        return net, make_blobs(200, 8, 3, seed=5)

    def test_teacher_is_the_byte_and_parameter_baseline(self):
        net, ds = self.case()
        teacher = init_mlp([8, 20, 3], seed=0)
        report = report_student(net, self.TAU, ds, teacher=teacher)
        masks = prune_masks(net, self.TAU)
        biases = [l.bias for l in net.layers]
        stored = footprint(masks, biases)["stored_bytes"]
        assert 0 < sum(m.sum() for m in masks) < sum(m.size for m in masks)
        assert report.dense_bytes == 4 * count_parameters(teacher)
        assert report.csr_bytes == stored
        assert report.footprint_compression == report.dense_bytes / stored
        assert report.r_c == compression_ratio(count_parameters(teacher),
                                               remaining_parameters(masks, biases))
        assert report.config == {"compression_baseline": "teacher"}

    def test_without_teacher_the_unpruned_student_is_the_baseline(self):
        net, ds = self.case()
        report = report_student(net, self.TAU, ds)
        assert report.dense_bytes == 4 * count_parameters(net.arch)
        assert report.config == {"compression_baseline": "self"}
        assert report.network == "8-6-3" and report.inference_ms is None

    @pytest.mark.parametrize("tau", [-1.0, 0.0, 3.0, 1e9])
    def test_scores_equal_evaluate_student(self, tau):
        net, ds = self.case()
        report = report_student(net, tau, ds)
        scored = evaluate_student(net, ds, tau)
        assert report.test_error_pct == scored["test_error_pct"]
        assert report.r_s == scored["r_s"]
        assert report.per_layer_sparsity == scored["per_layer_sparsity"]

    def test_timed_batch_is_recorded_in_config(self):
        net, ds = self.case()
        given = {"tau": self.TAU}
        report = report_student(net, self.TAU, ds, config=given, timed_batch=16)
        assert list(report.config.items()) == [("tau", self.TAU), ("batch", 16),
                                               ("compression_baseline", "self")]
        assert given == {"tau": self.TAU}
        assert report.inference_ms > 0.0

    def test_timed_batch_outside_the_test_rows(self):
        net, ds = self.case()
        for batch, named in ((0, "batch size must be >= 1, got 0"), (201, "batch size 201 .* 200 rows")):
            with pytest.raises(UsageError, match=named):
                report_student(net, self.TAU, ds, timed_batch=batch)

    def test_error_and_timing_share_one_compaction(self, monkeypatch):
        net, ds = self.case()
        calls = []

        def counted(*args):
            calls.append(args)
            return compact(*args)

        monkeypatch.setattr(optim, "compact", counted)
        report_student(net, self.TAU, ds, timed_batch=16)
        assert len(calls) == 1


class TestLowdataSweep:
    def make_inputs(self):
        train = blob_dataset(n=90, seed=4)
        test = blob_dataset(n=30, seed=5)
        logits = np.random.default_rng(7).normal(size=(len(train), 3)) * 2
        loss_cfg = LossConfig(lambda_t=2.0, warmup_epochs=0)
        cfg = quick_cfg(epochs=1)
        return train, test, logits, loss_cfg, cfg

    def test_row_grid_covers_sizes_seeds_and_both_hints(self):
        train, test, logits, loss_cfg, cfg = self.make_inputs()
        rows = lowdata_sweep(train, test, logits, loss_cfg, cfg,
                             sizes=[30, 45], seeds=[0, 1])
        assert len(rows) == 2 * 2 * 2
        combos = {(r["size"], r["seed"], r["hint"]) for r in rows}
        assert combos == {(s, sd, h) for s in (30, 45) for sd in (0, 1)
                          for h in (True, False)}
        for r in rows:
            assert set(r) == {"size", "seed", "hint", "test_error_pct", "r_s"}

    def test_repeated_size_or_seed_is_refused(self):
        train, test, logits, loss_cfg, cfg = self.make_inputs()
        for sizes, seeds, named in (([30, 30], [0], r"size list \[30, 30\] repeats a size"),
                                    ([30], [1, 0, 1], r"seed list \[1, 0, 1\] repeats a seed")):
            with pytest.raises(UsageError, match=named):
                lowdata_sweep(train, test, logits, loss_cfg, cfg, sizes=sizes, seeds=seeds)

    def test_hint_off_rows_match_manual_zeroed_hint(self):
        train, test, logits, loss_cfg, cfg = self.make_inputs()
        rows = lowdata_sweep(train, test, logits, loss_cfg, cfg,
                             sizes=[30], seeds=[1])
        off_row = next(r for r in rows if not r["hint"])
        idx = subset_indices(train, 30, 1)
        sub = train.take(idx)
        manual_cfg = StudentTrainConfig(**{**asdict(cfg), "seed": 1})
        net, _ = train_student(sub, logits[idx], replace(loss_cfg, lambda_t=0.0),
                               manual_cfg)
        scored = evaluate_student(net, test, cfg.tau)
        assert off_row["test_error_pct"] == scored["test_error_pct"]
        assert off_row["r_s"] == scored["r_s"]

    def test_hint_off_arm_is_teacher_free(self, monkeypatch):
        train, test, logits, _, cfg = self.make_inputs()
        loss_cfg = resolve_variant("st-svd", LossConfig(warmup_epochs=0))
        calls = []

        def recorded(ds, teacher_logits, lcfg, run_cfg, **kwargs):
            net, records = train_student(ds, teacher_logits, lcfg, run_cfg, **kwargs)
            calls.append((teacher_logits, kwargs["teacher_weights"], records))
            return net, records

        monkeypatch.setattr(optim, "train_student", recorded)
        rows = lowdata_sweep(train, test, logits, loss_cfg, cfg, sizes=[30], seeds=[1],
                             teacher_weights=init_mlp([8, 10, 3], seed=3).weights)
        (_, _, on_records), (off_logits, off_weights, off_records) = calls
        assert all(r["bsr"] > 0 for r in on_records)
        assert off_logits is None and off_weights is None
        assert all(r["bsr"] == 0.0 and r["hint"] == 0.0 for r in off_records)
        idx = subset_indices(train, 30, 1)
        manual_cfg = StudentTrainConfig(**{**asdict(cfg), "seed": 1})
        net, manual = train_student(train.take(idx), None,
                                    replace(loss_cfg, lambda_t=0.0, lambda_g=0.0), manual_cfg)
        assert off_records == manual
        off_row = next(r for r in rows if not r["hint"])
        assert off_row["r_s"] == evaluate_student(net, test, cfg.tau)["r_s"]


class TestSummarizeSweep:
    def test_population_statistics(self):
        rows = [{"size": 100, "hint": True, "test_error_pct": 2.0, "r_s": 1.0, "seed": 0},
                {"size": 100, "hint": True, "test_error_pct": 4.0, "r_s": 1.0, "seed": 1}]
        out = summarize_sweep(rows)
        assert len(out) == 1
        assert out[0]["mean_test_error_pct"] == pytest.approx(3.0)
        assert out[0]["std_test_error_pct"] == pytest.approx(1.0)
        assert out[0]["n"] == 2

    def test_mean_r_s_per_group(self):
        rows = [{"size": 100, "hint": False, "test_error_pct": 2.0, "r_s": r_s, "seed": seed}
                for seed, r_s in enumerate((2.0, 4.0))]
        assert summarize_sweep(rows)[0]["mean_r_s"] == pytest.approx(3.0)

    def test_groups_sorted_by_size_then_hint(self):
        rows = []
        for size in (1000, 100):
            for hint in (True, False):
                rows.append({"size": size, "hint": hint, "seed": 0,
                             "test_error_pct": 5.0, "r_s": 1.0})
        out = summarize_sweep(rows)
        assert [(g["size"], g["hint"]) for g in out] == [
            (100, False), (100, True), (1000, False), (1000, True)]
